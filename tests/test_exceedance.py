import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from scipy import stats

from wmwdesign import (
    Design,
    ExceedanceSummary,
    PowerQuery,
    QuadratureAccuracyError,
    chi_square,
    check_identities,
    exponential,
    log_normal,
    normal,
    prob_x_ge_y,
    second_moment_integrals,
    student_t,
    wmw_power,
)
from wmwdesign import distributions, exceedance
from wmwdesign.scenarios import SCENARIOS
from scipy_oracle import frozen


def normal_exceedance_oracle(mu1, sd1, mu2, sd2):
    """P(X >= Y) for independent normals: Phi((mu1-mu2)/sqrt(sd1^2+sd2^2))."""
    return stats.norm.cdf((mu1 - mu2) / math.hypot(sd1, sd2))


def test_identical_distributions_give_half():
    assert prob_x_ge_y(normal(0, 1), normal(0, 1)) == pytest.approx(0.5, abs=1e-9)


def test_two_normals_closed_form():
    p = prob_x_ge_y(normal(0.75, 1), normal(0, 1))
    assert p == pytest.approx(normal_exceedance_oracle(0.75, 1, 0, 1), abs=1e-8)


def test_two_exponentials_closed_form():
    # P(X >= Y) = rate_y / (rate_x + rate_y) for independent exponentials
    p = prob_x_ge_y(exponential(0.25), exponential(0.75))
    assert p == pytest.approx(0.75, abs=1e-8)


@pytest.mark.parametrize(
    "F,G",
    [
        (normal(0, 1), normal(0, 1)),
        (exponential(0.5), exponential(0.5)),
        (chi_square(5), chi_square(5)),
        (log_normal(0, 1), log_normal(0, 1)),
    ],
    ids=["normal", "exponential", "chisquare", "lognormal"],
)
def test_second_moment_integrals_equal_one_third_under_null(F, G):
    s = second_moment_integrals(F, G)
    assert s.p_x_ge_y == pytest.approx(0.5, abs=1e-8)
    assert s.int_g2_f == pytest.approx(1 / 3, abs=1e-8)
    assert s.int_1mf2_g == pytest.approx(1 / 3, abs=1e-8)


def test_symmetric_shift_pair_integrals_coincide():
    s = second_moment_integrals(normal(0.75, 1), normal(0, 1))
    assert s.int_g2_f == pytest.approx(s.int_1mf2_g, abs=1e-8)
    s = second_moment_integrals(student_t(4, 1.5, 2), student_t(4, 0, 2))
    assert s.int_g2_f == pytest.approx(s.int_1mf2_g, abs=1e-8)


def test_g_squared_bounded_by_exceedance():
    for F, G in [
        (normal(0.75, 2), normal(0, 1)),
        (exponential(0.25), exponential(0.75)),
        (log_normal(0, 1), chi_square(3)),
    ]:
        s = second_moment_integrals(F, G)
        assert s.int_g2_f <= s.p_x_ge_y + 1e-10


@pytest.mark.parametrize(
    "F,G",
    [
        (normal(0.75, 2), normal(0, 1)),
        (exponential(0.25), exponential(0.75)),
        (chi_square(5, shift=1.5), chi_square(5)),
        (student_t(3, 17, 2.8), chi_square(14)),
    ],
)
def test_complement_law(F, G):
    assert prob_x_ge_y(F, G) + prob_x_ge_y(G, F) == pytest.approx(1.0, abs=1e-8)


def test_shifted_chi_square_below_df_2_converges_both_ways_round():
    # the weight's density is infinite at the lower end of its domain, -0.5;
    # as breakpoints, its lowest guide quantiles pull QAGP onto nodes that round to it
    F, G = exponential(1.0), chi_square(0.8, shift=-0.5)
    fg = second_moment_integrals.__wrapped__(F, G)
    gf = second_moment_integrals.__wrapped__(G, F)
    assert max(fg.quadrature_error_bound, gf.quadrature_error_bound) <= exceedance.RESULT_TOL
    assert fg.p_x_ge_y == pytest.approx(1.0 - gf.p_x_ge_y, abs=1e-9)
    # int (1 - F)^2 g = 1 - 2 int F g + int F^2 g, with int F g = P(Y >= X)
    assert fg.int_1mf2_g == pytest.approx(1.0 - 2.0 * gf.p_x_ge_y + gf.int_g2_f, abs=1e-9)


@pytest.mark.parametrize("df", [0.3, 0.5, 0.7, 1.0, 1.5, 3.0, 14.0])
@pytest.mark.parametrize("rate", [0.1, 0.75, 5.0])
def test_exponential_vs_chi_square_closed_forms(rate, df):
    # P(X >= Y) = E exp(-rate Y) and int (1 - F)^2 g = E exp(-2 rate Y), the
    # chi-square moment generating function at -rate and -2 rate; below
    # df = 2 the weight's density is infinite at the support edge 0
    F, G = exponential(rate), chi_square(df)
    s = second_moment_integrals(F, G)
    assert s.p_x_ge_y == pytest.approx((1.0 + 2.0 * rate) ** (-df / 2.0), abs=1e-11)
    assert s.int_1mf2_g == pytest.approx((1.0 + 4.0 * rate) ** (-df / 2.0), abs=1e-11)
    report = check_identities(F, G)
    assert report.complement_residual <= 1e-11
    assert report.nested_residual <= 1e-11


@pytest.mark.parametrize("df", [0.3, 0.5, 1.0, 1.5])
def test_chi_square_below_df_2_vs_normal_against_substituted_oracle(df):
    # independent oracle: u = x^(df/2) removes the chi-square density's
    # singularity at 0, leaving smooth integrands on (0, inf)
    from scipy import integrate, special

    scale = (2.0 / df) / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))

    def oracle(power):
        def integrand(u):
            x = u ** (2.0 / df)
            return special.ndtr(x) ** power * math.exp(-x / 2.0) * scale
        return integrate.quad(integrand, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13,
                              limit=200)[0]

    s = second_moment_integrals(chi_square(df), normal(0.0, 1.0))
    assert s.p_x_ge_y == pytest.approx(oracle(1), abs=1e-11)
    assert s.int_g2_f == pytest.approx(oracle(2), abs=1e-11)


def test_shift_monotonicity():
    G = normal(0, 1)
    probs = [prob_x_ge_y(normal(0, 1, shift=a), G) for a in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_quadrature_matches_monte_carlo():
    F, G = log_normal(0, 1), exponential(0.75)
    rng = np.random.default_rng(2024)
    k = 10**6
    x = F.sample(rng, k)
    y = G.sample(rng, k)
    frac = float((x >= y).mean())
    se = math.sqrt(frac * (1 - frac) / k)
    assert abs(prob_x_ge_y(F, G) - frac) < 4 * se


def test_identities_hold_exactly_under_null():
    report = check_identities(exponential(1), exponential(1))
    assert report.complement_residual < 1e-8
    assert report.nested_residual < 1e-8


@pytest.mark.parametrize(
    "F,G",
    [
        (normal(0.75, 2), normal(0, 1)),
        (chi_square(14), student_t(3, 17, 2.8)),
        (log_normal(0, 1), exponential(0.75)),
    ],
    ids=["normals", "chisq-vs-t", "lognormal-vs-exp"],
)
def test_identities_hold_for_heterogeneous_pairs(F, G):
    report = check_identities(F, G)
    assert report.complement_residual < 1e-7
    assert report.nested_residual < 1e-7


def test_nested_identity_against_direct_nested_quadrature():
    # independent oracle for the nested right-hand side: raw double
    # quadrature in x-space, no quantile substitution
    from scipy import integrate

    F, G = log_normal(0, 1), exponential(0.75)
    lo, hi = F.quantile(1e-12), F.quantile(1 - 1e-12)

    def rhs_term(x):
        inner, _ = integrate.quad(
            lambda y: G.cdf(y) * F.pdf(y), lo, x, epsabs=1e-11, limit=200
        )
        return (inner + G.cdf(x) * (1 - F.cdf(x))) * F.pdf(x)

    rhs, _ = integrate.quad(rhs_term, lo, hi, epsabs=1e-9, limit=200)
    s = second_moment_integrals(F, G)
    assert s.int_1mf2_g == pytest.approx(rhs, abs=1e-7)


def fail_every_bound(monkeypatch) -> list:
    """Report 1e-6 as every integral's bound, at the first-pass exit and after
    QUADPACK alike; returns the list of QUADPACK calls made from then on."""
    integrate, quad, quad_calls = exceedance._integrate, exceedance._quad, []
    monkeypatch.setattr(exceedance, "_integrate",
                        lambda *integrals: [(result, 1e-6) for result, _ in integrate(*integrals)])
    monkeypatch.setattr(exceedance, "_quad",
                        lambda *args, **kwargs: quad_calls.append(args[1:]) or quad(*args, **kwargs))
    return quad_calls


def test_unconverged_integrals_raise(monkeypatch):
    # a pair no other test uses, so no cached result hides the failure
    F, G = normal(0.4321, 1.3), normal(0.0, 0.7)
    calls = fail_every_bound(monkeypatch)
    with pytest.raises(QuadratureAccuracyError) as exc:
        second_moment_integrals(F, G)
    assert exc.value.achieved_bound == 1e-6
    assert calls == []  # all three take the first-pass exit
    with pytest.raises(QuadratureAccuracyError):
        prob_x_ge_y(F, G)
    with pytest.raises(QuadratureAccuracyError):
        wmw_power(PowerQuery(F, G, Design(20, 20)))


def test_unconverged_integrals_raise_after_quadpack(monkeypatch):
    # a pair no other test uses, two of whose integrals reach QUADPACK
    F, G = student_t(3.0, 0.4321, 1.3), normal(0.0, 0.7)
    calls = fail_every_bound(monkeypatch)
    with pytest.raises(QuadratureAccuracyError) as exc:
        second_moment_integrals(F, G)
    assert exc.value.achieved_bound == 1e-6
    assert len(calls) == 2


def test_unconverged_identity_integrals_raise():
    # the summary converges (its integrands vanish on the chi-square's
    # domain), but int F^2 g over the singular edge reaches only 8.5e-8: no
    # residual may rest on it
    F, G = normal(0.0, 0.05), chi_square(0.5, shift=1.0)
    assert second_moment_integrals(F, G).quadrature_error_bound <= exceedance.RESULT_TOL
    with pytest.raises(QuadratureAccuracyError, match="identity integrals") as exc:
        check_identities(F, G)
    assert exc.value.achieved_bound > exceedance.RESULT_TOL


def test_unconverged_identity_integrals_raise_after_a_converged_summary(monkeypatch):
    # a pair no other test uses; its summary is cached before the patch, so
    # only the identity integrals see the failing bound
    F, G = normal(0.1234, 1.1), normal(0.0, 0.9)
    second_moment_integrals(F, G)
    calls = fail_every_bound(monkeypatch)
    with pytest.raises(QuadratureAccuracyError) as exc:
        check_identities(F, G)
    assert exc.value.achieved_bound == 1e-6
    assert calls == []  # both take the first-pass exit


def _scipy_stats_methods(monkeypatch):
    """Evaluate DistributionSpec through frozen scipy.stats objects, the oracle."""

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError("quantile requires 0 < p < 1")
        return frozen(self).ppf(p) + self.shift

    def support(self):
        lo, hi = frozen(self).support()
        return lo + self.shift, hi + self.shift

    spec = distributions.DistributionSpec
    monkeypatch.setattr(spec, "pdf", lambda self, x: frozen(self).pdf(
        np.asarray(x, dtype=float) - self.shift))
    monkeypatch.setattr(spec, "cdf", lambda self, x: frozen(self).cdf(
        np.asarray(x, dtype=float) - self.shift))
    monkeypatch.setattr(spec, "quantile", quantile)
    monkeypatch.setattr(spec, "support", support)


def _array_methods(monkeypatch):
    """Evaluate one point through the array kernels, as a one-element array."""
    spec = distributions.DistributionSpec
    pdf, cdf = spec.pdf, spec.cdf
    monkeypatch.setattr(spec, "pdf", lambda self, x: pdf(self, np.array([x]))[0])
    monkeypatch.setattr(spec, "cdf", lambda self, x: cdf(self, np.array([x]))[0])


def _reference_integrals(F, G):
    """The per-integral x-space path: the oracle of the pair-bound one.

    Each integral finds its weight's domain and both specs' breakpoints from
    fresh quantiles and evaluates every point through the DistributionSpec
    methods.  Returns the summary and int F^2 g, the integral behind
    check_identities' complement residual.
    """
    def domain(weight):
        return weight.quantile(exceedance._TAIL), weight.quantile(1 - exceedance._TAIL)

    def breakpoints(weight, lo, hi):
        # a weight whose density is infinite at its support's lower edge
        # leaves out its own three lowest guide quantiles
        near_edge = ([weight.quantile(level) for level in exceedance._GUIDE_LEVELS[:3]]
                     if math.isinf(weight.pdf(weight.support()[0])) else [])
        pts = set()
        for spec in (F, G):
            for edge in spec.support():
                if lo < edge < hi and edge not in near_edge:
                    pts.add(edge)
            for level in exceedance._GUIDE_LEVELS:
                q = spec.quantile(level)
                if lo < q < hi and q not in near_edge:
                    pts.add(q)
        return sorted(pts) or None

    def weighted_quad(integrand, weight):
        lo, hi = domain(weight)
        return exceedance._quad(integrand, lo, hi, points=breakpoints(weight, lo, hi))

    p, e1 = weighted_quad(lambda x: G.cdf(x) * F.pdf(x), F)
    i1, e2 = weighted_quad(lambda x: G.cdf(x) ** 2 * F.pdf(x), F)
    i2, e3 = weighted_quad(lambda x: (1.0 - F.cdf(x)) ** 2 * G.pdf(x), G)
    f2g, _ = weighted_quad(lambda x: F.cdf(x) ** 2 * G.pdf(x), G)
    clip = [min(1.0, max(0.0, x)) for x in (p, i1, i2)]
    return ExceedanceSummary(*clip, max(e1, e2, e3)), f2g


def _pair_id(pair):
    return " vs ".join(f"{s.family}{tuple(v for _, v in s.params)}+{s.shift}" for s in pair)


KERNEL_PAIRS = [
    (normal(0.75, 2.0), normal(0.0, 1.0)),
    (normal(0.75, 1.0 / 3.0), normal(0.0, 1.0)),
    (student_t(3.0, 17.0, 2.8), chi_square(14.0)),
    (log_normal(0.0, 1.0), exponential(0.75)),
    (exponential(1.0, shift=0.5), exponential(1.0)),  # kink at the shifted origin
    (chi_square(5.0, shift=1.5), chi_square(5.0)),
]


def test_integrals_bitwise_equal_to_scipy_stats_path(monkeypatch):
    # the kernels keep the quadrature nodes and every integrand value, so
    # all four fields of the summary must be equal, not merely close
    kernels = [second_moment_integrals.__wrapped__(F, G) for F, G in KERNEL_PAIRS]
    with monkeypatch.context() as patch:
        _scipy_stats_methods(patch)
        reference = [_reference_integrals(F, G)[0] for F, G in KERNEL_PAIRS]
    for got, want in zip(kernels, reference):
        assert got == want  # all four fields


FAMILY_SPECS = [
    normal(0.3, 1.4),
    exponential(0.8),
    log_normal(0.2, 0.6),
    chi_square(6.0),
    student_t(5.0, 1.0, 1.5),
]


def _cold_style_pairs(count):
    """Pairs built as the design_cold benchmark builds them: G from a family,
    F shifted, redrawn from G's family and shifted, or from another family."""
    rng = random.Random(8)
    families = [
        lambda: normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)),
        lambda: exponential(rng.uniform(0.25, 2.0)),
        lambda: log_normal(rng.uniform(-0.5, 1.0), rng.uniform(0.3, 1.0)),
        lambda: chi_square(rng.uniform(2.0, 15.0)),
        lambda: student_t(rng.uniform(3.0, 20.0), rng.uniform(-2.0, 5.0), rng.uniform(0.5, 3.0)),
    ]
    pairs = []
    for i in range(count):
        G = families[i % 5]()
        if i % 3 == 0:
            F = G
        elif i % 3 == 1:
            F = families[i % 5]()
        else:
            F = families[(i + 1 + i // 5 % 4) % 5]()
        pairs.append((F.with_shift(F.shift + rng.uniform(0.2, 2.0)), G))
    return pairs


ORACLE_PAIRS = (
    KERNEL_PAIRS
    # every family against every other, unshifted
    + [(F, G) for F in FAMILY_SPECS for G in FAMILY_SPECS if F != G]
    # every family against itself shifted, both ways round
    + [(F.with_shift(0.7), F) for F in FAMILY_SPECS]
    + [(F.with_shift(-1.1), F.with_shift(0.4)) for F in FAMILY_SPECS]
    + [
        # support-edge kinks of shifted exponentials
        (exponential(0.7, shift=-1.2), exponential(2.0, shift=0.3)),
        (normal(0.5, 0.8), exponential(1.5, shift=0.2)),
        (exponential(1.1, shift=-0.6), log_normal(0.0, 0.5)),
        # chi-square below df = 2, whose density is infinite at its edge
        (chi_square(0.5), chi_square(1.5, shift=0.2)),
        (chi_square(1.0), normal(1.0, 1.0)),
        (chi_square(0.8, shift=-0.5), exponential(1.0)),
        # heavy tails against a narrow density
        (student_t(3.0), normal(0.0, 0.05)),
        (normal(0.02, 0.05), student_t(3.0)),
        (student_t(3.0, 2.0, 0.5), normal(2.1, 0.01)),
    ]
    + _cold_style_pairs(24)
)


@pytest.mark.parametrize("F,G", ORACLE_PAIRS, ids=[_pair_id(p) for p in ORACLE_PAIRS])
def test_pair_bound_integrals_equal_the_per_integral_path(monkeypatch, F, G):
    # binding each pair's scalar functions once and sharing its 26 quantiles
    # must not move a node or a digit
    got = second_moment_integrals.__wrapped__(F, G)
    with monkeypatch.context() as patch:
        _array_methods(patch)
        want, _ = _reference_integrals(F, G)
    assert got == want  # all four fields


# residuals pinned bit for bit: a moved node, breakpoint or kernel value changes them
IDENTITY_RESIDUALS = [
    (normal(0.75, 2), normal(0, 1), 1.998845533535132e-12, 9.99866855977416e-13),
    (chi_square(14), student_t(3, 17, 2.8), 2.008559985000602e-12, 9.909295606291835e-13),
    (log_normal(0, 1), exponential(0.75), 2.0005108680720696e-12, 9.989231664064846e-13),
    (exponential(1.0, shift=0.5), exponential(1.0), 2.7863267249017554e-12,
     2.1305179842556754e-13),
    (chi_square(0.5), chi_square(1.5, shift=0.2), 2.9953053926057294e-12,
     3.0600522116230877e-15),
]


@pytest.mark.parametrize("F,G,complement,nested", IDENTITY_RESIDUALS,
                         ids=[_pair_id(r[:2]) for r in IDENTITY_RESIDUALS])
def test_identity_residuals_unchanged(monkeypatch, F, G, complement, nested):
    report = check_identities(F, G)
    assert report.complement_residual == complement
    assert report.nested_residual == nested
    with monkeypatch.context() as patch:
        _array_methods(patch)
        s, f2g = _reference_integrals(F, G)
    assert report.complement_residual == abs(s.int_1mf2_g - (2.0 * s.p_x_ge_y - 1.0 + f2g))


@pytest.mark.xfail(strict=True, reason="both weights have a singular edge at 0: the x-space "
                   "quadrature reports a bound of 3.3e-11 on integrals off by 2.6e-4")
def test_chi_square_pair_with_two_singular_edges_meets_its_identities():
    # the reported bound holds the summary to RESULT_TOL, so the identities'
    # residuals must be of that order too; they are 2.58e-4
    report = check_identities(chi_square(0.5), chi_square(0.3))
    assert report.summary.quadrature_error_bound <= exceedance.RESULT_TOL
    assert report.complement_residual <= 3 * exceedance.RESULT_TOL
    assert report.nested_residual <= 3 * exceedance.RESULT_TOL


@pytest.mark.parametrize("df", [
    pytest.param(0.05, marks=pytest.mark.xfail(
        strict=True, reason="F's domain spans 150 decades: p is 0.199 under a bound of 5.9e-12")),
    pytest.param(0.2, marks=pytest.mark.xfail(
        strict=True, reason="F's domain spans 150 decades: p is 0.4990 under a bound of 5.3e-12")),
])
def test_student_t_with_a_tiny_df_is_symmetric_about_its_partner_or_raises(df):
    # both are symmetric about 0, so P(X >= Y) is 1/2 exactly; the x-space
    # quadrature cannot resolve mass spread over +-1.5e153 (df 0.1 raises)
    try:
        s = second_moment_integrals(student_t(df, 0, 1), normal(0, 1))
    except QuadratureAccuracyError:
        return
    assert abs(s.p_x_ge_y - 0.5) <= exceedance.RESULT_TOL


def test_cold_pair_makes_two_quantile_calls_of_13_levels(monkeypatch):
    # two domain ends and eleven guide quantiles per spec, in one array call
    # each for all three integrals (the per-integral path made 72 calls)
    calls = []
    spec = distributions.DistributionSpec
    quantile = spec.quantile
    monkeypatch.setattr(spec, "quantile",
                        lambda self, p: calls.append((self, tuple(p))) or quantile(self, p))
    F, G = student_t(3.7, 0.5, 1.2), exponential(0.9, shift=-0.4)
    second_moment_integrals.__wrapped__(F, G)
    assert [spec for spec, _ in calls] == [F, G]
    for _, levels in calls:
        assert len(set(levels)) == 13
        assert levels == tuple(sorted(levels))


def test_cold_integrals_and_sampling_create_no_frozen_scipy_object(monkeypatch):
    # each frozen scipy.stats object leaves memory resident, so neither the
    # quadrature nor the sampling path may build one; specs no other test uses
    def refuse(self, *args, **kwargs):
        raise AssertionError("a frozen scipy.stats object was created")

    monkeypatch.setattr(type(stats.norm()), "__init__", refuse)
    F, G = student_t(4.25, 0.1234, 1.7), log_normal(0.0987, 0.6)
    second_moment_integrals(F, G)
    rng = np.random.default_rng(0)
    for spec in (F, G, normal(0.0321, 1.9), exponential(0.613), chi_square(3.37)):
        spec.sample(rng, (4, 3))


def test_cold_integrals_leave_the_warning_filters_and_registries_alone():
    # QUADPACK's status comes from full_output, so a cold pair neither
    # rewrites the process's filter list nor invalidates the registry that
    # shows a "default"-action warning once per line
    second_moment_integrals.__wrapped__(normal(0.111, 1.0), normal(0.0, 1.0))  # imports done
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        filters = list(warnings.filters)
        for shift in (0.211, 0.311, 0.411):
            warnings.warn("one line, shown once", UserWarning)
            second_moment_integrals.__wrapped__(normal(shift, 1.3), normal(0.0, 1.0))
        assert warnings.filters == filters
    assert [str(w.message) for w in caught] == ["one line, shown once"]


# Each pair's first domain holds few floats.  Without the domain check the
# quadrature answered under bounds <= 1e-10 with P(X >= Y) = 1.0 (closed form
# Phi(1) = 0.841), 0.0 (0.9987), 1.0 (0.691), 0.0 (1; optimal_design at N = 50
# then picked 45/5 with power 0.050) and a value 3.1e-8 off
NARROW_PAIRS = [
    (normal(1e9, 1e-8), normal(1e9 - 1.0, 1.0)),
    (normal(3.0, 1e-17), normal(0.0, 1.0)),
    (log_normal(0.0, 1e-17), log_normal(-0.5, 1.0)),
    (normal(1e300, 1.0), normal(0.0, 1.0)),
    (normal(1e3, 1e-6), normal(999.0, 1.0)),
]


@pytest.mark.parametrize("pair", NARROW_PAIRS, ids=_pair_id)
def test_a_weight_too_narrow_for_its_location_raises(pair):
    for integrals in (second_moment_integrals, check_identities):
        with pytest.raises(QuadratureAccuracyError, match="too narrow for its location"):
            integrals(*pair)


@pytest.mark.parametrize("mu", [1.0, 37.0, 1e3, 1e6, 1e9, 1e12])
def test_narrow_normals_raise_or_meet_the_closed_form(mu):
    # normal(mu, s) vs normal(mu - 1.3 s, 0.9 s) with s = mu 10^-k: P(X >= Y)
    # is Phi(1.3 / sqrt(1.81)) at every mu and s, and the domain of F holds
    # about 6e11 floats at k = 5, 6e6 at k = 10
    exact = normal_exceedance_oracle(1.3, 1.0, 0.0, 0.9)
    outcomes = []
    for k in (5.0 + i / 4.0 for i in range(21)):
        s = mu * 10.0 ** -k
        try:
            p = second_moment_integrals(normal(mu, s), normal(mu - 1.3 * s, 0.9 * s)).p_x_ge_y
        except QuadratureAccuracyError:
            outcomes.append("raised")
            continue
        assert abs(p - exact) <= exceedance.RESULT_TOL, (k, p)
        outcomes.append("met")
    assert outcomes[0] == "met" and outcomes[-4:] == ["raised"] * 4


def _pointwise_integrals(F, G):
    """second_moment_integrals as it was before its first pass was tabulated:
    three ``_quad`` calls on integrands that call the scalar kernels at every
    node.  The oracle of the tabulated path, bit for bit."""
    f_pdf, f_cdf = distributions.kernel(F)[:2]
    g_pdf, g_cdf = distributions.kernel(G)[:2]
    over_f, over_g = exceedance._domains(F, G)
    p, e1 = exceedance._quad(lambda x: g_cdf(x) * f_pdf(x), *over_f)
    i1, e2 = exceedance._quad(lambda x: g_cdf(x) ** 2 * f_pdf(x), *over_f)
    i2, e3 = exceedance._quad(lambda x: (1.0 - f_cdf(x)) ** 2 * g_pdf(x), *over_g)
    bound = max(e1, e2, e3)
    if bound > exceedance.RESULT_TOL:
        raise QuadratureAccuracyError("exceedance integrals did not converge", bound)
    return ExceedanceSummary(*(min(1.0, max(0.0, x)) for x in (p, i1, i2)), bound)


def _pointwise_residuals(F, G):
    """check_identities' two residuals from the scalar kernels at every node."""
    s = _pointwise_integrals(F, G)
    f_pdf, f_cdf = distributions.kernel(F)[:2]
    g_pdf, g_cdf = distributions.kernel(G)[:2]
    over_f, over_g = exceedance._domains(F, G)
    f2g, e1 = exceedance._quad(lambda x: f_cdf(x) ** 2 * g_pdf(x), *over_g)
    g_1mf_f, e2 = exceedance._quad(lambda x: g_cdf(x) * (1.0 - f_cdf(x)) * f_pdf(x), *over_f)
    bound = max(e1, e2)
    if bound > exceedance.RESULT_TOL:
        raise QuadratureAccuracyError("identity integrals did not converge", bound)
    return (abs(s.int_1mf2_g - (2.0 * s.p_x_ge_y - 1.0 + f2g)),
            abs(s.int_1mf2_g - 2.0 * g_1mf_f))


def _bits(fn, *args):
    """fn(*args)'s float fields as hex strings, or the achieved bound it raised with."""
    try:
        result = fn(*args)
    except QuadratureAccuracyError as exc:
        return "raised", float(exc.achieved_bound).hex()
    fields = result if isinstance(result, tuple) else dataclasses.astuple(result)
    return tuple(float(x).hex() for x in fields)


CATALOGUE_PAIRS = list(dict.fromkeys((s.F, s.G) for group in SCENARIOS.values()
                                     for s in group))

# chi-square weights whose density is infinite at the support edge, both ways round
CHI_SQUARE_EDGE_PAIRS = [
    pair
    for df in (0.5, 0.8, 1.0, 1.5)
    for shift in (0.0, -0.5)
    for partner in (exponential(1.0), chi_square(1.5, shift=0.2))
    for pair in ((chi_square(df, shift=shift), partner), (partner, chi_square(df, shift=shift)))
]

TABULATION_PAIRS = (
    CATALOGUE_PAIRS
    + _cold_style_pairs(200)
    + CHI_SQUARE_EDGE_PAIRS
    + [(student_t(df, 0.0, 1.0), normal(0.0, 1.0)) for df in (0.3, 1.0, 2.0)]
    # normal(mu, s) vs normal(mu - 1.3 s, 0.9 s): some meet the bound, some
    # raise on it, some are too narrow for their location
    + [(normal(mu, mu * 10.0 ** -k), normal(mu - 1.3 * mu * 10.0 ** -k, 0.9 * mu * 10.0 ** -k))
       for mu in (1.0, 1e6, 1e12) for k in (5.0, 7.5, 9.0, 9.5, 10.0)]
    + NARROW_PAIRS
)


def test_tabulated_first_pass_is_bitwise_the_pointwise_integrals():
    # QUADPACK's first-pass Kronrod nodes are tabulated per kernel from one
    # array call each; a hit must return what the scalar call would, and the
    # integrands' arithmetic stays on the same numpy scalars, so every field
    # (and every achieved bound of a failure) is equal bit for bit.  Node keys
    # are safe: 0.0 and -0.0 share one dict entry, and every kernel value is
    # equal at both (test_kernels_agree_at_signed_zero); a NaN never equals a
    # key, so it always takes the scalar call
    mismatches = [(F, G) for F, G in TABULATION_PAIRS
                  if _bits(second_moment_integrals.__wrapped__, F, G)
                  != _bits(_pointwise_integrals, F, G)]
    assert mismatches == []


@pytest.mark.parametrize("F,G", CATALOGUE_PAIRS + CHI_SQUARE_EDGE_PAIRS,
                         ids=[_pair_id(p) for p in CATALOGUE_PAIRS + CHI_SQUARE_EDGE_PAIRS])
def test_tabulated_identity_residuals_are_bitwise_the_pointwise_ones(F, G):
    def residuals(F, G):
        report = check_identities(F, G)
        return report.complement_residual, report.nested_residual

    assert _bits(residuals, F, G) == _bits(_pointwise_residuals, F, G)


@pytest.mark.parametrize("spec", [normal(0.0, 1.0), exponential(1.0), log_normal(0.0, 1.0),
                                  chi_square(0.5), chi_square(3.0), student_t(3.0)],
                         ids=lambda spec: _pair_id((spec,)))
def test_kernels_agree_at_signed_zero(spec):
    # a node table keyed by 0.0 answers a query at -0.0 (and the reverse), so
    # the array and the float branches must give one value at both zeros
    k = distributions.kernel(spec)
    for fn in (k.pdf, k.cdf):
        values = {float(v).hex() for v in (fn(0.0), fn(-0.0), *fn(np.array([0.0, -0.0])))}
        assert len(values) == 1


def test_few_integrals_reach_quadpack(monkeypatch):
    # the answers stay right if the first-pass exit is never taken, but the
    # speed-up would vanish: on the catalogue 10 of 48 integrals reach
    # QUADPACK, on the benchmark-style cold pairs 42 of 600
    calls = []
    quad = exceedance._quad
    monkeypatch.setattr(exceedance, "_quad",
                        lambda *args, **kwargs: calls.append(args[1:]) or quad(*args, **kwargs))
    pairs = _cold_style_pairs(200)
    for F, G in pairs:
        second_moment_integrals.__wrapped__(F, G)
    assert len(calls) <= 0.1 * 3 * len(pairs)
