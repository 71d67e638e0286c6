import math

import numpy as np
import pytest
from scipy import stats

from wmwdesign import (
    Design,
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
from wmwdesign import exceedance


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


def test_unconverged_integrals_raise(monkeypatch):
    # a pair no other test uses, so no cached result hides the failure
    F, G = normal(0.4321, 1.3), normal(0.0, 0.7)
    real_quad = exceedance._quad
    monkeypatch.setattr(exceedance, "_quad",
                        lambda *args, **kwargs: (real_quad(*args, **kwargs)[0], 1e-6))
    with pytest.raises(QuadratureAccuracyError) as exc:
        second_moment_integrals(F, G)
    assert exc.value.achieved_bound == 1e-6
    with pytest.raises(QuadratureAccuracyError):
        prob_x_ge_y(F, G)
    with pytest.raises(QuadratureAccuracyError):
        wmw_power(PowerQuery(F, G, Design(20, 20)))
