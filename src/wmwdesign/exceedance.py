"""Exceedance probability P(X >= Y) and the second-moment integrals.

All quantities are computed by adaptive quadrature over a truncated support,
keeping a single numeric code path for every distribution family.  Closed
forms (two normals, two exponentials) exist only in the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, kernel

# absolute tolerance requested from the quadrature routine; callers are
# promised 1e-9 on the results
QUAD_EPSABS = 1e-12
RESULT_TOL = 1e-9

_TAIL = 1e-12  # support truncated at this quantile level


class QuadratureAccuracyError(RuntimeError):
    """Adaptive quadrature could not reach the accuracy contract."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(f"{message} (achieved error bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class ExceedanceSummary:
    """The three integrals driving the alternative-hypothesis moments."""

    p_x_ge_y: float          # P(X >= Y) = int G(x) f(x) dx
    int_g2_f: float          # int G(x)^2 f(x) dx
    int_1mf2_g: float        # int (1 - F(x))^2 g(x) dx
    quadrature_error_bound: float


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the analytic identities linking the integrals."""

    complement_residual: float
    nested_residual: float
    summary: ExceedanceSummary


_GUIDE_LEVELS = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95,
                 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)


def _domains(F: DistributionSpec, G: DistributionSpec):
    """(lo, hi, breakpoints) for the weights F and G, from 13 quantile levels
    per spec (_TAIL, the eleven guide levels, 1 - _TAIL) in one call each.

    The integrand is bounded by the weight density, so truncating a domain
    at its weight's extreme quantiles loses at most _TAIL of mass.  Support
    edges (a shifted exponential's origin) are kinks, and interior quantiles
    keep the subdivision from missing a narrow density inside a
    heavy-tailed partner's huge truncated range; both specs' edges and guide
    quantiles serve as breakpoints wherever they fall inside a domain.

    One exception: where a weight's density is infinite at its support's
    lower edge (a chi-square with df < 2, shifted or not), its own 1e-9, 1e-6
    and 1e-3 quantiles crowd that edge (all within 5e-8 of it for df 0.8),
    and subdividing around them lands on nodes at or next to the singularity:
    QAGP then misses the bound (shifted) or reports 1e-11 on a result off by
    up to 1e-3 (unshifted), so they are left out of that domain's breakpoints.
    """
    quantiles = [spec.quantile((_TAIL, *_GUIDE_LEVELS, 1 - _TAIL)) for spec in (F, G)]
    guides = [x for spec, qs in zip((F, G), quantiles) for x in (*spec.support(), *qs[1:-1])]
    domains = []
    for spec, (lo, *qs, hi) in zip((F, G), quantiles):
        # Over too few floats QUADPACK's result is noise under a bound below
        # RESULT_TOL: on two normals it missed the closed form by 8e-8 at 2e7
        # floats and 2e-10 at 2e10, or gave 0 or 1 on a collapsed domain; from
        # 2**37 (1.4e11) floats on its error was below 2e-11
        if hi - lo < 2.0 ** 37 * np.spacing(max(abs(lo), abs(hi))):
            raise QuadratureAccuracyError(f"{spec} is too narrow for its location in floating "
                                          f"point: [{lo}, {hi}] holds < 2**37 floats", np.inf)
        near_edge = qs[:3] if np.isinf(spec.pdf(spec.support()[0])) else ()
        domains.append((lo, hi, sorted({x for x in guides
                                        if lo < x < hi and x not in near_edge}) or None))
    return domains


# QUADPACK's 21-point Gauss-Kronrod abscissae on [-1, 1] (dqk21's xgk), all
# but the centre 0; Piessens et al., QUADPACK, 1983
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])


class _FirstPass(dict):
    """node -> (fn(node) for fn in fns), with QUADPACK's first pass tabulated.

    Before bisecting, QUADPACK applies the 21-point Kronrod rule to each panel
    [a, b] between the domain's ends and breakpoints: it evaluates the
    integrand at centr = (a + b) / 2 and at centr -+ hlgth * xgk with
    hlgth = (b - a) / 2, in that arithmetic.  Those nodes follow from the
    domain alone, so each of ``fns`` (kernel functions) is evaluated once on
    all of them as an array; any other node (the bisections' few percent) is
    a missing key, whose values ``fns`` compute from its Python float.  A
    kernel's array and float branches round alike, bit for bit, so a hit
    returns the very values a miss would.  Keys are floats: 0.0 and -0.0
    share one entry (every kernel value is equal at both) and a NaN never
    matches one.
    """

    def __init__(self, domain, *fns):
        lo, hi, points = domain
        edges = np.array([lo, *(points or ()), hi])
        a, b = edges[:-1], edges[1:]
        centr = 0.5 * (a + b)
        absc = (0.5 * (b - a))[:, None] * _XGK
        nodes = np.concatenate((centr, (centr[:, None] - absc).ravel(),
                                (centr[:, None] + absc).ravel()))
        super().__init__(zip(nodes.tolist(), zip(*(fn(nodes) for fn in fns))))
        self.fns = fns

    def __missing__(self, x):
        return tuple(fn(x) for fn in self.fns)


def _quad(fn, lo, hi, points=None) -> tuple[float, float]:
    from scipy import integrate  # imported on first use: importing wmwdesign stays cheap

    # full_output returns QUADPACK's status instead of issuing an
    # IntegrationWarning; the callers judge the result by its bound alone
    return integrate.quad(fn, lo, hi, epsabs=QUAD_EPSABS, epsrel=1e-10, limit=500,
                          points=points, full_output=1)[:2]


def prob_x_ge_y(F: DistributionSpec, G: DistributionSpec) -> float:
    """P(X >= Y) for X ~ F, Y ~ G, both continuous."""
    return second_moment_integrals(F, G).p_x_ge_y


@lru_cache(maxsize=4096)
def second_moment_integrals(F: DistributionSpec, G: DistributionSpec) -> ExceedanceSummary:
    """All three integrals of the variance formula, with the achieved error bound.

    Raises QuadratureAccuracyError when the bound exceeds RESULT_TOL, so no
    result rests on unconverged integrals.
    """
    f_pdf, f_cdf = kernel(F)[:2]
    g_pdf, g_cdf = kernel(G)[:2]
    over_f, over_g = _domains(F, G)
    g_f = _FirstPass(over_f, g_cdf, f_pdf)  # p and int G^2 f share their nodes
    f_g = _FirstPass(over_g, f_cdf, g_pdf)

    def p_integrand(x):
        c, d = g_f[x]
        return c * d

    def g2f_integrand(x):
        c, d = g_f[x]
        return c ** 2 * d

    def f2g_integrand(x):
        c, d = f_g[x]
        return (1.0 - c) ** 2 * d

    p, e1 = _quad(p_integrand, *over_f)
    i1, e2 = _quad(g2f_integrand, *over_f)
    i2, e3 = _quad(f2g_integrand, *over_g)
    bound = max(e1, e2, e3)
    if bound > RESULT_TOL:
        raise QuadratureAccuracyError("exceedance integrals did not converge", bound)
    return ExceedanceSummary(*(min(1.0, max(0.0, x)) for x in (p, i1, i2)), bound)


def check_identities(F: DistributionSpec, G: DistributionSpec) -> IdentityReport:
    """Numerically verify the analytic identities between the integrals.

    Residual (a): int (1-F)^2 g  ==  2 P(X>=Y) - 1 + int F^2 g, which is the
    expansion of the square using int F g = 1 - P(X>=Y) for continuous F, G
    (it reduces to the familiar 1 - 2*0.5 + int F^2 g form under F = G).

    Residual (b): the nested-integral representation
    int (1-F)^2 g  ==  int [ int_{-inf}^{x} G f dy + G(x)(1-F(x)) ] f(x) dx,
    whose inner layer integrates (Fubini) to int G (1-F) f, so the right-hand
    side is 2 int G (1-F) f.

    Both right-hand integrals use the summary's domains, breakpoints and
    kernels, and are held to RESULT_TOL like the summary itself.
    """
    s = second_moment_integrals(F, G)

    f_pdf, f_cdf = kernel(F)[:2]
    g_pdf, g_cdf = kernel(G)[:2]
    over_f, over_g = _domains(F, G)
    f_g = _FirstPass(over_g, f_cdf, g_pdf)
    g_f_f = _FirstPass(over_f, g_cdf, f_cdf, f_pdf)

    def f2g_integrand(x):
        c, d = f_g[x]
        return c ** 2 * d

    def g_1mf_f_integrand(x):
        c, e, d = g_f_f[x]
        return c * (1.0 - e) * d

    int_f2_g, e1 = _quad(f2g_integrand, *over_g)
    int_g_1mf_f, e2 = _quad(g_1mf_f_integrand, *over_f)
    bound = max(e1, e2)
    if bound > RESULT_TOL:
        raise QuadratureAccuracyError("identity integrals did not converge", bound)
    res_a = abs(s.int_1mf2_g - (2.0 * s.p_x_ge_y - 1.0 + int_f2_g))
    res_b = abs(s.int_1mf2_g - 2.0 * int_g_1mf_f)

    return IdentityReport(complement_residual=res_a, nested_residual=res_b, summary=s)
