"""Exceedance probability P(X >= Y) and the second-moment integrals.

All quantities are computed by adaptive quadrature over a truncated support,
keeping a single numeric code path for every distribution family.  Closed
forms (two normals, two exponentials) exist only in the tests as oracles.

The quadrature is scipy.integrate.quad's QAGP, bit for bit.  Its first pass
(the 21-point Gauss-Kronrod rule on each panel between breakpoints) runs in
numpy, one batch for all of a pair's integrals; where it meets QAGP's stopping
test, as most integrals do, QUADPACK is neither called nor imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, kernel

# absolute tolerance requested from the quadrature routine; callers are
# promised 1e-9 on the results
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
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
    domains = []  # breakpoints sorted and strictly inside (lo, hi): see _panels
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


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (dqk21; Piessens et al.,
# QUADPACK, 1983): (xgk, wgk)(1..10), every abscissa but the centre with its
# weight; the centre's wgk(11); the Gauss weights wg(1..5) of xgk(2, 4, ..., 10)
_XGK, _WGK = np.array([
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068),
]).T
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_ADDED = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # dqk21 adds xgk(2, 4, ..., 10), then xgk(1, 3, ..., 9)
_WGK_ADDED = _WGK[_ADDED]
_EPMACH, _UFLOW = np.finfo(float).eps, np.finfo(float).tiny


class _Panels(NamedTuple):  # nodes: 21 a panel (centr, centr - absc, centr + absc), flat
    domain: tuple
    nodes: np.ndarray
    hlgth: np.ndarray


def _panels(domain) -> _Panels:
    """QUADPACK's first-pass nodes on ``domain``, in its arithmetic.  The edges
    [lo, *points, hi] are quad's panels only because _domains returns points
    sorted and strictly inside (lo, hi), as quad's np.unique and filter would."""
    lo, hi, points = domain
    edges = np.array([lo, *(points or ()), hi])
    a, b = edges[:-1, None], edges[1:, None]
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = hlgth * _XGK
    return _Panels(domain, np.hstack((centr, centr - absc, centr + absc)).ravel(), hlgth.ravel())


def _squares(x):
    """x ** 2 elementwise as the scalar integrands take it: C pow on each float,
    which neither x * x nor numpy's array power matches bit for bit."""
    return np.array(list(map(math.pow, x.tolist(), repeat(2.0))))


def _kronrod(values, hlgth) -> tuple[list[float], list[float]]:
    """dqk21's result and abserr on each panel (a row of values in _Panels'
    layout) in its operations and order: cumsum adds left to right as its loops
    do, and ** 1.5 is C pow.  A non-finite value gives a non-finite result,
    which _integrate leaves to QUADPACK, so numpy's warnings are silenced."""
    with np.errstate(all="ignore"):
        fc, fv1, fv2 = values[:, :1], values[:, 1:11], values[:, 11:]
        fsum = fv1 + fv2
        resg = np.cumsum(_WG * fsum[:, 1::2], axis=1)[:, -1]
        resk, resabs = np.cumsum(np.stack((
            np.concatenate((_WGK_CENTRE * fc, _WGK_ADDED * fsum[:, _ADDED]), axis=1),
            np.concatenate((abs(_WGK_CENTRE * fc), _WGK_ADDED * (abs(fv1) + abs(fv2))[:, _ADDED]),
                           axis=1))), axis=2)[:, :, -1]
        reskh = resk[:, None] * 0.5
        resasc = np.cumsum(np.concatenate((_WGK_CENTRE * abs(fc - reskh),
                                           _WGK * (abs(fv1 - reskh) + abs(fv2 - reskh))), axis=1),
                           axis=1)[:, -1] * hlgth
        resabs = resabs * hlgth
        result, abserr = resk * hlgth, abs((resk - resg) * hlgth)
        # min(1, ratio ** 1.5) for ratio >= 0, where resasc and abserr are nonzero
        ratio = 200.0 * abserr / resasc
        abserr = np.where((resasc != 0.0) & (abserr != 0.0),
                          resasc * [r ** 1.5 if r < 1.0 else 1.0 for r in ratio.tolist()], abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.maximum(_EPMACH * 50.0 * resabs, abserr), abserr)
    return result.tolist(), abserr.tolist()


def _quad(fn, lo, hi, points=None) -> tuple[float, float]:
    from scipy import integrate  # imported on first use: importing wmwdesign stays cheap

    # full_output returns QUADPACK's status instead of issuing an
    # IntegrationWarning; the callers judge the result by its bound alone
    return integrate.quad(fn, lo, hi, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=500,
                          points=points, full_output=1)[:2]


def _integrate(*integrals) -> list[tuple[float, float]]:
    """(result, abserr) of each (panels, integrand values on its nodes,
    integrand), bit for bit what ``_quad(integrand, *panels.domain)`` returns.

    The panels' sums, added left to right from 0, are quad's answer where they
    meet dqagpe's first-pass exit (one panel would be QAGS, whose exit
    differs).  Other integrals go to QUADPACK, whose integrand looks the
    first-pass nodes up and calls ``integrand`` on the bisections' alone.
    """
    results, errors = _kronrod(np.concatenate([v for _, v, _ in integrals]).reshape(-1, 21),
                               np.concatenate([p.hlgth for p, _, _ in integrals]))
    answers, end = [], 0
    for panels, values, integrand in integrals:
        start, end = end, end + len(panels.hlgth)
        result = abserr = 0.0
        for r, e in zip(results[start:end], errors[start:end]):
            result += r
            abserr += e
        if not (len(panels.hlgth) > 1 and math.isfinite(result)
                and abserr <= max(QUAD_EPSABS, QUAD_EPSREL * abs(result))):
            # keys are floats: 0.0 and -0.0 share one entry (every kernel
            # value is equal at both) and a NaN never matches one
            table = dict(zip(panels.nodes.tolist(), values.tolist()))
            result, abserr = _quad(lambda x: table[x] if x in table else integrand(x),
                                   *panels.domain)
        answers.append((result, abserr))
    return answers


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
    on_f, on_g = map(_panels, _domains(F, G))
    c, d = g_cdf(on_f.nodes), f_pdf(on_f.nodes)  # p and int G^2 f share their nodes
    e, h = f_cdf(on_g.nodes), g_pdf(on_g.nodes)
    (p, e1), (i1, e2), (i2, e3) = _integrate(
        (on_f, c * d, lambda x: g_cdf(x) * f_pdf(x)),
        (on_f, _squares(c) * d, lambda x: g_cdf(x) ** 2 * f_pdf(x)),
        (on_g, _squares(1.0 - e) * h, lambda x: (1.0 - f_cdf(x)) ** 2 * g_pdf(x)))
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
    on_f, on_g = map(_panels, _domains(F, G))
    c, e, d = g_cdf(on_f.nodes), f_cdf(on_f.nodes), f_pdf(on_f.nodes)
    f2, h = _squares(f_cdf(on_g.nodes)), g_pdf(on_g.nodes)
    (int_f2_g, e1), (int_g_1mf_f, e2) = _integrate(
        (on_g, f2 * h, lambda x: f_cdf(x) ** 2 * g_pdf(x)),
        (on_f, c * (1.0 - e) * d, lambda x: g_cdf(x) * (1.0 - f_cdf(x)) * f_pdf(x)))
    bound = max(e1, e2)
    if bound > RESULT_TOL:
        raise QuadratureAccuracyError("identity integrals did not converge", bound)
    res_a = abs(s.int_1mf2_g - (2.0 * s.p_x_ge_y - 1.0 + int_f2_g))
    res_b = abs(s.int_1mf2_g - 2.0 * int_g_1mf_f)

    return IdentityReport(complement_residual=res_a, nested_residual=res_b, summary=s)
