"""Exceedance probability P(X >= Y) and the second-moment integrals.

All quantities are computed by adaptive quadrature over a truncated support,
keeping a single numeric code path for every distribution family.  Closed
forms (two normals, two exponentials) exist only in the tests as oracles.
"""

from __future__ import annotations

import warnings
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


def _domain(weight: DistributionSpec) -> tuple[float, float]:
    # the integrand is bounded by the weight density, so truncating at its
    # extreme quantiles loses at most _TAIL of mass
    return weight.quantile(_TAIL), weight.quantile(1 - _TAIL)


_GUIDE_LEVELS = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95,
                 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)


def _domains(F: DistributionSpec, G: DistributionSpec):
    """(lo, hi, breakpoints) for the weights F and G, from 26 quantiles in all.

    Support edges (a shifted exponential's origin) are kinks, and interior
    quantiles keep the subdivision from missing a narrow density inside a
    heavy-tailed partner's huge truncated range; both specs' edges and guide
    quantiles serve as breakpoints wherever they fall inside a domain.

    One exception: where a weight's density is infinite at its support's
    lower edge (a chi-square with df < 2, shifted or not), its own 1e-9, 1e-6
    and 1e-3 quantiles crowd that edge (all within 5e-8 of it for df 0.8),
    and subdividing around them lands on nodes at or next to the singularity:
    QAGP then misses the bound (shifted) or reports 1e-11 on a result off by
    up to 1e-3 (unshifted), so they are left out of that domain's breakpoints.
    """
    quantiles = [[spec.quantile(level) for level in _GUIDE_LEVELS] for spec in (F, G)]
    guides = [x for spec, qs in zip((F, G), quantiles) for x in (*spec.support(), *qs)]
    domains = []
    for spec, qs in zip((F, G), quantiles):
        lo, hi = _domain(spec)
        near_edge = qs[:3] if np.isinf(spec.pdf(spec.support()[0])) else ()
        domains.append((lo, hi, sorted({x for x in guides
                                        if lo < x < hi and x not in near_edge}) or None))
    return domains


def _quad(fn, lo, hi, points=None) -> tuple[float, float]:
    from scipy import integrate  # imported on first use: importing wmwdesign stays cheap

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            fn, lo, hi, epsabs=QUAD_EPSABS, epsrel=1e-10, limit=500, points=points
        )
    return value, err


def _clip_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


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
    p, e1 = _quad(lambda x: g_cdf(x) * f_pdf(x), *over_f)
    i1, e2 = _quad(lambda x: g_cdf(x) ** 2 * f_pdf(x), *over_f)
    i2, e3 = _quad(lambda x: (1.0 - f_cdf(x)) ** 2 * g_pdf(x), *over_g)
    bound = max(e1, e2, e3)
    if bound > RESULT_TOL:
        raise QuadratureAccuracyError("exceedance integrals did not converge", bound)
    return ExceedanceSummary(
        p_x_ge_y=_clip_unit(p),
        int_g2_f=_clip_unit(i1),
        int_1mf2_g=_clip_unit(i2),
        quadrature_error_bound=bound,
    )


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
    int_f2_g, e1 = _quad(lambda x: f_cdf(x) ** 2 * g_pdf(x), *over_g)
    int_g_1mf_f, e2 = _quad(lambda x: g_cdf(x) * (1.0 - f_cdf(x)) * f_pdf(x), *over_f)
    bound = max(e1, e2)
    if bound > RESULT_TOL:
        raise QuadratureAccuracyError("identity integrals did not converge", bound)
    res_a = abs(s.int_1mf2_g - (2.0 * s.p_x_ge_y - 1.0 + int_f2_g))
    res_b = abs(s.int_1mf2_g - 2.0 * int_g_1mf_f)

    return IdentityReport(complement_residual=res_a, nested_residual=res_b, summary=s)
