"""Null and alternative moments of the U statistic and their standardized forms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .exceedance import RESULT_TOL, second_moment_integrals


def _is_int(value) -> bool:
    """An int or numpy integer, but not a bool."""
    # exact type first: Design checks both sizes, and every scanned design builds one
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


class ConfigurationError(ValueError):
    """A total N that is not an int >= 2, a bad epsilon, or an empty search grid."""


def _check_total(total_n):
    if not (_is_int(total_n) and total_n >= 2):
        raise ConfigurationError(f"total sample size N must be an int >= 2, got {total_n!r}")


def _check_omega(omega):
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")


@dataclass(frozen=True)
class Design:
    """Allocation of a total sample size N = m + n between the two groups."""

    m: int
    n: int

    def __post_init__(self):
        if not (_is_int(self.m) and _is_int(self.n)):
            raise ValueError(f"group sizes must be ints, got m={self.m!r}, n={self.n!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"both group sizes must be >= 1, got m={self.m}, n={self.n}")

    @property
    def total_n(self) -> int:
        return self.m + self.n

    @property
    def omega(self) -> float:
        return self.m / self.total_n

    @classmethod
    def from_total(cls, total_n: int, omega: float) -> "Design":
        """Nearest realizable design to allocation fraction omega in (0, 1)."""
        _check_total(total_n)
        _check_omega(omega)
        m = int(round(omega * total_n))
        m = min(max(m, 1), total_n - 1)
        return cls(m, total_n - m)


@dataclass(frozen=True)
class MomentSummary:
    e0: float
    var0: float
    e1: float
    var1: float
    mu_n: float
    sigma2_n: float
    var1_clamped: bool = False


def null_moments(d: Design) -> tuple[float, float]:
    """Mean mn/2 and variance mn(m+n+1)/12 of U under identical distributions."""
    mn = d.m * d.n
    return mn / 2.0, mn * (d.m + d.n + 1) / 12.0


def alt_moments(d: Design, F: DistributionSpec, G: DistributionSpec) -> MomentSummary:
    """Moments of U under the alternative, plus the standardized mean/variance.

    For F == G the analytic values P(X>=Y) = 1/2 and both second-moment
    integrals = 1/3 are used directly, so the null case is reproduced exactly
    rather than up to quadrature noise.
    """
    m, n = d.m, d.n
    mn = m * n
    e0, var0 = null_moments(d)

    if F == G:  # the null case, which power._wmw_powers repeats
        return MomentSummary(e0=e0, var0=var0, e1=e0, var1=var0, mu_n=0.0, sigma2_n=1.0)

    s = second_moment_integrals(F, G)
    p, i1, i2 = s.p_x_ge_y, s.int_g2_f, s.int_1mf2_g

    e1 = mn * p
    var1 = mn * (p - (m + n - 1) * p * p + (n - 1) * i1 + (m - 1) * i2)
    # For p in [0, 1], sum |d var1 / d(p, i1, i2)| <= mn(3N - 5), so integral
    # errors within RESULT_TOL move var1 by at most mn(3N - 5) RESULT_TOL.  A
    # var1 inside that band is zero to the contract, in either pair order.
    # power._wmw_powers repeats this clamp on arrays, bitwise in step with it.
    clamped = var1 <= mn * (3 * (m + n) - 5) * RESULT_TOL
    if clamped:
        var1 = 0.0

    return MomentSummary(
        e0=e0,
        var0=var0,
        e1=e1,
        var1=var1,
        mu_n=(e1 - e0) / math.sqrt(var0),
        sigma2_n=var1 / var0,
        var1_clamped=clamped,
    )


def standardized_mean_symmetric(omega: float, total_n: int, p: float) -> float:
    """Closed-form standardized mean for symmetric pure-shift alternatives.

    Cross-validates the general `alt_moments` path: for symmetric F, G with
    G(x) = F(x + a) the standardized mean collapses to
    sqrt(omega (1-omega)) N (p - 1/2) / sqrt((N+1)/12).
    """
    _check_total(total_n)
    _check_omega(omega)
    return (
        math.sqrt(omega * (1.0 - omega))
        * total_n
        * (p - 0.5)
        / math.sqrt((total_n + 1) / 12.0)
    )
