"""Null and alternative moments of the U statistic and their standardized forms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .exceedance import RESULT_TOL, second_moment_integrals


def _count(value, least: int, what: str, error=ValueError) -> int:
    """An int or numpy integer, not a bool, that is >= least, as a Python int.

    The one rule for every count: group sizes, totals, trials, seeds and
    exact table sizes.  A numpy integer would make results numpy scalars.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise error(f"{what} must be an int >= {least}, got {value!r}")


class ConfigurationError(ValueError):
    """A total N that is not an int >= 2, a bad epsilon, or an empty search grid."""


def _check_total(total_n) -> int:
    return _count(total_n, 2, "total sample size N", ConfigurationError)


def _check_omega(omega):
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")


@dataclass(frozen=True)
class Design:
    """Allocation of a total sample size N = m + n between the two groups."""

    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, 1, "group size m"))
        object.__setattr__(self, "n", _count(self.n, 1, "group size n"))

    @property
    def total_n(self) -> int:
        return self.m + self.n

    @property
    def omega(self) -> float:
        return self.m / self.total_n

    @classmethod
    def from_total(cls, total_n: int, omega: float) -> "Design":
        """Nearest realizable design to allocation fraction omega in (0, 1)."""
        total_n = _check_total(total_n)
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


def _moments(m, n, F: DistributionSpec, G: DistributionSpec) -> tuple[np.ndarray, ...]:
    """The fields of ``MomentSummary``, in its order, as arrays over the designs m[i]/n[i].

    m and n are int arrays or sequences of ints, empty ones included.
    This is the one place that picks their integer type: int64, or exact
    Python ints where a size passes int64 or int64 could wrap (mn(3N - 5) <
    3N³/4), so the products mn(N + 1) and mn(3N - 5) are exact before their
    one rounding to float.
    """
    try:
        m, n = np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64)
    except OverflowError:
        m, n = np.asarray(m, dtype=object), np.asarray(n, dtype=object)
    # bounds the largest total from above in Python ints: m + n itself can wrap int64
    if 3 * (int(m.max(initial=0)) + int(n.max(initial=0))) ** 3 >= 2 ** 65:
        m, n = m.astype(object), n.astype(object)
    total, mn = m + n, m * n
    fmn = mn.astype(float)
    e0, var0 = fmn / 2.0, (mn * (total + 1)).astype(float) / 12.0
    if F == G:
        # P(X >= Y) = 1/2 and both integrals 1/3: the null case exactly, not
        # up to quadrature noise
        size = len(e0)
        return e0, var0, e0, var0, np.zeros(size), np.ones(size), np.zeros(size, dtype=bool)
    s = second_moment_integrals(F, G)
    p, i1, i2 = s.p_x_ge_y, s.int_g2_f, s.int_1mf2_g
    e1 = fmn * p
    var1 = fmn * (p - (total - 1).astype(float) * p * p + (n - 1).astype(float) * i1
                  + (m - 1).astype(float) * i2)
    # For p in [0, 1], sum |d var1 / d(p, i1, i2)| <= mn(3N - 5), so integral
    # errors within RESULT_TOL move var1 by at most mn(3N - 5) RESULT_TOL.  A
    # var1 inside that band is zero to the contract, in either pair order.
    clamped = var1 <= (mn * (3 * total - 5)).astype(float) * RESULT_TOL
    var1[clamped] = 0.0
    return e0, var0, e1, var1, (e1 - e0) / np.sqrt(var0), var1 / var0, clamped


def alt_moments(d: Design, F: DistributionSpec, G: DistributionSpec) -> MomentSummary:
    """Moments of U under the alternative, plus the standardized mean/variance.

    For F == G the analytic values P(X>=Y) = 1/2 and both second-moment
    integrals = 1/3 are used directly, so the null case is reproduced exactly
    rather than up to quadrature noise.  The one design's view of ``_moments``.
    """
    return MomentSummary(*(field.item() for field in _moments([d.m], [d.n], F, G)))

