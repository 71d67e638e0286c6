"""Exact null distribution of the U statistic via its generating function.

Arrangement counts are kept as exact Python integers and normalized only on
demand, so table moments can be checked as exact rationals.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .moments import _count

MAX_TABLE_ENTRIES = 1_000_000


class TableSizeError(RuntimeError):
    """Requested table exceeds the configured size limit."""


@dataclass(frozen=True)
class ExactNullTable:
    """Distribution of U over {0, ..., mn} for tie-free samples of sizes m, n."""

    m: int
    n: int
    counts: tuple[int, ...]  # arrangement counts, sum = C(m+n, m)

    @property
    def total(self) -> int:
        return math.comb(self.m + self.n, self.m)

    @property
    def pmf(self) -> np.ndarray:
        # exact int / int is correctly rounded, and C(m+n, m) leaves the
        # float range (1.8e308) near m + n = 1030
        total = self.total
        return np.array([c / total for c in self.counts])

    def sf(self) -> np.ndarray:
        """P(U >= u) for u = 0..mn, as floats."""
        total = self.total
        tail = list(accumulate(reversed(self.counts)))[::-1]
        return np.array([t / total for t in tail])

    def exact_mean(self) -> Fraction:
        return Fraction(sum(u * c for u, c in enumerate(self.counts)), self.total)

    def exact_variance(self) -> Fraction:
        mean = self.exact_mean()
        second = Fraction(sum(u * u * c for u, c in enumerate(self.counts)), self.total)
        return second - mean * mean


@dataclass(frozen=True)
class CriticalValue:
    """Upper rejection bound with the size it actually achieves."""

    value: int  # reject when U >= value (two-sided: or U <= mn - value)
    achieved_size: float
    degenerate: bool  # no nonzero-size rejection region at this alpha


def _check_exact_alpha(alpha: float):
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")


# typed: build_table(True, 3) or (3.0, 3) must not find the table of (1, 3) or (3, 3)
@lru_cache(maxsize=64, typed=True)
def build_table(m: int, n: int, max_entries: int = MAX_TABLE_ENTRIES) -> ExactNullTable:
    """Exact pmf of U under the null from its generating function.

    With a = min(m, n) and b = max(m, n), the counts are the coefficients of
    the Gaussian binomial prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i) (Harding,
    Applied Statistics 33:1-6, 1984).  After step i the running product is a
    polynomial of degree i*b, so each step works on the first i*b + 1
    coefficients: the multiply is one shifted subtraction and the divide a
    cumulative sum with stride i.
    """
    m, n = _count(m, 1, "m"), _count(n, 1, "n")
    if m * n + 1 > max_entries:
        raise TableSizeError(
            f"table for m={m}, n={n} needs {m * n + 1} entries, limit {max_entries}"
        )

    a, b = min(m, n), max(m, n)
    counts = [1] + [0] * (m * n)
    for i in range(1, a + 1):
        top = i * b + 1  # coefficients kept at this step
        shift = b + i  # >= top only at i = 1, where both slices are empty
        counts[shift:top] = map(operator.sub, counts[shift:top], counts[:top - shift])
        for r in range(i):
            counts[r:top:i] = accumulate(counts[r:top:i])

    assert sum(counts) == math.comb(m + n, m)
    return ExactNullTable(m=m, n=n, counts=tuple(counts))


def critical_value(table: ExactNullTable, alpha: float, side: str = "upper") -> CriticalValue:
    """Smallest upper bound whose rejection region has size <= alpha.

    For ``side="two_sided"`` the region is symmetric, {U >= u} | {U <= mn - u},
    and the achieved size counts both tails.  Sizes are compared exactly, as
    integers, against alpha limited to a denominator of at most 10**12.
    """
    _check_exact_alpha(alpha)
    if side not in ("upper", "two_sided"):
        raise ValueError(f"side must be 'upper' or 'two_sided', got {side!r}")

    # P(U >= u) > 1/2 >= alpha (even limited) for every u <= mn/2, so no region
    # reaches the centre: one rule serves both sides, and two tails never overlap
    limit = Fraction(alpha).limit_denominator(10**12)
    mn = table.m * table.n
    tails = 2 if side == "two_sided" else 1
    bound = limit.numerator * table.total // (tails * limit.denominator)
    tail = list(accumulate(reversed(table.counts[mn // 2 + 1:])))  # tail[k]: U >= mn - k
    k = bisect_right(tail, bound)  # values of u in the largest region within alpha
    size = tails * tail[k - 1] / table.total if k else 0.0
    if size == 0.0:
        # even the most extreme value cannot be rejected at this alpha
        return CriticalValue(value=mn + 1, achieved_size=0.0, degenerate=True)
    return CriticalValue(value=mn - k + 1, achieved_size=size, degenerate=False)
