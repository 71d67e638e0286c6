import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wmwdesign import (
    Design,
    ExactNullTable,
    TableSizeError,
    build_table,
    critical_value,
    null_moments,
)


def enumerate_counts(m, n):
    """Arrangement counts of U by brute force over all rank placements."""
    counts = [0] * (m * n + 1)
    for pos in itertools.combinations(range(m + n), m):
        xs = set(pos)
        u = sum(sum(1 for j in range(i) if j not in xs) for i in pos)
        counts[u] += 1
    return tuple(counts)


def recurrence_counts(m, n):
    """Reference counts by the classical cell-by-cell recurrence.

    c(u; i, j) = c(u - j; i - 1, j) + c(u; i, j - 1), c(u; 0, j) = c(u; i, 0) = [u == 0].
    """
    prev_row = [[1] for _ in range(n + 1)]
    for i in range(1, m + 1):
        cur_row = [[1]]
        for j in range(1, n + 1):
            cell = [0] * (i * j + 1)
            for u, c in enumerate(prev_row[j]):
                cell[u + j] += c
            for u, c in enumerate(cur_row[j - 1]):
                cell[u] += c
            cur_row.append(cell)
        prev_row = cur_row
    return tuple(prev_row[n])


def scan_critical_value(table, alpha, side):
    """Reference critical value: scan u downwards comparing Fraction sizes."""
    mn = table.m * table.n
    tail = 0
    best = None
    for u in range(mn, -1, -1):
        tail += table.counts[u]
        size = Fraction(tail, table.total)
        if side == "two_sided":
            if u <= mn - u:
                break
            size = 2 * size
        if size <= Fraction(alpha).limit_denominator(10**12):
            best = (u, float(size))
        else:
            break
    if best is None or best[1] == 0.0:
        return (mn + 1, 0.0, True)
    return (best[0], best[1], False)


SMALL_SIZES = [(m, n) for m in range(1, 21) for n in range(1, 21)]
LARGE_SIZES = [(40, 60), (70, 70), (5, 70)]
# up to just below 1/2, where one region on each side is as large as it gets
ALPHAS = (0.01, 0.025, 0.05, 0.1, 0.4999, 0.49999999)


@pytest.mark.parametrize("sizes", [SMALL_SIZES] + [[mn] for mn in LARGE_SIZES],
                         ids=["1..20x1..20"] + [f"{m}x{n}" for m, n in LARGE_SIZES])
def test_table_matches_recurrence(sizes):
    for m, n in sizes:
        assert build_table(m, n).counts == recurrence_counts(m, n), (m, n)


@pytest.mark.parametrize("sizes", [SMALL_SIZES] + [[mn] for mn in LARGE_SIZES],
                         ids=["1..20x1..20"] + [f"{m}x{n}" for m, n in LARGE_SIZES])
def test_critical_value_matches_fraction_scan(sizes):
    # the small sizes include degenerate tables (1x1, 1x2, 2x2, ...) on both
    # sides, and tables with mn odd (3x5) and even (4x5), whose centre is a
    # half-integer or an attainable value of U
    for m, n in sizes:
        t = build_table(m, n)
        for side in ("upper", "two_sided"):
            for alpha in ALPHAS:
                cv = critical_value(t, alpha, side)
                expected = scan_critical_value(t, alpha, side)
                assert (cv.value, cv.achieved_size, cv.degenerate) == expected, (m, n, side, alpha)


def test_minimal_tables():
    assert build_table(1, 1).counts == (1, 1)
    t = build_table(2, 2)
    np.testing.assert_allclose(t.pmf, [1 / 6, 1 / 6, 2 / 6, 1 / 6, 1 / 6])


@pytest.mark.parametrize("size", [True, 2.5, "3", 0], ids=["bool", "float", "str", "zero"])
def test_build_table_rejects_sizes_that_are_not_ints_from_1(size):
    # before and after the table of (1, 3) is cached: True == 1 and 3.0 == 3
    # hash alike, so an untyped cache would hand back that table
    build_table.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"m must be an int >= 1, got {size!r}")):
            build_table(size, 3)
        with pytest.raises(ValueError, match=re.escape(f"n must be an int >= 1, got {size!r}")):
            build_table(3, size)
        build_table(1, 3), build_table(3, 1)


def test_table_matches_enumeration_small():
    assert build_table(3, 2).counts == enumerate_counts(3, 2)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(1, 9)
                                 if m + n <= 10])
def test_table_matches_enumeration_exhaustive(m, n):
    assert build_table(m, n).counts == enumerate_counts(m, n)


def test_exact_moments_match_formula():
    for m in range(1, 13):
        for n in range(1, 13):
            t = build_table(m, n)
            assert t.exact_mean() == Fraction(m * n, 2)
            assert t.exact_variance() == Fraction(m * n * (m + n + 1), 12)


def test_pmf_symmetry_and_total_mass():
    t = build_table(7, 4)
    assert sum(t.counts) == math.comb(11, 7)
    for u in range(7 * 4 + 1):
        assert t.counts[u] == t.counts[7 * 4 - u]


@pytest.mark.parametrize("m,n", [(3, 2), (10, 10), (25, 25)])
def test_pmf_and_sf_equal_float_division_below_2_to_53(m, n):
    # the exact-int division must keep every digit of the float one while
    # C(m+n, m) < 2**53, where each count converts to float exactly
    t = build_table(m, n)
    assert t.total < 2**53
    counts = np.asarray(t.counts, dtype=float)
    assert t.pmf.tobytes() == (counts / t.total).tobytes()
    assert t.sf().tobytes() == (np.cumsum(counts[::-1])[::-1] / t.total).tobytes()


def test_pmf_and_sf_past_the_float_range():
    # C(1040, 520) ~ 2.9e311 has no float; the counts are synthetic (ones
    # with the rest of the total in the middle), so no table is built
    m = n = 520
    mn = m * n
    total = math.comb(m + n, m)
    assert total > 2**1024
    counts = [1] * (mn + 1)
    counts[mn // 2] = total - mn
    t = ExactNullTable(m, n, tuple(counts))
    pmf, sf = t.pmf, t.sf()
    assert pmf.shape == sf.shape == (mn + 1,)
    assert pmf[0] == pmf[-1] == float(Fraction(1, total)) > 0.0
    assert pmf[mn // 2] == float(Fraction(total - mn, total))
    assert sf[0] == 1.0
    assert sf[-1] == pmf[-1]
    assert sf[mn // 2 + 1] == float(Fraction(mn // 2, total))


def test_standardized_cdf_close_to_normal_at_50_50():
    t = build_table(50, 50)
    e0, var0 = null_moments(Design(50, 50))
    u = np.arange(50 * 50 + 1)
    exact_cdf = np.cumsum(t.pmf)
    approx_cdf = stats.norm.cdf((u - e0) / math.sqrt(var0))
    assert np.max(np.abs(exact_cdf - approx_cdf)) < 0.01


def test_size_limit():
    with pytest.raises(TableSizeError):
        build_table(2000, 2000)


def test_critical_value_degenerate_for_tiny_samples():
    cv = critical_value(build_table(1, 1), 0.05, "upper")
    assert cv.degenerate
    assert cv.achieved_size == 0.0


def test_critical_value_upper_properties():
    t = build_table(10, 10)
    cv = critical_value(t, 0.05, "upper")
    sf = t.sf()
    assert not cv.degenerate
    assert sf[cv.value] <= 0.05
    assert sf[cv.value - 1] > 0.05
    assert cv.achieved_size == pytest.approx(sf[cv.value], abs=1e-12)


def test_critical_value_two_sided_properties():
    t = build_table(10, 10)
    cv = critical_value(t, 0.05, "two_sided")
    sf = t.sf()
    size = sf[cv.value] + (1.0 - sf[100 - cv.value + 1])
    assert size <= 0.05 + 1e-12
    assert cv.achieved_size == pytest.approx(size, abs=1e-12)


def test_critical_value_close_to_normal_approximation():
    t = build_table(25, 25)
    cv = critical_value(t, 0.05, "upper")
    e0, var0 = null_moments(Design(25, 25))
    approx = math.ceil(e0 + stats.norm.ppf(0.95) * math.sqrt(var0))
    assert abs(cv.value - approx) <= 1


def test_critical_value_validates_inputs():
    t = build_table(5, 5)
    with pytest.raises(ValueError):
        critical_value(t, 0.7, "upper")
    with pytest.raises(ValueError):
        critical_value(t, 0.05, "lower")
