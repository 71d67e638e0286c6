import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from wmwdesign import (
    AllocationSearchError,
    ConfigurationError,
    Design,
    PowerQuery,
    SimulationPlan,
    TWO_SIDED,
    chi_square,
    deficiency_general,
    deficiency_symmetric,
    exponential,
    normal,
    optimal_design,
    power_curve,
    simulate_power,
    welch_deficiency,
    welch_optimal_omega,
    welch_power,
    wmw_power,
)
from wmwdesign import moments
from wmwdesign import power as power_mod
from wmwdesign.exceedance import RESULT_TOL, second_moment_integrals
from wmwdesign.moments import MomentSummary, alt_moments, null_moments
from wmwdesign.power import (_critical_values, _deficiency_search, _grid, _welch_powers,
                             _wmw_powers)
from wmwdesign.scenarios import SCENARIOS

CATALOGUE_PAIRS = list(dict.fromkeys((s.F, s.G) for group in SCENARIOS.values() for s in group))


def test_null_power_equals_alpha():
    F = normal(0, 1)
    for alpha in (0.01, 0.05, 0.1):
        res = wmw_power(PowerQuery(F, F, Design(25, 25), alpha=alpha))
        assert res.approx_power == pytest.approx(alpha, abs=1e-12)
        res2 = wmw_power(PowerQuery(F, F, Design(10, 40), alpha=alpha, side=TWO_SIDED))
        assert res2.approx_power == pytest.approx(alpha, abs=1e-12)


def test_power_agrees_with_simulation():
    F, G = normal(0.75, 1), normal(0, 1)
    d = Design(25, 25)
    approx = wmw_power(PowerQuery(F, G, d)).approx_power
    sim = simulate_power(SimulationPlan(F, G, d, trials=10_000, seed=41))
    assert abs(approx - sim.rejection_rate) < 0.015


def test_two_sided_power_bounds():
    F, G = exponential(0.25), exponential(0.75)
    res = wmw_power(PowerQuery(F, G, Design(25, 25), side=TWO_SIDED))
    assert 0.05 < res.approx_power <= 1.0
    # a two-sided test at alpha dominates the one-sided test at alpha/2
    halved = wmw_power(PowerQuery(F, G, Design(25, 25), alpha=0.025)).approx_power
    assert res.approx_power >= halved - 1e-12


def test_power_nondecreasing_in_total_n():
    F, G = normal(0.75, 1), normal(0, 1)
    powers = [
        wmw_power(PowerQuery(F, G, Design(n // 2, n // 2))).approx_power
        for n in range(20, 101, 10)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))


@settings(deadline=None)
@given(st.sampled_from(CATALOGUE_PAIRS), st.integers(1, 300), st.integers(1, 300))
def test_reversal_duality(pair, m, n):
    # (G, F) at n/m has p' = 1 - p, int F^2 g = i2 - 2p + 1 and
    # int (1 - G)^2 f = 1 - 2p + i1, so var1 is unchanged and mu_n flips sign
    F, G = pair
    res = wmw_power(PowerQuery(F, G, Design(m, n), side=TWO_SIDED))
    rev = wmw_power(PowerQuery(G, F, Design(n, m), side=TWO_SIDED))
    assert rev.mu_n == pytest.approx(-res.mu_n, abs=1e-6)
    assert rev.sigma2_n == pytest.approx(res.sigma2_n, abs=1e-6)
    assert rev.approx_power == pytest.approx(res.approx_power, abs=1e-6)


def _oracle_critical_values(alpha, side):
    if side == "one_sided_upper":
        return float(stats.norm.ppf(1.0 - alpha))
    return float(stats.norm.ppf(alpha / 2.0)), float(stats.norm.ppf(1.0 - alpha / 2.0))


def _oracle_normal_power(mu, sigma2, crit, side):
    """The normal-approximation power as scipy.stats writes it, at critical values crit."""
    if sigma2 <= 0.0:
        # all mass of U on one side: 1 wherever the test can reject, else 0
        return 1.0 if mu > 0 or (side == TWO_SIDED and mu != 0) else 0.0
    sigma = math.sqrt(sigma2)
    if side == "one_sided_upper":
        return float(1.0 - stats.norm.cdf((crit - mu) / sigma))
    lower, upper = crit
    return float(stats.norm.cdf((lower - mu) / sigma) - stats.norm.cdf((upper - mu) / sigma) + 1.0)


def _oracle_alt_moments(d, F, G):
    """The moments of U at one design, in Python ints and floats: mn(N + 1) and
    mn(3N - 5) are exact integers at any size, rounded to float once."""
    m, n = d.m, d.n
    mn = m * n
    e0, var0 = null_moments(d)
    if F == G:
        return MomentSummary(e0=e0, var0=var0, e1=e0, var1=var0, mu_n=0.0, sigma2_n=1.0)
    s = second_moment_integrals(F, G)
    p, i1, i2 = s.p_x_ge_y, s.int_g2_f, s.int_1mf2_g
    e1 = mn * p
    var1 = mn * (p - (m + n - 1) * p * p + (n - 1) * i1 + (m - 1) * i2)
    clamped = var1 <= mn * (3 * (m + n) - 5) * RESULT_TOL
    if clamped:
        var1 = 0.0
    return MomentSummary(e0=e0, var0=var0, e1=e1, var1=var1, mu_n=(e1 - e0) / math.sqrt(var0),
                         sigma2_n=var1 / var0, var1_clamped=clamped)


def _oracle_power_at(F, G, alpha=0.05, side="one_sided_upper"):
    """The function Design -> WMW power, one design at a time: the oracle of
    every WMW power the package computes."""
    crit = _oracle_critical_values(alpha, side)

    def power_at(d):
        ms = _oracle_alt_moments(d, F, G)
        return _oracle_normal_power(ms.mu_n, ms.sigma2_n, crit, side)

    return power_at


def test_power_matches_scipy_stats_oracle_bitwise():
    cases = itertools.product(
        CATALOGUE_PAIRS[:6] + [(normal(0, 1), normal(0, 1))],
        [(1, 1), (1, 6), (6, 1), (3, 11), (25, 25), (40, 9), (150, 300)],
        [1e-6, 0.01, 0.05, 0.1, 0.5, 0.9],
        ["one_sided_upper", TWO_SIDED],
    )
    mismatches = []
    for (F, G), (m, n), alpha, side in cases:
        res = wmw_power(PowerQuery(F, G, Design(m, n), alpha, side))
        assert not res.degenerate_variance
        want = _oracle_normal_power(res.mu_n, res.sigma2_n, _oracle_critical_values(alpha, side),
                                    side).hex()
        got = (res.approx_power.hex(), _oracle_power_at(F, G, alpha, side)(Design(m, n)).hex())
        if got != (want, want):
            mismatches.append((F, G, m, n, alpha, side, got, want))
    assert mismatches == []


def test_critical_values_match_scipy_stats_ppf_bitwise():
    rng = np.random.default_rng(2022)
    alphas = np.concatenate([rng.uniform(0.0, 1.0, 5_000), 10.0 ** rng.uniform(-17, 0, 5_000)])
    mismatches = []
    for alpha in alphas[(alphas > 0.0) & (alphas < 1.0)].tolist():
        one = _critical_values(alpha, "one_sided_upper")
        two = _critical_values(alpha, TWO_SIDED)
        want = (float(stats.norm.ppf(1.0 - alpha)), float(stats.norm.ppf(alpha / 2.0)),
                float(stats.norm.ppf(1.0 - alpha / 2.0)))
        if (one.hex(), *(c.hex() for c in two)) != tuple(w.hex() for w in want):
            mismatches.append(alpha)
    assert mismatches == []


@pytest.mark.parametrize("F,G,one_sided,two_sided", [
    # U sits at mn or at 0: power 1 wherever the two-sided test can reject,
    # 0 one-sided in the lower direction
    (exponential(1.0, shift=100.0), exponential(1.0), 1.0, 1.0),
    (exponential(1.0), exponential(1.0, shift=100.0), 0.0, 1.0),
])
def test_degenerate_variance_power_and_flags(F, G, one_sided, two_sided):
    for side, want in (("one_sided_upper", one_sided), (TWO_SIDED, two_sided)):
        power_at = _oracle_power_at(F, G, 0.05, side)
        for m, n in ((1, 1), (10, 10), (25, 40)):
            res = wmw_power(PowerQuery(F, G, Design(m, n), side=side))
            assert res.degenerate_variance and res.low_confidence
            assert res.sigma2_n == 0.0
            assert res.approx_power == power_at(Design(m, n)) == want


@pytest.mark.parametrize("alpha,side", [(1.5, "one_sided_upper"), (0.0, "one_sided_upper"),
                                        (math.nan, TWO_SIDED), (0.05, "both")])
def test_power_curve_rejects_bad_alpha_or_side_with_no_design(alpha, side):
    # with an empty grid no design is evaluated; it used to return []
    F, G = normal(0.75, 1), normal(0, 1)
    with pytest.raises(ValueError, match="alpha must be|side must be"):
        power_curve(F, G, 50, alpha=alpha, side=side, grid=[])
    with pytest.raises(ValueError, match="alpha must be|side must be"):
        _wmw_powers(F, G, alpha, side)


def test_small_groups_flagged_low_confidence():
    F, G = normal(0.75, 1), normal(0, 1)
    assert wmw_power(PowerQuery(F, G, Design(5, 45))).low_confidence
    assert not wmw_power(PowerQuery(F, G, Design(25, 25))).low_confidence


def test_deficiency_symmetric_values():
    assert deficiency_symmetric(0.5) == 0.0
    assert deficiency_symmetric(0.25) == pytest.approx(1 / 3, abs=1e-15)
    assert deficiency_symmetric(0.1) == pytest.approx(1 / 0.36 - 1, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_deficiency_symmetric_mirror(omega):
    assert deficiency_symmetric(omega) == pytest.approx(
        deficiency_symmetric(1 - omega), rel=1e-12
    )
    assert deficiency_symmetric(omega) >= 0.0


def test_deficiency_symmetric_domain():
    with pytest.raises(ValueError):
        deficiency_symmetric(0.0)
    with pytest.raises(ValueError):
        deficiency_symmetric(1.0)


def test_deficiency_general_zero_at_optimum():
    F, G = normal(0.75, 1), normal(0, 1)
    assert deficiency_general(F, G, 50, 0.5) == 0.0


@pytest.mark.parametrize("F,omega,skipped,expected", [
    # 0.4 rounds down and 0.5 rounds half to even, so totals 4 and 5 give m = 0
    (normal(0.75, 1), 0.1, [4, 5], 1.75),
    # every total up to 50 gives m = 0; a group of one reaches the target from
    # total 11 on, so a search that clamped m to 1 instead of skipping would
    # stop there
    (normal(1, 1), 0.01, list(range(4, 51)), 11.75),
])
def test_deficiency_search_skips_totals_that_leave_a_group_empty(F, omega, skipped, expected):
    G, total_n, epsilon = normal(0, 1), 4, 0.1

    def power(m, n):
        return wmw_power(PowerQuery(F, G, Design(m, n))).approx_power

    # the documented rule, walked independently: m = round(omega * t) with
    # halves to even, n = t - m, totals with an empty group passed over
    target = max(power(m, total_n - m)
                 for m in range(1, total_n) if epsilon <= m / total_n <= 1 - epsilon)
    walked = []
    for t in range(total_n, 20 * total_n + 1):
        m = int(Decimal(omega * t).to_integral_value(rounding=ROUND_HALF_EVEN))
        if m < 1 or t - m < 1:
            walked.append(t)
        elif power(m, t - m) >= target - 1e-12:
            break
    assert walked == skipped
    assert t / total_n - 1.0 == expected
    assert deficiency_general(F, G, total_n, omega, epsilon=epsilon) == expected


def test_deficiency_general_positive_off_optimum():
    F, G = normal(0.75, 1), normal(0, 1)
    d = deficiency_general(F, G, 50, 0.25)
    # symmetric closed form predicts 1/3 for omega = 0.25
    assert 0.2 <= d <= 0.45


def test_welch_optimal_omega():
    assert welch_optimal_omega(1, 1) == 0.5
    assert welch_optimal_omega(3, 1) == pytest.approx(0.75)
    assert welch_optimal_omega(1, 3) == pytest.approx(0.25)


def test_welch_null_power_is_alpha():
    res = welch_power(0.0, 1.0, 0.0, 1.0, Design(25, 25), alpha=0.05)
    assert res.approx_power == pytest.approx(0.05, abs=0.005)


def test_welch_power_peaks_near_closed_form_allocation():
    # grid-scan oracle: the argmax over allocations should sit near
    # 1 / (1 + sd2/sd1)
    powers = {m: welch_power(0.75, 2.0, 0.0, 1.0, Design(m, 50 - m)).approx_power
              for m in range(5, 46)}
    best_m = max(powers, key=powers.get)
    assert abs(best_m / 50 - welch_optimal_omega(2.0, 1.0)) <= 0.08


@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_welch_power_agrees_with_simulation(side):
    F, G = normal(0.75, 2), normal(0, 1)
    d = Design(25, 25)
    approx = welch_power(0.75, 2.0, 0.0, 1.0, d, side=side).approx_power
    sim = simulate_power(SimulationPlan(F, G, d, side=side, trials=10_000, seed=13), test="t_het")
    assert abs(approx - sim.rejection_rate) < 0.02


def _oracle_welch_power(mu1, sd1, mu2, sd2, m, n, alpha, side):
    """Welch power and its upper-tail term, written with scipy.stats' t quantile
    and noncentral-t cdf and sf."""
    v1, v2 = sd1 * sd1 / m, sd2 * sd2 / n
    se2 = v1 + v2
    df = se2 * se2 / (v1 * v1 / (m - 1) + v2 * v2 / (n - 1)) if min(m, n) > 1 else 1.0
    ncp = (mu1 - mu2) / math.sqrt(se2)
    if side == "one_sided_upper":
        upper = float(stats.nct.sf(stats.t.ppf(1.0 - alpha, df), df, ncp))
        return upper, upper
    tcrit = stats.t.ppf(1.0 - alpha / 2.0, df)
    upper = stats.nct.sf(tcrit, df, ncp)
    return float(upper + stats.nct.cdf(-tcrit, df, ncp)), float(upper)


def test_welch_power_matches_scipy_stats_oracle_bitwise():
    cases = itertools.product(
        [-1.0, 0.0, 0.5, 2.5],                     # mu1, against mu2 = 0
        [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)],      # sd1, sd2
        [(1, 1), (1, 6), (6, 1), (3, 11), (25, 25), (40, 9)],
        [0.01, 0.05, 0.3],
        ["one_sided_upper", TWO_SIDED],
    )
    mismatches, oracle_nan = [], []
    for mu1, (sd1, sd2), (m, n), alpha, side in cases:
        got = welch_power(mu1, sd1, 0.0, sd2, Design(m, n), alpha, side).approx_power
        want, upper = _oracle_welch_power(mu1, sd1, 0.0, sd2, m, n, alpha, side)
        if math.isnan(want):
            # the oracle's lower tail, stats.nct.cdf, is NaN at a large
            # noncentrality, where that tail is negligible
            oracle_nan.append((mu1, sd1, sd2, m, n, alpha, side))
            ok = math.isfinite(got) and abs(got - upper) <= 1e-12
        else:
            ok = got.hex() == want.hex()
        if not ok:
            mismatches.append((mu1, sd1, sd2, m, n, alpha, side, got, want))
    assert mismatches == []
    assert oracle_nan != []  # the NaN branch is exercised


def _oracle_welch_deficiency(mu1, sd1, mu2, sd2, total_n, omega, alpha, side, epsilon=0.1):
    """The Welch deficiency from _oracle_welch_power: the optimum over the grid
    epsilon <= m/N <= 1 - epsilon with both groups >= 2, then totals N..20 N
    split as m = round(omega * t) with halves to even; None if none reaches it."""
    def power(m, n):
        return _oracle_welch_power(mu1, sd1, mu2, sd2, m, n, alpha, side)[0]

    target = max(power(m, total_n - m) for m in range(2, total_n - 1)
                 if epsilon <= m / total_n <= 1 - epsilon)
    for t in range(total_n, 20 * total_n + 1):
        m = int(Decimal(omega * t).to_integral_value(rounding=ROUND_HALF_EVEN))
        if 1 <= m < t and power(m, t - m) >= target - 1e-12:
            return t / total_n - 1.0
    return None


@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3])
def test_welch_deficiency_matches_scipy_stats_oracle_bitwise(alpha, side):
    # omega = 0.04 splits N = 21 as 1/20 and N = 20 as 1/19, 0.08 gives groups
    # of two; the package is scale-free, so at 2^+-300 it must answer what the
    # oracle (whose squares overflow there) answers at scale 1
    cases = itertools.product([(0.75, 1.0, 1.0), (1.5, 3.0, 1.0), (0.5, 0.5, 2.0)], [20, 21],
                              [0.04, 0.08, 0.3, 0.5, 0.85])
    mismatches = []
    for (mu1, sd1, sd2), total_n, omega in cases:
        want = _oracle_welch_deficiency(mu1, sd1, 0.0, sd2, total_n, omega, alpha, side)
        for scale in (1.0, 2.0 ** 300, 2.0 ** -300):
            got = welch_deficiency(mu1 * scale, sd1 * scale, 0.0, sd2 * scale, total_n,
                                   omega, alpha, side)
            if got.hex() != want.hex():
                mismatches.append((mu1, sd1, sd2, scale, total_n, omega, got, want))
    assert mismatches == []


def test_welch_deficiency_search_failure_matches_oracle():
    # the optimum puts 45 of 50 in the sd-10 group; at omega = 0.02 even
    # 20 N = 1000 subjects (20/980) fall short of it
    assert _oracle_welch_deficiency(0.75, 10.0, 0.0, 1.0, 50, 0.02, 0.05,
                                    "one_sided_upper") is None
    with pytest.raises(AllocationSearchError):
        welch_deficiency(0.75, 10.0, 0.0, 1.0, 50, 0.02)


def test_welch_powers_on_an_array_of_designs_match_welch_power_bitwise():
    m = np.array([1, 1, 2, 6, 3, 25, 40, 1, 2, 400])
    n = np.array([1, 6, 2, 1, 11, 25, 9, 300, 700, 400])
    largest_two_sided_ncp = 0.0
    for (mu1, sd1, sd2), alpha, side in itertools.product(
            [(0.0, 1.0, 1.0), (0.5, 2.0, 0.5), (3.0, 1.0, 1.0), (-1.0, 0.3, 3.0)],
            [0.01, 0.05, 0.3], ["one_sided_upper", TWO_SIDED]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            powers, ncps = _welch_powers(mu1, sd1, 0.0, sd2, m, n, alpha, side)
        assert [str(w.message) for w in caught] == []
        want = [welch_power(mu1, sd1, 0.0, sd2, Design(a, b), alpha, side)
                for a, b in zip(m.tolist(), n.tolist())]
        assert [p.hex() for p in powers.tolist()] == [w.approx_power.hex() for w in want]
        assert [c.hex() for c in ncps.tolist()] == [w.mu_n.hex() for w in want]
        if side == TWO_SIDED:
            largest_two_sided_ncp = max(largest_two_sided_ncp, ncps.max())
    assert largest_two_sided_ncp > 6.6  # where stats.nct.cdf's lower tail is NaN


@pytest.mark.parametrize("sd,m,n,first", [
    # 1.2e154 squared is 1.44e308: se2 overflows at 1/2 and 1/1, not at 2/2
    (1.2e154, [2, 1, 1], [2, 2, 1], "m=1, n=2 give se2=inf"),
    # 1e-160 squared is subnormal: se2 underflows to 0 in the large groups
    (1e-160, [1, 20000, 10000], [1, 20000, 10000], "m=20000, n=20000 give se2=0.0"),
])
def test_welch_powers_name_the_first_design_whose_se2_is_not_finite(sd, m, n, first):
    with pytest.raises(ValueError, match=re.escape(first)):
        _welch_powers(0.5, sd, 0.0, sd, np.array(m), np.array(n), 0.05, "one_sided_upper")


# the WMW pairs of the array tests: the catalogue, F == G, and both orders of
# a pair whose U sits at mn or at 0 (degenerate variance)
DEGENERATE_PAIRS = [(exponential(1.0, shift=100.0), exponential(1.0)),
                    (exponential(1.0), exponential(1.0, shift=100.0))]
ARRAY_PAIRS = CATALOGUE_PAIRS + [(normal(0, 1), normal(0, 1))] + DEGENERATE_PAIRS


@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_wmw_powers_match_the_scalar_oracle_bitwise(side):
    rng = np.random.default_rng(23)
    m = np.concatenate([[1, 1, 2, 6, 25, 150], rng.integers(1, 400, 60)])
    n = np.concatenate([[1, 6, 2, 1, 25, 300], rng.integers(1, 400, 60)])
    mismatches = []
    for (F, G), alpha in itertools.product(ARRAY_PAIRS, [1e-6, 0.05, 0.5]):
        power_at = _oracle_power_at(F, G, alpha, side)
        got = _wmw_powers(F, G, alpha, side)(m, n)
        want = [power_at(Design(a, b)) for a, b in zip(m.tolist(), n.tolist())]
        if [g.hex() for g in got.tolist()] != [w.hex() for w in want]:
            mismatches.append((F, G, alpha))
    assert mismatches == []


def test_alt_moments_match_the_scalar_oracle_bitwise():
    # the one-design view of the array moments: Python floats and a bool,
    # bitwise the oracle's, up to groups whose totals pass int64
    designs = [Design(1, 1), Design(1, 6), Design(6, 1), Design(25, 25), Design(150, 300),
               Design(np.int64(40), 9), Design(2 ** 22, 2 ** 22), Design(2 ** 22 + 1, 2 ** 22 - 1),
               Design(2 ** 62, 2 ** 62 + 6), Design(2 ** 63, 2 ** 70)]
    names = [field.name for field in dataclasses.fields(MomentSummary)][:-1]
    mismatches, clamped = [], 0
    for (F, G), d in itertools.product(ARRAY_PAIRS, designs):
        got, want = alt_moments(d, F, G), _oracle_alt_moments(d, F, G)
        assert all(type(getattr(got, name)) is float for name in names)
        assert type(got.var1_clamped) is bool
        clamped += got.var1_clamped
        if ([getattr(got, name).hex() for name in names] != [getattr(want, name).hex()
                                                              for name in names]
                or got.var1_clamped != want.var1_clamped):
            mismatches.append((F, G, d))
    assert mismatches == []
    assert clamped == 2 * len(designs)  # both degenerate orders clamp at every design


@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_wmw_powers_take_exact_integer_products_at_large_designs(side):
    # mn(m + n + 1) passes 2^63 at groups of about 2^21; int64 products wrapped
    # and gave 0.9998 two-sided at 4194304/4194304, where the oracle gives 0.2933
    sizes = [10 ** 5, 2 ** 22, 12_345_679, 6 * 10 ** 7]
    m, n = (np.array(a) for a in zip(*itertools.product(sizes, sizes)))
    m, n = np.append(m, [2 ** 22 + 1, 999_983]), np.append(n, [2 ** 22 - 1, 31_415_926])
    assert any(int(a) * int(b) * (int(a) + int(b) + 1) != int(w) for a, b, w in
               zip(m, n, m * n * (m + n + 1)))  # int64 wraps at these designs
    for F, G in [(normal(0.001, 1), normal(0, 1)), (normal(0, 1.0001), normal(0, 1))]:
        power_at = _oracle_power_at(F, G, 0.05, side)
        got = _wmw_powers(F, G, 0.05, side)(m, n)
        want = [power_at(Design(a, b)) for a, b in zip(m.tolist(), n.tolist())]
        assert [g.hex() for g in got.tolist()] == [w.hex() for w in want]


def test_wmw_powers_take_exact_products_where_the_total_passes_int64():
    # m and n fit in int64 but m + n does not, so the sum wraps negative if
    # taken in int64; the oracle gives 0.315 at the first design.  These
    # designs stand alone: beside a design with a positive total past 2.3e6 the
    # products take Python ints whatever the wrapped sums read
    F, G = normal(1e-9, 1), normal(0, 1)
    m, n = np.array([2 ** 62, 2 ** 62 - 1]), np.array([2 ** 62 + 6, 2 ** 62 + 2])
    for side in ("one_sided_upper", TWO_SIDED):
        power_at = _oracle_power_at(F, G, 0.05, side)
        got = _wmw_powers(F, G, 0.05, side)(m, n)
        want = [power_at(Design(a, b)) for a, b in zip(m.tolist(), n.tolist())]
        assert [g.hex() for g in got.tolist()] == [w.hex() for w in want]
        assert all(0.05 < w < 0.9 for w in want)


def test_group_sizes_are_exact_ints_for_every_list():
    # _moments takes lists of sizes as int64, or as exact Python ints once a
    # size passes int64: empty lists, numpy ints, and 2**63 and 2**70 beside
    # small sizes all give the oracle's powers bit for bit
    F, G = normal(1e-9, 1), normal(0, 1)
    for side in ("one_sided_upper", TWO_SIDED):
        power_at = _oracle_power_at(F, G, 0.05, side)
        powers = _wmw_powers(F, G, 0.05, side)
        for m, n in [([], []), ([3, np.int64(3)], [4, np.int64(2 ** 62)]),
                     ([1, 2 ** 63, 5], [2, 2 ** 70, 7])]:
            got = powers(m, n)
            assert got.dtype == float
            want = [power_at(Design(a, b)) for a, b in zip(m, n)]
            assert [g.hex() for g in got.tolist()] == [w.hex() for w in want]


def test_grid_is_two_int64_columns():
    m, n = _grid(50, 0.1)
    assert m.dtype == n.dtype == np.int64
    assert (m.tolist(), n.tolist()) == (list(range(5, 46)), list(range(45, 4, -1)))
    m, n = _grid(np.int64(10), 0.0, smallest=2)
    assert (m.tolist(), n.tolist()) == (list(range(2, 9)), list(range(8, 1, -1)))


def test_scans_build_a_design_only_for_an_answer(monkeypatch):
    # the scans walk _grid's columns: a Design is built for the optimum and
    # for each omega of an explicit curve grid, and for no other design
    built = []
    post_init = Design.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Design, "__post_init__", counted)
    F, G = normal(0.75, 1), normal(0, 1)
    for call, count in [(lambda: optimal_design(F, G, 2000), 1),
                        (lambda: deficiency_general(F, G, 2000, 0.3), 0),
                        (lambda: welch_deficiency(0.75, 1.0, 0.0, 1.0, 2000, 0.3), 0),
                        (lambda: power_curve(F, G, 2000), 0),
                        (lambda: power_curve(F, G, 2000, grid=[0.2, 0.5, 0.5]), 3)]:
        built.clear()
        call()
        assert len(built) == count


def _grid_designs(total_n, epsilon, smallest=1):
    """The designs of ``_grid``'s columns, one ``Design`` each."""
    return [Design(a, b) for a, b in zip(*_grid(total_n, epsilon, smallest))]


# every omega of the benchmark's curve grid, 0.05 ... 0.95 in steps of 0.005:
# at N = 50 several map to the same design
FINE_GRID = [round(0.05 + 0.005 * k, 3) for k in range(181)]


@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_power_curve_matches_the_scalar_oracle_bitwise(side):
    mismatches = []
    for (F, G), alpha, (total_n, grid) in itertools.product(
            ARRAY_PAIRS, [1e-6, 0.05, 0.5], [(50, None), (137, None), (50, FINE_GRID)]):
        power_at = _oracle_power_at(F, G, alpha, side)
        points = power_curve(F, G, total_n, alpha, side, grid)
        designs = (_grid_designs(total_n, 0.0) if grid is None
                   else [Design.from_total(total_n, omega) for omega in grid])
        assert [(p.omega, p.m, p.n) for p in points] == [(d.omega, d.m, d.n) for d in designs]
        assert all(type(p.power) is float for p in points)
        if [p.power.hex() for p in points] != [power_at(d).hex() for d in designs]:
            mismatches.append((F, G, alpha, total_n, grid is None))
    assert mismatches == []


@pytest.mark.parametrize("total_n", [2 ** 62, 2 ** 63 + 6, 2 ** 64 + 1])
def test_power_curve_past_int64_matches_the_scalar_oracle_bitwise(total_n):
    F, G = normal(1e-9, 1), normal(0, 1)
    for side in ("one_sided_upper", TWO_SIDED):
        power_at = _oracle_power_at(F, G, 0.05, side)
        points = power_curve(F, G, total_n, side=side, grid=[0.5, 0.3, 0.999])
        assert [p.power.hex() for p in points] == [
            power_at(Design(p.m, p.n)).hex() for p in points]


def _no_quadrature(F, G):
    raise AssertionError("second_moment_integrals called")


def test_power_curve_with_an_empty_grid_takes_no_integrals(monkeypatch):
    monkeypatch.setattr(moments, "second_moment_integrals", _no_quadrature)
    assert power_curve(normal(0.7, 1), normal(0, 1), 50, grid=[]) == []


def test_power_curve_rejects_a_bad_omega_before_any_quadrature(monkeypatch):
    # a bad omega anywhere in the grid is found before the first point integrates
    monkeypatch.setattr(moments, "second_moment_integrals", _no_quadrature)
    with pytest.raises(ValueError, match=r"omega must be in \(0, 1\), got 1.5"):
        power_curve(normal(0.7, 1), normal(0, 1), 50, grid=[0.5, 1.5])


def test_deficiency_search_memory_does_not_grow_with_n():
    # an unreachable target walks every total up to 20 N; the chunks are
    # capped, so the peak is the same at 1.9 and at 0.38 million totals
    powers = _wmw_powers(normal(0.75, 1), normal(0, 1), 0.05, TWO_SIDED)
    powers(np.array([3]), np.array([4]))  # integrals cached before the measurement
    peaks = []
    for total_n in (20_000, 100_000):
        tracemalloc.start()
        try:
            with pytest.raises(AllocationSearchError):
                _deficiency_search(powers, total_n, 0.5, 2.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 ** 20
    assert abs(peaks[1] - peaks[0]) < 2 ** 16


def _walked_deficiency(power_at, total_n, omega, target):
    """The deficiency search as a walk over the totals, one design at a time:
    the oracle of the chunked search, which must return and raise what it does."""
    for t in range(total_n, 20 * total_n + 1):
        m = int(round(omega * t))
        if 1 <= m < t and power_at(Design(m, t - m)) >= target - 1e-12:
            return t / total_n - 1.0
    raise AllocationSearchError("no total sample size up to 20x reaches the optimal power")


def _outcome(call):
    """A float result as hex, or the type and message of the error raised."""
    try:
        return call().hex()
    except (AllocationSearchError, ValueError) as error:
        return type(error).__name__, str(error)


# sds whose squares are a few subnormal units: se2 underflows to 0 in large groups
SUBNORMAL_2, SUBNORMAL_20 = (2 * 4.94e-324) ** 0.5, (20 * 4.94e-324) ** 0.5
WELCH_CASES = [(0.75, 1.0, 1.0), (0.75, 3.0, 1.0), (0.5, 0.5, 2.0), (3.0, 1.0, 1.0),
               (-0.5, 1.0, 1.0), (0.5 * SUBNORMAL_20, SUBNORMAL_20, SUBNORMAL_20),
               (0.5 * SUBNORMAL_2, SUBNORMAL_2, 2 * SUBNORMAL_2)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(baseline=st.sampled_from(["wmw", "welch"]),
       pair=st.sampled_from(ARRAY_PAIRS), welch=st.sampled_from(WELCH_CASES),
       side=st.sampled_from(["one_sided_upper", TWO_SIDED]),
       total_n=st.one_of(st.integers(2, 300), st.integers(1, 149).map(lambda k: 2 * k + 1)),
       omega=st.one_of(st.floats(0.001, 0.05), st.floats(0.95, 0.999), st.floats(0.05, 0.95)))
def test_chunked_deficiency_search_matches_the_walk(baseline, pair, welch, side, total_n, omega):
    if baseline == "wmw":
        F, G = pair
        power_at = _oracle_power_at(F, G, 0.05, side)
        target = max(map(power_at, _grid_designs(total_n, 0.1)))
        want = _outcome(lambda: _walked_deficiency(power_at, total_n, omega, target))
        assert _outcome(lambda: deficiency_general(F, G, total_n, omega, side=side)) == want
        best = optimal_design(F, G, total_n, side=side, compute_deficiency=False).optimal_power
        want = _outcome(lambda: _walked_deficiency(power_at, total_n, 0.5, best))
        got = _outcome(lambda: optimal_design(F, G, total_n, side=side).deficiency_at_half)
        assert got == want
    else:
        mu1, sd1, sd2 = welch

        def power_at(d):
            return welch_power(mu1, sd1, 0.0, sd2, d, side=side).approx_power

        want = _outcome(lambda: _walked_deficiency(
            power_at, total_n, omega, max(map(power_at, _grid_designs(total_n, 0.1, 2)))))
        assert _outcome(lambda: welch_deficiency(mu1, sd1, 0.0, sd2, total_n, omega,
                                                 side=side)) == want


def test_welch_deficiency_raises_in_walk_order():
    # the first chunk of totals, 20..275, holds 40/40, whose se2 underflows to 0;
    # the walk stops at 10/10, before it, and so must the chunked search
    s = SUBNORMAL_20
    assert welch_deficiency(0.5 * s, s, 0.0, s, 20, 0.5) == 0.0
    with pytest.raises(ValueError, match=re.escape("at m=40, n=40 give se2=0.0")):
        _welch_powers(0.5 * s, s, 0.0, s, np.array([10, 40]), np.array([10, 40]), 0.05,
                      "one_sided_upper")
    # here the bad design 4/31 comes before any total that reaches the target,
    # and the walk's own error, naming it, is raised with no chain of copies
    s = SUBNORMAL_2
    with pytest.raises(ValueError, match=re.escape("at m=4, n=31 give se2=0.0")) as info:
        welch_deficiency(0.5 * s, s, 0.0, 2 * s, 10, 0.1)
    assert info.value.__context__ is None


def test_welch_two_sided_power_is_finite_at_large_noncentrality():
    # the lower tail from nctdtr(df, ncp, -tcrit) was NaN here (ncp 10.6),
    # and the NaN made the deficiency search return 0.06
    assert welch_power(3, 1, 0, 1, Design(25, 25), side=TWO_SIDED).approx_power == 1.0
    assert welch_deficiency(3, 1, 0, 1, 50, 0.5, side=TWO_SIDED) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_welch_power_rejects_non_finite_means_and_sds(bad, position):
    args = [0.5, 1.0, 0.0, 1.0]
    args[position] = bad
    with pytest.raises(ValueError, match="must be finite"):
        welch_power(*args, Design(25, 25))


@pytest.mark.parametrize("sd1,sd2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, math.inf)])
def test_welch_optimal_omega_rejects_non_finite_sds(sd1, sd2):
    with pytest.raises(ValueError, match="must be finite"):
        welch_optimal_omega(sd1, sd2)


def test_welch_deficiency_with_nan_sd_is_value_error():
    # it used to search every total up to 20 N and raise AllocationSearchError
    with pytest.raises(ValueError, match="must be finite"):
        welch_deficiency(0.5, math.nan, 0, 1, 50, 0.5)


@pytest.mark.parametrize("sd1,sd2", [(1e200, 1.0), (1e-200, 1e-200)])
def test_welch_power_rejects_sds_whose_variance_overflows_or_underflows(sd1, sd2):
    # 1e200 gave NaN power (se2 = inf), 1e-200 a ZeroDivisionError (se2 = 0)
    with pytest.raises(ValueError, match="both must be finite and > 0"):
        welch_power(0.5, sd1, 0, sd2, Design(25, 25))


def test_welch_power_with_finite_variance_whose_square_overflows():
    # se2 = 4e298 is finite; only its square overflowed, which made df NaN
    power = welch_power(0.5, 1e150, 0, 1.0, Design(25, 25)).approx_power
    assert 0.0 <= power <= 1.0


def test_welch_deficiency_with_overflowing_sd_is_value_error():
    # it used to search every total up to 20 N and raise AllocationSearchError
    with pytest.raises(ValueError, match="both must be finite and > 0"):
        welch_deficiency(0.5, 1e200, 0, 1, 50, 0.5)


def test_welch_deficiency_zero_at_equal_sds():
    assert welch_deficiency(0.75, 1.0, 0.0, 1.0, 50, 0.5) == 0.0


def test_invalid_query_parameters():
    F = normal(0, 1)
    with pytest.raises(ValueError):
        PowerQuery(F, F, Design(5, 5), alpha=1.5)
    with pytest.raises(ValueError):
        PowerQuery(F, F, Design(5, 5), side="both")
    with pytest.raises(ValueError):
        welch_power(0, -1, 0, 1, Design(5, 5))


@pytest.mark.parametrize("omega", [0.0, 1.0, 1.5, -0.2])
def test_deficiency_searches_reject_omega_outside_unit_interval(omega):
    # the search used to clamp every split to m = 0 or n = 0, skip them all
    # and report an AllocationSearchError after scanning up to 20 N
    with pytest.raises(ValueError, match="omega must be in"):
        deficiency_general(normal(0.75, 1), normal(0, 1), 50, omega)
    with pytest.raises(ValueError, match="omega must be in"):
        welch_deficiency(0.75, 1.0, 0.0, 1.0, 50, omega)


@pytest.mark.parametrize("omega", [0.0, 1.5])
def test_deficiency_searches_reject_omega_before_evaluating_a_design(monkeypatch, omega):
    # the grid scan for the target power used to run first: at N = 4000,
    # omega = 1.5 spent about 0.5 s (WMW) and 0.2 s (Welch) before raising
    def evaluated(*args):
        raise AssertionError("a design's power was evaluated")

    monkeypatch.setattr(power_mod, "alt_moments", evaluated)
    monkeypatch.setattr(power_mod, "_welch_df", evaluated)
    with pytest.raises(ValueError, match="omega must be in"):
        deficiency_general(normal(0.75, 1), normal(0, 1), 4000, omega)
    with pytest.raises(ValueError, match="omega must be in"):
        welch_deficiency(0.75, 1.0, 0.0, 1.0, 4000, omega)


@pytest.mark.parametrize("omega", [0.0, 1.5])
def test_wmw_deficiency_rejects_omega_before_taking_the_integrals(monkeypatch, omega):
    # deficiency_general's grid pass and search evaluate designs as arrays,
    # without alt_moments; both take the integrals from the moments module
    def evaluated(*args):
        raise AssertionError("a design's power was evaluated")

    monkeypatch.setattr(power_mod.moments, "second_moment_integrals", evaluated)
    with pytest.raises(ValueError, match="omega must be in"):
        deficiency_general(normal(0.75, 1), normal(0, 1), 4000, omega)


@pytest.mark.parametrize("epsilon", [float("inf"), float("-inf"), float("nan"), -0.5, -1e-300])
def test_grid_searches_reject_epsilon_not_finite_and_nonnegative(epsilon):
    # inf used to raise OverflowError, NaN a conversion error, and a negative
    # epsilon was accepted and scanned 1..N-1
    F, G = normal(0.75, 1), normal(0, 1)
    with pytest.raises(ConfigurationError, match="epsilon"):
        optimal_design(F, G, 50, epsilon=epsilon)
    with pytest.raises(ConfigurationError, match="epsilon"):
        deficiency_general(F, G, 50, 0.5, epsilon=epsilon)
    with pytest.raises(ConfigurationError, match="epsilon"):
        welch_deficiency(0.75, 1.0, 0.0, 1.0, 50, 0.5, epsilon=epsilon)


def test_grid_accepts_epsilon_zero():
    report = optimal_design(normal(0.75, 1), normal(0, 1), 10, epsilon=0.0)
    assert [p.m for p in report.power_curve] == list(range(1, 10))


@pytest.mark.parametrize("F,G,degenerate", [
    (normal(0.75, 1), normal(0, 1), False),
    (chi_square(3), chi_square(5), False),
    (exponential(1.0), exponential(1.0, shift=100.0), True),
    (exponential(1.0, shift=100.0), exponential(1.0), True),
])
def test_approx_power_is_python_float(F, G, degenerate):
    for side in ("one_sided_upper", TWO_SIDED):
        res = wmw_power(PowerQuery(F, G, Design(10, 10), side=side))
        assert res.degenerate_variance is degenerate
        assert type(res.approx_power) is float
