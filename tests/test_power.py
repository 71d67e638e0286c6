import itertools
import math
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from wmwdesign import (
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
from wmwdesign.power import _critical_values, wmw_power_at
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


def _oracle_normal_power(mu, sigma2, alpha, side):
    """The normal-approximation power as scipy.stats writes it, quantile and all."""
    sigma = math.sqrt(sigma2)
    if side == "one_sided_upper":
        return float(1.0 - stats.norm.cdf((stats.norm.ppf(1.0 - alpha) - mu) / sigma))
    return float(stats.norm.cdf((stats.norm.ppf(alpha / 2.0) - mu) / sigma)
                 - stats.norm.cdf((stats.norm.ppf(1.0 - alpha / 2.0) - mu) / sigma) + 1.0)


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
        want = _oracle_normal_power(res.mu_n, res.sigma2_n, alpha, side).hex()
        got = (res.approx_power.hex(), wmw_power_at(F, G, alpha, side)(m, n).hex())
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
        power_at = wmw_power_at(F, G, 0.05, side)
        for m, n in ((1, 1), (10, 10), (25, 40)):
            res = wmw_power(PowerQuery(F, G, Design(m, n), side=side))
            assert res.degenerate_variance and res.low_confidence
            assert res.sigma2_n == 0.0
            assert res.approx_power == power_at(m, n) == want


@pytest.mark.parametrize("alpha,side", [(1.5, "one_sided_upper"), (0.0, "one_sided_upper"),
                                        (math.nan, TWO_SIDED), (0.05, "both")])
def test_power_curve_rejects_bad_alpha_or_side_with_no_design(alpha, side):
    # with an empty grid no design is evaluated; it used to return []
    F, G = normal(0.75, 1), normal(0, 1)
    with pytest.raises(ValueError, match="alpha must be|side must be"):
        power_curve(F, G, 50, alpha=alpha, side=side, grid=[])
    with pytest.raises(ValueError, match="alpha must be|side must be"):
        wmw_power_at(F, G, alpha, side)


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


@pytest.mark.parametrize("sd1,sd2", [(1e200, 1.0), (1e-200, 1e-200), (1e150, 1.0)])
def test_welch_power_rejects_sds_whose_variance_overflows_or_underflows(sd1, sd2):
    # 1e200 gave NaN power (se2 = inf), 1e-200 a ZeroDivisionError (se2 = 0),
    # 1e150 NaN (se2 finite, its square inf)
    with pytest.raises(ValueError, match="both must be finite and > 0"):
        welch_power(0.5, sd1, 0, sd2, Design(25, 25))


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
