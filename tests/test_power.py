import math

import pytest
from hypothesis import given, strategies as st

from wmwdesign import (
    Design,
    PowerQuery,
    SimulationPlan,
    TWO_SIDED,
    chi_square,
    deficiency_general,
    deficiency_symmetric,
    exponential,
    normal,
    simulate_power,
    welch_deficiency,
    welch_optimal_omega,
    welch_power,
    wmw_power,
)


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


def test_welch_power_agrees_with_simulation():
    F, G = normal(0.75, 2), normal(0, 1)
    d = Design(25, 25)
    approx = welch_power(0.75, 2.0, 0.0, 1.0, d).approx_power
    sim = simulate_power(SimulationPlan(F, G, d, trials=10_000, seed=13), test="t_het")
    assert abs(approx - sim.rejection_rate) < 0.02


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


@pytest.mark.parametrize("F,G,degenerate", [
    (normal(0.75, 1), normal(0, 1), False),
    (chi_square(3), chi_square(5), False),
    (exponential(1.0), exponential(1.0, shift=100.0), True),
])
def test_approx_power_is_python_float(F, G, degenerate):
    for side in ("one_sided_upper", TWO_SIDED):
        res = wmw_power(PowerQuery(F, G, Design(10, 10), side=side))
        assert res.degenerate_variance is degenerate
        assert type(res.approx_power) is float
