import pytest

from wmwdesign import (
    ConfigurationError,
    Design,
    PowerQuery,
    TWO_SIDED,
    chi_square,
    deficiency_general,
    exponential,
    normal,
    optimal_design,
    power_curve,
    welch_deficiency,
    wmw_power,
)


def test_symmetric_pair_optimum_is_equal_split():
    report = optimal_design(normal(0.75, 1), normal(0, 1), 50)
    assert report.optimal == Design(25, 25)
    assert report.deficiency_at_half == 0.0


def test_symmetric_pair_odd_total_picks_middle():
    report = optimal_design(normal(0.75, 1), normal(0, 1), 51, compute_deficiency=False)
    assert report.optimal.m in (25, 26)


@pytest.mark.xfail(strict=True, reason="the tie-break compares rounded |omega - 1/2|: "
                   "|26/51 - 1/2| is one ulp below |25/51 - 1/2|, so 26/25 wins")
def test_exact_power_tie_goes_to_the_smaller_m():
    # 25/26 and 26/25 have bitwise-equal powers and are equally close to 1/2
    report = optimal_design(normal(0.5, 1), normal(0, 1), 51, compute_deficiency=False)
    by_m = {p.m: p.power for p in report.power_curve}
    assert by_m[25] == by_m[26]
    assert report.optimal == Design(25, 26)


def test_curve_symmetric_for_symmetric_shift_pair():
    points = power_curve(normal(0.75, 1), normal(0, 1), 50)
    by_m = {p.m: p.power for p in points}
    for m in range(1, 50):
        assert by_m[m] == pytest.approx(by_m[50 - m], abs=1e-8)


def test_curve_ordering_with_spread():
    # wider F lowers the peak power for the same shift
    peaks = {}
    for sd in (1 / 3, 1.0, 3.0):
        report = optimal_design(normal(0.75, sd), normal(0, 1), 50,
                                compute_deficiency=False)
        peaks[sd] = report.optimal_power
    assert peaks[1 / 3] > peaks[1.0] > peaks[3.0]


def test_report_invariants():
    report = optimal_design(exponential(0.25), exponential(0.75), 50)
    assert all(report.optimal_power >= p.power for p in report.power_curve)
    ms = [p.m for p in report.power_curve]
    assert ms == list(range(5, 46))
    assert report.deficiency_at_half >= 0.0


def test_reversal_duality_two_sided():
    F, G = exponential(0.25), exponential(0.75)
    a = optimal_design(F, G, 50, side=TWO_SIDED, compute_deficiency=False)
    b = optimal_design(G, F, 50, side=TWO_SIDED, compute_deficiency=False)
    assert abs(a.optimal.omega - (1 - b.optimal.omega)) <= 1 / 50 + 1e-12


def test_deficiency_consistent_with_curve():
    F, G = normal(0.75, 3), normal(0, 1)
    report = optimal_design(F, G, 50)
    enlarged = round(50 * (1 + report.deficiency_at_half))
    d = Design.from_total(enlarged, 0.5)
    power = wmw_power(PowerQuery(F, G, d)).approx_power
    assert power >= report.optimal_power - 0.002


def test_power_curve_grid_points():
    points = power_curve(chi_square(5, shift=1.5), chi_square(5), 50,
                         grid=[0.3, 0.5, 0.7])
    assert [p.m for p in points] == [15, 25, 35]


@pytest.mark.parametrize("total_n", [0, 1, -3, True, 50.0], ids=repr)
@pytest.mark.parametrize("grid", [None, [0.5]], ids=["default grid", "grid 0.5"])
def test_total_sample_size_must_be_an_int_of_at_least_two(total_n, grid):
    # the grid scans used to blame a float N's group size, and report no
    # allocations for N=True
    F, G = normal(0.75, 1), normal(0, 1)
    message = f"total sample size N must be an int >= 2, got {total_n!r}"
    for call in (lambda: power_curve(F, G, total_n, grid=grid),
                 lambda: Design.from_total(total_n, 0.5),
                 lambda: optimal_design(F, G, total_n),
                 lambda: deficiency_general(F, G, total_n, 0.5),
                 lambda: welch_deficiency(0.75, 1.0, 0.0, 1.0, total_n, 0.5)):
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == message


def test_empty_grid_raises():
    with pytest.raises(ConfigurationError):
        optimal_design(normal(0.75, 1), normal(0, 1), 3, epsilon=0.45)
