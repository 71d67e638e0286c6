import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from wmwdesign import (
    ConfigurationError,
    Design,
    PowerQuery,
    SimulationPlan,
    alt_moments,
    build_table,
    deficiency_general,
    exponential,
    normal,
    null_moments,
    optimal_design,
    power_curve,
    prob_x_ge_y,
    simulate_power,
    standardized_mean_symmetric,
    welch_deficiency,
    welch_power,
    wmw_power,
)


def enumerate_null_moments(m, n):
    """Mean/variance of U over all equally likely rank arrangements."""
    total = m + n
    us = []
    for pos in itertools.combinations(range(total), m):
        xs = set(pos)
        u = sum(sum(1 for j in range(i) if j not in xs) for i in pos)
        us.append(u)
    us = np.asarray(us, dtype=float)
    return us.mean(), us.var()


def test_design_validation_and_omega():
    d = Design(3, 7)
    assert d.total_n == 10
    assert d.omega == 0.3
    assert Design(np.int64(3), 7) == d
    with pytest.raises(ValueError):
        Design(0, 5)


def _results(integer):
    """The results of six calls whose sizes, totals and trials are made by ``integer``."""
    F, G = normal(0.75, 1), normal(0, 1)
    d = Design(integer(25), integer(25))
    plan = SimulationPlan(F, G, d, trials=integer(200), seed=integer(3))
    return {
        "optimal_design": optimal_design(F, G, integer(50)),
        "power_curve": power_curve(F, G, integer(50), grid=[0.3, 0.5]),
        "wmw_power": wmw_power(PowerQuery(F, G, d)),
        "welch_power": welch_power(0.75, 1.0, 0.0, 1.0, d),
        "simulate_power": simulate_power(plan),
        "from_total": Design.from_total(integer(51), 0.5),
    }


def _scalars(integer):
    """The float answers of four calls whose total N is made by ``integer``."""
    F, G, total = normal(0.75, 0.5), normal(0, 1), integer(50)
    return {
        "deficiency_at_half": optimal_design(F, G, total).deficiency_at_half,
        "deficiency_general": deficiency_general(F, G, total, 0.3),
        "welch_deficiency": welch_deficiency(0.75, 0.5, 0.0, 1.0, total, 0.3),
        "standardized_mean_symmetric": standardized_mean_symmetric(0.3, total, 0.7),
    }


def test_numpy_integer_inputs_give_results_of_python_ints_and_bools():
    # Design, SimulationPlan and build_table store a numpy integer as a Python
    # int, and a checked total N is one, so a result's group sizes, trials, flags and
    # floats are plain and json.dumps takes it; types are compared exactly,
    # because a numpy float is a float subclass that json.dumps takes too
    def plain(value):
        if isinstance(value, (dict, list, tuple)):
            values = value.values() if isinstance(value, dict) else value
            return all(plain(v) for v in values)
        return type(value) in (int, bool, float, str, type(None))

    python, numpy = _results(int), _results(np.int64)
    for name, result in numpy.items():
        fields = ([dataclasses.asdict(p) for p in result] if isinstance(result, list)
                  else dataclasses.asdict(result))
        json.dumps(fields)
        assert plain(fields), name
        assert result == python[name], name
    python, numpy = _scalars(int), _scalars(np.int64)
    for name, value in numpy.items():
        assert type(value) is float and value.hex() == python[name].hex(), name
    # an exact table of numpy sizes is its own cache entry, with Python-int
    # sizes, whichever call comes first
    build_table.cache_clear()
    table = build_table(np.int64(30), 25)
    assert (type(table.m), type(table.n)) == (int, int)
    assert table == build_table(30, 25)


@pytest.mark.parametrize("size", [2.5, True, math.nan, np.float64(3.0), "3"],
                         ids=["float", "bool", "nan", "np.float64", "str"])
def test_design_rejects_group_sizes_that_are_not_ints(size):
    with pytest.raises(ValueError, match=r"group size m must be an int >= 1, got "):
        Design(size, 5)
    with pytest.raises(ValueError, match=r"group size n must be an int >= 1, got "):
        Design(5, size)


def test_design_from_total_rounds_to_realizable():
    assert Design.from_total(50, 0.5) == Design(25, 25)
    assert Design.from_total(10, 0.01) == Design(1, 9)
    assert Design.from_total(10, 0.99) == Design(9, 1)


@pytest.mark.parametrize("omega", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_design_from_total_rejects_omega_outside_unit_interval(omega):
    with pytest.raises(ValueError, match="omega must be in"):
        Design.from_total(50, omega)


def test_null_moments_minimal_case():
    assert null_moments(Design(1, 1)) == (0.5, 0.25)


def test_null_moments_match_enumeration():
    for m, n in [(3, 3), (2, 4), (4, 2)]:
        mean, var = enumerate_null_moments(m, n)
        e0, var0 = null_moments(Design(m, n))
        assert e0 == pytest.approx(mean, abs=1e-12)
        assert var0 == pytest.approx(var, abs=1e-12)


def test_null_moments_formula_values():
    assert null_moments(Design(3, 3)) == (4.5, 5.25)
    assert null_moments(Design(25, 25)) == (312.5, 2656.25)


def test_alt_moments_reduce_to_null_when_equal():
    F = normal(0.5, 2)
    for d in (Design(5, 5), Design(3, 8)):
        ms = alt_moments(d, F, F)
        e0, var0 = null_moments(d)
        assert ms.e1 == e0
        assert ms.var1 == var0
        assert ms.mu_n == 0.0
        assert ms.sigma2_n == 1.0


def test_alt_moments_match_simulation():
    F, G = normal(0.75, 1), normal(0, 1)
    d = Design(5, 5)
    ms = alt_moments(d, F, G)

    rng = np.random.default_rng(5)
    trials = 10**6
    X = F.sample(rng, (trials, 5))
    Y = G.sample(rng, (trials, 5))
    U = (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))
    se_mean = U.std() / math.sqrt(trials)
    assert abs(ms.e1 - U.mean()) < 4 * se_mean
    # variance of the sample variance ~ var^2 * 2/(trials-1) for near-normal U
    se_var = U.var() * math.sqrt(2.0 / trials)
    assert abs(ms.var1 - U.var()) < 4 * se_var


def test_alt_moments_exponential_pair_mean_and_variance():
    F, G = exponential(0.25), exponential(0.75)
    d = Design(3, 2)
    ms = alt_moments(d, F, G)
    assert ms.e1 == pytest.approx(6 * 0.75, abs=1e-7)

    rng = np.random.default_rng(17)
    trials = 10**6
    X = F.sample(rng, (trials, 3))
    Y = G.sample(rng, (trials, 2))
    U = (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))
    se_var = U.var() * math.sqrt(2.0 / trials)
    assert abs(ms.var1 - U.var()) < 4 * se_var


def test_swap_symmetry():
    F, G = exponential(0.25), exponential(0.75)
    d, ds = Design(3, 2), Design(2, 3)
    ms = alt_moments(d, F, G)
    ms_swapped = alt_moments(ds, G, F)
    assert ms_swapped.e1 == pytest.approx(d.m * d.n - ms.e1, abs=1e-7)
    assert ms_swapped.var1 == pytest.approx(ms.var1, abs=1e-6)


def test_standardized_mean_null_value():
    for omega in (0.1, 0.5, 0.9):
        assert standardized_mean_symmetric(omega, 50, 0.5) == 0.0


@pytest.mark.parametrize("total_n", [-1, -5, 0, 1, True, 50.0], ids=repr)
def test_standardized_mean_rejects_a_total_that_is_not_an_int_of_at_least_two(total_n):
    # it used to divide by zero at -1, fail in math.sqrt at -5 and return numbers for the rest
    with pytest.raises(ConfigurationError) as info:
        standardized_mean_symmetric(0.5, total_n, 0.7)
    assert str(info.value) == f"total sample size N must be an int >= 2, got {total_n!r}"


def test_standardized_mean_maximized_at_half():
    values = {omega: standardized_mean_symmetric(omega, 50, 0.7) for omega in
              (0.1, 0.3, 0.5, 0.7, 0.9)}
    assert max(values, key=values.get) == 0.5


def test_standardized_mean_matches_general_path():
    F, G = normal(0.75, 1), normal(0, 1)
    p = prob_x_ge_y(F, G)
    for m in (5, 15, 25, 35, 45):
        d = Design(m, 50 - m)
        ms = alt_moments(d, F, G)
        assert ms.mu_n == pytest.approx(
            standardized_mean_symmetric(d.omega, 50, p), abs=1e-8
        )


def test_sigma2_independent_of_omega_for_symmetric_shift():
    F, G = normal(0.75, 1), normal(0, 1)
    values = [
        alt_moments(Design(m, 50 - m), F, G).sigma2_n for m in range(5, 46, 5)
    ]
    assert max(values) - min(values) < 1e-8
