import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wmwdesign.simulate as simulate_mod
from wmwdesign import (
    Design,
    SimulationPlan,
    TWO_SIDED,
    build_table,
    compute_u,
    critical_value,
    exponential,
    normal,
    simulate_power,
)


def test_compute_u_trivia():
    assert compute_u([1, 2], [0]) == 2
    assert compute_u([0], [1, 2]) == 0
    assert compute_u([1.0], [1.0]) == 1  # ties count as exceedances


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=12),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=12),
)
def test_compute_u_matches_double_loop(xs, ys):
    brute = sum(1 for x in xs for y in ys if x >= y)
    assert compute_u(xs, ys) == brute


def test_compute_u_complement():
    rng = np.random.default_rng(0)
    for _ in range(100):
        xs = rng.normal(size=8)
        ys = rng.normal(size=8)
        assert compute_u(xs, ys) + compute_u(ys, xs) == 64


def test_compute_u_rejects_empty():
    with pytest.raises(ValueError):
        compute_u([], [1.0])


@pytest.mark.parametrize("m,n", [(1, 1), (1, 7), (7, 1), (3, 5), (25, 25), (10, 60),
                                 (70, 70), (150, 150)])
@pytest.mark.parametrize("integer_valued", [False, True])
def test_u_matrix_matches_broadcast_count(m, n, integer_valued):
    rng = np.random.default_rng(m * 1000 + n)
    X = rng.normal(0.3, 1.0, size=(64, m))
    Y = rng.normal(0.0, 1.0, size=(64, n))
    if integer_valued:  # forces many x == y ties, which count as x >= y
        X, Y = np.round(2 * X), np.round(2 * Y)
    broadcast = (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))
    U = simulate_mod._u_matrix(X, Y)
    assert U.dtype == broadcast.dtype
    np.testing.assert_array_equal(U, broadcast)


def test_u_matrix_all_tied():
    U = simulate_mod._u_matrix(np.zeros((3, 4)), np.zeros((3, 5)))
    np.testing.assert_array_equal(U, [20, 20, 20])


@pytest.mark.parametrize("test", ["t_hom", "t_het"])
@pytest.mark.parametrize("m,n", [(1, 5), (5, 1)])
def test_t_tests_reject_group_of_one(test, m, n):
    plan = SimulationPlan(normal(3, 1), normal(0, 1), Design(m, n), trials=100)
    with pytest.raises(ValueError, match="at least 2"):
        simulate_power(plan, test=test)


def test_determinism_same_seed():
    plan = SimulationPlan(normal(0.75, 1), normal(0, 1), Design(10, 10),
                          trials=5000, seed=77)
    a = simulate_power(plan)
    b = simulate_power(plan)
    assert a == b


def test_determinism_under_threads(monkeypatch):
    plan = SimulationPlan(normal(0.75, 1), normal(0, 1), Design(10, 10),
                          trials=9000, seed=42)
    serial = simulate_power(plan)
    # four threads even where fewer CPUs are usable, so the pool always runs
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("WMWDESIGN_THREADS", "4")
    threaded = simulate_power(plan)
    assert serial == threaded


def test_thread_count_clamped_to_cpus_and_blocks(monkeypatch):
    # only the helper runs here: a huge value must never start a pool
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("WMWDESIGN_THREADS", "64")
    assert simulate_mod._thread_count(1000) == 4
    assert simulate_mod._thread_count(3) == 3
    assert simulate_mod._thread_count(1) == 1
    for value in ("0", "-5", "many"):
        monkeypatch.setenv("WMWDESIGN_THREADS", value)
        assert simulate_mod._thread_count(1000) == 1
    monkeypatch.delenv("WMWDESIGN_THREADS")
    assert simulate_mod._thread_count(1000) == 1


def test_usable_cpus_is_the_affinity_set(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert simulate_mod._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("WMWDESIGN_THREADS", "64")
    assert simulate_mod._thread_count(1000) == min(64, simulate_mod._usable_cpus())


def test_null_size_control_exact_rule():
    F = normal(0, 1)
    plan = SimulationPlan(F, F, Design(25, 25), trials=50_000, seed=5)
    res = simulate_power(plan, test="wmw_exact")
    achieved = critical_value(build_table(25, 25), 0.05, "upper").achieved_size
    assert abs(res.rejection_rate - achieved) < 3 * res.standard_error


@pytest.mark.parametrize("test", ["wmw_normal", "t_hom", "t_het"])
def test_null_size_control_other_tests(test):
    F = normal(0, 1)
    plan = SimulationPlan(F, F, Design(20, 20), trials=40_000, seed=6)
    res = simulate_power(plan, test=test)
    assert abs(res.rejection_rate - 0.05) < 4 * res.standard_error + 0.003


def test_two_sided_rejects_under_alternative():
    plan = SimulationPlan(exponential(0.25), exponential(0.75), Design(25, 25),
                          side=TWO_SIDED, trials=4000, seed=9)
    res = simulate_power(plan)
    assert res.rejection_rate > 0.5


def test_standard_error_definition():
    plan = SimulationPlan(normal(0.75, 1), normal(0, 1), Design(10, 10),
                          trials=2000, seed=3)
    res = simulate_power(plan)
    r = res.rejection_rate
    assert res.standard_error == pytest.approx((r * (1 - r) / 2000) ** 0.5)


def test_fallback_to_normal_rule_when_table_too_large(monkeypatch):
    monkeypatch.setattr(simulate_mod, "MAX_TABLE_ENTRIES", 50)
    plan = SimulationPlan(normal(0.75, 1), normal(0, 1), Design(10, 10),
                          trials=1000, seed=1)
    res = simulate_power(plan, test="wmw_exact")
    assert res.fell_back_to_normal
    assert res.test_used == "wmw_normal"


def test_invalid_test_name():
    plan = SimulationPlan(normal(0, 1), normal(0, 1), Design(5, 5), trials=10)
    with pytest.raises(ValueError):
        simulate_power(plan, test="sign_test")
