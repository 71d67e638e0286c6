import os
import sys
import threading
import tracemalloc
from concurrent import futures
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import wmwdesign.simulate as simulate_mod
from wmwdesign import (
    Design,
    SimulationPlan,
    TWO_SIDED,
    build_table,
    chi_square,
    compute_u,
    critical_value,
    exponential,
    log_normal,
    normal,
    simulate_power,
    welch_power,
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


@pytest.mark.parametrize("xs,ys", [
    ([1.0, np.nan], [0.0, 2.0]),
    ([np.nan], [np.nan]),
    ([1.0], [np.nan]),
    ([np.nan, 3.0], [1.0]),
])
def test_compute_u_rejects_nan(xs, ys):
    # NaN is unordered: a count of pairs with x >= y would be meaningless
    with pytest.raises(ValueError, match="NaN"):
        compute_u(xs, ys)


def test_compute_u_accepts_infinities():
    inf = np.inf
    assert compute_u([inf], [1.0, -inf, inf]) == 3
    assert compute_u([-inf], [-inf, 0.0]) == 1
    assert compute_u([0.0, -inf], [inf]) == 0


U_SHAPES = [(1, 1), (1, 7), (7, 1), (3, 5), (25, 25), (10, 60), (70, 70), (150, 150)]


def _u_block(m, n, integer_valued):
    rng = np.random.default_rng(m * 1000 + n)
    X = rng.normal(0.3, 1.0, size=(64, m))
    Y = rng.normal(0.0, 1.0, size=(64, n))
    if integer_valued:  # forces many x == y ties, which count as x >= y
        X, Y = np.round(2 * X), np.round(2 * Y)
    return X, Y, (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))


@pytest.mark.parametrize("m,n", U_SHAPES)
@pytest.mark.parametrize("integer_valued", [False, True])
def test_u_matrix_matches_broadcast_count(m, n, integer_valued):
    X, Y, broadcast = _u_block(m, n, integer_valued)
    U = simulate_mod._u_matrix(X, Y)
    assert U.dtype == broadcast.dtype
    np.testing.assert_array_equal(U, broadcast)


def _wmw_normal_block():
    """One full block at the largest wmw_normal design the benchmark draws."""
    rng = np.random.default_rng(391)
    return (rng.normal(0.1, 1.0, size=(simulate_mod.BLOCK_TRIALS, 391)),
            rng.normal(0.0, 1.0, size=(simulate_mod.BLOCK_TRIALS, 399)))


def test_u_matrix_full_block_matches_compute_u_row_by_row():
    X, Y = _wmw_normal_block()
    U = simulate_mod._u_matrix(X, Y)
    assert U.dtype == np.int64
    assert U.tolist() == [compute_u(x, y) for x, y in zip(X, Y)]


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


def _oracle_rejections(plan, test):
    """Rejections written out per (test, side), on the streams of (seed, block).

    U comes from the broadcast count, the blocks from their own SeedSequence.
    """
    m, n, alpha = plan.design.m, plan.design.n, plan.alpha
    upper = plan.side == "one_sided_upper"
    count = 0
    for block, start in enumerate(range(0, plan.trials, 2048)):
        b = min(2048, plan.trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(block,)))
        X = plan.F.sample(rng, (b, m))
        Y = plan.G.sample(rng, (b, n))
        if test in ("wmw_exact", "wmw_normal"):
            U = (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))
            if test == "wmw_exact":
                crit = critical_value(build_table(m, n), alpha, "upper" if upper else "two_sided")
                if crit.degenerate:
                    reject = np.zeros(b, dtype=bool)
                elif upper:
                    reject = U >= crit.value
                else:
                    reject = (U >= crit.value) | (U <= m * n - crit.value)
            else:
                z = (U - m * n / 2.0) / np.sqrt(m * n * (m + n + 1) / 12.0)
                if upper:
                    reject = z >= stats.norm.ppf(1.0 - alpha)
                else:
                    reject = np.abs(z) >= stats.norm.ppf(1.0 - alpha / 2.0)
        else:
            xbar, ybar = X.mean(axis=1), Y.mean(axis=1)
            vx, vy = X.var(axis=1, ddof=1), Y.var(axis=1, ddof=1)
            if test == "t_hom":
                sp2 = ((m - 1) * vx + (n - 1) * vy) / (m + n - 2)
                t = (xbar - ybar) / np.sqrt(sp2 * (1.0 / m + 1.0 / n))
                if upper:
                    reject = t >= stats.t.ppf(1.0 - alpha, m + n - 2)
                else:
                    reject = np.abs(t) >= stats.t.ppf(1.0 - alpha / 2.0, m + n - 2)
            else:
                v1, v2 = vx / m, vy / n
                se2 = v1 + v2
                df = se2 * se2 / (v1 * v1 / (m - 1) + v2 * v2 / (n - 1))
                t = (xbar - ybar) / np.sqrt(se2)
                if upper:
                    reject = t >= stats.t.ppf(1.0 - alpha, df)
                else:
                    reject = np.abs(t) >= stats.t.ppf(1.0 - alpha / 2.0, df)
        count += int(reject.sum())
    return count


_ORACLE_CASES = {
    # two full blocks and a partial one of 5 trials
    "partial_block": (Design(10, 12), 0.05, 2 * 2048 + 5),
    # size 1/6 per tail exceeds alpha: no rejection region on either side
    "degenerate_2x2": (Design(2, 2), 0.05, 300),
    # degenerate two-sided only: both tails together have size 1/3 > 0.3
    "degenerate_1x5": (Design(1, 5), 0.3, 300),
}


@pytest.mark.parametrize("test,side,case", [
    (test, side, case)
    for test in simulate_mod.TESTS
    for side in ("one_sided_upper", TWO_SIDED)
    for case, (design, _, _) in sorted(_ORACLE_CASES.items())
    if not (test.startswith("t_") and min(design.m, design.n) < 2)  # t tests need two
])
def test_rejection_rule_matches_per_case_oracle(test, side, case):
    design, alpha, trials = _ORACLE_CASES[case]
    plan = SimulationPlan(normal(0.75, 1), normal(0, 1), design, alpha, side,
                          trials=trials, seed=314)
    if case.startswith("degenerate") and test == "wmw_exact":
        cv_side = "upper" if side == "one_sided_upper" else "two_sided"
        degenerate = critical_value(build_table(design.m, design.n), alpha, cv_side).degenerate
        assert degenerate is (case == "degenerate_2x2" or side == TWO_SIDED)
    res = simulate_power(plan, test=test)
    assert res.rejection_rate == _oracle_rejections(plan, test) / trials


class _Recorded:
    """``spec``'s draws, with the size of every call recorded; rounded to
    halves if ``ties``, which forces many x == y ties (they count as x >= y)."""

    def __init__(self, spec, ties):
        self.spec, self.ties, self.sizes = spec, ties, []

    def sample(self, rng, size):
        self.sizes.append(size)
        draws = self.spec.sample(rng, size)
        return np.round(2 * draws) if self.ties else draws


@pytest.mark.parametrize("test,m,n", [
    (test, m, n)
    for test in simulate_mod.TESTS
    for m, n in U_SHAPES
    if not (test.startswith("t_") and min(m, n) < 2)  # t tests need two
])
@pytest.mark.parametrize("integer_valued", [False, True])
@pytest.mark.parametrize("rows", [5, 1])
@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_simulate_power_row_chunks_match_oracle(monkeypatch, test, m, n, integer_valued, rows,
                                                side):
    # 64 trials, Y drawn in twelve row chunks of five and a ragged one of
    # four or, with the budget below m + n, one row at a time; the oracle
    # draws Y whole and counts U by broadcasting
    monkeypatch.setattr(simulate_mod, "MERGE_BUDGET", 5 * (m + n) + 1 if rows == 5 else 1)
    u_chunks = []
    u_matrix = simulate_mod._u_matrix

    def recorded_u_matrix(X, Y):
        u_chunks.append(u_matrix(X, Y))
        return u_chunks[-1]

    monkeypatch.setattr(simulate_mod, "_u_matrix", recorded_u_matrix)
    F = _Recorded(normal(0.3, 1.0), integer_valued)
    G = _Recorded(normal(0.0, 1.0), integer_valued)
    plan = SimulationPlan(F, G, Design(m, n), side=side, trials=64, seed=m * 1000 + n)
    res = simulate_power(plan, test=test)

    chunks = [5] * 12 + [4] if rows == 5 else [1] * 64
    assert F.sizes == [(64, m)]
    assert G.sizes == [(r, n) for r in chunks]
    assert res.rejection_rate == _oracle_rejections(plan, test) / 64
    if test.startswith("wmw"):
        assert [len(u) for u in u_chunks] == chunks
        rng = simulate_mod._block_rng(plan.seed, 0)
        X, Y = F.sample(rng, (64, m)), G.sample(rng, (64, n))
        broadcast = (X[:, :, None] >= Y[:, None, :]).sum(axis=(1, 2))
        np.testing.assert_array_equal(np.concatenate(u_chunks), broadcast)


@pytest.mark.parametrize("test", simulate_mod.TESTS)
@pytest.mark.parametrize("F,G", [
    pytest.param(normal(0.1, 1.0), normal(0.0, 1.0), id="normal"),
    pytest.param(log_normal(0.1, 1.0, shift=0.2), log_normal(0.0, 1.0), id="lognormal"),
    pytest.param(chi_square(3.0, shift=0.2), chi_square(3.0), id="chisquare"),
])
@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_power_block_memory_is_x_plus_a_fixed_workspace(monkeypatch, test, F, G, cpus):
    # Full blocks at the largest wmw_normal design the benchmark draws, one
    # per usable CPU, so every block can run at once. A block's X draws,
    # 2048 x 391 (6.1 MiB), come whole; Y comes in row chunks of
    # MERGE_BUDGET values, each taken to its rejections with about 1.3 MiB
    # of temporaries. Drawing Y whole and scaling each draw into a copy took
    # 13.4 MiB for the U tests (18.6 for the lognormal pair) and 18.7 MiB
    # for the t tests, whose row variances copied X. tracemalloc counts the
    # allocations of every thread.
    m, n = 391, 399
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: cpus)
    if test == "wmw_exact":
        # the real table takes seconds to build and stays in build_table's
        # cache, outside any block; a stub bound keeps it out of the count
        monkeypatch.setattr(simulate_mod, "build_table", lambda m, n, max_entries: None)
        monkeypatch.setattr(simulate_mod, "critical_value",
                            lambda table, alpha, side: SimpleNamespace(value=m * n // 2 + 1))
    plan = SimulationPlan(F, G, Design(m, n), trials=cpus * simulate_mod.BLOCK_TRIALS, seed=391)
    tracemalloc.start()
    try:
        simulate_power(plan, test=test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cpus * (simulate_mod.BLOCK_TRIALS * m * 8 + 4 * 2**20)


class _Blocks:
    """``spec``'s draws; records which block each X draw serves and whether
    the calling thread made it, after running ``before[block]()`` if given."""

    def __init__(self, spec, before=()):
        self.spec, self.before, self.drawn = spec, dict(before), []

    def sample(self, rng, size):
        (block,) = rng.bit_generator.seed_seq.spawn_key
        self.drawn.append((block, threading.current_thread() is threading.main_thread()))
        if block in self.before:
            self.before[block]()
        return self.spec.sample(rng, size)


def _fail(block):
    def fail():
        raise ValueError(f"no draws in block {block}")
    return fail


def _hex(result):
    return (result.rejection_rate.hex(), result.standard_error.hex(), result.test_used,
            result.trials, result.fell_back_to_normal)


@pytest.mark.parametrize("test", simulate_mod.TESTS)
@pytest.mark.parametrize("side", ["one_sided_upper", TWO_SIDED])
def test_result_does_not_depend_on_the_number_of_cpus(monkeypatch, test, side):
    # one block, two full ones, two and a one-trial block, and five with a
    # ragged last one: every CPU count gives the one-thread result bit for
    # bit, the oracle's count, and the calling thread draws blocks 0, w, 2w, ...
    for trials in (1, 2048, 4097, 9000):
        results = set()
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: cpus)
            F = _Blocks(normal(0.3, 1.0))
            plan = SimulationPlan(F, normal(0.0, 1.0), Design(7, 9), side=side, trials=trials,
                                  seed=trials)
            results.add(_hex(simulate_power(plan, test)))
            blocks = range(-(-trials // simulate_mod.BLOCK_TRIALS))
            assert sorted(F.drawn) == sorted((b, b % min(cpus, len(blocks)) == 0) for b in blocks)
        assert len(results) == 1
        assert results.pop()[0] == (_oracle_rejections(plan, test) / trials).hex()


@pytest.mark.parametrize("tests,fails,scale,trials,message", [
    # only block 1: a pool thread's block whenever there are two CPUs or more
    pytest.param(["wmw_exact"], [1], 1.0, 4097, "no draws in block 1", id="block-1"),
    # blocks 2 to 7 on up to eight threads: the lowest block's error wins
    pytest.param(["wmw_exact"], range(2, 8), 1.0, 8 * 2048, "no draws in block 2",
                 id="blocks-2-to-7"),
    # every block's variances overflow or underflow
    pytest.param(["t_hom", "t_het"], [], 1e160, 4097, "finite normal float", id="t-overflow"),
    pytest.param(["t_hom", "t_het"], [], 1e-200, 4097, "finite normal float", id="t-underflow"),
])
def test_errors_do_not_depend_on_the_number_of_cpus(monkeypatch, tests, fails, scale, trials,
                                                    message):
    # more threads than this host may have CPUs, switching every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for test in tests:
            errors = set()
            for cpus in (1, 2, 3, 8):
                monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: cpus)
                F = _Blocks(normal(0.5 * scale, scale), {b: _fail(b) for b in fails})
                plan = SimulationPlan(F, normal(0.0, scale), Design(20, 30), trials=trials,
                                      seed=3)
                before = threading.active_count()
                with pytest.raises(ValueError, match=message) as raised:
                    simulate_power(plan, test)
                assert threading.active_count() == before
                errors.add((type(raised.value), str(raised.value)))
            assert len(errors) == 1
    finally:
        sys.setswitchinterval(interval)


def test_pool_threads_start_only_for_a_second_block_and_cpu(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for cpus, trials, threads in ((8, 2048, 0), (1, 9000, 0), (3, 4097, 2), (2, 9000, 1)):
        monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        started.clear()
        simulate_power(SimulationPlan(normal(0.3, 1.0), normal(0.0, 1.0), Design(7, 9),
                                      trials=trials, seed=1))
        assert len(started) == threads
        assert threading.active_count() == before


class _Pool(simulate_mod.ThreadPoolExecutor):
    """The executor, with its futures and the start of its shutdown visible."""

    def __init__(self, *args):
        super().__init__(*args)
        self.futures, self.shutting_down = [], threading.Event()
        _Pool.last = self

    def submit(self, *args):
        self.futures.append(super().submit(*args))
        return self.futures[-1]

    def shutdown(self, *args, **kwargs):
        self.shutting_down.set()
        super().shutdown(*args, **kwargs)


def _helper_fails_in_block_1():
    # the caller waits in block 0 until the pool thread has failed in block 1
    return {0: lambda: futures.wait(_Pool.last.futures, timeout=60), 1: _fail(1)}


def _caller_fails_in_block_0_last():
    # the caller fails in block 0 after the pool thread has failed in block 1
    def fail_0():
        futures.wait(_Pool.last.futures, timeout=60)
        _fail(0)()

    return {0: fail_0, 1: _fail(1)}


def _caller_is_interrupted_in_block_0():
    # the pool thread waits in block 1 until the caller has stopped
    def interrupt():
        raise KeyboardInterrupt

    return {0: interrupt, 1: lambda: _Pool.last.shutting_down.wait(timeout=60)}


def _caller_fails_in_block_2_first():
    # the pool thread fails in block 1 only after the caller has failed in
    # block 2, which one thread would never reach
    caller_failed = threading.Event()

    def fail_2():
        caller_failed.set()
        _fail(2)()

    return {1: lambda: caller_failed.wait(timeout=60) and _fail(1)(), 2: fail_2}


@pytest.mark.parametrize("hooks,error,message,drawn", [
    (_helper_fails_in_block_1, ValueError, "no draws in block 1", [0, 1]),
    (_caller_is_interrupted_in_block_0, KeyboardInterrupt, None, [0, 1]),
    (_caller_fails_in_block_2_first, ValueError, "no draws in block 1", [0, 1, 2]),
    (_caller_fails_in_block_0_last, ValueError, "no draws in block 0", [0, 1]),
])
def test_no_block_starts_after_a_lower_one_fails(monkeypatch, hooks, error, message, drawn):
    # and the lowest failing block's error is raised, as on one thread
    monkeypatch.setattr(simulate_mod, "ThreadPoolExecutor", _Pool)
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: 2)
    F = _Blocks(normal(0.3, 1.0), hooks())
    with pytest.raises(error, match=message):
        simulate_power(SimulationPlan(F, normal(0.0, 1.0), Design(7, 9), trials=6 * 2048))
    assert sorted(F.drawn) == [(block, block % 2 == 0) for block in drawn]


def test_usable_cpus_is_the_affinity_set_or_the_cpu_count(monkeypatch):
    assert simulate_mod._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate_mod._usable_cpus() == 1


@pytest.mark.parametrize("field,value", [
    *(pytest.param("seed", v, id=str(v)) for v in (-1, 1.5, "7", None, True, False)),
    *(pytest.param("trials", v, id=f"trials={v!r}")
      for v in (0, 100.5, "10", None, True, False)),
])
def test_plan_rejects_bad_seed(field, value):
    kwargs = {"trials": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=field):
        SimulationPlan(normal(0, 1), normal(0, 1), Design(5, 5), **kwargs)


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
    for side in ("one_sided_upper", TWO_SIDED):
        plan = SimulationPlan(normal(0.75, 1), normal(0, 1), Design(10, 10), side=side,
                              trials=1000, seed=1)
        res = simulate_power(plan, test="wmw_exact")
        assert res.fell_back_to_normal
        assert res.test_used == "wmw_normal"
        assert res.rejection_rate == _oracle_rejections(plan, "wmw_normal") / plan.trials


def test_invalid_test_name():
    plan = SimulationPlan(normal(0, 1), normal(0, 1), Design(5, 5), trials=10)
    with pytest.raises(ValueError):
        simulate_power(plan, test="sign_test")


@pytest.mark.parametrize("scale", [2.0**300, 2.0**-300], ids=["2^300", "2^-300"])
def test_welch_and_t_tests_are_scale_free(scale):
    # multiplying location and scale by a power of two scales every draw,
    # mean and standard deviation exactly; Welch's df used to overflow or
    # underflow here (welch_power raised, t_het silently rejected nothing)
    design = Design(20, 30)

    def answers(s):
        plan = SimulationPlan(normal(0.5 * s, s), normal(0, 2 * s), design, trials=4096, seed=3)
        rates = [simulate_power(plan, test).rejection_rate for test in simulate_mod.TESTS]
        return welch_power(0.5 * s, s, 0.0, 2 * s, design).approx_power.hex(), rates

    assert answers(scale) == answers(1.0)


@pytest.mark.parametrize("test", ["t_hom", "t_het"])
@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_t_tests_reject_data_whose_variance_leaves_the_normal_floats(test, scale):
    # the per-trial variances overflow (1e160) or underflow (1e-200); they
    # used to give rejection rates of 0.0 or 0.876, with only a RuntimeWarning
    plan = SimulationPlan(normal(0.5 * scale, scale), normal(0, scale), Design(20, 30),
                          trials=100, seed=3)
    with pytest.raises(ValueError, match="finite normal float"):
        simulate_power(plan, test)
