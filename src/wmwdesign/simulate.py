"""Monte Carlo estimation of the finite-sample power of the WMW and t tests.

Trials are partitioned into fixed-size blocks.  Each block draws from an
independent substream spawned from (seed, block index) and yields a Python
int rejection count, so a plan's result is fixed by its seed, whatever the
number of CPUs or the order in which blocks finish.  A block draws X whole,
then Y in row chunks of MERGE_BUDGET values; the generator fills arrays in C
order, so the chunks take exactly the draws of one call.  Each chunk goes in
one pass to its statistic, critical value and rejection count.

The work runs on the calling thread and w - 1 pool tasks, w = min(usable
CPUs, row chunks), so at most one thread per CPU: a pool thread that has
finished its task takes the next, and a plan with one row chunk or a
one-CPU host starts no thread.  Each block's draws are one stream behind
its own lock.  A thread pulls chunks from its own blocks
(owner, owner + w, ...; the calling thread is owner 0), then from every
block in order: it takes the next chunk under the lock and computes that
chunk's statistic itself, leaving a block only once its stream is exhausted
or a step has failed.  The test and its threshold are fixed before any
thread starts.  Memory: at most w blocks' 2048·m draws of X are alive, one
per thread, plus one row chunk (at most MERGE_BUDGET values of Y and a view
of X) and its temporaries per thread, about 21 bytes per value of X and Y.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exact_null import MAX_TABLE_ENTRIES, _check_exact_alpha, build_table, critical_value
from .moments import _count, null_moments
from .power import ONE_SIDED_UPPER, PowerQuery, _welch_df

TESTS = ("wmw_exact", "wmw_normal", "t_hom", "t_het")
BLOCK_TRIALS = 2048
# values of X and Y per row chunk (at least one row): each chunk's Y draws
# and U merge take about 21 bytes per value (1.4 MB), whatever the block's shape
MERGE_BUDGET = 1 << 16


@dataclass(frozen=True)
class SimulationPlan(PowerQuery):
    """A power query plus the number of Monte Carlo trials and their seed."""

    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "trials", _count(self.trials, 1, "trials"))
        object.__setattr__(self, "seed", _count(self.seed, 0, "seed"))


@dataclass(frozen=True)
class SimulationResult:
    rejection_rate: float
    standard_error: float
    test_used: str
    trials: int
    fell_back_to_normal: bool = False


def compute_u(xs, ys) -> int:
    """Number of pairs with x >= y, via sorting in O((m+n) log(m+n)).

    Equal values count as exceedances (x >= y contributes 1), with no
    midrank correction; ties have measure zero for continuous generators.
    NaN is unordered, so a sample holding one is rejected; ±inf is counted.
    Each sample is a scalar or one-dimensional.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim > 1 or ys.ndim > 1:
        raise ValueError(f"samples must be scalars or one-dimensional, got shapes "
                         f"{xs.shape} and {ys.shape}")
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ValueError("samples must not contain NaN")
    return int(np.searchsorted(np.sort(ys, axis=None), xs, side="right").sum())


def _u_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """U statistic per trial for row-wise samples X (b, m) and Y (b, n).

    Rank form: a stable argsort of each row of [sorted Y, sorted X] puts y
    before x on a tie, so the x at merged position p has p - (x's before it)
    y values at or below it; summed over the x's, U = sum(p) - m(m-1)/2.
    Sorting each group first hands the stable sort two presorted runs, which
    it merges far faster than unsorted rows.  All b rows merge at once, so
    the scratch memory is about 17 bytes per value of X and Y; simulate_power
    passes it row chunks (see MERGE_BUDGET).
    """
    m, n = X.shape[1], Y.shape[1]
    merged = np.concatenate((Y, X), axis=1)
    merged[:, :n].sort(axis=1)
    merged[:, n:].sort(axis=1)
    U = (np.argsort(merged, axis=1, kind="stable") >= n) @ np.arange(m + n)
    U -= m * (m - 1) // 2
    return U


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_power(plan: SimulationPlan, test: str = "wmw_exact") -> SimulationResult:
    """Fraction of Monte Carlo trials in which the chosen test rejects.

    Each test yields a per-trial statistic and a critical value: a one-sided
    test rejects when stat >= crit, a two-sided one when |stat| >= crit.
    """
    if test not in TESTS:
        raise ValueError(f"test must be one of {TESTS}, got {test!r}")
    m, n = plan.design.m, plan.design.n
    if test in ("t_hom", "t_het") and min(m, n) < 2:
        raise ValueError(f"{test} needs at least 2 observations per group, got m={m}, n={n}")
    # a table too large falls back to the normal test, which takes any alpha
    fell_back = test == "wmw_exact" and m * n + 1 > MAX_TABLE_ENTRIES
    if fell_back:
        test = "wmw_normal"
    two_sided = plan.side != ONE_SIDED_UPPER
    level = 1.0 - plan.alpha / 2.0 if two_sided else 1.0 - plan.alpha
    e0, var0 = null_moments(plan.design)
    if test == "wmw_exact":
        _check_exact_alpha(plan.alpha)  # before the table is built
        table = build_table(m, n, max_entries=MAX_TABLE_ENTRIES)
        # Centred at mn/2, exactly in float64.  The bound c exceeds mn/2, so
        # |U - mn/2| >= c - mn/2 is U >= c or U <= mn - c, and the degenerate
        # bound mn + 1 lies beyond every U.
        cv = critical_value(table, plan.alpha, "two_sided" if two_sided else "upper")
        scale, crit = 1.0, cv.value - e0
    elif test == "wmw_normal":
        scale, crit = math.sqrt(var0), special.ndtri(level)
    elif test == "t_hom":
        crit = special.stdtrit(m + n - 2, level)

    def statistic(x, y):
        """Per-trial statistic of row samples x and y, and its critical value."""
        if test.startswith("wmw"):
            return (_u_matrix(x, y) - e0) / scale, crit
        with np.errstate(all="ignore"):  # se2 is checked below
            vx, vy = x.var(axis=1, ddof=1), y.var(axis=1, ddof=1)
            if test == "t_hom":
                se2 = ((m - 1) * vx + (n - 1) * vy) / (m + n - 2) * (1.0 / m + 1.0 / n)
            else:  # t_het: Welch statistic with per-trial degrees of freedom
                v1, v2 = vx / m, vy / n
                se2 = v1 + v2
            stat = (x.mean(axis=1) - y.mean(axis=1)) / np.sqrt(se2)
        if not (np.isfinite(se2).all() and se2.min() >= np.finfo(float).tiny):
            raise ValueError(f"{test}: a trial's variance of the mean is not a finite normal "
                             "float; standard deviations must be about 1e-153 to 1e152")
        return stat, crit if test == "t_hom" else special.stdtrit(_welch_df(v1, v2, m, n), level)

    rows = max(1, MERGE_BUDGET // (m + n))
    blocks = range(-(-plan.trials // BLOCK_TRIALS))
    full, ragged = divmod(plan.trials, BLOCK_TRIALS)
    workers = min(_usable_cpus(), full * -(-BLOCK_TRIALS // rows) + -(-ragged // rows))

    def draws(block):
        """The block's row chunks (x, y) in one-thread order: X whole with the
        first, then Y chunk by chunk; the generator fills in C order, so the
        chunks take the same draws as one call for all of Y."""
        rng = _block_rng(plan.seed, block)
        X = plan.F.sample(rng, (min(BLOCK_TRIALS, plan.trials - block * BLOCK_TRIALS), m))
        for lo in range(0, len(X), rows):
            x = X[lo:lo + rows]
            yield x, plan.G.sample(rng, (len(x), n))

    # Each block's draws are one stream, taken a chunk at a time under the
    # block's lock.  Chunk k's draw and statistic share the key (block, k): at
    # most one of them fails, and both come before chunk k + 1's draw.  A chunk
    # is drawn only below every failed key ((-1, 0) once interrupted), so no
    # block above the lowest failing one starts; a chunk drawn before a lower
    # failure still computes its statistic, but its error has a higher key and
    # its count is discarded.  A thread computes only the chunks it drew, so
    # every step below the lowest failure still runs and the lowest key's
    # error is found.
    streams = [draws(block) for block in blocks]
    locks = [threading.Lock() for _ in blocks]
    chunks = [0] * len(blocks)  # each block's next chunk
    errors = []  # (key, error) of each failed step

    def stopped(key):
        return any(failed <= key for failed, _ in errors)

    def work(owner):
        """Take row chunks from the blocks owner, owner + workers, ..., then
        from every block in order, leaving a block once it is exhausted or at
        the lowest failure, and stopping at this thread's own failure; returns
        the rejections of the chunks this thread drew."""
        count = 0
        for block in (*blocks[owner::workers], *blocks):
            while True:
                try:
                    with locks[block]:
                        key = (block, chunks[block])
                        if stopped(key) or (chunk := next(streams[block], None)) is None:
                            break
                        chunks[block] += 1
                    stat, threshold = statistic(*chunk)
                except Exception as error:
                    errors.append((key, error))
                    return count
                del chunk  # an exhausted block's X goes before the next block's comes
                count += int(((np.abs(stat) if two_sided else stat) >= threshold).sum())
        return count

    # pool threads start only on submit: one worker starts none
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(work, owner) for owner in range(1, workers)]
        try:
            rejections = work(0) + sum(helper.result() for helper in helpers)
        except BaseException:
            # an interrupt: every thread stops at its next step
            errors.append(((-1, 0), None))
            raise
    if errors:
        # the error a one-thread run raises: the lowest step's
        raise min(errors, key=lambda error: error[0])[1]

    rate = rejections / plan.trials
    se = math.sqrt(rate * (1.0 - rate) / plan.trials)
    return SimulationResult(
        rejection_rate=rate,
        standard_error=se,
        test_used=test,
        trials=plan.trials,
        fell_back_to_normal=fell_back,
    )
