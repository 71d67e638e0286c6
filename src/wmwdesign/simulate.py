"""Monte Carlo estimation of the finite-sample power of the WMW and t tests.

Trials are partitioned into fixed-size blocks.  Each block draws from an
independent substream spawned from (seed, block index) and yields a Python
int rejection count, so a plan's result is fixed by its seed, whatever the
number of CPUs or the order in which blocks finish.  The blocks run on
w = min(usable CPUs, blocks) threads: the calling thread runs blocks 0, w,
2w, ... and each of w - 1 pool threads another residue class.  A block draws
X whole, then Y in row chunks of MERGE_BUDGET values, and takes each chunk in
one pass to its statistic, critical value and rejection count.  The generator
fills arrays in C order, so the chunks take exactly the draws of one call,
and a running block's memory is its 2048·m draws of X plus one chunk's
temporaries, about 21 bytes per value of X and Y.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import DistributionSpec
from .exact_null import MAX_TABLE_ENTRIES, TableSizeError, build_table, critical_value
from .moments import Design, _is_int, null_moments
from .power import ONE_SIDED_UPPER, _check_alpha, _check_side, _welch_df

TESTS = ("wmw_exact", "wmw_normal", "t_hom", "t_het")
BLOCK_TRIALS = 2048
# values of X and Y per row chunk (at least one row): each chunk's Y draws
# and U merge take about 21 bytes per value (1.4 MB), whatever the block's shape
MERGE_BUDGET = 1 << 16


@dataclass(frozen=True)
class SimulationPlan:
    F: DistributionSpec
    G: DistributionSpec
    design: Design
    alpha: float = 0.05
    side: str = ONE_SIDED_UPPER
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_side(self.side)
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")


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
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ValueError("samples must not contain NaN")
    return int(np.searchsorted(np.sort(ys), xs, side="right").sum())


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
    two_sided = plan.side != ONE_SIDED_UPPER
    level = 1.0 - plan.alpha / 2.0 if two_sided else 1.0 - plan.alpha
    fell_back = False
    e0, var0 = null_moments(plan.design)

    if test == "wmw_exact":
        try:
            table = build_table(m, n, max_entries=MAX_TABLE_ENTRIES)
        except TableSizeError:
            test, fell_back = "wmw_normal", True
        else:
            # Centred at mn/2, exactly in float64.  The bound c exceeds mn/2,
            # so |U - mn/2| >= c - mn/2 is U >= c or U <= mn - c, and the
            # degenerate bound mn + 1 lies beyond every U.
            cv = critical_value(table, plan.alpha, "two_sided" if two_sided else "upper")
            scale, crit = 1.0, cv.value - e0
    if test == "wmw_normal":
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

    def block_rejections(block):
        rng = _block_rng(plan.seed, block)
        # X whole, then Y row chunk by row chunk: the generator fills in C
        # order, so the chunks take the same draws as one call for all of Y
        X = plan.F.sample(rng, (min(BLOCK_TRIALS, plan.trials - block * BLOCK_TRIALS), m))
        count = 0
        for lo in range(0, len(X), rows):
            x = X[lo:lo + rows]
            stat, threshold = statistic(x, plan.G.sample(rng, (len(x), n)))
            count += int(((np.abs(stat) if two_sided else stat) >= threshold).sum())
        return count

    blocks = range(-(-plan.trials // BLOCK_TRIALS))
    workers = min(_usable_cpus(), len(blocks))
    # no block above stop[0] starts: len(blocks) until a block raises, then
    # the lowest block known to have raised (-1 once interrupted).  A lost
    # update between threads leaves it higher, which lets more blocks run
    # but never skips one below the lowest failure
    stop = [len(blocks)]

    def share(first):
        """Rejections in blocks first, first + workers, ..., and the first
        (block, error) among them, after which the share stops."""
        count = 0
        for block in blocks[first::workers]:
            if block > stop[0]:
                break
            try:
                count += block_rejections(block)
            except Exception as error:
                stop[0] = min(stop[0], block)
                return count, (block, error)
        return count, None

    # pool threads start only on submit: one worker starts none
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(share, first) for first in range(1, workers)]
        try:
            shares = [share(0)] + [helper.result() for helper in helpers]
        except BaseException:
            stop[0] = -1  # interrupted: the helpers start no further block
            raise
    errors = [error for _, error in shares if error is not None]
    if errors:
        # the error a one-thread run raises: the lowest block's
        raise min(errors, key=lambda error: error[0])[1]
    rejections = sum(count for count, _ in shares)

    rate = rejections / plan.trials
    se = math.sqrt(rate * (1.0 - rate) / plan.trials)
    return SimulationResult(
        rejection_rate=rate,
        standard_error=se,
        test_used=test,
        trials=plan.trials,
        fell_back_to_normal=fell_back,
    )
