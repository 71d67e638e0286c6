"""Monte Carlo estimation of the finite-sample power of the WMW and t tests.

Trials are partitioned into fixed-size blocks that run in order in one loop.
Each block draws from an independent substream spawned from (seed, block
index), so a plan's result is fixed by its seed.  A block draws X whole, then
Y in row chunks of MERGE_BUDGET values, and reduces each chunk (U, or the row
means and variances) into arrays allocated once per call.  The generator
fills arrays in C order, so the chunks take exactly the draws of one call,
and a block's memory is its 2048·m draws of X plus a fixed workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import DistributionSpec
from .exact_null import MAX_TABLE_ENTRIES, TableSizeError, build_table, critical_value
from .moments import Design, _is_int, null_moments
from .power import ONE_SIDED_UPPER, _check_alpha, _check_side

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
            crit = cv.value - m * n / 2
    if test == "wmw_normal":
        e0, var0 = null_moments(plan.design)
        sd0 = math.sqrt(var0)
        crit = special.ndtri(level)
    elif test == "t_hom":
        crit = special.stdtrit(m + n - 2, level)

    # per-trial statistics of the row chunks, written into one workspace
    rows = max(1, MERGE_BUDGET // (m + n))
    width = min(BLOCK_TRIALS, plan.trials)
    if test.startswith("wmw"):
        U = np.empty(width, dtype=np.int64)
    else:
        row_stats = np.empty((4, width))  # X's and Y's row means and variances

    rejections = 0
    for block, done in enumerate(range(0, plan.trials, BLOCK_TRIALS)):
        b = min(BLOCK_TRIALS, plan.trials - done)
        rng = _block_rng(plan.seed, block)
        # X whole, then Y row chunk by row chunk: the generator fills in C
        # order, so the chunks take the same draws as one (b, n) call
        X = plan.F.sample(rng, (b, m))
        for lo in range(0, b, rows):
            hi = min(lo + rows, b)
            Y = plan.G.sample(rng, (hi - lo, n))
            if test.startswith("wmw"):
                U[lo:hi] = _u_matrix(X[lo:hi], Y)
            else:
                xbar, ybar, vx, vy = row_stats[:, lo:hi]
                X[lo:hi].mean(axis=1, out=xbar)
                Y.mean(axis=1, out=ybar)
                X[lo:hi].var(axis=1, ddof=1, out=vx)
                Y.var(axis=1, ddof=1, out=vy)
        if test == "wmw_exact":
            stat = U[:b] - m * n / 2
        elif test == "wmw_normal":
            stat = (U[:b] - e0) / sd0
        else:
            xbar, ybar, vx, vy = row_stats[:, :b]
            if test == "t_hom":
                sp2 = ((m - 1) * vx + (n - 1) * vy) / (m + n - 2)
                stat = (xbar - ybar) / np.sqrt(sp2 * (1.0 / m + 1.0 / n))
            else:  # t_het: Welch statistic with per-trial degrees of freedom
                v1, v2 = vx / m, vy / n
                se2 = v1 + v2
                stat = (xbar - ybar) / np.sqrt(se2)
                crit = special.stdtrit(se2 * se2 / (v1 * v1 / (m - 1) + v2 * v2 / (n - 1)), level)
        if two_sided:
            stat = np.abs(stat)
        rejections += int((stat >= crit).sum())

    rate = rejections / plan.trials
    se = math.sqrt(rate * (1.0 - rate) / plan.trials)
    return SimulationResult(
        rejection_rate=rate,
        standard_error=se,
        test_used=test,
        trials=plan.trials,
        fell_back_to_normal=fell_back,
    )
