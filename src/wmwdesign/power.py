"""Normal-approximation power of the WMW test, deficiency, and the Welch baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import moments
from .distributions import DistributionSpec
from .moments import ConfigurationError, Design, _check_omega, _check_total, alt_moments

ONE_SIDED_UPPER = "one_sided_upper"
TWO_SIDED = "two_sided"
SIDES = (ONE_SIDED_UPPER, TWO_SIDED)

# below this group size the normal approximation is flagged as low confidence
MIN_GROUP_SIZE = 7

# the deficiency search gives up above this multiple of the starting total
CAP_FACTOR = 20

# the deficiency search evaluates its totals in chunks of this many, so its
# memory does not grow with N.  In the benchmark's design workloads 95% of
# the searches at omega = 1/2 stop within 64 totals, and 93% of those at
# omega in [0.15, 0.85] within 256 (the longest seen walked 3,174); a longer
# chunk spends Welch's noncentral t on totals past the answer, a shorter one
# more calls on long searches
CHUNK = 256


class AllocationSearchError(RuntimeError):
    """Deficiency search exhausted its sample-size cap."""


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class PowerQuery:
    F: DistributionSpec
    G: DistributionSpec
    design: Design
    alpha: float = 0.05
    side: str = ONE_SIDED_UPPER

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_side(self.side)


@dataclass(frozen=True)
class PowerResult:
    approx_power: float
    mu_n: float
    sigma2_n: float
    method: str  # wmw_normal_approx | welch_approx
    low_confidence: bool = False
    degenerate_variance: bool = False


def _critical_values(alpha: float, side: str) -> float | tuple[float, float]:
    """The query's normal critical value z_{1-alpha}, or (z_{alpha/2}, z_{1-alpha/2}).

    ``special.ndtri`` is bitwise equal to ``stats.norm.ppf``; it depends on the
    query only, so a scan over designs computes it once.
    """
    _check_alpha(alpha)
    _check_side(side)
    if side == ONE_SIDED_UPPER:
        return float(special.ndtri(1.0 - alpha))
    return float(special.ndtri(alpha / 2.0)), float(special.ndtri(1.0 - alpha / 2.0))


def _normal_power(mu, sigma2, crit: float | tuple[float, float], side: str):
    """Normal-approximation power at standardized moments mu and sigma2 (floats or arrays).

    ``crit`` holds the query's critical values.  ``special.ndtr`` is the
    function ``stats.norm.cdf`` calls, so every power is bitwise that of
    ``1 - stats.norm.cdf((crit - mu) / sigma)`` (two-sided: both tails).
    """
    degenerate = sigma2 <= 0.0
    sigma = np.sqrt(np.where(degenerate, 1.0, sigma2))
    if side == TWO_SIDED:
        lower, upper = crit
        power = special.ndtr((lower - mu) / sigma) - special.ndtr((upper - mu) / sigma) + 1.0
        one_sided_mass = mu != 0
    else:
        power = 1.0 - special.ndtr((crit - mu) / sigma)
        one_sided_mass = mu > 0
    # all mass of U on one side: the normal approximation degenerates
    return np.where(degenerate, np.asarray(one_sided_mass, dtype=float), power)


def wmw_power(q: PowerQuery) -> PowerResult:
    """Approximate power of the WMW test from the standardized moments."""
    ms = alt_moments(q.design, q.F, q.G)
    power = float(_normal_power(ms.mu_n, ms.sigma2_n, _critical_values(q.alpha, q.side), q.side))
    degenerate = ms.sigma2_n <= 0.0
    low = degenerate or min(q.design.m, q.design.n) < MIN_GROUP_SIZE
    return PowerResult(power, ms.mu_n, ms.sigma2_n, "wmw_normal_approx",
                       low_confidence=low, degenerate_variance=degenerate)


def deficiency_symmetric(omega: float) -> float:
    """Closed-form deficiency 1 / (4 omega (1 - omega)) - 1 of allocation omega."""
    _check_omega(omega)
    return 1.0 / (4.0 * omega * (1.0 - omega)) - 1.0


def _wmw_powers(F: DistributionSpec, G: DistributionSpec, alpha: float = 0.05,
                side: str = ONE_SIDED_UPPER):
    """The function (m, n) -> approximate WMW powers at the designs m[i]/n[i] (int sequences).

    Checks alpha and side, and computes the critical values, once for all
    designs; each call takes the designs' moments from ``moments._moments``,
    whose integrals come from ``second_moment_integrals``' cache.
    """
    crit = _critical_values(alpha, side)

    def powers(m, n) -> np.ndarray:
        mu, sigma2 = moments._moments(m, n, F, G)[4:6]  # MomentSummary's mu_n, sigma2_n
        return _normal_power(mu, sigma2, crit, side)

    return powers


def _grid(total_n: int, epsilon: float, smallest: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Int64 columns m and N - m of the designs with epsilon <= m/N <= 1-epsilon, both >= smallest.

    A total N that is not an int >= 2, a bad epsilon or no design is a ConfigurationError.
    """
    total_n = _check_total(total_n)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ConfigurationError(f"epsilon must be finite and >= 0, got {epsilon}")
    lo = max(smallest, math.ceil(epsilon * total_n))
    hi = min(total_n - smallest, math.floor((1.0 - epsilon) * total_n))
    if lo > hi:
        raise ConfigurationError(
            f"no realizable allocations for N={total_n} with epsilon={epsilon}"
        )
    m = np.arange(lo, hi + 1, dtype=np.int64)
    return m, total_n - m


def _first_reaching(powers, m, n, target: float) -> int | None:
    """Index of the first design m[i]/n[i] whose power reaches target, or None.

    A ValueError from ``powers`` is raised as a walk over the designs one at
    a time raises it: if the chunk fails, its designs are evaluated one at a
    time, so a design before the failing one that reaches the target still wins.
    """
    try:
        reached = np.flatnonzero(powers(m, n) >= target - 1e-12)
        return int(reached[0]) if len(reached) else None
    except ValueError:
        pass
    # outside the handler, so a design's own error is raised with no chain
    for i in range(len(m)):
        if powers(m[i:i + 1], n[i:i + 1])[0] >= target - 1e-12:
            return i
    return None


def _deficiency_search(powers, total_n: int, omega: float, target: float) -> float:
    """Smallest D >= 0 with power(omega, N(1+D)) >= target, over integer totals.

    ``powers`` maps int arrays m, n to the powers of the designs m[i]/n[i].
    Each total t in [N, CAP_FACTOR * N] is split as m = round(omega * t),
    n = t - m, with halves rounded to even (``np.round``, as Python's
    ``round``): at omega = 1/2 a total of 51 splits 26/25 and a total of 53
    splits 26/27.  The paper does not say which group gets the odd subject;
    this rule is the package's choice, and the deficiency can depend on it
    (for normal(0.75, 0.5) vs normal(0, 1) at N = 50 it gives 0.04, the
    opposite split 0.02).  Totals that leave a group empty are skipped.  The
    totals are evaluated CHUNK at a time; the answer is the first total that
    reaches the target, as in a walk one total at a time.  Callers check omega
    in (0, 1) before they scan their grid for the target.
    """
    total_n = int(total_n)  # checked by the caller's _grid; a numpy integer gives numpy floats
    last = CAP_FACTOR * total_n
    for start in range(total_n, last + 1, CHUNK):
        t = np.arange(start, min(start + CHUNK, last + 1))
        m = np.round(omega * t).astype(np.int64)
        split = (m >= 1) & (m < t)
        t, m = t[split], m[split]
        first = _first_reaching(powers, m, t - m, target) if len(t) else None
        if first is not None:
            return int(t[first]) / total_n - 1.0
    raise AllocationSearchError(
        f"no total sample size up to {CAP_FACTOR}x reaches the optimal power"
    )


def deficiency_general(F: DistributionSpec, G: DistributionSpec, total_n: int,
                       omega: float, alpha: float = 0.05,
                       side: str = ONE_SIDED_UPPER, epsilon: float = 0.1) -> float:
    """Extra total sample size fraction needed at allocation omega to match the optimum.

    The optimum is the best power over the allocation grid of ``optimal_design``
    at ``total_n``, taken in one array pass.  Larger totals are searched in
    chunks and split as ``_deficiency_search`` documents: m = round(omega * t)
    with halves rounded to even, a choice the paper leaves open.
    """
    _check_omega(omega)
    powers = _wmw_powers(F, G, alpha, side)
    target = float(powers(*_grid(total_n, epsilon)).max())
    return _deficiency_search(powers, total_n, omega, target)


# -- Welch t-test baseline ----------------------------------------------


def _check_sds(sd1: float, sd2: float):
    if not (0.0 < sd1 < math.inf and 0.0 < sd2 < math.inf):
        raise ValueError(f"standard deviations must be finite and > 0, got {sd1}, {sd2}")


def _welch_df(v1, v2, m: int, n: int):
    """Welch (1947) df from the groups' variances of the mean, floats or arrays."""
    # scaling both by the larger's power of two is exact: df is scale-free, no square overflows
    exponent = np.frexp(np.maximum(v1, v2))[1]
    v1, v2 = np.ldexp(v1, -exponent), np.ldexp(v2, -exponent)
    se2 = v1 + v2
    return se2 * se2 / (v1 * v1 / (m - 1) + v2 * v2 / (n - 1))


def welch_optimal_omega(sd1: float, sd2: float) -> float:
    """Allocation 1 / (1 + sd2/sd1), favoring the higher-variance group."""
    _check_sds(sd1, sd2)
    return 1.0 / (1.0 + sd2 / sd1)


def _welch_powers(mu1: float, sd1: float, mu2: float, sd2: float, m, n,
                  alpha: float, side: str):
    """Welch t-test power and noncentrality at the designs m[i]/n[i] (int arrays), in one pass.

    Checks alpha, side, means and sds, then se2 = sd1²/m + sd2²/n at every
    design; the first design whose se2 is not finite and > 0 is named in the
    ValueError.  A design with a group of one gets df = 1: Welch's df needs
    two subjects per group.
    """
    from scipy import stats  # imported on first use: importing wmwdesign stays cheap

    _check_alpha(alpha)
    _check_side(side)
    _check_sds(sd1, sd2)
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError(f"means must be finite, got {mu1}, {mu2}")
    v1, v2 = sd1 * sd1 / m, sd2 * sd2 / n
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        se2 = v1 + v2
    finite = (se2 > 0.0) & (se2 < math.inf)
    if not finite.all():  # the sds' squares overflowed or underflowed
        i = finite.argmin()
        raise ValueError(f"standard deviations {sd1}, {sd2} at m={m[i]}, n={n[i]} give "
                         f"se2={se2[i]}; sds and se2 both must be finite and > 0")
    df = np.ones_like(se2)
    two_each = (m > 1) & (n > 1)
    df[two_each] = _welch_df(v1[two_each], v2[two_each], m[two_each], n[two_each])
    ncp = (mu1 - mu2) / np.sqrt(se2)
    two_sided = side == TWO_SIDED
    tcrit = special.stdtrit(df, 1.0 - alpha / 2.0 if two_sided else 1.0 - alpha)
    # the noncentral-t sf has no public ufunc; the lower tail is the upper
    # tail at -ncp, because nctdtr(df, ncp, -tcrit) is NaN once ncp passes ~6.6.
    # Both tails go in one call on flat arguments of one shape: broadcasting
    # inside scipy.stats costs more than the copies
    if two_sided:
        upper, lower = stats.nct.sf(np.concatenate((tcrit, tcrit)), np.concatenate((df, df)),
                                    np.concatenate((ncp, -ncp))).reshape(2, -1)
        return upper + lower, ncp
    return stats.nct.sf(tcrit, df, ncp), ncp


def welch_power(mu1: float, sd1: float, mu2: float, sd2: float, design: Design,
                alpha: float = 0.05, side: str = ONE_SIDED_UPPER) -> PowerResult:
    """Power of the Welch t-test via the noncentral t distribution."""
    m, n = design.m, design.n
    power, ncp = _welch_powers(mu1, sd1, mu2, sd2, np.array([m]), np.array([n]), alpha, side)
    return PowerResult(float(power[0]), float(ncp[0]), 1.0, "welch_approx",
                       low_confidence=min(m, n) < 2)


def welch_deficiency(mu1: float, sd1: float, mu2: float, sd2: float, total_n: int,
                     omega: float, alpha: float = 0.05,
                     side: str = ONE_SIDED_UPPER, epsilon: float = 0.1) -> float:
    """Deficiency of allocation omega for the Welch baseline test.

    The optimum is taken over the same grid as ``deficiency_general``, with at
    least two subjects per group so that Welch's degrees of freedom exist.
    """
    _check_omega(omega)
    grid = _grid(total_n, epsilon, smallest=2)

    def powers(m, n) -> np.ndarray:
        return _welch_powers(mu1, sd1, mu2, sd2, m, n, alpha, side)[0]

    return _deficiency_search(powers, total_n, omega, float(powers(*grid).max()))
