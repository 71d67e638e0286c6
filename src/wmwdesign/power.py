"""Normal-approximation power of the WMW test, deficiency, and the Welch baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

from .distributions import DistributionSpec
from .moments import Design, MomentSummary, alt_moments

ONE_SIDED_UPPER = "one_sided_upper"
TWO_SIDED = "two_sided"
SIDES = (ONE_SIDED_UPPER, TWO_SIDED)

# below this group size the normal approximation is flagged as low confidence
MIN_GROUP_SIZE = 7

# the deficiency search gives up above this multiple of the starting total
CAP_FACTOR = 20


class AllocationSearchError(RuntimeError):
    """Deficiency search exhausted its sample-size cap."""


class ConfigurationError(ValueError):
    """The requested search grid is empty or its epsilon is invalid."""


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


def _power(ms: MomentSummary, crit: float | tuple[float, float], side: str) -> float:
    """Normal-approximation power of one design from its moments and the query's critical values."""
    if ms.sigma2_n <= 0.0:
        # all mass of U on one side; the normal approximation degenerates
        return 1.0 if ms.mu_n > 0 or (side == TWO_SIDED and ms.mu_n != 0) else 0.0
    from scipy import stats  # imported on first use: importing wmwdesign stays cheap

    mu, sigma = ms.mu_n, math.sqrt(ms.sigma2_n)
    if side == ONE_SIDED_UPPER:
        return float(1.0 - stats.norm.cdf((crit - mu) / sigma))
    lower, upper = crit
    return float(stats.norm.cdf((lower - mu) / sigma) - stats.norm.cdf((upper - mu) / sigma) + 1.0)


def wmw_power(q: PowerQuery) -> PowerResult:
    """Approximate power of the WMW test from the standardized moments."""
    ms = alt_moments(q.design, q.F, q.G)
    power = _power(ms, _critical_values(q.alpha, q.side), q.side)
    degenerate = ms.sigma2_n <= 0.0
    low = degenerate or min(q.design.m, q.design.n) < MIN_GROUP_SIZE
    return PowerResult(power, ms.mu_n, ms.sigma2_n, "wmw_normal_approx",
                       low_confidence=low, degenerate_variance=degenerate)


def deficiency_symmetric(omega: float) -> float:
    """Closed-form deficiency 1 / (4 omega (1 - omega)) - 1 of allocation omega."""
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    return 1.0 / (4.0 * omega * (1.0 - omega)) - 1.0


def wmw_power_at(F: DistributionSpec, G: DistributionSpec, alpha: float = 0.05,
                 side: str = ONE_SIDED_UPPER):
    """The function (m, n) -> approximate WMW power of the design m/n.

    Checks alpha and side, and computes the critical values, once for all designs.
    """
    crit = _critical_values(alpha, side)

    def power_at(m: int, n: int) -> float:
        return _power(alt_moments(Design(m, n), F, G), crit, side)

    return power_at


def _grid(total_n: int, epsilon: float, smallest: int = 1) -> range:
    """Group sizes m with epsilon <= m/N <= 1-epsilon and both groups >= smallest."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ConfigurationError(f"epsilon must be finite and >= 0, got {epsilon}")
    lo = max(smallest, math.ceil(epsilon * total_n))
    hi = min(total_n - smallest, math.floor((1.0 - epsilon) * total_n))
    if lo > hi:
        raise ConfigurationError(
            f"no realizable allocations for N={total_n} with epsilon={epsilon}"
        )
    return range(lo, hi + 1)


def _deficiency_search(power_at, total_n: int, omega: float, target: float) -> float:
    """Smallest D >= 0 with power(omega, N(1+D)) >= target, over integer totals.

    Each total t in [N, CAP_FACTOR * N] is split as m = round(omega * t),
    n = t - m, with halves rounded to even (Python's ``round``): at omega = 1/2
    a total of 51 splits 26/25 and a total of 53 splits 26/27.  The paper does
    not say which group gets the odd subject; this rule is the package's
    choice, and the deficiency can depend on it (for normal(0.75, 0.5) vs
    normal(0, 1) at N = 50 it gives 0.04, the opposite split 0.02).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    for np_total in range(total_n, CAP_FACTOR * total_n + 1):
        m = int(round(omega * np_total))
        n = np_total - m
        if m < 1 or n < 1:
            continue
        if power_at(m, n) >= target - 1e-12:
            return np_total / total_n - 1.0
    raise AllocationSearchError(
        f"no total sample size up to {CAP_FACTOR}x reaches the optimal power"
    )


def deficiency_general(F: DistributionSpec, G: DistributionSpec, total_n: int,
                       omega: float, alpha: float = 0.05,
                       side: str = ONE_SIDED_UPPER, epsilon: float = 0.1) -> float:
    """Extra total sample size fraction needed at allocation omega to match the optimum.

    The optimum is the best power over the allocation grid of ``optimal_design``
    at ``total_n``.  Larger totals are searched one at a time and split as
    ``_deficiency_search`` documents: m = round(omega * t) with halves rounded
    to even, a choice the paper leaves open.
    """
    power_at = wmw_power_at(F, G, alpha, side)
    target = max(power_at(m, total_n - m) for m in _grid(total_n, epsilon))
    return _deficiency_search(power_at, total_n, omega, target)


# -- Welch t-test baseline ----------------------------------------------


def _check_sds(sd1: float, sd2: float):
    if not (0.0 < sd1 < math.inf and 0.0 < sd2 < math.inf):
        raise ValueError(f"standard deviations must be finite and > 0, got {sd1}, {sd2}")


def welch_optimal_omega(sd1: float, sd2: float) -> float:
    """Allocation 1 / (1 + sd2/sd1), favoring the higher-variance group."""
    _check_sds(sd1, sd2)
    return 1.0 / (1.0 + sd2 / sd1)


def welch_power(mu1: float, sd1: float, mu2: float, sd2: float, design: Design,
                alpha: float = 0.05, side: str = ONE_SIDED_UPPER) -> PowerResult:
    """Power of the Welch t-test via the noncentral t distribution."""
    from scipy import stats  # imported on first use: importing wmwdesign stays cheap

    _check_alpha(alpha)
    _check_side(side)
    _check_sds(sd1, sd2)
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError(f"means must be finite, got {mu1}, {mu2}")
    m, n = design.m, design.n
    v1, v2 = sd1 * sd1 / m, sd2 * sd2 / n
    se2 = v1 + v2
    df = 1.0
    if min(m, n) > 1:
        spread = v1 * v1 / (m - 1) + v2 * v2 / (n - 1)
        df = se2 * se2 / spread if spread > 0.0 else math.nan
    # finite sds whose squares overflow or underflow leave no usable se2 or df
    if not (0.0 < se2 < math.inf and 0.0 < df < math.inf):
        raise ValueError(f"standard deviations {sd1}, {sd2} at m={m}, n={n} give "
                         f"se2={se2} and df={df}; both must be finite and > 0")
    ncp = (mu1 - mu2) / math.sqrt(se2)
    two_sided = side == TWO_SIDED
    tcrit = special.stdtrit(df, 1.0 - alpha / 2.0 if two_sided else 1.0 - alpha)
    # the noncentral-t sf has no public ufunc; the lower tail is the upper
    # tail at -ncp, because nctdtr(df, ncp, -tcrit) is NaN once ncp passes ~6.6
    if two_sided:
        upper, lower = stats.nct.sf(tcrit, df, (ncp, -ncp))
        power = upper + lower
    else:
        power = stats.nct.sf(tcrit, df, ncp)
    return PowerResult(float(power), ncp, 1.0, "welch_approx",
                       low_confidence=min(m, n) < 2)


def welch_deficiency(mu1: float, sd1: float, mu2: float, sd2: float, total_n: int,
                     omega: float, alpha: float = 0.05,
                     side: str = ONE_SIDED_UPPER, epsilon: float = 0.1) -> float:
    """Deficiency of allocation omega for the Welch baseline test.

    The optimum is taken over the same grid as ``deficiency_general``, with at
    least two subjects per group so that Welch's degrees of freedom exist.
    """
    def power_at(m, n):
        return welch_power(mu1, sd1, mu2, sd2, Design(m, n), alpha, side).approx_power

    target = max(power_at(m, total_n - m) for m in _grid(total_n, epsilon, smallest=2))
    return _deficiency_search(power_at, total_n, omega, target)
