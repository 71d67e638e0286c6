"""Seeded query streams for the benchmark workloads, and the code that runs one query.

Each stream is an endless, deterministic sequence: query ``i`` depends only on
the workload name, the seed and ``i``.  Every random value is drawn by
:class:`Draw`: its position in its range comes from a skeleton that depends on
``i`` alone, and the seed moves it by up to ``JITTER`` of the range and picks
the Monte Carlo seeds.  Runs with different seeds therefore get different
inputs that cost about the same, which keeps the run-to-run spread small.
See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import wmwdesign
from wmwdesign import design as design_mod
from wmwdesign import power as power_mod
from wmwdesign import simulate as simulate_mod
from wmwdesign.scenarios import SCENARIOS

FAMILIES = ("normal", "exponential", "lognormal", "chisquare", "studentt")
ONE, TWO = power_mod.ONE_SIDED_UPPER, power_mod.TWO_SIDED


@dataclass
class Query:
    """One generated input.  ``F``/``G`` are specs; the other fields depend on ``kind``."""

    index: int
    kind: str
    F: wmwdesign.DistributionSpec
    G: wmwdesign.DistributionSpec
    total_n: int = 0
    omega: float = 0.5
    alpha: float = 0.05
    side: str = ONE
    m: int = 0
    n: int = 0
    trials: int = 0
    seed: int = 0


JITTER = 0.02


class Draw:
    """Uniform draws for query ``i``: a seed-independent skeleton moved slightly by the seed."""

    def __init__(self, workload: str, seed: int, i: int):
        self._skeleton = random.Random(f"{workload}/{i}")
        self._seeded = random.Random(f"{workload}/{seed}/{i}")

    def uniform(self, lo: float, hi: float) -> float:
        u = self._skeleton.random() + self._seeded.uniform(-JITTER, JITTER)
        return lo + (hi - lo) * min(1.0, max(0.0, u))

    def randint(self, lo: int, hi: int) -> int:
        return min(hi, int(self.uniform(lo, hi + 1)))

    def choice(self, seq):
        return seq[self._skeleton.randrange(len(seq))]

    def seed(self) -> int:
        return self._seeded.randrange(2**31)


# -- distribution parameters --------------------------------------------


def _random_spec(rng: Draw, family: str) -> wmwdesign.DistributionSpec:
    if family == "normal":
        return wmwdesign.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
    if family == "exponential":
        return wmwdesign.exponential(rng.uniform(0.25, 2.0))
    if family == "lognormal":
        return wmwdesign.log_normal(rng.uniform(-0.5, 1.0), rng.uniform(0.3, 1.0))
    if family == "chisquare":
        return wmwdesign.chi_square(rng.uniform(2.0, 15.0))
    return wmwdesign.student_t(rng.uniform(3.0, 20.0), rng.uniform(-2.0, 5.0),
                               rng.uniform(0.5, 3.0))


def _median_sd(spec: wmwdesign.DistributionSpec) -> tuple[float, float]:
    """Approximate median and standard deviation, in closed form so generation stays cheap."""
    p = dict(spec.params)
    if spec.family == "normal":
        med, sd = p["mean"], p["sd"]
    elif spec.family == "exponential":
        med, sd = math.log(2.0) / p["rate"], 1.0 / p["rate"]
    elif spec.family == "lognormal":
        s2 = p["logSd"] ** 2
        med = math.exp(p["logMean"])
        sd = math.sqrt((math.exp(s2) - 1.0) * math.exp(2.0 * p["logMean"] + s2))
    elif spec.family == "chisquare":
        k = p["df"]
        med, sd = k * (1.0 - 2.0 / (9.0 * k)) ** 3, math.sqrt(2.0 * k)
    else:
        med, sd = p["location"], p["scale"] * math.sqrt(p["df"] / (p["df"] - 2.0))
    return med + spec.shift, sd


def _rescaled(spec: wmwdesign.DistributionSpec, r: float) -> wmwdesign.DistributionSpec:
    """The same family with its scale multiplied by ``r``."""
    p = dict(spec.params)
    if spec.family == "normal":
        return wmwdesign.normal(p["mean"], p["sd"] * r, spec.shift)
    if spec.family == "exponential":
        return wmwdesign.exponential(p["rate"] / r, spec.shift)
    if spec.family == "lognormal":
        return wmwdesign.log_normal(p["logMean"] + math.log(r), p["logSd"], spec.shift)
    if spec.family == "chisquare":
        return wmwdesign.chi_square(p["df"] * r, spec.shift)
    return wmwdesign.student_t(p["df"], p["location"], p["scale"] * r, spec.shift)


def catalogue_pairs() -> list[tuple[wmwdesign.DistributionSpec, wmwdesign.DistributionSpec, float]]:
    """Distinct (F, G) pairs of the scenario catalogue, in catalogue order, with their alpha."""
    seen, pairs = set(), []
    for group in SCENARIOS.values():
        for sc in group:
            if (sc.F, sc.G) not in seen:
                seen.add((sc.F, sc.G))
                pairs.append((sc.F, sc.G, sc.alpha))
    return pairs


# -- design_cold ----------------------------------------------------------

_COLD_ALTERNATIVES = ("shift", "rescale", "other_family")


def cold_query(seed: int, i: int) -> Query:
    """A new alternative: G from a family, F shifted, rescaled or from another family.

    One-sided alternatives that point the wrong way are kept; for some of them
    the deficiency search cannot reach the optimum and raises.
    """
    rng = Draw("design_cold", seed, i)
    g_family = FAMILIES[i % 5]
    alternative = _COLD_ALTERNATIVES[i % 3]
    G = _random_spec(rng, g_family)
    g_med, g_sd = _median_sd(G)
    delta = rng.uniform(0.25, 0.8) * g_sd
    if alternative == "shift":
        F = G.with_shift(G.shift + delta)
    elif alternative == "rescale":
        F = _rescaled(G, rng.uniform(0.8, 1.8))
        if g_family in ("normal", "studentt"):
            # symmetric families need a location change to differ in P(X >= Y)
            F = F.with_shift(F.shift + rng.uniform(0.2, 1.0) * delta)
    else:
        other = FAMILIES[(i // 5 + i + 1) % 5]
        if other == g_family:
            other = FAMILIES[(FAMILIES.index(other) + 1) % 5]
        F = _random_spec(rng, other)
        f_med, _ = _median_sd(F)
        F = F.with_shift(F.shift + g_med - f_med + delta)
    side = ONE if (i // 15) % 2 == 0 else TWO
    return Query(index=i, kind="design", F=F, G=G, total_n=rng.randint(20, 200),
                 omega=rng.uniform(0.1, 0.9), side=side)


# -- design_warm ----------------------------------------------------------

_WARM_CYCLE = ("optimal_design", "deficiency", "power_curve", "optimal_design",
               "welch", "deficiency", "power_curve", "optimal_design")
CURVE_GRID = tuple(round(0.05 + 0.005 * k, 3) for k in range(181))


def warm_query(seed: int, i: int, pairs) -> Query:
    """A design question about a pair of the catalogue, whose integrals are warm."""
    rng = Draw("design_warm", seed, i)
    kind = _WARM_CYCLE[i % len(_WARM_CYCLE)]
    if kind == "welch":
        F, G, alpha = rng.choice([p for p in pairs if p[0].family == p[1].family == "normal"])
    else:
        F, G, alpha = rng.choice(pairs)
    q = Query(index=i, kind=kind, F=F, G=G, alpha=alpha)
    if kind in ("optimal_design", "power_curve"):
        q.total_n = rng.randint(200, 2000)
    else:
        q.total_n = rng.randint(50, 500)
        q.omega = rng.uniform(0.15, 0.85)
    return q


# -- mc_power -------------------------------------------------------------

_MC_CYCLE = ("wmw_exact", "t_hom", "wmw_exact", "wmw_normal", "wmw_exact", "t_het")


def mc_query(seed: int, i: int, pairs) -> Query:
    """A seeded simulate_power call on a catalogue pair, in the mix reproduce uses."""
    rng = Draw("mc_power", seed, i)
    kind = _MC_CYCLE[i % len(_MC_CYCLE)]
    F, G, alpha = rng.choice(pairs)
    side = ONE if rng.uniform(0.0, 1.0) < 0.75 else TWO
    if kind == "wmw_exact":
        m, n, trials = rng.randint(5, 70), rng.randint(5, 70), 10_000
    elif kind == "wmw_normal":
        # the first one is at the top of the range, so the largest comparison
        # block, and with it the peak memory, comes early in every run
        lo = 390 if i < len(_MC_CYCLE) else 150
        m, n, trials = rng.randint(lo, 400), rng.randint(lo, 400), 2048
    else:
        m, n, trials = rng.randint(5, 150), rng.randint(5, 150), rng.randint(2048, 10_000)
    return Query(index=i, kind=kind, F=F, G=G, alpha=alpha, side=side, m=m, n=n,
                 trials=trials, seed=rng.seed())


# -- running one query ------------------------------------------------------


def run_query(q: Query):
    """Call the package for one query; returns the raw objects the checker inspects."""
    if q.kind == "design":
        report = design_mod.optimal_design(q.F, q.G, q.total_n, alpha=q.alpha, side=q.side)
        d = wmwdesign.Design.from_total(q.total_n, q.omega)
        res = power_mod.wmw_power(power_mod.PowerQuery(q.F, q.G, d, q.alpha, q.side))
        return report, d, res
    if q.kind == "optimal_design":
        return design_mod.optimal_design(q.F, q.G, q.total_n, alpha=q.alpha)
    if q.kind == "deficiency":
        return power_mod.deficiency_general(q.F, q.G, q.total_n, q.omega, alpha=q.alpha)
    if q.kind == "power_curve":
        return design_mod.power_curve(q.F, q.G, q.total_n, alpha=q.alpha, grid=list(CURVE_GRID))
    if q.kind == "welch":
        (mu1, sd1), (mu2, sd2) = (_normal_moments(q.F), _normal_moments(q.G))
        return power_mod.welch_deficiency(mu1, sd1, mu2, sd2, q.total_n, q.omega, alpha=q.alpha)
    plan = simulate_mod.SimulationPlan(q.F, q.G, wmwdesign.Design(q.m, q.n), q.alpha, q.side,
                                       trials=q.trials, seed=q.seed)
    return simulate_mod.simulate_power(plan, test=q.kind)


def _normal_moments(spec) -> tuple[float, float]:
    return spec.param("mean") + spec.shift, spec.param("sd")


class Workload:
    """Set-up and query stream of one workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        self.name, self.seed = name, seed
        self.pairs = catalogue_pairs()

    def warm_up(self) -> None:
        """Cache warm-up that belongs to set-up: design_warm computes the catalogue integrals."""
        if self.name == "design_warm":
            for F, G, _ in self.pairs:
                wmwdesign.second_moment_integrals(F, G)

    def query(self, i: int) -> Query:
        if self.name == "design_cold":
            return cold_query(self.seed, i)
        if self.name == "design_warm":
            return warm_query(self.seed, i, self.pairs)
        return mc_query(self.seed, i, self.pairs)


WORKLOADS = ("design_cold", "design_warm", "mc_power")
