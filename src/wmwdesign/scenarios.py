"""Bundled scenario catalogue used by the `reproduce` CLI subcommand.

Each scenario names a pair of distributions and test settings; `reproduce`
emits its power curve (approximate plus simulated).  The catalogue is
versioned so CSV outputs can be traced to a definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import DistributionSpec, chi_square, exponential, log_normal, normal, student_t

SCENARIO_VERSION = "1"


@dataclass(frozen=True)
class Scenario:
    name: str
    F: DistributionSpec
    G: DistributionSpec
    total_n: int = 50
    alpha: float = 0.05


SCENARIOS: dict[str, list[Scenario]] = {
    # normal pairs with varied standard-deviation ratio
    "panel-a": [
        Scenario(f"normal_sd_{sd:g}", normal(0.75, sd), normal(0.0, 1.0))
        for sd in (1 / 3, 1 / 2, 0.7, 1.0, 2.0, 3.0)
    ],
    # varied total sample size, unequal variances
    "panel-b": [
        Scenario(f"normal_sd2_n{n}", normal(0.75, 2.0), normal(0.0, 1.0), total_n=n)
        for n in (20, 50, 100)
    ],
    # varied alpha level
    "panel-c": [
        Scenario(f"normal_sd07_alpha{a:g}", normal(0.75, 0.7), normal(0.0, 1.0), alpha=a)
        for a in (0.01, 0.05, 0.1)
    ],
    # skewed families under a pure location shift
    "panel-d": [
        Scenario("chisq3_shift1", chi_square(3.0, shift=1.0), chi_square(3.0)),
        Scenario("lognormal_shift05", log_normal(0.0, 1.0, shift=0.5), log_normal(0.0, 1.0)),
        Scenario("exp075_shift05", exponential(0.75, shift=0.5), exponential(0.75)),
    ],
    # shifted chi-square at several total sample sizes
    "panel-e": [
        Scenario(f"chisq5_shift15_n{n}", chi_square(5.0, shift=1.5), chi_square(5.0), total_n=n)
        for n in (20, 50, 100)
    ],
    # differently skewed distributions vs chi-square(3)
    "panel-f": [
        Scenario("chisq5_vs_chisq3", chi_square(5.0), chi_square(3.0)),
        Scenario("lognormal_vs_chisq3", log_normal(1.0, 0.5), chi_square(3.0)),
    ],
    # differently skewed distributions vs exponential(0.75)
    "panel-g": [
        Scenario("chisq2_vs_exp075", chi_square(2.0), exponential(0.75)),
        Scenario("lognormal_vs_exp075", log_normal(0.5, 0.75), exponential(0.75)),
    ],
    # two exponentials, varied alpha
    "panel-h": [
        Scenario(f"exp_rates_alpha{a:g}", exponential(0.25), exponential(0.75), alpha=a)
        for a in (0.01, 0.05, 0.1)
    ],
    # cancer-recovery case study: t(3, 17, 2.8) vs chi-square(14), N = 67
    "epping": [
        Scenario("epping", student_t(3.0, 17.0, 2.8), chi_square(14.0), total_n=67)
    ],
}


def validate_catalogue() -> None:
    """Names must be unique across the whole catalogue."""
    names = [s.name for group in SCENARIOS.values() for s in group]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValueError(f"duplicate scenario names: {sorted(dupes)}")


validate_catalogue()
