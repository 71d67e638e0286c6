"""Search for the power-maximizing allocation over realizable designs."""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import DistributionSpec
from .moments import Design, _check_total
from .power import ONE_SIDED_UPPER, _deficiency_search, _grid, _wmw_powers, wmw_power_at
from .power import wmw_power  # noqa: F401  kept as design.wmw_power for perfbench/spans.py


@dataclass(frozen=True)
class CurvePoint:
    omega: float
    m: int
    n: int
    power: float


@dataclass(frozen=True)
class DesignReport:
    optimal: Design
    optimal_power: float
    power_curve: tuple[CurvePoint, ...]
    deficiency_at_half: float | None
    epsilon: float


def optimal_design(F: DistributionSpec, G: DistributionSpec, total_n: int,
                   alpha: float = 0.05, side: str = ONE_SIDED_UPPER,
                   epsilon: float = 0.1, compute_deficiency: bool = True) -> DesignReport:
    """Exhaustive scan over integer allocations m with epsilon <= m/N <= 1-epsilon.

    Ties in power are broken toward omega closest to 0.5, then toward the
    smaller m.  The exceedance integrals are cached per (F, G), so the scan
    costs one quadrature triple regardless of grid size.
    """
    power_at = wmw_power_at(F, G, alpha, side)
    curve = [CurvePoint(d.omega, d.m, d.n, power_at(d)) for d in _grid(total_n, epsilon)]
    best = max(curve, key=lambda p: (p.power, -abs(p.omega - 0.5), -p.m))
    deficiency = None
    if compute_deficiency:
        deficiency = _deficiency_search(_wmw_powers(F, G, alpha, side), total_n, 0.5,
                                        best.power)
    return DesignReport(optimal=Design(best.m, best.n), optimal_power=best.power,
                        power_curve=tuple(curve), deficiency_at_half=deficiency, epsilon=epsilon)


def power_curve(F: DistributionSpec, G: DistributionSpec, total_n: int,
                alpha: float = 0.05, side: str = ONE_SIDED_UPPER,
                grid: list[float] | None = None) -> list[CurvePoint]:
    """Power at the realizable design nearest each requested allocation fraction."""
    _check_total(total_n)  # an empty grid still rejects a bad N
    power_at = wmw_power_at(F, G, alpha, side)
    designs = (_grid(total_n, 0.0) if grid is None
               else (Design.from_total(total_n, omega) for omega in grid))
    return [CurvePoint(d.omega, d.m, d.n, power_at(d)) for d in designs]
