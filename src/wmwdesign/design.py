"""Search for the power-maximizing allocation over realizable designs."""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import DistributionSpec
from .moments import Design, _check_total, _group_sizes
from .power import ONE_SIDED_UPPER, _deficiency_search, _grid, _wmw_powers
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
    powers = _wmw_powers(F, G, alpha, side)
    designs = _grid(total_n, epsilon)
    m, n = _group_sizes(designs)
    # one powers call per design, not one pass: a one-pass scan took the
    # benchmark's design_warm peak_rss_mb from 111.3 to 146.9 MB, past its 10%
    # bound, because its worker keeps every answer until its loop ends.  Once
    # ROADMAP direction 1 fixes the worker, the scan is powers(m, n).tolist()
    curve = [CurvePoint(d.omega, d.m, d.n, powers(m[i:i + 1], n[i:i + 1]).item())
             for i, d in enumerate(designs)]
    best = max(curve, key=lambda p: (p.power, -abs(p.omega - 0.5), -p.m))
    deficiency = None
    if compute_deficiency:
        deficiency = _deficiency_search(powers, total_n, 0.5, best.power)
    return DesignReport(optimal=Design(best.m, best.n), optimal_power=best.power,
                        power_curve=tuple(curve), deficiency_at_half=deficiency, epsilon=epsilon)


def power_curve(F: DistributionSpec, G: DistributionSpec, total_n: int,
                alpha: float = 0.05, side: str = ONE_SIDED_UPPER,
                grid: list[float] | None = None) -> list[CurvePoint]:
    """Power at the realizable design nearest each requested allocation fraction.

    The powers of all the curve's designs come from one ``_wmw_powers`` pass,
    bitwise equal to ``wmw_power``'s one design at a time.  N, alpha and
    side are checked first, then every omega of the grid, all before any
    quadrature; an empty grid takes no integrals.
    """
    _check_total(total_n)  # an empty grid still rejects a bad N
    powers = _wmw_powers(F, G, alpha, side)
    designs = (_grid(total_n, 0.0) if grid is None
               else [Design.from_total(total_n, omega) for omega in grid])
    if not designs:
        return []
    return [CurvePoint(d.omega, d.m, d.n, power)
            for d, power in zip(designs, powers(*_group_sizes(designs)).tolist())]
