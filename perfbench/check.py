"""Answer checker: closed forms, invariants, an independent power model and MC cross-checks.

``Checker.check`` turns one query's outcome into a digest record (the scalar
answers, compared across runs at the default seed) and a list of problems.
A query with any problem counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

import wmwdesign
from wmwdesign.exceedance import RESULT_TOL
from wmwdesign.simulate import BLOCK_TRIALS, MAX_TABLE_ENTRIES

from workloads import ONE, TWO

POWER_TOL = 1e-9      # independent power model vs the package
DIGEST_INTEGRAL_TOL = 1e-9
DIGEST_VALUE_TOL = 1e-6  # powers and deficiencies derived from the integrals
CAP_FACTOR = 20          # the deficiency search's sample-size cap
# the newest queries are checked first, while their tables are still in the
# package's 64-entry table cache; these bound the checking time of a run
FIRST_BLOCK_CHECKS = 16  # WMW queries whose first block is recomputed
TABLE_CHECKS = 48        # distinct exact tables whose counts and moments are checked


# -- compact answers --------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    m: np.ndarray
    n: np.ndarray
    power: np.ndarray

    @classmethod
    def of(cls, points) -> "Curve":
        return cls(np.array([p.m for p in points]), np.array([p.n for p in points]),
                   np.array([p.power for p in points]))


@dataclass(frozen=True)
class Report:
    optimal: wmwdesign.Design
    optimal_power: float
    deficiency_at_half: float
    curve: Curve


def compact(q, outcome):
    """What the checker needs of an answer, without one object per curve point.

    Answers are kept until the timed loop ends; keeping them small stops the
    number of queries a run completes from showing in its peak memory.
    """
    if q.kind in ("design", "optimal_design"):
        report = outcome[0] if q.kind == "design" else outcome
        small = Report(report.optimal, report.optimal_power, report.deficiency_at_half,
                       Curve.of(report.power_curve))
        return (small, outcome[1], outcome[2].approx_power) if q.kind == "design" else small
    if q.kind == "power_curve":
        return Curve.of(outcome)
    return outcome


# -- independent power model --------------------------------------------


def reference_power(s, m, n, alpha: float, side: str, same: bool = False) -> np.ndarray:
    """Normal-approximation WMW power for arrays of designs, from the three integrals."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    mn = m * n
    var0 = mn * (m + n + 1.0) / 12.0
    if same:
        mu, s2 = np.zeros_like(mn), np.ones_like(mn)
    else:
        p, i1, i2 = s.p_x_ge_y, s.int_g2_f, s.int_1mf2_g
        var1 = np.maximum(mn * (p - (m + n - 1.0) * p * p + (n - 1.0) * i1 + (m - 1.0) * i2), 0.0)
        mu, s2 = (mn * p - mn / 2.0) / np.sqrt(var0), var1 / var0
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.sqrt(s2)
        if side == ONE:
            power = 1.0 - special.ndtr((special.ndtri(1.0 - alpha) - mu) / sigma)
        else:
            power = (special.ndtr((special.ndtri(alpha / 2.0) - mu) / sigma)
                     - special.ndtr((special.ndtri(1.0 - alpha / 2.0) - mu) / sigma) + 1.0)
    degenerate = np.where((mu > 0) | ((side == TWO) & (mu != 0)), 1.0, 0.0)
    return np.where(s2 <= 0.0, degenerate, power)


def _grid(total_n: int, epsilon: float = 0.1) -> np.ndarray:
    lo = max(1, math.ceil(epsilon * total_n))
    hi = min(total_n - 1, math.floor((1.0 - epsilon) * total_n))
    return np.arange(lo, hi + 1)


def _search_totals(total_n: int, omega: float):
    """Totals N..20N and the rounded allocation at omega, as the deficiency search walks them."""
    totals = np.arange(total_n, CAP_FACTOR * total_n + 1)
    m = np.round(omega * totals).astype(np.int64)  # half to even, as Python's round
    ok = (m >= 1) & (totals - m >= 1)
    return totals[ok], m[ok]


def deficiency_problems(model, total_n: int, omega: float, target: float, deficiency) -> list[str]:
    """Check a reported deficiency (or ``None`` for AllocationSearchError) against the model."""
    totals, m = _search_totals(total_n, omega)
    power = model(m, totals - m)
    if deficiency is None:
        if np.any(power >= target + POWER_TOL):
            return ["AllocationSearchError although a total within the cap reaches the target"]
        return []
    if not deficiency >= 0.0:
        return [f"negative deficiency {deficiency}"]
    found = int(round((1.0 + deficiency) * total_n))
    before = power[totals < found]
    at = power[totals == found]
    if at.size != 1 or at[0] < target - POWER_TOL or np.any(before >= target + POWER_TOL):
        return [f"deficiency {deficiency} is not the first total reaching power {target}"]
    return []


# -- per-pair checks ------------------------------------------------------


def pair_problems(F, G, s) -> list[str]:
    """Accuracy contract and the closed forms for normal/normal and unshifted exponentials."""
    problems = []
    if not s.quadrature_error_bound <= RESULT_TOL:
        problems.append(f"quadrature error bound {s.quadrature_error_bound:.3e} > {RESULT_TOL}")
    exact = None
    if F.family == G.family == "normal":
        delta = F.param("mean") + F.shift - G.param("mean") - G.shift
        exact = float(special.ndtr(delta / math.hypot(F.param("sd"), G.param("sd"))))
    elif F.family == G.family == "exponential" and F.shift == G.shift == 0.0:
        exact = G.param("rate") / (F.param("rate") + G.param("rate"))
    if exact is not None and abs(s.p_x_ge_y - exact) > RESULT_TOL:
        problems.append(f"P(X>=Y) {s.p_x_ge_y!r} differs from closed form {exact!r}")
    for name in ("p_x_ge_y", "int_g2_f", "int_1mf2_g"):
        if not 0.0 <= getattr(s, name) <= 1.0:
            problems.append(f"{name} outside [0, 1]")
    return problems


def _table(m: int, n: int):
    # the same call simulate_power makes, so that its cached table is reused
    return wmwdesign.build_table(m, n, max_entries=MAX_TABLE_ENTRIES)


def table_problems(m: int, n: int) -> list[str]:
    """Counts sum to C(m+n, m); exact mean mn/2 and variance mn(m+n+1)/12, in integers."""
    counts = _table(m, n).counts
    total, mn = math.comb(m + n, m), m * n
    s1 = sum(u * c for u, c in enumerate(counts))
    s2 = sum(u * u * c for u, c in enumerate(counts))
    if sum(counts) != total:
        return [f"table {m}x{n}: counts do not sum to C(m+n, m)"]
    if 2 * s1 != total * mn or 12 * (total * s2 - s1 * s1) != total * total * mn * (m + n + 1):
        return [f"table {m}x{n}: exact moments differ from mn/2, mn(m+n+1)/12"]
    return []


# -- per-query checks -----------------------------------------------------


def _curve_problems(curve: Curve, model) -> list[str]:
    p = curve.power
    if np.any((p < 0) | (p > 1)) or np.max(np.abs(p - model(curve.m, curve.n))) > POWER_TOL:
        return ["power curve outside [0, 1] or off the model"]
    return []


class Checker:
    def __init__(self):
        self.tables_checked: set[tuple[int, int]] = set()
        self.pairs_checked: set = set()
        self.allocation_search_errors = 0
        self.first_blocks_checked = 0

    def _summary(self, q):
        F, G = q.F, q.G
        s = wmwdesign.second_moment_integrals(F, G)
        problems = []
        if (F, G) not in self.pairs_checked:
            self.pairs_checked.add((F, G))
            problems = pair_problems(F, G, s)

        def model(m, n):
            return reference_power(s, m, n, q.alpha, q.side, same=(F == G))

        return s, model, problems

    def check(self, q, outcome, error) -> tuple[dict, list[str]]:
        """Digest record and problems for one query.  ``error`` is the exception raised, if any."""
        if q.kind in ("wmw_exact", "wmw_normal", "t_hom", "t_het"):
            if error is not None:
                return {"error": type(error).__name__}, [f"{type(error).__name__}: {error}"]
            return self._check_mc(q, outcome)
        s, model, problems = self._summary(q)
        record = {"p": s.p_x_ge_y, "i1": s.int_g2_f, "i2": s.int_1mf2_g}
        grid = _grid(q.total_n)
        if isinstance(error, wmwdesign.AllocationSearchError) and q.kind in ("design", "deficiency"):
            # e.g. a one-sided alternative pointing the wrong way: no total within
            # the cap reaches the optimum; legitimate only if the model agrees
            target = float(np.max(model(grid, q.total_n - grid)))
            omega = 0.5 if q.kind == "design" else q.omega
            problems += deficiency_problems(model, q.total_n, omega, target, None)
            self.allocation_search_errors += not problems
            record["error"] = type(error).__name__
            return record, problems
        if error is not None:
            return record, problems + [f"{type(error).__name__}: {error}"]

        if q.kind == "design":
            report, d, power = outcome
            problems += self._report_problems(q, report, model)
            ref = float(model(d.m, d.n))
            if not 0.0 <= power <= 1.0 or abs(power - ref) > POWER_TOL:
                problems.append(f"wmw_power at {d} is {power}, model {ref}")
            record.update(m=report.optimal.m, power=report.optimal_power,
                          deficiency=report.deficiency_at_half, power_at=power)
        elif q.kind == "optimal_design":
            problems += self._report_problems(q, outcome, model)
            record.update(m=outcome.optimal.m, power=outcome.optimal_power,
                          deficiency=outcome.deficiency_at_half)
        elif q.kind == "deficiency":
            target = float(np.max(model(grid, q.total_n - grid)))
            problems += deficiency_problems(model, q.total_n, q.omega, target, outcome)
            record["deficiency"] = outcome
        elif q.kind == "power_curve":
            problems += _curve_problems(outcome, model)
            record.update(curve_sum=float(outcome.power.sum()), curve_max=float(outcome.power.max()))
        elif q.kind == "welch":
            if not (math.isfinite(outcome) and outcome >= 0.0):
                problems.append(f"Welch deficiency {outcome} is not >= 0")
            record["deficiency"] = outcome
        return record, problems

    def _report_problems(self, q, report, model) -> list[str]:
        problems = _curve_problems(report.curve, model)
        if report.optimal_power < report.curve.power.max():
            problems.append("optimal_power is below a point of the curve")
        again = wmwdesign.wmw_power(wmwdesign.PowerQuery(q.F, q.G, report.optimal, q.alpha, q.side))
        if again.approx_power != report.optimal_power:
            problems.append("wmw_power at the optimum does not reproduce optimal_power")
        problems += deficiency_problems(model, q.total_n, 0.5, report.optimal_power,
                                        report.deficiency_at_half)
        return problems

    def _check_mc(self, q, res) -> tuple[dict, list[str]]:
        rejections = int(round(res.rejection_rate * res.trials))
        record = {"rejections": rejections}
        problems = []
        if res.trials != q.trials or res.test_used != q.kind or res.fell_back_to_normal:
            problems.append(f"ran {res.test_used} with {res.trials} trials")
        if not 0.0 <= res.rejection_rate <= 1.0:
            problems.append(f"rejection rate {res.rejection_rate} outside [0, 1]")
        se = math.sqrt(res.rejection_rate * (1.0 - res.rejection_rate) / res.trials)
        if abs(res.standard_error - se) > 1e-12:
            problems.append("standard error differs from sqrt(p(1-p)/trials)")
        if (q.kind == "wmw_exact" and (q.m, q.n) not in self.tables_checked
                and len(self.tables_checked) < TABLE_CHECKS):
            self.tables_checked.add((q.m, q.n))
            problems += table_problems(q.m, q.n)
        if (q.kind in ("wmw_exact", "wmw_normal") and not problems
                and self.first_blocks_checked < FIRST_BLOCK_CHECKS):
            self.first_blocks_checked += 1
            problems += self._first_block_problems(q, res)
        return record, problems

    def _first_block_problems(self, q, res) -> list[str]:
        """Rejections in the first block, recomputed from its samples with the public compute_u."""
        m, n = q.m, q.n
        b = min(BLOCK_TRIALS, q.trials)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=q.seed, spawn_key=(0,)))
        X, Y = q.F.sample(rng, (b, m)), q.G.sample(rng, (b, n))
        U = np.array([wmwdesign.compute_u(x, y) for x, y in zip(X, Y)])
        if q.kind == "wmw_exact":
            cv_side = "upper" if q.side == ONE else "two_sided"
            crit = wmwdesign.critical_value(_table(m, n), q.alpha, cv_side)
            reject = U >= crit.value
            if q.side == TWO:
                reject |= U <= m * n - crit.value
            if crit.degenerate:
                reject[:] = False
        else:
            z = (U - m * n / 2.0) / math.sqrt(m * n * (m + n + 1) / 12.0)
            reject = (z >= stats.norm.ppf(1.0 - q.alpha) if q.side == ONE
                      else np.abs(z) >= stats.norm.ppf(1.0 - q.alpha / 2.0))
        if b < q.trials:
            plan = wmwdesign.SimulationPlan(q.F, q.G, wmwdesign.Design(m, n), q.alpha, q.side,
                                            trials=b, seed=q.seed)
            res = wmwdesign.simulate_power(plan, test=q.kind)
        expected = int(round(res.rejection_rate * res.trials))
        if int(reject.sum()) != expected:
            return [f"first block: compute_u gives {int(reject.sum())} rejections, "
                    f"simulate_power {expected}"]
        return []


# -- seed digest ------------------------------------------------------------

_INTEGRAL_KEYS = ("p", "i1", "i2")


def digest_problems(record: dict, reference: dict) -> list[str]:
    """Compare one query's record with the one recorded at the default seed."""
    if set(record) != set(reference):
        return [f"digest keys {sorted(record)} differ from {sorted(reference)}"]
    for key, want in reference.items():
        got = record[key]
        if isinstance(want, float) and isinstance(got, float):
            tol = DIGEST_INTEGRAL_TOL if key in _INTEGRAL_KEYS else DIGEST_VALUE_TOL
            if abs(got - want) <= tol:
                continue
        elif got == want:
            continue
        return [f"digest {key}: {got!r} differs from recorded {want!r}"]
    return []
