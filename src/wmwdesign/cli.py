"""Command-line interface.

Subcommands: power, optimal-design, power-curve, deficiency, exact-null,
simulate, check-identities, reproduce.  Output is JSON on stdout, or CSV to
an --out path where a curve/table is produced.

Exit codes: 0 success, 1 usage, input or output-file error, 2 numerical failure,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import design as design_mod
from . import scenarios as scenarios_mod
from .distributions import DistributionSpec, ParameterError
from .exact_null import TableSizeError, _check_exact_alpha, build_table, critical_value
from .exceedance import QuadratureAccuracyError, check_identities
from .moments import Design, null_moments
from .power import (
    ONE_SIDED_UPPER,
    SIDES,
    AllocationSearchError,
    PowerQuery,
    deficiency_general,
    deficiency_symmetric,
    wmw_power,
)
from .simulate import TESTS, SimulationPlan, simulate_power

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sig10(x):
    """Round floats to 10 significant digits, locale independent."""
    if isinstance(x, float):
        return float(f"{x:.10g}")
    if isinstance(x, dict):
        return {k: _sig10(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig10(v) for v in x]
    return x


def _emit_json(data, path=None):
    """Write data as JSON to stdout, or to the file at ``path`` when given."""
    text = json.dumps(_sig10(data), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


def _emit_rows(header, rows, path):
    """Write rows as CSV to ``path`` when given, else print them as a JSON list."""
    if path:
        _write_csv(path, header, rows)
    else:
        _emit_json([dict(zip(header, row)) for row in rows])


def _load_spec(text: str, flag: str) -> DistributionSpec:
    try:
        if text.lstrip().startswith("{"):
            return DistributionSpec.from_json(text)
        return DistributionSpec.from_json(Path(text).read_text())
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read spec file: {exc}") from exc
    except ParameterError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _load_specs(args):
    return _load_spec(args.f_spec, "--f-spec"), _load_spec(args.g_spec, "--g-spec")


def _resolve_design(args) -> Design:
    if args.m is not None or args.n2 is not None:
        if args.m is None or args.n2 is None or args.omega is not None:
            raise UsageError("--m and --n2 go together, and not with --omega")
        return Design(args.m, args.n2)
    omega = args.omega if args.omega is not None else 0.5
    return Design.from_total(args.n, omega)


def _add_spec_args(p):
    p.add_argument("--f-spec", required=True, help="JSON spec (inline or file path) for group F")
    p.add_argument("--g-spec", required=True, help="JSON spec (inline or file path) for group G")
    p.add_argument("--n", type=int, default=50, help="total sample size N (default 50)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--side", choices=SIDES, default=ONE_SIDED_UPPER)


def _design_dict(d):
    return {"m": d.m, "n": d.n, "omega": d.omega}


def _mc_columns(F, G, point, alpha, side, trials, seed):
    """Simulated exact-WMW power and its standard error at a curve point's design."""
    plan = SimulationPlan(F, G, Design(point.m, point.n), alpha, side, trials=trials, seed=seed)
    sim = simulate_power(plan, test="wmw_exact")
    return [sim.rejection_rate, sim.standard_error]


def _design_report_dict(report):
    # explicit, because DesignReport's field order is not the JSON key order
    return {
        "optimal": _design_dict(report.optimal),
        "optimal_power": report.optimal_power,
        "deficiency_at_half": report.deficiency_at_half,
        "epsilon": report.epsilon,
        "power_curve": [asdict(p) for p in report.power_curve],
    }


# -- subcommand handlers -------------------------------------------------


def _cmd_power(args):
    F, G = _load_specs(args)
    d = _resolve_design(args)
    res = wmw_power(PowerQuery(F, G, d, args.alpha, args.side))
    _emit_json({"design": _design_dict(d), **asdict(res)})


def _cmd_optimal_design(args):
    F, G = _load_specs(args)
    report = design_mod.optimal_design(
        F, G, args.n, alpha=args.alpha, side=args.side, epsilon=args.epsilon
    )
    if args.out:  # first, so that a failed write prints nothing
        _write_csv(
            args.out,
            ["omega", "m", "n", "power"],
            [(p.omega, p.m, p.n, p.power) for p in report.power_curve],
        )
    _emit_json(_design_report_dict(report))


def _cmd_power_curve(args):
    F, G = _load_specs(args)
    grid = None
    if args.grid is not None:
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"--grid: {exc}") from exc
        if not grid:
            raise UsageError(f"--grid lists no allocation fraction: {args.grid!r}")
    points = design_mod.power_curve(F, G, args.n, alpha=args.alpha, side=args.side, grid=grid)
    header = ["omega", "m", "n", "power_approx"]
    rows = [[p.omega, p.m, p.n, p.power] for p in points]
    if args.mc_trials:
        header += ["power_mc", "mc_se"]
        for row, p in zip(rows, points):
            row += _mc_columns(F, G, p, args.alpha, args.side, args.mc_trials, args.seed)
    _emit_rows(header, rows, args.out)


def _cmd_deficiency(args):
    # the general-only flags default to None, so that one given without the
    # specs is caught instead of ignored by the closed form
    general = {"alpha": args.alpha, "side": args.side, "epsilon": args.epsilon}
    if args.f_spec or args.g_spec:
        if not (args.f_spec and args.g_spec and args.n is not None):
            raise UsageError("general deficiency needs --f-spec, --g-spec and --n")
        F, G = _load_specs(args)
        d = deficiency_general(F, G, args.n, args.omega,
                               **{k: v for k, v in general.items() if v is not None})
        _emit_json({"omega": args.omega, "deficiency": d, "method": "general"})
    else:
        given = [f"--{k}" for k, v in {"n": args.n, **general}.items() if v is not None]
        if given:
            raise UsageError(f"{', '.join(given)} need --f-spec and --g-spec; "
                             "the symmetric closed form takes only --omega")
        d = deficiency_symmetric(args.omega)
        _emit_json({"omega": args.omega, "deficiency": d, "method": "symmetric_closed_form"})


def _cmd_exact_null(args):
    _check_exact_alpha(args.alpha)  # before the table is built
    table = build_table(args.m, args.n)
    e0, var0 = null_moments(Design(args.m, args.n))
    cv = critical_value(table, args.alpha, "upper")
    if args.out:  # first, so that a failed write prints nothing
        _write_csv(args.out, ["u", "probability"], list(enumerate(table.pmf.tolist())))
    _emit_json({
        "m": args.m,
        "n": args.n,
        "mean": float(table.exact_mean()),
        "variance": float(table.exact_variance()),
        "formula_mean": e0,
        "formula_variance": var0,
        "upper_critical_value": cv.value,
        "achieved_size": cv.achieved_size,
        "degenerate": cv.degenerate,
    })


def _cmd_simulate(args):
    F, G = _load_specs(args)
    d = _resolve_design(args)
    plan = SimulationPlan(F, G, d, args.alpha, args.side, trials=args.trials, seed=args.seed)
    res = simulate_power(plan, test=args.test)
    _emit_json({"design": _design_dict(d), **asdict(res)})


def _cmd_check_identities(args):
    F, G = _load_specs(args)
    out = asdict(check_identities(F, G))
    out.update(out.pop("summary"))
    _emit_json(out)


def _cmd_reproduce(args):
    if args.figure == "deficiency":
        rows = [(i / 100.0, deficiency_symmetric(i / 100.0)) for i in range(1, 100)]
        _emit_rows(["omega", "deficiency"], rows, args.out)
        return

    if args.figure == "epping":
        sc = scenarios_mod.SCENARIOS["epping"][0]
        report = design_mod.optimal_design(sc.F, sc.G, sc.total_n, alpha=sc.alpha)
        out = _design_report_dict(report)
        # the second group holds the chi-square (recovery) distribution
        out["omega_star_second_group"] = 1.0 - report.optimal.omega
        out["scenario_version"] = scenarios_mod.SCENARIO_VERSION
        _emit_json(out, args.out)
        return

    rows = []
    grid = [i / 10.0 for i in range(1, 10)]
    for sc in scenarios_mod.SCENARIOS[args.figure]:
        for p in design_mod.power_curve(sc.F, sc.G, sc.total_n, alpha=sc.alpha, grid=grid):
            rows.append([sc.name, p.omega, p.m, p.n, p.power,
                         *_mc_columns(sc.F, sc.G, p, sc.alpha, ONE_SIDED_UPPER,
                                      args.trials, args.seed)])
    header = ["scenario", "omega", "m", "n", "power_approx", "power_mc", "mc_se"]
    _emit_rows(header, rows, args.out)


SCENARIOS_CHOICES = sorted(scenarios_mod.SCENARIOS) + ["deficiency"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wmwdesign", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="approximate power at one design")
    _add_spec_args(p)
    p.add_argument("--omega", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--n2", type=int, help="second group size (with --m)")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("optimal-design", help="power-maximizing allocation")
    _add_spec_args(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", help="write the power curve as CSV")
    p.set_defaults(func=_cmd_optimal_design)

    p = sub.add_parser("power-curve", help="power across allocations")
    _add_spec_args(p)
    p.add_argument("--grid", help="comma-separated allocation fractions")
    p.add_argument("--mc-trials", type=int, default=0,
                   help="add Monte Carlo columns with this many trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here instead of JSON to stdout")
    p.set_defaults(func=_cmd_power_curve)

    p = sub.add_parser("deficiency", help="extra sample size needed at an allocation")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--f-spec")
    p.add_argument("--g-spec")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float, help="default 0.05")
    p.add_argument("--side", choices=SIDES, help=f"default {ONE_SIDED_UPPER}")
    p.add_argument("--epsilon", type=float, help="default 0.1")
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("exact-null", help="exact null distribution of U")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="write the pmf as CSV (columns: u, probability)")
    p.set_defaults(func=_cmd_exact_null)

    p = sub.add_parser("simulate", help="Monte Carlo power estimate")
    _add_spec_args(p)
    p.add_argument("--omega", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test", choices=TESTS, default="wmw_exact")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-identities", help="residuals of the moment identities")
    p.add_argument("--f-spec", required=True)
    p.add_argument("--g-spec", required=True)
    p.set_defaults(func=_cmd_check_identities)

    p = sub.add_parser("reproduce", help="run a bundled scenario group")
    p.add_argument("--figure", required=True, choices=SCENARIOS_CHOICES)
    p.add_argument("--seed", type=int, default=20160022)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--out", help="write CSV here instead of JSON to stdout "
                                 "(epping: its JSON report)")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (UsageError, ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureAccuracyError, AllocationSearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TableSizeError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
