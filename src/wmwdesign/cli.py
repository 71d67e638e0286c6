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
from dataclasses import astuple, fields, is_dataclass
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


def _fields(obj) -> dict:
    """A result dataclass's fields by name: a Design's are m, n and its omega,
    and a sequence (a report's curve) comes after the scalars."""
    if isinstance(obj, Design):
        return {"m": obj.m, "n": obj.n, "omega": obj.omega}
    items = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    return dict(sorted(items, key=lambda item: isinstance(item[1], tuple)))


def _plain(x):
    """x for JSON: each dataclass as its ``_fields``, each float rounded to 10
    significant digits, locale independent."""
    if is_dataclass(x):
        x = _fields(x)
    if isinstance(x, float):
        return float(f"{x:.10g}")
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _emit_json(data, path=None):
    """Write data as JSON to stdout, or to the file at ``path`` when given."""
    text = json.dumps(_plain(data), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_rows(header, rows, path, report=None):
    """Write rows as CSV to ``path`` when given, then print ``report`` as JSON,
    or, with neither, print the rows as a JSON list.  The CSV goes first, so
    that a failed write prints nothing."""
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])
    if report is not None:
        _emit_json(report)
    elif not path:
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


def _add_design_args(p):
    p.add_argument("--omega", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--n2", type=int, help="second group size (with --m)")


def _curve_rows(F, G, total_n, alpha, side, grid, trials, seed):
    """The header and rows of a power curve: omega, m, n and approximate power,
    then, unless trials is None, the simulated exact-WMW power and its standard
    error at each point's design."""
    header = ["omega", "m", "n", "power_approx"]
    if trials is not None:
        header += ["power_mc", "mc_se"]
    rows = []
    for p in design_mod.power_curve(F, G, total_n, alpha=alpha, side=side, grid=grid):
        row = [p.omega, p.m, p.n, p.power]
        if trials is not None:
            plan = SimulationPlan(F, G, Design(p.m, p.n), alpha, side, trials=trials, seed=seed)
            sim = simulate_power(plan, test="wmw_exact")
            row += [sim.rejection_rate, sim.standard_error]
        rows.append(row)
    return header, rows


# -- subcommand handlers -------------------------------------------------


def _cmd_power(args):
    F, G = _load_specs(args)
    d = _resolve_design(args)
    _emit_json({"design": d, **_fields(wmw_power(PowerQuery(F, G, d, args.alpha, args.side)))})


def _cmd_optimal_design(args):
    F, G = _load_specs(args)
    report = design_mod.optimal_design(
        F, G, args.n, alpha=args.alpha, side=args.side, epsilon=args.epsilon
    )
    _emit_rows(["omega", "m", "n", "power"], [astuple(p) for p in report.power_curve],
               args.out, report=report)


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
    # --mc-trials 0, the default, adds no Monte Carlo columns
    header, rows = _curve_rows(F, G, args.n, args.alpha, args.side, grid,
                               args.mc_trials or None, args.seed)
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
    _emit_rows(["u", "probability"], enumerate(table.pmf.tolist()), args.out, report={
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
    _emit_json({"design": d, **_fields(simulate_power(plan, test=args.test))})


def _cmd_check_identities(args):
    F, G = _load_specs(args)
    out = _fields(check_identities(F, G))
    out.update(_fields(out.pop("summary")))
    _emit_json(out)


def _cmd_reproduce(args):
    if args.figure == "deficiency":
        rows = [(i / 100.0, deficiency_symmetric(i / 100.0)) for i in range(1, 100)]
        _emit_rows(["omega", "deficiency"], rows, args.out)
        return

    if args.figure == "epping":
        sc = scenarios_mod.SCENARIOS["epping"][0]
        report = design_mod.optimal_design(sc.F, sc.G, sc.total_n, alpha=sc.alpha)
        _emit_json({
            **_fields(report),
            # the second group holds the chi-square (recovery) distribution
            "omega_star_second_group": 1.0 - report.optimal.omega,
            "scenario_version": scenarios_mod.SCENARIO_VERSION,
        }, args.out)
        return

    rows = []
    grid = [i / 10.0 for i in range(1, 10)]
    for sc in scenarios_mod.SCENARIOS[args.figure]:
        header, curve = _curve_rows(sc.F, sc.G, sc.total_n, sc.alpha, ONE_SIDED_UPPER, grid,
                                    args.trials, args.seed)
        rows += [[sc.name, *row] for row in curve]
    _emit_rows(["scenario", *header], rows, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wmwdesign", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="approximate power at one design")
    _add_spec_args(p)
    _add_design_args(p)
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
    _add_design_args(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test", choices=TESTS, default="wmw_exact")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-identities", help="residuals of the moment identities")
    p.add_argument("--f-spec", required=True)
    p.add_argument("--g-spec", required=True)
    p.set_defaults(func=_cmd_check_identities)

    p = sub.add_parser("reproduce", help="run a bundled scenario group")
    p.add_argument("--figure", required=True,
                   choices=[*sorted(scenarios_mod.SCENARIOS), "deficiency"])
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
    # an OverflowError is a size too large to convert to float
    except (UsageError, ParameterError, ValueError, OSError, OverflowError) as exc:
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
