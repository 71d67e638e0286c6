"""One benchmark process: set-up, the timed closed loop and the answer checks.

run.py starts this file in a fresh interpreter.  The worker imports the
package from the checkout's ``src/``, does the workload's set-up, prints the
line ``ready`` and times units of the speed meter (meter.py) for a second.
Then, unless ``--setup-only`` is given, it runs queries one after another
(one closed-loop client) for ``--seconds`` or for ``--count`` queries,
timing one meter unit after each query.
Its last stdout line is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_METER_S = 1.0  # shorter bursts tracked the set-up's speed worse (README.md)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import wmwdesign
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wmwdesign from {ROOT / 'src'}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(wmwdesign.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: wmwdesign was imported from {wmwdesign.__file__}, not {ROOT / 'src'}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, help="run exactly this many queries instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    threads_env = os.environ.pop("WMWDESIGN_THREADS", None)
    import_s = _import_package()
    import numpy
    import scipy
    from wmwdesign.scenarios import SCENARIO_VERSION

    from workloads import Workload, run_query

    workload = Workload(args.workload, args.seed)
    workload.warm_up()
    print("ready", flush=True)

    import meter

    # the host's speed right after set-up, to state setup_s at the reference speed
    setup_meter_s = []
    burst_end = time.perf_counter() + SETUP_METER_S
    while time.perf_counter() < burst_end:
        setup_meter_s.append(meter.unit())
    if args.setup_only:
        print(json.dumps({"setup_meter_s": setup_meter_s, "meter_reference_s": meter.REFERENCE_S}))
        return 0

    from check import Checker, compact, digest_problems

    tracer = None
    runner = run_query
    if args.trace:
        from spans import Tracer, cache_snapshot

        cache_before = cache_snapshot()
        tracer = Tracer()
        tracer.install()
        runner = tracer.wrap(run_query, "query")

    clock = time.perf_counter
    outcomes, latencies, meter_s = [], [], []
    start = clock()
    deadline = start + args.seconds
    try:
        while (len(outcomes) < args.count) if args.count is not None else (clock() < deadline):
            q = workload.query(len(outcomes))
            if tracer is not None:
                tracer.current_query = q.index
            t = clock()
            try:
                out, err = runner(q), None
            except Exception as exc:  # a failed query is counted and checked, not fatal
                out, err = None, exc
            latencies.append(clock() - t)
            outcomes.append((q, compact(q, out) if err is None else None, err))
            meter_s.append(meter.unit())
    finally:
        wall = clock() - start
        if tracer is not None:
            tracer.uninstall()

    per_layer = {}
    if tracer is not None:
        per_layer = tracer.layer_metrics(cache_before)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{args.workload}.npz")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = clock()
    checker = Checker()
    reference_path = REFERENCE_DIR / f"{args.workload}.json"
    reference = []
    if args.seed == DEFAULT_SEED and reference_path.exists() and not args.record_reference:
        reference = json.loads(reference_path.read_text())
    records, problems = [], []
    failed = 0
    for q, out, err in reversed(outcomes):  # newest first; see check.TABLE_CHECKS
        record, found = checker.check(q, out, err)
        if q.index < len(reference):
            found = found + digest_problems(record, reference[q.index])
        records.append(record)
        if found:
            failed += 1
            problems.append(f"query {q.index} ({q.kind}): {'; '.join(found)}")
    records.reverse()
    problems.reverse()
    if args.record_reference:
        if failed:
            sys.exit(f"perfbench: not recording a reference with {failed} failed queries")
        REFERENCE_DIR.mkdir(exist_ok=True)
        reference_path.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")

    report = {
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems[:10],
        "allocation_search_errors": checker.allocation_search_errors,
        "digest_checked": min(len(reference), len(outcomes)),
        "wall_s": wall,
        "check_s": clock() - check_start,
        "latencies_s": latencies,
        "meter_s": meter_s,
        "setup_meter_s": setup_meter_s,
        "meter_reference_s": meter.REFERENCE_S,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "trials": sum(q.trials for q, _, _ in outcomes),
        "per_layer": per_layer,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "scenario_version": SCENARIO_VERSION,
            "wmwdesign_threads": threads_env,
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
