"""Benchmark for wmwdesign: three closed-loop query workloads, with per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design_cold --seed 1 --seconds 25 --trace 0

Each run starts fresh worker interpreters (worker.py) that import the package
from ``src/``.  With ``--trace 0`` it measures set-up three times (median
reported) and runs one untraced, timed closed loop; it prints the end-to-end
metrics, with the timings stated at the speed meter's reference speed
(meter.py).  With ``--trace 1`` it runs one traced loop, derives the per-layer
metrics from its spans, and replays the first half of its queries untraced
to get the tracing overhead.  Every run checks the answers.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
This file uses only the standard library; the package is loaded by workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design_cold", "design_warm", "mc_power")
SETUP_REPEATS = 3
METER_WINDOW = 4  # meter units on each side of a query that set its speed
TIME_LIMIT_S = 170.0  # the whole run, set-ups and checks included


class WorkerError(RuntimeError):
    pass


def _run_worker(args, deadline: float, extra=()) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to its ``ready`` line, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.time()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise WorkerError(f"worker did not get ready: {line[:200]!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.time()))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    return setup_s, json.loads(lines[-1])


def _percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _provenance(args, report: dict) -> dict:
    prov = dict(report["provenance"])
    prov.update(git_commit=_git_commit(), source_sha256=_source_digest(),
                nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, queries=report["attempted"], trials=report["trials"])
    return prov


def _at_reference_speed(latencies: list[float], meter_s: list[float], reference_s: float):
    """Each latency scaled by the reference meter time over the meter times around it."""
    scaled = []
    for i, latency in enumerate(latencies):
        local = statistics.median(meter_s[max(0, i - METER_WINDOW):i + METER_WINDOW + 1])
        scaled.append(latency * reference_s / local)
    return scaled


def measure(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setups, scaled_setups = [], []
    for k in range(SETUP_REPEATS):
        extra = ["--setup-only"] if k < SETUP_REPEATS - 1 else []
        setup_s, report = _run_worker(args, deadline, extra)
        setups.append(setup_s)
        scaled_setups.append(setup_s * report["meter_reference_s"]
                             / statistics.median(report["setup_meter_s"]))
    raw = report["latencies_s"]
    scaled = _at_reference_speed(raw, report["meter_s"], report["meter_reference_s"])
    lat = sorted(1000.0 * x for x in scaled)
    raw_lat = sorted(1000.0 * x for x in raw)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "queries_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (_percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (_percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    meter_ms = sorted(1000.0 * x for x in report["meter_s"])
    notes = [f"as measured, before scaling to the reference speed: setup_s "
             f"{statistics.median(setups):.6g} s (samples "
             f"{', '.join(f'{s:.4f}' for s in setups)}), queries_per_s "
             f"{n / sum(raw):.6g} 1/s, latency_p50_ms "
             f"{_percentile(raw_lat, 0.5):.6g} ms, latency_p90_ms {_percentile(raw_lat, 0.9):.6g} ms",
             f"meter unit: reference {1000.0 * report['meter_reference_s']:.4g} ms; in this run "
             f"p10 {_percentile(meter_ms, 0.1):.4g}, p50 {_percentile(meter_ms, 0.5):.4g}, "
             f"p90 {_percentile(meter_ms, 0.9):.4g} ms",
             f"latency samples: {n} ({n - 1 - int(0.9 * (n - 1))} beyond p90)",
             f"answer checks took {report['check_s']:.2f} s"]
    if n - 1 - int(0.9 * (n - 1)) < 10:
        notes.append("warning: fewer than 10 latency samples beyond p90; run longer")
    if args.workload == "mc_power":
        notes.append(f"mc_trials_per_s: {report['trials'] / sum(scaled):.6g} 1/s "
                     f"at the reference speed")
    return metrics, report, notes


def traced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    _, report = _run_worker(args, deadline, ["--trace", "1"])
    # replay the first half of the traced queries untraced, to price the tracing
    k = (report["attempted"] + 1) // 2
    _, replay = _run_worker(args, deadline, ["--count", str(k)])
    metrics = {name: tuple(v) for name, v in report["per_layer"].items()}
    metrics["setup.import_s"] = (report["import_s"], "s")
    metrics["trace.overhead_ratio"] = (
        sum(report["latencies_s"][:k]) / sum(replay["latencies_s"]), "ratio")
    metrics["mc_trials_per_s"] = (replay["trials"] / sum(replay["latencies_s"]), "1/s")
    metrics["power.allocation_search_errors"] = (report["allocation_search_errors"], "count")
    notes = [f"traced loop {report['wall_s']:.3f} s; untraced replay of its first {k} "
             f"queries {replay['wall_s']:.3f} s",
             f"spans written to {Path('.perfbench_out') / f'spans_{args.workload}.npz'}"]
    report = dict(report, attempted=report["attempted"] + replay["attempted"],
                  failed=report["failed"] + replay["failed"],
                  problems=report["problems"] + replay["problems"])
    return metrics, report, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.time() + TIME_LIMIT_S
    try:
        metrics, report, notes = (traced if args.trace else measure)(args, deadline)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prov = _provenance(args, report)
    failed, attempted = report["failed"], report["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} queries, "
          f"{failed} failed (failed_fraction {failed / attempted:.6g}), "
          f"{report['allocation_search_errors']} checked AllocationSearchError, "
          f"{report['digest_checked']} compared with the recorded digest")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
