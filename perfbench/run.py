"""Pipeline benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload frontier|minimality|cones
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`.  With --trace 0 the workload runs as several samples, each in a
fresh interpreter, one after the other (one process, one thread, closed
loop), and every end-to-end metric is printed with its unit.  With --trace 1
sample 0 runs once untraced and once traced, and the per-layer metrics of
the traced run are printed.  Every output is checked before any timing is
reported; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
RUN_LIMIT_S = 170

END_TO_END = (
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


class WorkerFailed(Exception):
    pass


def start_worker(workload, seed, sample, trace, deadline):
    """Run one worker to completion; returns its report and its spawn time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--sample", str(sample), "--trace", str(trace)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"sample {sample} did not finish within the run limit")
    if proc.returncode != 0:
        raise WorkerFailed(
            f"sample {sample} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, t_spawn


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n items beyond it."""
    if n <= 10:
        return 50
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        for key, d in zip(r["keys"], r["digests"]):
            h.update(f"{key}={d};".encode())
    return h.hexdigest()[:16]


def report_failures(reports):
    failures = [(r["sample"], k, why) for r in reports for k, why in r["failures"].items()]
    for sample, key, why in failures[:10]:
        print(f"  FAILED sample {sample} item {key}: {why}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more")
    return len(failures)


def end_to_end(args, deadline):
    samples = workloads.WORKLOADS[args.workload].samples(args.seconds)
    reports, setups = [], []
    for k in range(samples):
        report, t_spawn = start_worker(args.workload, args.seed, k, 0, deadline)
        report["sample"] = k
        setup = report["t_ready"] - t_spawn - report["setup_calibration_s"]
        setups.append(setup * report["setup_speed"])
        reports.append(report)
        n, raw = len(report["latencies"]), sum(report["raw_latencies"])
        print(f"sample {k}: {n} items in {sum(report['latencies']):.3f} s "
              f"({raw:.3f} s raw), set-up {setups[-1]:.3f} s ({setup:.3f} s raw), "
              f"host speed {report['host_speed']:.3f}")

    latencies = [x for r in reports for x in r["latencies"]]
    attempted = len(latencies)
    failed = report_failures(reports)
    q = tail_percentile(attempted)
    metrics = {
        "items_per_s": statistics.median(len(r["latencies"]) / sum(r["latencies"])
                                         for r in reports),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": nearest_rank(latencies, q),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "ok_frac": 1 - failed / attempted,
    }
    print(f"workload {args.workload}  seed {args.seed}  samples {samples}  "
          f"items {attempted}  digest {run_digest(reports)}")
    if failed:
        print(f"INVALID: {failed} of {attempted} items failed; the timings below do not count")
    notes = {"latency_tail_s": f"p{q} of {attempted} items",
             "setup_s": f"median of {samples} set-ups",
             "items_per_s": f"median of {samples} samples",
             "ok_frac": f"failed_frac {failed / attempted:.4f}"}
    for name, unit in END_TO_END:
        print(f"  {name:15s} {metrics[name]:12.6g} {unit:6s} {notes.get(name, '')}")
    units = dict(END_TO_END)
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def per_layer(args, deadline):
    plain, _ = start_worker(args.workload, args.seed, 0, 0, deadline)
    traced, _ = start_worker(args.workload, args.seed, 0, 1, deadline)
    plain["sample"] = traced["sample"] = 0
    attempted = len(traced["latencies"])
    failed = report_failures([plain, traced])
    mismatched = sum(a != b for a, b in zip(plain["digests"], traced["digests"]))
    if mismatched:
        print(f"  FAILED: {mismatched} outputs differ between the traced and untraced run")
    failed += mismatched
    print(f"workload {args.workload}  seed {args.seed}  traced sample 0  items {attempted}"
          f"  digest {run_digest([traced])}")
    print(f"  traced items {sum(traced['raw_latencies']):.3f} s raw, "
          f"untraced {sum(plain['raw_latencies']):.3f} s raw")
    if traced["absent"]:
        print(f"  absent hooks (reported as 0): {', '.join(traced['absent'])}")
    if failed:
        print(f"INVALID: {failed} failures; the layer numbers below do not count")
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    values = dict(traced["layers"], **{"trace.overhead": overhead})
    metrics = {}
    for name, unit, _ in tracing.layer_metric_specs():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:45s} {values[name]:12.6g} {unit}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance-test seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="timed seconds to fill with samples (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed

    deadline = perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args, deadline)
        else:
            attempted, failed, metrics = end_to_end(args, deadline)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "process_duality" / "__init__.py").is_file():
        print(f"error: no process_duality package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tracing
    import workloads

    sys.exit(main())
