"""One timed sample of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --sample K [--trace 1]

Set-up (package import, input generation, problem files) runs first; then
the items run back to back, each timed on its own; then every output is
checked and digested, outside the timed region.  The last line of stdout is
one JSON report.  `run.py` starts one worker per sample, so nothing a sample
caches in memory can help the next one.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"
OUT = ROOT / ".perfbench"

# Time of one `calibrate()` call on a quiet 2-CPU host; item times are
# reported as if the host ran at this speed.
CALIBRATION_REF_S = 0.002
# Set-up is long and not split into items: calibrate at this interval while
# the inputs are generated.
SETUP_CALIBRATION_EVERY_S = 0.05


def calibrate():
    """Fixed exact arithmetic that shares no code with the package, so its
    time tracks only the host's speed.  Returns (midpoint, duration)."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i + 1)
    t1 = perf_counter()
    return (t0 + t1) / 2, t1 - t0


def host_scaled(spans, calibrations):
    """Each item's time scaled to the reference host speed.

    calibrations[i] runs just before item i and calibrations[i + 1] just
    after it.  The host's speed for an item is the mean calibration time over
    those two and any others within the item's own duration on either side,
    so a long item is matched with the host's speed over a similar span."""
    mids = [m for m, _ in calibrations]
    out = []
    for i, (t0, t1) in enumerate(spans):
        lo = min(i, bisect.bisect_left(mids, t0 - (t1 - t0)))
        hi = max(i + 2, bisect.bisect_right(mids, t1 + (t1 - t0)))
        cal = statistics.fmean(c for _, c in calibrations[lo:hi])
        out.append((t1 - t0) * CALIBRATION_REF_S / cal)
    return out


def run_sample(workload, seed: int, sample: int, tracer=None, limit=None):
    """Set up, time and check one sample; returns the report dict."""
    workdir = OUT / f"{workload.name}-{seed}-{sample}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items, setup_calibrations = [], []
        last = perf_counter()
        for item in workload.prepare(seed, sample, workdir, workload.default_seed):
            items.append(item)
            if perf_counter() - last >= SETUP_CALIBRATION_EVERY_S:
                setup_calibrations.append(calibrate())
                last = perf_counter()
        setup_calibrations.append(calibrate())
        t_ready = perf_counter()
        items = items[:limit]
        spans, outputs, errors = [], [], {}
        for _ in range(5):
            calibrate()  # warm up
        calibrations = [calibrate()]
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
                tracer.enabled = True
            t0 = perf_counter()
            try:
                out = workload.run_item(item)
            except Exception as e:  # an item that raises is a failed item
                out = None
                errors[idx] = f"{type(e).__name__}: {e}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            spans.append((t0, t1))
            outputs.append(out)
            calibrations.append(calibrate())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = workloads.load_reference(REFERENCE).get(workload.name, {})
    expected = reference.get("digest", {}) if seed == workload.default_seed else {}
    digests, failures = [], {}
    for idx, (item, out) in enumerate(zip(items, outputs)):
        if idx in errors:
            digests.append(None)
            failures[item.key] = errors[idx]
            continue
        try:
            d = workload.digest(out)
            reason = workload.check_item(item, out, reference)
        except Exception as e:  # output too broken to check counts as failed
            d, reason = None, f"check raised {type(e).__name__}: {e}"
        digests.append(d)
        if reason is None and item.key in expected and expected[item.key] != d:
            reason = f"output digest {d} differs from the reference {expected[item.key]}"
        if reason is not None:
            failures[item.key] = reason
    return {
        "keys": [item.key for item in items],
        "t_ready": t_ready,
        "setup_calibration_s": sum(c for _, c in setup_calibrations),
        "setup_speed": CALIBRATION_REF_S / statistics.fmean(c for _, c in setup_calibrations),
        "host_speed": CALIBRATION_REF_S / statistics.median(c for _, c in calibrations),
        "raw_latencies": [t1 - t0 for t0, t1 in spans],
        "latencies": host_scaled(spans, calibrations),
        "digests": digests,
        "failures": failures,
        "rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sample", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer().install() if args.trace else None
    report = run_sample(workload, args.seed, args.sample, tracer)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["absent"] = tracer.absent
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
