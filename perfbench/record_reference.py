"""Record the reference digests of every workload at its default seed.

    python3 perfbench/record_reference.py [--seconds 30]

Writes perfbench/reference.json: one digest per item of a default-seed run
of `--seconds`, plus, for `frontier`, the digest of each program's
relabelling-invariant report.  Re-record only when the benchmark's inputs
change; a change to the program must leave these digests alone.  Nothing is
written unless every output passes its independent checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from worker import OUT, REFERENCE  # noqa: E402


def record(workload, seconds: float) -> dict:
    seed = workload.default_seed
    digests, invariant = {}, {}
    workdir = OUT / f"record-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for sample in range(workload.samples(seconds)):
            for item in workload.prepare(seed, sample, workdir, seed):
                if item.key in digests:
                    continue
                out = workload.run_item(item)
                reason = workload.check_item(item, out, {})
                if reason is not None:
                    raise SystemExit(f"{workload.name} item {item.key}: {reason}")
                digests[item.key] = workload.digest(out)
                if workload.name == "frontier":
                    invariant[item.key] = workloads.digest(
                        workloads.invariant_view(json.loads(out[1])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = {"seed": seed, "digest": digests}
    if invariant:
        ref["invariant"] = invariant
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = record(workload, args.seconds)
        print(f"{name}: {len(reference[name]['digest'])} items recorded")
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
