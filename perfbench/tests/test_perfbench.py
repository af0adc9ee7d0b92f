"""Tests of the benchmark itself: its correctness gate, its hooks and its
command-line contract.  Run with `python -m pytest perfbench/tests`."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
import worker
from process_duality import fuzzing

ROOT = Path(__file__).resolve().parents[2]


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failed_frac(report):
    return len(report["failures"]) / len(report["keys"])


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    yield t
    t.uninstall()


def test_gate_catches_an_injected_defect():
    frontier = workloads.WORKLOADS["frontier"]
    clean = worker.run_sample(frontier, frontier.default_seed, 0, limit=5)
    assert failed_frac(clean) == 0
    with fuzzing.injected_defect("sign-flip-halfspace"):
        broken = worker.run_sample(frontier, frontier.default_seed, 0, limit=5)
    assert failed_frac(broken) > 0


def test_every_reference_to_a_hooked_function_is_wrapped(tracer):
    assert tracer.absent == []
    originals = {id(original) for _, _, original in tracer._rebound}
    assert len(originals) == len(tracing.HOOK_NAMES)
    for name, module in list(sys.modules.items()):
        if not name.startswith(tracing.PACKAGE):
            continue
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{name}.{attr} is not wrapped"


def test_uninstall_restores_the_originals():
    from process_duality import _dd, polyhedra, process

    before = (_dd.cone_dd, polyhedra.cone_dd, process.cone_dd)
    t = tracing.Tracer().install()
    assert polyhedra.cone_dd is not before[1]
    t.uninstall()
    assert (_dd.cone_dd, polyhedra.cone_dd, process.cone_dd) == before


def test_a_missing_module_is_reported_absent(monkeypatch):
    monkeypatch.setitem(sys.modules, "process_duality._kernel", None)
    t = tracing.Tracer().install()
    try:
        assert t.absent == ["_kernel.pivot"]
        cones = workloads.WORKLOADS["cones"]
        t.enabled = True
        cones.run_item(next(cones.prepare(cones.default_seed, 0, None, cones.default_seed)))
        t.enabled = False
        layers = t.layer_metrics()
        assert layers["kernel.pivot.calls"] == 0
        assert layers["dd.cone_dd.calls"] > 0
    finally:
        t.uninstall()


@pytest.mark.parametrize("name,limit", [("frontier", 4), ("minimality", 30), ("cones", 40)])
def test_tracing_changes_no_output_and_counts_repeat(name, limit):
    workload = workloads.WORKLOADS[name]
    plain = worker.run_sample(workload, 7, 0, limit=limit)
    counts = []
    for _ in range(2):
        t = tracing.Tracer().install()
        try:
            traced = worker.run_sample(workload, 7, 0, tracer=t, limit=limit)
        finally:
            t.uninstall()
        assert traced["digests"] == plain["digests"]
        assert traced["failures"] == {} == plain["failures"]
        layers = t.layer_metrics()
        counts.append({k: v for k, v in layers.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


@pytest.mark.parametrize("name,part,limit", [("frontier", "invariant", 4),
                                             ("minimality", "digest", 40)])
def test_another_seed_keeps_every_verdict(name, part, limit):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(worker.REFERENCE)[name][part]
    report = worker.run_sample(workload, 11, 2, limit=limit)
    assert set(report["keys"]) <= set(reference)
    assert report["failures"] == {}


def test_tail_percentile_keeps_ten_items_beyond_it():
    run = load_run_module()
    for n in (11, 51, 400, 2500):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10
        assert n * (100 - (q + 1)) / 100 < 10
    assert run.nearest_rank([5, 1, 4, 2, 3], 80) == 4


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "cones", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = load_run_module()
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(spec) for spec in tracing.layer_metric_specs()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
