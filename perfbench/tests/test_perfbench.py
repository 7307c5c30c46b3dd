"""Tests of the benchmark's own code.  Run with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import zsindex  # noqa: E402
import zsindex.cli  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    out = spans.summarize(names, name_id, parent, start, end)
    assert out["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert out["a"]["self_s"] == 2.0
    assert out["b"]["self_s"] == 1.0
    assert out["c"]["self_s"] == 4.0


def test_self_time_sums_repeated_calls_of_one_name():
    names = ["f", "g"]
    out = spans.summarize(names, [0, 1, 0, 1], [-1, 0, -1, 2],
                          [0.0, 0.5, 2.0, 2.25], [1.0, 0.75, 3.0, 2.5])
    assert out["f"] == {"calls": 2, "total_s": 2.0, "self_s": 1.5}
    assert out["g"] == {"calls": 2, "total_s": 0.5, "self_s": 0.5}


def test_tracer_nests_library_calls_and_restores_bindings():
    original = zsindex.verifier.classify_pattern
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zsindex.verifier.classify_pattern is not original
        report = zsindex.verify_conjecture(30)
    finally:
        tracer.uninstall()
    assert zsindex.verifier.classify_pattern is original
    summary = tracer.summary()
    top = summary["verifier.verify_conjecture"]
    assert top["calls"] == 1
    census = sum(report.pattern_census.values())
    assert summary["classify.classify_pattern"]["calls"] == census
    children = [i for i in range(len(tracer.start))
                if tracer.parent[i] >= 0 and tracer.names[tracer.name_id[tracer.parent[i]]]
                == "verifier.verify_conjecture"]
    child_s = sum(tracer.duration(i) for i in children)
    assert top["self_s"] == pytest.approx(top["total_s"] - child_s)
    assert tracer.counters["verifier.all_minimal_quad_classes.classes"] == report.class_count
    by_source = sum(tracer.counters[f"verifier.{k}"]
                    for k in ("classes_unit", "classes_nonunit", "classes_lifted"))
    assert by_source == report.class_count


def test_missing_boundary_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install(("verifier.no_such_function", "no_such_module.f", "verifier.verify_conjecture"))
    try:
        zsindex.verify_conjecture(11)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["verifier.no_such_function", "no_such_module.f"]
    assert tracer.summary()["verifier.verify_conjecture"]["calls"] == 1
    assert run.absent_metrics({"verifier.search_high_index"}) == [
        "verifier.search_high_index.self_s", "verifier.search_high_index.hits"]


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, smoke):
    first = [workloads.make_inputs(workload, seed, smoke) for seed in range(20)]
    again = [workloads.make_inputs(workload, seed, smoke) for seed in range(20)]
    assert first == again
    cand = workloads.candidates(smoke)[workload]
    for inputs in first:
        assert set(inputs) == set(cand)
        for field, slots in cand.items():
            assert all(x in slot for x, slot in zip(inputs[field], slots))
    if any(len(slot) > 1 for slots in cand.values() for slot in slots):
        assert len({json.dumps(i, sort_keys=True) for i in first}) > 1


@pytest.mark.parametrize("smoke", [False, True])
def test_every_candidate_has_a_reference(smoke):
    refs = checks.load_references()
    for workload, fields in workloads.all_inputs(smoke).items():
        # Varying one field at a time over all of its candidates names
        # every operation that any seed can draw.
        for field, values in fields.items():
            for value in values:
                inputs = {f: [v[0]] * len(workloads.candidates(smoke)[workload][f])
                          for f, v in fields.items()}
                inputs[field] = [value] * len(inputs[field])
                for label in checks.operations(workload, inputs):
                    assert checks.reference_for(refs, workload, label) is not None, label


def _smoke_pass(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 3, smoke=True)
    result = workloads.run_pass(zsindex, workload, inputs, tmp_path, jobs=1)
    return inputs, result["outputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_accepts_a_correct_pass(workload, tmp_path):
    refs = checks.load_references()
    inputs, outputs = _smoke_pass(workload, tmp_path)
    assert checks.check_pass(workload, inputs, outputs, refs) == []
    count, failed = checks.oracle_checks(zsindex, workload, inputs, outputs, 3)
    assert count > 0 and failed == []


def test_checker_catches_corrupted_outputs(tmp_path):
    refs = checks.load_references()
    inputs, outputs = _smoke_pass("three_prime", tmp_path)
    bad = copy.deepcopy(outputs)
    label = checks.operations("three_prime", inputs)[0]
    bad[label]["class_count"] += 1
    assert len(checks.check_pass("three_prime", inputs, bad, refs)) == 1
    # An index that the oracle recomputes differently is caught too.
    bad = copy.deepcopy(outputs)
    elems, num = bad[label]["counterexamples"][0]
    bad[label]["counterexamples"] = [[elems, num + inputs["moduli"][0]]] * 4
    _, failed = checks.oracle_checks(zsindex, "three_prime", inputs, bad, 3)
    assert failed and all("index_of" in message for message in failed)


def test_checker_catches_corrupted_sweep(tmp_path):
    refs = checks.load_references()
    inputs, outputs = _smoke_pass("sweep", tmp_path)
    moduli = workloads.sweep_moduli(inputs["max"][0])
    bad = copy.deepcopy(outputs)
    bad["rows"][0][2] += 1
    assert len(checks.check_pass("sweep", inputs, bad, refs)) == 1
    bad = copy.deepcopy(outputs)
    bad["cache_rows"].append(moduli[-1])
    assert len(checks.check_pass("sweep", inputs, bad, refs)) == 1
    bad = copy.deepcopy(outputs)
    bad["exit_code"] = 2
    assert len(checks.check_pass("sweep", inputs, bad, refs)) == len(moduli)


def test_checker_catches_a_changed_walk(tmp_path):
    refs = checks.load_references()
    inputs, outputs = _smoke_pass("long_walk", tmp_path)
    bad = copy.deepcopy(outputs)
    label = checks.operations("long_walk", inputs)[0]
    bad[label]["tuples"] = bad[label]["tuples"][::-1]
    assert len(checks.check_pass("long_walk", inputs, bad, refs)) == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "validate", "--seed", "2", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert "failed_frac = 0 ratio" in proc.stdout


def test_smoke_trace_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "sweep", "--seed", "2", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert last["metrics"]["cli.cache_rows"]["value"] == len(
        workloads.sweep_moduli(workloads.make_inputs("sweep", 2, True)["max"][0]))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
