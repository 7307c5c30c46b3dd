"""Correctness checks run outside the timed window.

Every pass is compared with references frozen at commit 1c11ee1
(``references.json``, written by ``freeze.py``).  Once per run, a seeded
sample of the outputs also goes through independent oracles from the
library: ``is_minimal_zero_sum``, ``canonical_rep(x) == x``, ``index_of``
against the reported index, and ``naive_minimal_quad_classes`` where
n <= 60.  Each check returns a list of failure messages; an empty list
means the operation passed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from workloads import sweep_moduli, tuples_digest

REFERENCES = Path(__file__).resolve().parent / "references.json"
NAIVE_MAX_N = 60
ORACLE_SAMPLE = 4


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def operations(workload: str, inputs: dict) -> list[str]:
    """Labels of the top-level calls of one pass."""
    if workload == "sweep":
        return [f"verify {n}" for n in sweep_moduli(inputs["max"][0])]
    if workload == "three_prime":
        return [f"verify {n}" for n in inputs["moduli"]]
    if workload == "validate":
        lo, hi = inputs["remark32"][0]
        return ([f"lemmas {n}" for n in inputs["lemmas"]] + [f"remark32 {lo}-{hi}"]
                + [f"theorem21 {n}" for n in inputs["theorem21"]])
    return ([f"walk {n}" for n in inputs["walks"]]
            + [f"search {n},{k}" for n, k in inputs["searches"]])


def reference_for(refs: dict, workload: str, label: str):
    """The frozen output of one operation, or None when not frozen."""
    kind, _, key = label.partition(" ")
    return refs["sweep" if workload == "sweep" else kind].get(key)


# The reference field that counts a call's units of work.
WORK_FIELD = {"verify": "class_count", "lemmas": "quad_count", "remark32": "qualifying_count",
              "theorem21": "qualifying_count", "walk": "count", "search": "tuples"}


def work_units(workload: str, inputs: dict, refs: dict) -> int:
    """Units of work in one pass, counted from the references so that a
    wrong output cannot inflate the rate: classes verified (sweep,
    three_prime), quads swept plus reduced classes checked (validate),
    tuples yielded (long_walk)."""
    total = 0
    for label in operations(workload, inputs):
        ref = reference_for(refs, workload, label)
        total += ref[0] if workload == "sweep" else ref[WORK_FIELD[label.split(" ")[0]]]
    return total


def check_pass(workload: str, inputs: dict, outputs: dict, refs: dict) -> list[str]:
    """Compare one pass's outputs with the references; one message per
    failed operation."""
    if workload == "sweep":
        return _check_sweep(inputs, outputs, refs)
    failures = []
    for label in operations(workload, inputs):
        ref = reference_for(refs, workload, label)
        got = outputs.get(label)
        if ref is None:
            failures.append(f"{label}: no frozen reference")
        elif got is None:
            failures.append(f"{label}: missing output")
        elif label.startswith("walk "):
            n = int(label.split(" ")[1])
            seen = {"count": len(got["tuples"]), "digest": tuples_digest(got["tuples"])}
            if seen != ref:
                failures.append(f"{label}: tuples {seen} != reference {ref}")
            elif got["index_one"] != len(got["tuples"]):
                failures.append(f"{label}: {len(got['tuples']) - got['index_one']} "
                                f"tuples with index != 1 over Z_{n}")
        elif label.startswith("search "):
            if tuples_digest(got["hits"]) != ref["digest"]:
                failures.append(f"{label}: {len(got['hits'])} hits differ from the "
                                f"{ref['count']} frozen")
        elif got != ref:
            failures.append(f"{label}: output {got} != reference {ref}")
    return failures


def _check_sweep(inputs: dict, outputs: dict, refs: dict) -> list[str]:
    """Exit code 0, all_verified, and per modulus: one verified row with
    the frozen class count, max_index 1, and exactly one parseable cache
    row.  A failure of the whole pass fails every modulus."""
    moduli = sweep_moduli(inputs["max"][0])
    whole = []
    if outputs.get("exit_code") != 0:
        whole.append(f"exit code {outputs.get('exit_code')}")
    if outputs.get("all_verified") is not True:
        whole.append("all_verified is not true")
    if outputs.get("cache_unparseable"):
        whole.append(f"{outputs['cache_unparseable']} unparseable cache rows")
    if whole:
        return [f"verify {n}: {'; '.join(whole)}" for n in moduli]
    rows = {row[0]: row for row in outputs.get("rows", [])}
    cache_count: dict[int, int] = {}
    for n in outputs.get("cache_rows", []):
        cache_count[n] = cache_count.get(n, 0) + 1
    failures = []
    extra = set(rows) - set(moduli)
    if extra:
        failures.append(f"unexpected rows for n in {sorted(extra)}")
    for n in moduli:
        ref = refs["sweep"].get(str(n))
        row = rows.get(n)
        if ref is None:
            failures.append(f"verify {n}: no frozen reference")
        elif row is None:
            failures.append(f"verify {n}: missing row")
        elif row[1:] != ["verified", ref[0], 1] or ref[1] != 1:
            failures.append(f"verify {n}: row {row[1:]} != verified, {ref[0]} classes, index 1")
        elif cache_count.get(n, 0) != 1:
            failures.append(f"verify {n}: {cache_count.get(n, 0)} cache rows")
    return failures


def oracle_checks(zs, workload: str, inputs: dict, outputs: dict, seed: int) -> tuple[int, list[str]]:
    """Independent spot checks on a seeded sample of one pass's outputs.

    Returns (checks attempted, failure messages).
    """
    rng = random.Random(f"oracle:{workload}:{seed}")
    checks: list[tuple[str, bool]] = []

    def classes_ok(label, n, elems, index_numerator=None, canonical=True):
        seq = zs.GroupSequence(zs.factorize(n), tuple(elems))
        checks.append((f"{label}: {elems} is minimal zero-sum", zs.is_minimal_zero_sum(seq)))
        if canonical:
            checks.append((f"{label}: {elems} is canonical",
                           zs.canonical_rep(seq).elems == tuple(elems)))
        if index_numerator is not None:
            checks.append((f"{label}: index_of {elems} == {index_numerator}/{n}",
                           zs.index_of(seq).numerator == index_numerator))

    def naive_ok(label, n, class_count, max_index):
        classes = zs.naive_minimal_quad_classes(n)
        checks.append((f"{label}: naive class count {len(classes)} == {class_count}",
                       len(classes) == class_count))
        top = max((zs.index_of(zs.GroupSequence(zs.factorize(n), c)).numerator // n
                   for c in classes), default=0)
        checks.append((f"{label}: naive max index {top} == {max_index}", top == max_index))
        for elems in rng.sample(classes, min(ORACLE_SAMPLE, len(classes))):
            classes_ok(label, n, elems)

    if workload == "sweep":
        small = [row for row in outputs.get("rows", []) if row[0] <= NAIVE_MAX_N]
        for n, _, class_count, max_index in rng.sample(small, min(2, len(small))):
            naive_ok(f"verify {n}", n, class_count, max_index)
    elif workload == "three_prime":
        for n in inputs["moduli"]:
            label = f"verify {n}"
            out = outputs[label]
            if n <= NAIVE_MAX_N:
                naive_ok(label, n, out["class_count"], out["max_index"])
            cex = out["counterexamples"]
            for elems, num in rng.sample(cex, min(ORACLE_SAMPLE, len(cex))):
                classes_ok(label, n, elems, num)
    elif workload == "validate":
        for n in inputs["lemmas"]:
            out = outputs[f"lemmas {n}"]
            found = [c for v in out["violations"].values() for c in v] + out["findings_34"]
            for elems, num in rng.sample(found, min(ORACLE_SAMPLE, len(found))):
                classes_ok(f"lemmas {n}", n, elems, num, canonical=False)
        for n in inputs["theorem21"]:
            out = outputs[f"theorem21 {n}"]
            for elems, num in rng.sample(out["anomalies"], min(ORACLE_SAMPLE, len(out["anomalies"]))):
                classes_ok(f"theorem21 {n}", n, elems, num)
    else:
        for n in inputs["walks"]:
            tuples = outputs[f"walk {n}"]["tuples"]
            for elems in rng.sample(tuples, min(ORACLE_SAMPLE, len(tuples))):
                classes_ok(f"walk {n}", n, elems, n, canonical=False)
        for n, k in inputs["searches"]:
            hits = outputs[f"search {n},{k}"]["hits"]
            for elems, num in rng.sample(hits, min(ORACLE_SAMPLE, len(hits))):
                classes_ok(f"search {n},{k}", n, elems, num)
    return len(checks), [msg for msg, ok in checks if not ok]
