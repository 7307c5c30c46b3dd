"""Tests for the command line front end: payload schemas, exit codes,
and the resumable verification cache."""

import ast
import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from zsindex import __version__, cli, verifier
from zsindex.cli import main

_real_verify_worker = verifier._verify_worker


def _worker_dying_at_11(n):
    # module level so that the process pool can pickle it by name
    if n == 11:
        os._exit(3)
    return _real_verify_worker(n)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_index_single(capsys):
    code, payload, _ = run_json(capsys, "index", "--n", "11", "--seq", "1,4,8,9")
    assert code == 0
    assert payload["ind"] == 1
    assert payload["witness_t"] == 3
    assert payload["integral"] is True
    assert payload["seq"] == [1, 4, 8, 9]


def test_index_non_integral(capsys):
    code, payload, _ = run_json(capsys, "index", "--n", "10", "--seq", "1,2")
    assert code == 0
    assert payload["ind"] == "3/10"
    assert payload["integral"] is False


def test_index_file_batch(tmp_path, capsys):
    path = tmp_path / "seqs.txt"
    path.write_text("1,4,8,9\n2,8,5,7\n")
    code, payload, _ = run_json(capsys, "index", "--n", "11", "--file", str(path))
    assert code == 0
    assert [r["ind"] for r in payload["results"]] == [1, 1]


def test_index_needs_exactly_one_input(tmp_path, capsys):
    code, out, err = run_cli(capsys, "index", "--n", "11")
    assert code == 1
    assert "error:" in err and "usage" in err.lower()
    path = tmp_path / "seqs.txt"
    path.write_text("1,4,8,9\n")
    code, _, _ = run_cli(
        capsys, "index", "--n", "11", "--seq", "1,4,8,9", "--file", str(path)
    )
    assert code == 1


def test_classify_command(capsys):
    code, payload, _ = run_json(capsys, "classify", "--n", "385", "--seq", "35,55,77,218")
    assert code == 0
    assert payload["pattern"] == "A4"
    assert payload["prime_roles"] == [5, 7, 11]
    assert payload["gcds"] == [35, 55, 77, 1]
    assert payload["global_gcd"] == 1


def test_normalize_command(capsys):
    code, payload, _ = run_json(capsys, "normalize", "--n", "11", "--seq", "2,8,5,7")
    assert code == 0
    assert payload["normal_form"] == {"a": 2, "b": 3, "c": 4}
    assert payload["unit"] == 6
    assert payload["reflected"] is False


def test_normalize_reports_missing_form(capsys):
    # element sum n: no orbit member has the normal shape
    code, payload, _ = run_json(capsys, "normalize", "--n", "385", "--seq", "1,55,154,175")
    assert code == 0
    assert payload["normal_form"] is None


def test_lemma_command(capsys):
    code, payload, _ = run_json(
        capsys, "lemma", "--n", "11", "--a", "2", "--b", "3", "--c", "4"
    )
    assert code == 0
    by_id = {c["lemma"]: c for c in payload["conditions"]}
    assert by_id["33.1"]["fired"] and by_id["33.1"]["witness"] == [1, 3]
    assert by_id["33.2"]["fired"] and by_id["33.2"]["witness"] == [3]
    assert by_id["34"]["fired"]
    assert "35" not in by_id  # s = 1
    assert payload["structure"]["s"] == 1
    assert payload["structure"]["k1"] is None
    assert "CeilMismatch" in payload["structure"]["k1_note"]
    assert payload["structure"]["assumption_b"] is True


def test_lemma_omega(capsys):
    code, payload, _ = run_json(
        capsys, "lemma", "--n", "13", "--a", "2", "--b", "5", "--c", "6", "--omega"
    )
    assert code == 0
    assert payload["omega"] == [
        {"lo": "39/10", "hi": "26/5", "lo_closed": True, "hi_closed": True}
    ]
    assert payload["structure"]["s"] == 2


def test_enumerate_command(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--n", "11")
    assert code == 0
    assert payload["count"] == len(payload["classes"])
    assert [1, 2, 3, 5] in payload["classes"]
    code, limited, _ = run_json(capsys, "enumerate", "--n", "11", "--limit", "2")
    assert limited["count"] == 2


def test_limit_below_one(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--n", "12", "--limit", "0")
    assert code == 0
    assert payload["count"] == 0 and payload["classes"] == []
    code, out, err = run_cli(capsys, "enumerate", "--n", "12", "--limit", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: --limit must be >= 0")
    code, out, err = run_cli(
        capsys, "search", "--max", "12", "--k", "4", "--limit", "-1"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: PreconditionViolated")


def test_enumerate_pattern_filter(capsys):
    code, payload, _ = run_json(
        capsys, "enumerate", "--n", "385", "--pattern", "A4"
    )
    assert code == 0
    assert payload["count"] == 1


def test_verify_exit_zero_and_payload(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--min", "5", "--max", "30", "--coprime-to-6",
        "--jobs", "1", "--output", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_verified"] is True
    ns = [row["n"] for row in payload["results"]]
    assert ns == [n for n in range(5, 31) if n % 2 and n % 3]
    assert all(row["max_index"] == 1 for row in payload["results"])


def test_verify_counterexample_exit_two(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--min", "12", "--max", "12", "--jobs", "1"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["all_verified"] is False
    row = payload["results"][0]
    assert row["status"] == "counterexample"
    assert [1, 4, 9, 10] in [c["class"] for c in row["counterexamples"]]


def test_verify_csv_format(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "verify", "--min", "5", "--max", "13", "--coprime-to-6",
        "--jobs", "1", "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["n", "status", "class_count", "max_index", "elapsed_ms", "from_cache"]
    assert [r[0] for r in rows[1:]] == ["5", "7", "11", "13"]
    assert all(r[1] == "verified" and r[3] == "1" for r in rows[1:])


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run_cli(
        capsys, "index", "--n", "11", "--seq", "1,4,8,9", "--format", "csv"
    )
    assert code == 1
    assert "csv" in err


def test_verify_config_digest_pinned(capsys):
    # a silent change to the digest would invalidate every user's cache
    code, payload, _ = run_json(capsys, "verify", "--min", "5", "--max", "5", "--jobs", "1")
    assert code == 0
    blob = json.dumps(
        {"command": "verify", "schema": 1, "version": __version__}, sort_keys=True
    )
    assert payload["config_digest"] == hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_verify_cache_resume(tmp_path, capsys):
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "25", "--coprime-to-6",
            "--jobs", "1", "--cache", str(cache))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    ns = [n for n in range(5, 26) if n % 2 and n % 3]
    assert [r["n"] for r in records] == ns
    assert len({r["config_digest"] for r in records}) == 1

    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(second)
    assert all(row["from_cache"] for row in payload["results"])
    # resume appended nothing
    assert [json.loads(line)["n"] for line in cache.read_text().splitlines()] == ns
    # cached and fresh runs agree on the report content
    fresh = json.loads(first)
    for a, b in zip(fresh["results"], payload["results"]):
        assert (a["n"], a["status"], a["class_count"], a["max_index"]) == (
            b["n"], b["status"], b["class_count"], b["max_index"]
        )


def test_verify_cache_corrupt_trailing_line(tmp_path, capsys):
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "13", "--coprime-to-6",
            "--jobs", "1", "--cache", str(cache))
    run_cli(capsys, *args)
    intact = cache.read_text()
    cache.write_text(intact + '{"n": 99, "status"')
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "corrupt trailing" in err
    assert cache.read_text().splitlines() == intact.splitlines()
    assert all(row["from_cache"] for row in json.loads(out)["results"])
    # the repair cuts only the bad tail: the lines before it, a corrupt
    # interior line with invalid UTF-8 included, keep their exact bytes
    kept = cache.read_bytes() + b'\xff{"n": 98\n'
    cache.write_bytes(kept + b'{"n": 99, "status"')
    code, _, err = run_cli(capsys, *args)
    assert code == 0
    assert "skipping corrupt cache line" in err
    assert "corrupt trailing" in err
    assert cache.read_bytes() == kept


def test_verify_cache_unusable_records(tmp_path, capsys):
    # well-formed JSON that is not a reusable record is reported and its
    # n recomputed, not reused or fatal
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "7", "--coprime-to-6",
            "--jobs", "1", "--cache", str(cache))
    code, _, _ = run_json(capsys, *args)
    assert code == 0
    record = json.loads(cache.read_text().splitlines()[-1])
    assert record["n"] == 7
    # an n that is not a JSON integer (7.0, "7", true) is not reused either
    bad_n = [{**record, "n": n, "class_count": 999} for n in (7.0, "7", True)]
    del record["status"]
    lines = [[1, 2], record, *bad_n]
    cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, second, err = run_json(capsys, *args)
    assert code == 0
    for i in range(1, len(lines) + 1):
        assert f"malformed cache record on line {i}" in err
    rows = {row["n"]: row for row in second["results"]}
    assert rows[7]["from_cache"] is False
    assert rows[7]["status"] == "verified"
    assert rows[7]["class_count"] != 999


def test_verify_cache_record_with_bad_counts(tmp_path, capsys):
    # a record whose class_count or max_index is not an integer is
    # malformed: it is reported and never printed as verified
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "7", "--coprime-to-6",
            "--jobs", "1", "--cache", str(cache))
    code, first, _ = run_json(capsys, *args)
    assert code == 0
    true_row = {row["n"]: row for row in first["results"]}[7]
    good = cache.read_text()
    record = json.loads(good.splitlines()[-1])
    assert record["n"] == 7
    bad = json.dumps({**record, "class_count": "lots", "max_index": None}) + "\n"
    # appended after the good n = 7 record: the good one is reused
    cache.write_text(good + bad)
    code, out, err = run_cli(capsys, *args, "--format", "text")
    assert code == 0
    assert "malformed cache record on line 3" in err
    assert f"n=7 verified classes={true_row['class_count']} " in out
    assert "lots" not in out
    # the only n = 7 record: n = 7 is recomputed
    cache.write_text(good.splitlines(keepends=True)[0] + bad)
    code, second, err = run_json(capsys, *args)
    assert code == 0
    assert "malformed cache record on line 2" in err
    rows = {row["n"]: row for row in second["results"]}
    assert rows[5]["from_cache"] is True
    assert rows[7]["from_cache"] is False
    assert {f: rows[7][f] for f in ("status", "class_count", "max_index")} == {
        f: true_row[f] for f in ("status", "class_count", "max_index")}


def test_verify_cache_foreign_digest(tmp_path, capsys):
    cache = tmp_path / "runs.jsonl"
    foreign = {
        "n": 5, "status": "verified", "class_count": 1, "max_index": 1,
        "elapsed_ms": 1, "version": "0.0.0", "config_digest": "stale",
    }
    cache.write_text(json.dumps(foreign) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--min", "5", "--max", "5", "--jobs", "1",
        "--cache", str(cache),
    )
    assert code == 0
    assert json.loads(out)["results"][0]["from_cache"] is False

    code, _, err = run_cli(
        capsys, "verify", "--min", "5", "--max", "5", "--jobs", "1",
        "--cache", str(cache), "--strict-cache",
    )
    assert code == 1
    assert "CacheConfigMismatch" in err


def test_verify_cache_schema_change(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "13", "--coprime-to-6",
            "--jobs", "1", "--cache", str(cache))
    code, first, _ = run_json(capsys, *args)
    assert code == 0
    monkeypatch.setattr(cli, "_CACHE_SCHEMA", cli._CACHE_SCHEMA + 1)
    code, _, err = run_cli(capsys, *args, "--strict-cache")
    assert code == 1
    assert "CacheConfigMismatch" in err
    code, second, _ = run_json(capsys, *args)
    assert code == 0
    assert second["config_digest"] != first["config_digest"]
    assert not any(row["from_cache"] for row in second["results"])


def test_verify_dead_worker_becomes_error_rows(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "runs.jsonl"
    args = ("verify", "--min", "5", "--max", "16", "--jobs", "2",
            "--cache", str(cache))
    monkeypatch.setattr(verifier, "_verify_worker", _worker_dying_at_11)
    code, first, err = run_json(capsys, *args)
    assert code == 1
    assert "BrokenProcessPool" in err
    rows = {row["n"]: row for row in first["results"]}
    assert sorted(rows) == list(range(5, 17))
    assert rows[11]["status"] == "error"
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert sorted(r["n"] for r in records) == list(range(5, 17))
    # a rerun reuses the finished rows and recomputes the failed ones
    monkeypatch.undo()
    code, second, _ = run_json(capsys, *args)
    assert code == 2
    for row in second["results"]:
        assert row["status"] in ("verified", "counterexample")
        assert row["from_cache"] == (rows[row["n"]]["status"] != "error")


def test_search_exit_codes(capsys):
    code, payload, _ = run_json(
        capsys, "search", "--min", "5", "--max", "12", "--k", "4"
    )
    assert code == 2
    assert payload["count"] > 0
    assert {h["n"] for h in payload["hits"]} == {6, 8, 9, 10, 12}

    code, payload, _ = run_json(
        capsys, "search", "--min", "5", "--max", "30", "--k", "3"
    )
    assert code == 0
    assert payload["count"] == 0


def test_validate_theorem21_cli(capsys):
    code, payload, _ = run_json(
        capsys, "validate", "--target", "theorem21", "--n", "385"
    )
    assert code == 0
    report = payload["reports"][0]
    assert list(payload) == ["target", "anomaly_count", "reports"]
    assert list(report) == [
        "n", "prime_count", "qualifying_count", "census",
        "a3_without_normal_form", "anomalies", "vacuous", "elapsed",
    ]
    assert report["qualifying_count"] == 5
    assert report["census"] == {"A2": 3, "A3": 1, "A4": 1}
    assert payload["anomaly_count"] == 0

    # range mode starts at n = 2 and skips moduli it cannot check
    code, payload, _ = run_json(
        capsys, "validate", "--target", "theorem21", "--min", "0", "--max", "30"
    )
    assert code == 0
    assert [r["n"] for r in payload["reports"]] == [30]


def test_validate_lemmas_cli(capsys):
    code, payload, _ = run_json(capsys, "validate", "--target", "lemmas", "--n", "25")
    assert code == 0
    assert payload["reports"][0]["quad_count"] == 30

    # violations at even n surface as anomalies (exit 2), findings do not
    code, payload, _ = run_json(capsys, "validate", "--target", "lemmas", "--n", "10")
    assert code == 2
    assert payload["anomaly_count"] == 1
    report = payload["reports"][0]
    assert list(report) == [
        "n", "quad_count", "fired", "violations", "findings_34",
        "probe_s_violations", "probe_k1_violations", "k1_undefined",
        "vacuous", "elapsed",
    ]
    assert len(report["findings_34"]) == 1
    (violation,) = [c for v in report["violations"].values() for c in v]
    for cex in (violation, report["findings_34"][0]):
        assert list(cex) == ["n", "class", "index", "context", "detail"]
    assert violation["class"] == [1, 3, 8, 8]
    assert violation["index"] == 2

    code, payload, _ = run_json(
        capsys, "validate", "--target", "lemmas", "--min", "0", "--max", "9"
    )
    assert code == 0
    assert [r["n"] for r in payload["reports"]] == list(range(2, 10))


def test_validate_remark32_cli(capsys):
    code, payload, _ = run_json(
        capsys, "validate", "--target", "remark32", "--min", "380", "--max", "390"
    )
    assert code == 0
    assert list(payload) == [
        "target", "lo", "hi", "checked_moduli", "qualifying_count", "census",
        "violations", "vacuous_moduli", "elapsed",
    ]
    assert payload["target"] == "remark32"
    assert payload["qualifying_count"] == 0
    assert payload["vacuous_moduli"] == [385]

    # a range reaching below 2 holds no moduli instead of failing
    code, payload, _ = run_json(
        capsys, "validate", "--target", "remark32", "--min", "0", "--max", "30"
    )
    assert code == 0
    assert payload["checked_moduli"] == []

    code, _, err = run_cli(capsys, "validate", "--target", "remark32", "--n", "385")
    assert code == 1
    assert "remark32" in err


def test_validate_range_mode_skips_nonconforming(capsys):
    # 380..388 contains exactly one squarefree 3-or-4-prime modulus
    code, payload, _ = run_json(
        capsys, "validate", "--target", "theorem21", "--min", "380", "--max", "388"
    )
    assert code == 0
    assert [r["n"] for r in payload["reports"]] == [385]


def test_validate_one_modulus_range_skips_nonconforming(capsys):
    # a range of one modulus skips like any other range; --n still refuses
    code, out, _ = run_cli(
        capsys, "validate", "--target", "theorem21", "--min", "31", "--max", "31",
        "--format", "text",
    )
    assert (code, out) == (0, "no moduli\n")
    code, out, err = run_cli(capsys, "validate", "--target", "theorem21", "--n", "31")
    assert (code, out) == (1, "")
    assert err.startswith("error: PreconditionViolated")


def test_validate_remark32_range_includes_min(capsys):
    code, payload, _ = run_json(
        capsys, "validate", "--target", "remark32", "--min", "385", "--max", "385"
    )
    assert code == 0
    assert payload["checked_moduli"] == [385]
    assert payload["vacuous_moduli"] == [385]


def test_search_refuses_out_of_range_max_up_front(capsys):
    # the moduli below 2^31 in the range are not searched first
    code, out, err = run_cli(
        capsys, "search", "--min", "2147483646", "--max", "2147483650", "--k", "4",
        "--mode", "random", "--samples", "1",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: ModulusOutOfRange: modulus must be in [2, 2^31], got 2147483650\n"
    )


def test_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--min", "50", "--max", "10")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "index", "--n", "11", "--seq", "1,4,x")[0] == 1
    # the alternate lower endpoint of the omega intervals is deleted
    argv = ("lemma", "--n", "21", "--a", "2", "--b", "9", "--c", "10", "--omega")
    assert run_cli(capsys, *argv, "--alt-lower")[0] == 1


def test_runtime_error_exit_one(capsys):
    # classify precondition: not minimal
    code, _, err = run_cli(capsys, "classify", "--n", "10", "--seq", "2,8,5,5")
    assert code == 1
    assert "PreconditionViolated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("index", "--n", "1", "--seq", "1"),
        ("enumerate", "--n", "1"),
        ("validate", "--target", "lemmas", "--n", "1"),
        ("classify", "--n", "3000000000", "--seq", "1,2"),
        ("lemma", "--n", "3000000000", "--a", "2", "--b", "3", "--c", "4"),
        # --max is checked before the list of moduli up to it is built
        ("verify", "--min", "5", "--max", "10000000000"),
        ("validate", "--target", "lemmas", "--min", "5", "--max", "10000000000"),
        ("validate", "--target", "theorem21", "--min", "5", "--max", "10000000000"),
        ("validate", "--target", "remark32", "--min", "5", "--max", "10000000000"),
        ("search", "--min", "5", "--max", "10000000000", "--k", "4"),
    ],
)
def test_out_of_range_modulus_is_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ModulusOutOfRange")


def test_jobs_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZSINDEX_JOBS", "1")
    code, out, _ = run_cli(capsys, "verify", "--min", "5", "--max", "7", "--coprime-to-6")
    assert code == 0
    assert json.loads(out)["jobs"] == 1
    for bad in ("banana", "0"):
        monkeypatch.setenv("ZSINDEX_JOBS", bad)
        code, out, err = run_cli(capsys, "verify", "--min", "5", "--max", "7")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: ZSINDEX_JOBS='{bad}'")


def test_text_format(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "index", "--n", "11", "--seq", "1,4,8,9", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "n=11 seq=1,4,8,9 ind=1 witness_t=3"

    # (1, 1, 1, 2) has a unit element but no normal form
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "5", "--require-coprime-element", "--format", "text"
    )
    assert (code, out) == (0, "1,1,1,2\n")

    # a command with nothing to list says so in text, not as a JSON object
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for argv, line in (
        (["index", "--n", "11", "--file", str(empty)], "no sequences"),
        (["enumerate", "--n", "5", "--pattern", "A1"], "no classes"),
        (["validate", "--target", "theorem21", "--min", "0", "--max", "20"], "no moduli"),
        (["validate", "--target", "lemmas", "--min", "0", "--max", "1"], "no moduli"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert (code, out) == (0, line + "\n"), argv


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zsindex.cli", "index", "--n", "11", "--seq", "1,4,8,9"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ind"] == 1


def test_imports_only_the_standard_library():
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, (name, root)
