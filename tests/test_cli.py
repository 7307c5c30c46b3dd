"""Tests for the command line front end: payload schemas, exit codes,
and the resumable verification cache."""

import csv
import json
import os
import subprocess
import sys

import pytest

from zsindex import cli, verifier
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
    assert report["qualifying_count"] == 5
    assert report["census"] == {"A2": 3, "A3": 1, "A4": 1}
    assert payload["anomaly_count"] == 0


def test_validate_lemmas_cli(capsys):
    code, payload, _ = run_json(capsys, "validate", "--target", "lemmas", "--n", "25")
    assert code == 0
    assert payload["reports"][0]["quad_count"] == 30

    # violations at even n surface as anomalies (exit 2), findings do not
    code, payload, _ = run_json(capsys, "validate", "--target", "lemmas", "--n", "10")
    assert code == 2
    assert payload["anomaly_count"] == 1
    assert len(payload["reports"][0]["findings_34"]) == 1


def test_validate_remark32_cli(capsys):
    code, payload, _ = run_json(
        capsys, "validate", "--target", "remark32", "--min", "380", "--max", "390"
    )
    assert code == 0
    assert payload["qualifying_count"] == 0
    assert payload["vacuous_moduli"] == [385]

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


def test_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--min", "50", "--max", "10")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "index", "--n", "11", "--seq", "1,4,x")[0] == 1


def test_runtime_error_exit_one(capsys):
    # classify precondition: not minimal
    code, _, err = run_cli(capsys, "classify", "--n", "10", "--seq", "2,8,5,5")
    assert code == 1
    assert "PreconditionViolated" in err


def test_jobs_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZSINDEX_JOBS", "1")
    code, out, _ = run_cli(capsys, "verify", "--min", "5", "--max", "7", "--coprime-to-6")
    assert code == 0
    assert json.loads(out)["jobs"] == 1
    monkeypatch.setenv("ZSINDEX_JOBS", "banana")
    assert run_cli(capsys, "verify", "--min", "5", "--max", "7")[0] == 1


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--n", "11", "--seq", "1,4,8,9", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "n=11 seq=1,4,8,9 ind=1 witness_t=3"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zsindex.cli", "index", "--n", "11", "--seq", "1,4,8,9"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ind"] == 1
