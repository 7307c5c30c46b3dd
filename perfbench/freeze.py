"""Recompute ``references.json``: the expected output of every candidate of
every workload, full and smoke lists alike, so that any seed can be checked.

Run from the repository root at the commit whose outputs are trusted:

    python3 perfbench/freeze.py

It calls the library directly, serially, and takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import zsindex  # noqa: E402

from checks import REFERENCES  # noqa: E402
from workloads import (  # noqa: E402
    WALK_TUPLES,
    all_inputs,
    lemmas_output,
    remark32_output,
    search_output,
    sweep_moduli,
    theorem21_output,
    tuples_digest,
    verify_output,
)


def freeze() -> dict:
    refs: dict = {k: {} for k in ("sweep", "verify", "lemmas", "remark32",
                                  "theorem21", "walk", "search")}
    for smoke in (True, False):
        cand = all_inputs(smoke)
        for n in sweep_moduli(max(cand["sweep"]["max"])):
            if str(n) not in refs["sweep"]:
                report = zsindex.verify_conjecture(n)
                refs["sweep"][str(n)] = [report.class_count, report.max_index]
        for n in cand["three_prime"]["moduli"]:
            refs["verify"][str(n)] = verify_output(zsindex.verify_conjecture(n))
        val = cand["validate"]
        for n in val["lemmas"]:
            refs["lemmas"][str(n)] = lemmas_output(zsindex.validate_lemmas(n))
        for lo, hi in val["remark32"]:
            refs["remark32"][f"{lo}-{hi}"] = remark32_output(zsindex.validate_remark32(lo, hi))
        for n in val["theorem21"]:
            refs["theorem21"][str(n)] = theorem21_output(zsindex.validate_theorem21(n))
        walk = cand["long_walk"]
        for n in walk["walks"]:
            head = list(itertools.islice(zsindex.iter_minimal_tuples(n, n // 2 + 2), WALK_TUPLES))
            refs["walk"][str(n)] = {"count": len(head), "digest": tuples_digest(head)}
        for n, k in walk["searches"]:
            hits = search_output(zsindex.search_high_index(n, n, k))["hits"]
            refs["search"][f"{n},{k}"] = {
                "count": len(hits),
                "digest": tuples_digest(hits),
                "tuples": sum(1 for _ in zsindex.iter_minimal_tuples(n, k)),
            }
        print(f"froze {'smoke' if smoke else 'full'} candidates", file=sys.stderr)
    return refs


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(freeze(), sort_keys=True, indent=1) + "\n")
