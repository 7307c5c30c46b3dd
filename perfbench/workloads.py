"""Workload definitions: candidate lists, seeded inputs, and one timed pass.

Each workload draws its inputs from a fixed candidate list with a
``random.Random`` seeded by the workload name and ``--seed``.  Where the
library's cost differs a lot between candidates, the list is split into
slots of candidates that cost about the same at commit 1c11ee1, and one
candidate is drawn per slot.  The pass then costs nearly the same for
every seed, so run-to-run spread measures the program rather than the
draw.  Workloads that make a handful of calls per pass make an odd number
of them, and the calls around the median cost about the same, so that the
median call never falls in the gap between two cost levels.

A pass runs in a fresh process (see ``child.py``) because the library
memoises class enumerations per modulus with ``functools.lru_cache``; a
user verifying a modulus pays the cold cost once, and so does every pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import time
from pathlib import Path

from spans import wrap_on_result

WORKLOADS = ("sweep", "three_prime", "validate", "long_walk")

SWEEP_MIN = 5
SWEEP_JOBS = 2
WALK_TUPLES = 500

# Full candidate lists.  Slot costs quoted are medians of five interleaved
# single-process timings at commit 1c11ee1 on a 2-CPU Xeon VM, each
# timing scaled by its round's total so that slow phases of the machine
# cancel out.
FULL = {
    # The sweep stops below 385, the first three-prime modulus coprime to 6.
    "sweep": {"max": [list(range(360, 385))]},
    # Five cost slots of the 18 squarefree three-prime moduli in
    # [100, 240]: ~0.13, 0.24, 0.7, 1.08 and 2.06 s.  The median call
    # comes from the middle slot and the 90th percentile from the top one,
    # a single modulus because no other costs the same within a pass (a
    # pass reuses the sub-moduli classes its earlier calls enumerated).
    "three_prime": {
        "moduli": [[102, 105, 110], [114, 130], [170, 182], [174, 190, 195], [230]],
    },
    "validate": {
        # validate_lemmas: ~0.1 s, ~0.16 s, ~0.45 s (multiples of 3, so 33.1
        # often fails and the later conditions run) and ~1.1 s above 1000,
        # where the s/k1 probes run.  With remark32 (~0.13 s) the two
        # cheapest slots make a cluster of three calls around the median.
        "lemmas": [[290, 310], [370, 380], [420, 480], [1001, 1009, 1013, 1021]],
        # Windows of (1000, 2000] holding exactly one qualifying modulus.
        "remark32": [[[1230, 1240], [1260, 1270], [1290, 1300], [1305, 1315]]],
        # Three-prime moduli coprime to 6, then the four-prime 5005.
        "theorem21": [[385, 455, 595, 665, 715, 805, 935], [5005]],
    },
    "long_walk": {
        # First 500 tuples of iter_minimal_tuples(n, n//2 + 2):
        # ~0.79, ~1.02 and ~2.41 s per slot.
        "walks": [[35, 37], [30, 33], [36, 38]],
        # Exhaustive search_high_index(n, n, k), ~0.2-0.4 s: pairs that walk
        # about the same number of tuples (13.2k and 21k), the work unit.
        "searches": [[[26, 7], [28, 6]], [[28, 7], [30, 6]]],
    },
}

# Tiny lists for the smoke mode used by the benchmark's own tests.
SMOKE = {
    "sweep": {"max": [list(range(30, 41))]},
    "three_prime": {"moduli": [[30, 42], [66, 70]]},
    "validate": {
        "lemmas": [[50, 51], [60, 61]],
        "remark32": [[[1000, 1010]]],
        "theorem21": [[30, 42], [210]],
    },
    "long_walk": {
        "walks": [[12, 13], [14]],
        "searches": [[[10, 5], [12, 5]]],
    },
}


def candidates(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """One candidate per slot of each input field, drawn with a generator
    seeded by the workload and seed: the same arguments give the same
    inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {field: [rng.choice(slot) for slot in slots]
            for field, slots in candidates(smoke)[workload].items()}


def all_inputs(smoke: bool) -> dict:
    """Every candidate of every input field, for freezing references."""
    return {workload: {field: [x for slot in slots for x in slot]
                       for field, slots in fields.items()}
            for workload, fields in candidates(smoke).items()}


def sweep_moduli(top: int) -> list[int]:
    return [n for n in range(SWEEP_MIN, top + 1) if n % 2 and n % 3]


def tuples_digest(tuples) -> str:
    return hashlib.sha256(json.dumps([list(t) for t in tuples]).encode()).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- output summaries, shared by passes and by freeze.py --------------------

def _cex(c) -> list:
    return [list(c.elems), c.index_numerator]


def verify_output(report) -> dict:
    return {
        "class_count": report.class_count,
        "max_index": report.max_index,
        "reduced_count": report.reduced_count,
        "census": dict(sorted(report.pattern_census.items())),
        "counterexamples": [_cex(c) for c in report.counterexamples],
    }


def lemmas_output(report) -> dict:
    return {
        "quad_count": report.quad_count,
        "fired": dict(sorted(report.fired.items())),
        "violations": {k: [_cex(c) for c in v] for k, v in sorted(report.violations.items())},
        "findings_34": [_cex(c) for c in report.findings_34],
        "probe_s": len(report.probe_s_violations),
        "probe_k1": len(report.probe_k1_violations),
        "k1_undefined": report.k1_undefined,
    }


def remark32_output(report) -> dict:
    return {
        "checked_moduli": list(report.checked_moduli),
        "qualifying_count": report.qualifying_count,
        "census": dict(sorted(report.census.items())),
        "violations": [[c.n] + _cex(c) for c in report.violations],
    }


def theorem21_output(report) -> dict:
    return {
        "qualifying_count": report.qualifying_count,
        "census": dict(sorted(report.census.items())),
        "a3_without_normal_form": report.a3_without_normal_form,
        "anomalies": [_cex(c) for c in report.anomalies],
    }


def search_output(hits) -> dict:
    return {"hits": [_cex(c) for c in hits]}


# -- one pass -----------------------------------------------------------------

def run_pass(zs, workload: str, inputs: dict, workdir: Path, jobs: int = SWEEP_JOBS) -> dict:
    """Run one pass through the public API of the package ``zs``.

    Returns wall and CPU seconds of the timed region, per-call seconds,
    and the outputs to check, summarised after the timed region.  The
    library functions are taken from ``zs`` when the pass starts, so a
    tracer installed on the package sees the calls.
    """
    if workload == "sweep":
        return _sweep_pass(zs, inputs, workdir, jobs)
    if workload == "three_prime":
        plan = [(f"verify {n}", zs.verify_conjecture, (n,)) for n in inputs["moduli"]]
    elif workload == "validate":
        lo, hi = inputs["remark32"][0]
        plan = ([(f"lemmas {n}", zs.validate_lemmas, (n,)) for n in inputs["lemmas"]]
                + [(f"remark32 {lo}-{hi}", zs.validate_remark32, (lo, hi))]
                + [(f"theorem21 {n}", zs.validate_theorem21, (n,))
                   for n in inputs["theorem21"]])
    else:
        plan = ([(f"walk {n}", _walk, (zs, n)) for n in inputs["walks"]]
                + [(f"search {n},{k}", zs.search_high_index, (n, n, k))
                   for n, k in inputs["searches"]])
    done = []
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    for label, fn, args in plan:
        t = time.perf_counter()
        result = fn(*args)
        done.append((label, time.perf_counter() - t, result))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "calls": [[label, seconds] for label, seconds, _ in done],
        "outputs": {label: SUMMARIES[label.split(" ")[0]](result)
                    for label, _, result in done},
    }


def _walk(zs, n: int) -> dict:
    """First WALK_TUPLES long minimal tuples, each checked for index 1."""
    k = n // 2 + 2
    mod = zs.factorize(n)
    tuples = list(itertools.islice(zs.iter_minimal_tuples(n, k), WALK_TUPLES))
    index_one = sum(
        zs.index_of(zs.GroupSequence(mod, t)).numerator == n for t in tuples
    )
    return {"tuples": [list(t) for t in tuples], "index_one": index_one}


# Output summary by the first word of a call's label.
SUMMARIES = {
    "verify": verify_output,
    "lemmas": lemmas_output,
    "remark32": remark32_output,
    "theorem21": theorem21_output,
    "search": search_output,
    "walk": lambda walk: walk,
}


def _sweep_pass(zs, inputs: dict, workdir: Path, jobs: int) -> dict:
    """`zsindex verify` over [5, max] coprime to 6 with a fresh cache.

    Per-modulus seconds come from the VerifyReport.elapsed the pool hands
    to the CLI's on_result callback, read through a one-call-per-modulus
    interposer on ``zsindex.cli.verify_many``; the CLI's own rows carry
    whole milliseconds only.
    """
    import zsindex.cli as cli

    cache = workdir / "cache.jsonl"
    out_path = workdir / "out.json"
    for path in (cache, out_path):
        path.unlink(missing_ok=True)
    argv = ["verify", "--min", str(SWEEP_MIN), "--max", str(inputs["max"][0]),
            "--coprime-to-6", "--jobs", str(jobs), "--cache", str(cache),
            "--output", str(out_path)]
    elapsed: dict[int, float] = {}
    inner = getattr(cli, "verify_many", None)
    if inner is not None:
        def make(original):
            def on_result(n, report, error):
                if report is not None:
                    elapsed[n] = report.elapsed
                if original is not None:
                    original(n, report, error)

            return on_result

        def interposed(*args, **kwargs):
            args, kwargs = wrap_on_result(args, kwargs, make)
            return inner(*args, **kwargs)

        cli.verify_many = interposed
    try:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    finally:
        if inner is not None:
            cli.verify_many = inner
    payload = json.loads(out_path.read_text()) if out_path.exists() else {}
    rows = payload.get("results", [])
    if not elapsed:
        elapsed = {r["n"]: (r.get("elapsed_ms") or 0) / 1000 for r in rows}
    calls = [[f"verify {n}", s] for n, s in sorted(elapsed.items())]
    cache_rows: list = []
    unparseable = 0
    cache_bytes = cache.stat().st_size if cache.exists() else 0
    if cache.exists():
        for line in cache.read_text().splitlines():
            try:
                cache_rows.append(int(json.loads(line)["n"]))
            except (ValueError, KeyError, TypeError):
                unparseable += 1
    outputs = {
        "exit_code": code,
        "all_verified": payload.get("all_verified"),
        "rows": [[r.get("n"), r.get("status"), r.get("class_count"), r.get("max_index")]
                 for r in rows],
        "cache_rows": cache_rows,
        "cache_unparseable": unparseable,
        "cache_bytes": cache_bytes,
    }
    return {"wall_s": wall, "cpu_s": cpu, "calls": calls, "outputs": outputs}
