"""zsindex benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/zsindex``.  Each pass runs
in a fresh process (``child.py``) so that the library's per-modulus caches
start cold, as they do for a user.  Passes repeat until ``--seconds`` is
spent; every pass is then checked against the frozen references, and a
seeded sample goes through independent oracles.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over traced passes) plus
``trace.overhead_frac``.  Worker processes lose their spans, so the traced
sweep takes its pool metrics (``verifier.verify_many.*``) from a ``--jobs 2``
pass with only the CLI and pool boundaries wrapped, and every other layer
from ``--jobs 1`` passes.

``--smoke`` swaps in tiny candidate lists for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# Every run must end within 180 s; passes stop being started well before.
RUN_LIMIT_S = 165

sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_pass,
    load_references,
    operations,
    oracle_checks,
    work_units,
)
from spans import ON_RESULT  # noqa: E402
from workloads import SWEEP_JOBS, WORKLOADS, make_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
}

WORK_UNIT = {
    "sweep": "classes verified",
    "three_prime": "classes verified",
    "validate": "quads swept plus reduced classes checked",
    "long_walk": "tuples yielded",
}

# Per-layer metrics: name -> unit.  "<boundary>.calls" and
# "<boundary>.self_s" come from span summaries; the rest are counters.
PER_LAYER = {
    "verifier.all_minimal_quad_classes.calls": "count",
    "verifier.all_minimal_quad_classes.self_s": "s",
    "verifier.all_minimal_quad_classes.classes": "count",
    "verifier.classes_unit": "count",
    "verifier.classes_nonunit": "count",
    "verifier.classes_lifted": "count",
    "verifier.verify_conjecture.self_s": "s",
    "verifier.verify_many.self_s": "s",
    "verifier.verify_many.idle_frac": "ratio",
    "verifier.validate_lemmas.self_s": "s",
    "verifier.validate_lemmas.quads": "count",
    "verifier.validate_remark32.self_s": "s",
    "verifier.validate_theorem21.self_s": "s",
    "verifier.iter_minimal_tuples.self_s": "s",
    "verifier.iter_minimal_tuples.yielded": "count",
    "verifier.search_high_index.self_s": "s",
    "verifier.search_high_index.hits": "count",
    **{f"lemmas.{f}.{m}": u for f in ("lemma33_cond1", "lemma33_cond2",
                                      "lemma34_cond", "lemma35_cond")
       for m, u in (("calls", "count"), ("self_s", "s"), ("fired", "count"))},
    "lemmas.compute_k1.calls": "count",
    "lemmas.compute_k1.self_s": "s",
    "classify.classify_pattern.calls": "count",
    "classify.classify_pattern.self_s": "s",
    "classify.normalize_quad.calls": "count",
    "classify.normalize_quad.self_s": "s",
    "sequences.is_minimal_zero_sum.calls": "count",
    "sequences.is_minimal_zero_sum.self_s": "s",
    "sequences.index_of.calls": "count",
    "sequences.index_of.self_s": "s",
    "zncore.factorize.calls": "count",
    "zncore.factorize.self_s": "s",
    "cli.main.self_s": "s",
    "cli.cache_rows": "count",
    "cli.cache_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Pool metrics of the sweep come from its --jobs 2 pass.
POOL_METRICS = ("verifier.verify_many.self_s", "verifier.verify_many.idle_frac")


class PassFailed(Exception):
    """A pass process crashed, timed out or printed no result."""


def run_child(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh process group and return its result."""
    timeout = max(1.0, deadline - time.monotonic())
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=str(HERE), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - spec["spawned"]
    return result


def quantile(values: list[float], pct: float) -> float:
    """The pct-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def percentile_note(values: list[float]) -> str:
    """The sample count, and the highest percentile with at least ten
    samples beyond it."""
    count = len(values)
    for pct in (99.9, 99, 90, 50):
        if count * (1 - pct / 100) >= 10:
            return f"n={count}, p{pct:g}={quantile(values, pct):.6g}"
    return f"n={count}, no percentile has 10 samples beyond it"


def machine_info(args, inputs: dict, passes: int) -> dict:
    revision = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                revision = ref_path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        revision = line.split(" ")[0]
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "revision": revision,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": passes,
        "inputs": inputs,
    }


class Run:
    """Passes of one run, their checks, and the failure count."""

    def __init__(self, args, inputs: dict, refs: dict, workdir: Path):
        self.args = args
        self.inputs = inputs
        self.refs = refs
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.hard_deadline = self.start + RUN_LIMIT_S
        self.base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
                     "smoke": args.smoke, "workdir": str(workdir)}
        self.ops = operations(args.workload, inputs)
        self.attempted = 0
        self.failures: list[str] = []
        self.checked_outputs = None

    def one(self, trace: str = "off", jobs: int = SWEEP_JOBS) -> dict | None:
        """Run and check one pass; None when it crashed."""
        self.attempted += len(self.ops)
        try:
            result = run_child(dict(self.base, trace=trace, jobs=jobs), self.hard_deadline)
        except PassFailed as exc:
            self.failures += [f"{op}: {exc}" for op in self.ops]
            return None
        failed = check_pass(self.args.workload, self.inputs, result["outputs"], self.refs)
        self.failures += failed[: len(self.ops)]
        if self.checked_outputs is None and not failed:
            self.checked_outputs = result["outputs"]
        return result

    def time_left(self, estimate: float) -> bool:
        return time.monotonic() + estimate <= self.deadline

    def oracles(self) -> None:
        """Oracle spot checks on the first pass that matched the references."""
        if self.checked_outputs is None:
            return
        sys.path.insert(0, str(ROOT / "src"))
        import zsindex

        count, failed = oracle_checks(zsindex, self.args.workload, self.inputs,
                                      self.checked_outputs, self.args.seed)
        self.attempted += count
        self.failures += failed


def end_to_end(run: Run, passes: list[dict]) -> tuple[dict, list[str]]:
    work = work_units(run.args.workload, run.inputs, run.refs)
    series = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "work_per_s": [work / p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    calls = [s for p in passes for _, s in p["calls"]]
    metrics = {name: statistics.median(values) for name, values in series.items()}
    metrics["call_s_p50"] = quantile(calls, 50)
    metrics["call_s_p90"] = quantile(calls, 90)
    lines = [f"{name} = {metrics[name]:.6g} {END_TO_END[name]}  "
             f"(median over passes; {percentile_note(values)})"
             for name, values in series.items()]
    lines.append(f"work unit: {WORK_UNIT[run.args.workload]}, {work} per pass")
    for name in ("call_s_p50", "call_s_p90"):
        lines.append(f"{name} = {metrics[name]:.6g} s  (over calls; {percentile_note(calls)})")
    ordered = {name: metrics[name] for name in END_TO_END}
    return ordered, lines


def layer_values(result: dict) -> dict:
    """Per-layer metric values of one traced pass."""
    trace = result["trace"]
    summary, counters = trace["summary"], trace["counters"]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        boundary, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and boundary in summary:
            values[name] = summary[boundary][field]
        elif name in counters:
            values[name] = counters[name]
    if "cli.main" in summary:
        values["cli.main.self_s"] = (summary["cli.main"]["self_s"]
                                     + summary.get(ON_RESULT, {}).get("self_s", 0.0))
    capacity = counters.get("verifier.verify_many.capacity_s")
    if capacity:
        busy = counters.get("verifier.verify_many.compute_s", 0.0)
        values["verifier.verify_many.idle_frac"] = 1 - busy / capacity
    outputs = result["outputs"]
    if "cache_rows" in outputs:
        values["cli.cache_rows"] = len(outputs["cache_rows"])
        values["cli.cache_bytes"] = outputs["cache_bytes"]
    values["trace.wall_s"] = result["wall_s"]
    return values


def absent_metrics(absent: set[str]) -> list[str]:
    """Metrics whose boundary, or whose own counter, no longer exists."""
    out = []
    for name in PER_LAYER:
        boundary = ".".join(name.split(".")[:2])
        if name in absent or boundary in absent:
            out.append(name)
    return out


def per_layer(run: Run, plain: list[dict], traced: list[dict], pool: dict | None) -> tuple[dict, list[str]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    absent: set[str] = set()
    for result in traced:
        absent.update(result["trace"]["absent"])
        for name, value in layer_values(result).items():
            samples[name].append(value)
    if pool is not None:
        pool_values = layer_values(pool)
        absent.update(pool["trace"]["absent"])
        for name in POOL_METRICS:
            samples[name] = [pool_values[name]] if name in pool_values else []
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    samples["trace.overhead_frac"] = [traced_wall / plain_wall - 1]
    missing = absent_metrics(absent)
    metrics = {name: (statistics.median(v) if v and name not in missing else 0)
               for name, v in samples.items()}
    spans = statistics.median(r["trace"]["spans"] for r in traced)
    lines = [f"traced passes: {len(traced)}, untraced passes: {len(plain)}, "
             f"spans per traced pass: {spans:g}"
             + (", pool metrics from one --jobs 2 pass, layers from --jobs 1 passes"
                if pool is not None else "")]
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        note = "  ABSENT boundary" if name in missing else ""
        if name.endswith(".self_s") and name not in POOL_METRICS:
            note += f"  ({100 * value / traced_wall:.1f} % of traced wall)"
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    return metrics, lines


def measure(run: Run) -> tuple[dict, list[str], int]:
    sweep = run.args.workload == "sweep"
    if not run.args.trace:
        passes: list[dict] = []
        while True:
            result = run.one()
            if result is not None:
                passes.append(result)
            elapsed = [p["process_s"] for p in passes] or [1.0]
            if not run.time_left(statistics.median(elapsed)):
                break
        if not passes:
            return {}, [], 0
        metrics, lines = end_to_end(run, passes)
        return metrics, lines, len(passes)
    pool = run.one(trace="pool", jobs=SWEEP_JOBS) if sweep else None
    jobs = 1 if sweep else SWEEP_JOBS
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        for mode, bucket in (("off", plain), ("layers", traced)):
            result = run.one(trace=mode, jobs=jobs)
            if result is not None:
                bucket.append(result)
        spent = [p["process_s"] for p in plain + traced] or [1.0]
        if not run.time_left(2 * statistics.median(spent)):
            break
    if not plain or not traced or (sweep and pool is None):
        return {}, [], 0
    metrics, lines = per_layer(run, plain, traced, pool)
    return metrics, lines, len(plain) + len(traced) + (pool is not None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny candidate lists")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that kill the pass's
    # process group and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "zsindex" / "__init__.py").is_file():
        print(f"error: no zsindex package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    refs = load_references()
    inputs = make_inputs(args.workload, args.seed, args.smoke)
    workdir = HERE / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, inputs, refs, workdir)
        metrics, lines, passes = measure(run)
        run.oracles()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        for message in run.failures[:20]:
            print(f"FAIL {message}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1

    print(f"# zsindex benchmark, workload {args.workload}, seed {args.seed}")
    print("# meta " + json.dumps(machine_info(args, inputs, passes), sort_keys=True))
    for line in lines:
        print(line)
    attempted, failed = run.attempted, len(run.failures)
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} "
          f"operations: top-level calls of every pass plus oracle spot checks)")
    for message in run.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
