"""Span tracer that wraps zsindex's public functions from outside the library.

A boundary is named ``<module>.<function>`` after the module that defines
it.  Installing the tracer replaces every binding of that function object
in every loaded ``zsindex`` module (``zsindex.verifier`` binds
``classify_pattern`` from ``zsindex.classify``, for example), because the
library looks names up in its own module globals at call time.  A boundary
whose module or function no longer exists is recorded as absent instead of
failing, so refactors that inline or remove a function leave the benchmark
running.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
summarised when the pass ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from array import array
from typing import Callable

# Boundaries wrapped in a traced pass.
BOUNDARIES = (
    "zncore.factorize",
    "sequences.is_minimal_zero_sum",
    "sequences.index_of",
    "classify.classify_pattern",
    "classify.normalize_quad",
    "lemmas.lemma33_cond1",
    "lemmas.lemma33_cond2",
    "lemmas.lemma34_cond",
    "lemmas.lemma35_cond",
    "lemmas.compute_k1",
    "verifier.all_minimal_quad_classes",
    "verifier.verify_conjecture",
    "verifier.verify_many",
    "verifier.validate_lemmas",
    "verifier.validate_remark32",
    "verifier.validate_theorem21",
    "verifier.iter_minimal_tuples",
    "verifier.search_high_index",
    "cli.main",
)

# Wrapped in the sweep's pool pass only, so that forked workers run
# unwrapped code and the pool is timed as a user sees it.
POOL_BOUNDARIES = ("cli.main", "verifier.verify_many")

# Generator functions: each next() is one span, and yielded items are counted.
GENERATORS = frozenset({"verifier.iter_minimal_tuples"})

# The callback the CLI hands to verify_many builds the output row and
# appends the cache record, so its span belongs to the cli layer.
ON_RESULT = "cli.on_result"


def wrap_on_result(args: tuple, kwargs: dict, make: Callable) -> tuple[tuple, dict]:
    """verify_many(ns, jobs, on_result) arguments with the on_result
    callback replaced by ``make(original_callback_or_None)``."""
    original = kwargs.get("on_result", args[2] if len(args) > 2 else None)
    if len(args) > 2:
        return args[:2] + (make(original),) + args[3:], kwargs
    return args, dict(kwargs, on_result=make(original))


def classes_by_source(n: int, classes) -> dict[str, int]:
    """Split all_minimal_quad_classes output by the source that yields it:
    classes with a unit element, with no unit but global gcd 1, and lifted
    from Z_{n/d} (global gcd d > 1)."""
    out = {"classes_unit": 0, "classes_nonunit": 0, "classes_lifted": 0}
    for elems in classes:
        if math.gcd(*elems, n) > 1:
            out["classes_lifted"] += 1
        elif any(math.gcd(x, n) == 1 for x in elems):
            out["classes_unit"] += 1
        else:
            out["classes_nonunit"] += 1
    return out


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    # -- installing wrappers ----------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap each boundary at every zsindex module attribute bound to it."""
        targets = []
        for boundary in boundaries:
            layer, func = boundary.split(".")
            try:
                home = importlib.import_module(f"zsindex.{layer}")
            except ImportError:
                self.mark_absent(boundary)
                continue
            target = getattr(home, func, None)
            if callable(target):
                targets.append((boundary, target))
            else:
                self.mark_absent(boundary)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zsindex" or name.startswith("zsindex."))]
        for boundary, target in targets:
            wrapper = self._wrap(boundary, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, boundary: str, target: Callable) -> Callable:
        nid = self.intern(boundary)
        if boundary in GENERATORS:
            return self._wrap_generator(boundary, nid, target)
        after = _AFTER.get(boundary)
        before = _BEFORE.get(boundary)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self.open(nid)
            try:
                result = target(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, boundary, args, kwargs, result, idx)
            return result

        return wrapper

    def _wrap_generator(self, boundary: str, nid: int, target: Callable) -> Callable:
        yielded = f"{boundary}.yielded"

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            inner = iter(target(*args, **kwargs))
            while True:
                idx = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.count(yielded)
                yield item

        self.counters.setdefault(yielded, 0)
        return wrapper

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per boundary: calls, total seconds and self seconds."""
        return summarize(self.names, self.name_id, self.parent, self.start, self.end)


def summarize(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Aggregate spans given as parallel sequences into calls, total and
    self time per name.  A span's self time is its duration minus the
    durations of the spans whose parent it is."""
    count = len(start)
    child_time = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(count):
        row = out[names[name_id[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
    return out


# -- counters read from outputs -----------------------------------------------

def _count_fired(tracer, boundary, args, kwargs, result, idx):
    fired = getattr(result, "fired", None)
    if fired is None:
        tracer.mark_absent(f"{boundary}.fired")
    else:
        tracer.count(f"{boundary}.fired", int(bool(fired)))


def _count_classes(tracer, boundary, args, kwargs, result, idx):
    n = args[0] if args else kwargs.get("n")
    tracer.count(f"{boundary}.classes", len(result))
    for key, value in classes_by_source(n, result).items():
        tracer.count(f"verifier.{key}", value)


def _count_quads(tracer, boundary, args, kwargs, result, idx):
    quads = getattr(result, "quad_count", None)
    if quads is None:
        tracer.mark_absent(f"{boundary}.quads")
    else:
        tracer.count(f"{boundary}.quads", quads)


def _count_hits(tracer, boundary, args, kwargs, result, idx):
    tracer.count(f"{boundary}.hits", len(result))


def _pool_before(tracer, args, kwargs):
    """Time the CLI's on_result callback as a cli span and sum the
    per-modulus compute time the reports carry."""
    nid = tracer.intern(ON_RESULT)

    def make(original):
        def on_result(n, report, error):
            if report is not None:
                elapsed = getattr(report, "elapsed", None)
                if elapsed is None:
                    tracer.mark_absent("verifier.verify_many.idle_frac")
                else:
                    tracer.count("verifier.verify_many.compute_s", elapsed)
            if original is None:
                return
            idx = tracer.open(nid)
            try:
                original(n, report, error)
            finally:
                tracer.close(idx)

        return on_result

    return wrap_on_result(args, kwargs, make)


def _pool_after(tracer, boundary, args, kwargs, result, idx):
    """Worker-seconds the pool offered: jobs x wall of the call."""
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else None)
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    tracer.count(f"{boundary}.capacity_s", jobs * tracer.duration(idx))


_BEFORE = {"verifier.verify_many": _pool_before}

_AFTER = {
    "lemmas.lemma33_cond1": _count_fired,
    "lemmas.lemma33_cond2": _count_fired,
    "lemmas.lemma34_cond": _count_fired,
    "lemmas.lemma35_cond": _count_fired,
    "verifier.all_minimal_quad_classes": _count_classes,
    "verifier.validate_lemmas": _count_quads,
    "verifier.search_high_index": _count_hits,
    "verifier.verify_many": _pool_after,
}
