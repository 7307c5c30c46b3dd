"""Exhaustive verification over orbit classes of minimal zero-sum quads.

Classes (orbits under the unit action) are enumerated from one divisor
stripe.  The unit orbit of x is the set of residues with gcd gcd(x, n),
whose smallest member is that gcd, so the canonical (lexicographically
smallest) member of a class starts with d = min gcd(x, n) over its
elements.  Sweeping the sorted quads (d, y2, y3, y4) whose elements all
have gcd >= d, for each proper divisor d of n, therefore meets every
class, and canonicalising them needs only the units that map an element
of gcd d to d.

A slower single-loop reference enumeration over all sorted triples with
the fourth element forced is kept for cross-checking the stripe.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .classify import (
    Pattern,
    _match_gcd_pattern,
    _normal_form_quads,
    classify_pattern,
    normalize_quad,
)
from .errors import CeilMismatch, InvariantViolated, PreconditionViolated
from .lemmas import (
    compute_k1,
    compute_s,
    lemma33_cond1,
    lemma33_cond2,
    lemma34_cond,
    lemma35_cond,
    remark32_check,
)
from .sequences import (
    GroupSequence,
    _canonical_tuple,
    _index_numerator,
    _min_gcd,
    is_minimal_zero_sum,
    is_reduced,
)
from .zncore import Modulus, factorize


@dataclass(frozen=True)
class Counterexample:
    """A class whose oracle index contradicts the expectation."""

    n: int
    elems: tuple[int, ...]
    index_numerator: int
    context: str
    detail: str = ""

    @property
    def index_value(self) -> Fraction:
        return Fraction(self.index_numerator, self.n)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the per-modulus exhaustive index check."""

    n: int
    in_conjecture: bool
    class_count: int
    max_index: int
    counterexamples: tuple[Counterexample, ...]
    pattern_census: dict[str, int]
    reduced_count: int
    vacuous: dict[str, bool]
    elapsed: float


@dataclass(frozen=True)
class Theorem21Report:
    """Pattern census over reduced unit-element classes of one modulus.

    The census buckets classes by the gcd-multiset statement alone (A3
    is plain "all gcds 1"); a3_without_normal_form counts the all-units
    classes that admit no normal form and so carry no divisibility
    refinement.
    """

    n: int
    prime_count: int
    qualifying_count: int
    census: dict[str, int]
    a3_without_normal_form: int
    anomalies: tuple[Counterexample, ...]
    vacuous: bool
    elapsed: float


@dataclass(frozen=True)
class LemmaSweepReport:
    """Soundness sweep of the index-1 conditions over one modulus."""

    n: int
    quad_count: int
    fired: dict[str, int]
    violations: dict[str, tuple[Counterexample, ...]]
    findings_34: tuple[Counterexample, ...]
    probe_s_violations: tuple[tuple[int, int, int, int], ...]
    probe_k1_violations: tuple[tuple[int, int, int, int], ...]
    k1_undefined: int
    vacuous: dict[str, bool]
    elapsed: float


@dataclass(frozen=True)
class Remark32Report:
    """Per-range check of the lower bound on a for reduced patterns."""

    lo: int
    hi: int
    checked_moduli: tuple[int, ...]
    qualifying_count: int
    violations: tuple[Counterexample, ...]
    vacuous_moduli: tuple[int, ...]
    census: dict[str, int]
    elapsed: float


def _is_reduced_quad_raw(
    n: int, elems: tuple[int, ...], cofactors: tuple[int, ...]
) -> bool:
    """Reducedness for a minimal zero-sum quad without building objects.

    cofactors holds n // p for each prime p | n.  Scaling by p keeps the
    quad minimal iff no element and no pair sum vanishes mod n // p.
    """
    x1, x2, x3, x4 = elems
    for m in cofactors:
        if (
            x1 % m and x2 % m and x3 % m and x4 % m
            and (x1 + x2) % m and (x1 + x3) % m and (x1 + x4) % m
        ):
            return False
    return True


def _stripe(n: int, d: int) -> Iterator[tuple[int, int, int, int]]:
    """Sorted minimal zero-sum quads (d, y2, y3, y4), y4 forced, whose
    elements all have gcd(y, n) >= d.

    Such a quad is minimal iff no element equals n - d (no pair with
    the first element vanishes).  A residue y above n - d has
    gcd(y, n) <= n - y < d, so every element is at most n - d - 1, the
    integer total is n or 2n, and for each total the y3 range is the one
    where y3 <= y4 <= n - d - 1.
    """
    top = n - d - 1
    allowed = None if d == 1 else bytes(math.gcd(y, n) >= d for y in range(n))
    for y2 in range(d, top + 1):
        if allowed is not None and not allowed[y2]:
            continue
        for total in (n, 2 * n):
            rest = total - d - y2
            for y3 in range(max(y2, rest - top), rest // 2 + 1):
                if allowed is None or allowed[y3] and allowed[rest - y3]:
                    yield (d, y2, y3, rest - y3)


def all_minimal_quad_classes(n: int) -> list[tuple[int, ...]]:
    """Sorted canonical representatives of every minimal zero-sum quad
    class over Z_n, including classes with nontrivial global gcd.

    The canonical representative of a class starts with d, the least
    gcd(x, n) over its elements, so the stripes over the proper
    divisors d of n meet every class, each class in exactly one stripe.
    """
    classes: set[tuple[int, ...]] = set()
    for d in factorize(n).divisors()[:-1]:
        classes.update(_canonical_tuple(n, quad, d) for quad in _stripe(n, d))
    return sorted(classes)


def naive_minimal_quad_classes(n: int) -> list[tuple[int, ...]]:
    """Reference enumeration: all sorted triples with the fourth element
    forced, pruned by pair sums, deduplicated by the canonical form."""
    seen: set[tuple[int, ...]] = set()
    for x1 in range(1, n):
        for x2 in range(x1, n):
            if (x1 + x2) % n == 0:
                continue
            for x3 in range(x2, n):
                x4 = (-x1 - x2 - x3) % n
                if x4 < x3 or x4 == 0:
                    continue
                if (x1 + x3) % n == 0 or (x1 + x4) % n == 0:
                    continue
                quad = (x1, x2, x3, x4)
                seen.add(_canonical_tuple(n, quad, _min_gcd(n, quad)))
    return sorted(seen)


def enumerate_minimal_quads(
    n: int,
    require_coprime_element: bool = False,
    require_reduced: bool = False,
    pattern: Pattern | None = None,
) -> Iterator[GroupSequence]:
    """Stream canonical class representatives in sorted order.

    With require_coprime_element the enumeration runs over the
    normal-form parameter space; otherwise over the divisor stripes of
    all_minimal_quad_classes.  Pattern filtering implies classification,
    which skips classes with nontrivial global gcd.
    """
    mod = factorize(n)
    if require_coprime_element:
        tuples = {
            _canonical_tuple(n, (1, q.c, n - q.b, n - q.a), 1)
            for q in _normal_form_quads(n)
        }
    else:
        tuples = set(all_minimal_quad_classes(n))
    for elems in sorted(tuples):
        seq = GroupSequence(mod, elems)
        if require_reduced and not is_reduced(seq):
            continue
        if pattern is not None:
            if math.gcd(*elems, n) != 1:
                continue
            if classify_pattern(seq).pattern is not pattern:
                continue
        yield seq


def verify_conjecture(n: int) -> VerifyReport:
    """Compute the index of every minimal zero-sum quad class over Z_n.

    The census classifies reduced classes with global gcd 1 when n is
    squarefree with exactly three prime factors; it is flagged vacuous
    when no class qualifies.
    """
    t0 = time.perf_counter()
    mod = factorize(n)
    mask = mod.unit_mask()
    cofactors = tuple(n // p for p in mod.prime_divisors)
    three_prime = mod.is_squarefree and len(mod.prime_divisors) == 3
    census: Counter[str] = Counter()
    counterexamples: list[Counterexample] = []
    reduced_count = 0
    max_index = 0
    classes = all_minimal_quad_classes(n)
    for elems in classes:
        num, _ = _index_numerator(n, elems, mask)
        value = num // n
        if value > max_index:
            max_index = value
        if value > 1:
            counterexamples.append(
                Counterexample(
                    n=n,
                    elems=elems,
                    index_numerator=num,
                    context="verify",
                    detail=f"class index {value}",
                )
            )
        if _is_reduced_quad_raw(n, elems, cofactors):
            reduced_count += 1
            if three_prime and math.gcd(*elems, n) == 1:
                cls = classify_pattern(GroupSequence(mod, elems))
                census[cls.pattern.value] += 1
    vacuous = {"pattern_census": not three_prime or sum(census.values()) == 0}
    return VerifyReport(
        n=n,
        in_conjecture=mod.coprime_to_6,
        class_count=len(classes),
        max_index=max_index,
        counterexamples=tuple(counterexamples),
        pattern_census=dict(census),
        reduced_count=reduced_count,
        vacuous=vacuous,
        elapsed=time.perf_counter() - t0,
    )


def _verify_worker(n: int) -> tuple[int, VerifyReport | None, str | None]:
    try:
        return n, verify_conjecture(n), None
    except Exception as exc:
        return n, None, f"{type(exc).__name__}: {exc}"


def verify_many(
    ns: list[int],
    jobs: int | None = None,
    on_result: Callable[[int, VerifyReport | None, str | None], None] | None = None,
) -> list[tuple[int, VerifyReport | None, str | None]]:
    """Run verify_conjecture over many moduli, optionally in parallel.

    Results are reported through on_result as they complete (single
    caller thread) and returned sorted by n, so the final output does
    not depend on the worker count.  If a worker process dies, every n
    it left unfinished is reported as an error instead of aborting the
    run.
    """
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    results: dict[int, tuple[int, VerifyReport | None, str | None]] = {}
    if jobs == 1 or len(ns) <= 1:
        for n in ns:
            item = _verify_worker(n)
            results[n] = item
            if on_result is not None:
                on_result(*item)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_verify_worker, n): n for n in ns}
            for fut in as_completed(futures):
                try:
                    item = fut.result()
                except BrokenProcessPool as exc:
                    item = (futures[fut], None, f"BrokenProcessPool: {exc}")
                results[item[0]] = item
                if on_result is not None:
                    on_result(*item)
    return [results[n] for n in sorted(results)]


def iter_minimal_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All sorted minimal zero-sum k-tuples over Z_n, depth-first.

    The first k-1 elements are chosen ascending while their nonempty
    subset sums avoid 0 mod n (tracked as a bitmask); the last element
    is forced by the zero sum.  By complements, a proper zero-sum subset
    exists iff one avoids the forced element, so the mask check is a
    complete minimality test.
    """
    if k < 2:
        return
    full = (1 << n) - 1
    prefix = [0] * (k - 1)

    def rec(start: int, depth: int, total: int, bits: int) -> Iterator[tuple[int, ...]]:
        if depth == k - 1:
            last = (-total) % n
            if last != 0 and last >= prefix[-1]:
                yield tuple(prefix) + (last,)
            return
        for v in range(start, n):
            shifted = ((bits << v) | (bits >> (n - v))) & full
            new_bits = bits | shifted | (1 << v)
            if new_bits & 1:
                continue
            prefix[depth] = v
            yield from rec(v, depth + 1, total + v, new_bits)

    yield from rec(1, 0, 0, 0)


def search_high_index(
    n_lo: int,
    n_hi: int,
    k: int,
    min_index: int = 2,
    mode: str = "exhaustive",
    limit: int | None = None,
    samples: int = 10000,
    seed: int = 0,
) -> list[Counterexample]:
    """Hunt for minimal zero-sum classes of length k with index >= min_index.

    Exhaustive mode covers every class for k <= 8 (quads through the
    class decomposition, other lengths through the pruned tuple walk);
    randomized mode rejection-samples sorted tuples.  Results are one
    canonical representative per class, sorted, truncated at limit.
    """
    if mode not in ("exhaustive", "random"):
        raise PreconditionViolated(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and k > 8:
        raise PreconditionViolated("exhaustive search is guarded at k <= 8")
    hits: dict[tuple[int, tuple[int, ...]], Counterexample] = {}
    rng = random.Random(seed)
    for n in range(max(n_lo, 2), n_hi + 1):
        if k >= n:
            continue
        mod = factorize(n)
        mask = mod.unit_mask()
        target = min_index * n

        def consider(elems: tuple[int, ...]) -> None:
            num, _ = _index_numerator(n, elems, mask)
            if num >= target:
                canon = _canonical_tuple(n, elems, _min_gcd(n, elems))
                key = (n, canon)
                if key not in hits:
                    hits[key] = Counterexample(
                        n=n,
                        elems=canon,
                        index_numerator=num,
                        context="search",
                        detail=f"k={k}, index {Fraction(num, n)}",
                    )

        if mode == "exhaustive":
            if k == 4:
                for elems in all_minimal_quad_classes(n):
                    consider(elems)
            else:
                for elems in iter_minimal_tuples(n, k):
                    consider(elems)
        else:
            for _ in range(samples):
                draw = sorted(rng.randrange(1, n) for _ in range(k - 1))
                last = (-sum(draw)) % n
                if last == 0 or last < draw[-1]:
                    continue
                elems = tuple(draw) + (last,)
                if is_minimal_zero_sum(GroupSequence(mod, elems)):
                    consider(elems)
        if limit is not None and len(hits) >= limit:
            break
    out = sorted(hits.values(), key=lambda c: (c.n, c.elems))
    return out[:limit] if limit is not None else out


def _reduced_unit_classes(n: int) -> list[tuple[int, ...]]:
    """Canonical reduced classes that contain a unit element.

    Reducedness is orbit-invariant and cheap, so it is tested on the raw
    stripe tuples first; only survivors are canonicalized.
    """
    cofactors = tuple(n // p for p in factorize(n).prime_divisors)
    return sorted({
        _canonical_tuple(n, quad, 1)
        for quad in _stripe(n, 1)
        if _is_reduced_quad_raw(n, quad, cofactors)
    })


def validate_theorem21(n: int) -> Theorem21Report:
    """Check every reduced class with global gcd 1 and a unit element
    against the gcd-multiset statements.

    For a squarefree n with three prime factors every such class must
    satisfy one of the four statements; with four prime factors no such
    class may exist at all.  Anything else is reported as an anomaly.
    """
    t0 = time.perf_counter()
    mod = factorize(n)
    d = len(mod.prime_divisors)
    if not mod.is_squarefree or d not in (3, 4):
        raise PreconditionViolated(
            f"validator needs squarefree n with 3 or 4 primes, got {mod.factors}"
        )
    mask = mod.unit_mask()
    primes = mod.prime_divisors
    census: Counter[str] = Counter()
    anomalies: list[Counterexample] = []
    a3_unrefined = 0
    classes = _reduced_unit_classes(n)
    for elems in classes:
        if d == 4:
            num, _ = _index_numerator(n, elems, mask)
            anomalies.append(
                Counterexample(
                    n=n,
                    elems=elems,
                    index_numerator=num,
                    context="theorem21",
                    detail="reduced unit-element class over a 4-prime modulus",
                )
            )
            continue
        gcds = sorted(math.gcd(x, n) for x in elems)
        if gcds == [1, 1, 1, 1]:
            pattern = Pattern.A3
        else:
            pattern = _match_gcd_pattern(gcds, primes).pattern
        if pattern is Pattern.OTHER:
            num, _ = _index_numerator(n, elems, mask)
            anomalies.append(
                Counterexample(
                    n=n,
                    elems=elems,
                    index_numerator=num,
                    context="theorem21",
                    detail="reduced class outside the gcd-multiset statements",
                )
            )
            continue
        census[pattern.value] += 1
        if pattern is Pattern.A3:
            cls = classify_pattern(GroupSequence(mod, elems))
            if cls.pattern is not Pattern.A3:
                a3_unrefined += 1
    return Theorem21Report(
        n=n,
        prime_count=d,
        qualifying_count=len(classes),
        census=dict(census),
        a3_without_normal_form=a3_unrefined,
        anomalies=tuple(anomalies),
        vacuous=len(classes) == 0,
        elapsed=time.perf_counter() - t0,
    )


def validate_lemmas(n: int) -> LemmaSweepReport:
    """Sweep every normalized quad over Z_n through the four conditions.

    A condition firing while the oracle index exceeds 1 is recorded as a
    violation (as a finding for the condition with the suspect final
    clause).  Structural probes run only for n > 1000: under the
    no-coprime-multiplier assumption, s should stay <= 9 and, when
    defined, k1 <= 6.
    """
    t0 = time.perf_counter()
    mod = factorize(n)
    mask = mod.unit_mask()
    fired = {"33.1": 0, "33.2": 0, "34": 0, "35": 0}
    violations: dict[str, list[Counterexample]] = {"33.1": [], "33.2": [], "35": []}
    findings_34: list[Counterexample] = []
    probe_s: list[tuple[int, int, int, int]] = []
    probe_k1: list[tuple[int, int, int, int]] = []
    k1_undefined = 0
    quad_count = 0
    s_applicable = 0
    probes_on = n > 1000
    for quad in _normal_form_quads(n):
        a, b, c = quad.a, quad.b, quad.c
        quad_count += 1
        elems = (1, c, n - b, n - a)
        num, _ = _index_numerator(n, elems, mask)
        value = num // n
        outcomes = [
            ("33.1", lemma33_cond1(quad)),
            ("33.2", lemma33_cond2(quad)),
            ("34", lemma34_cond(quad)),
        ]
        s = compute_s(quad)
        fired_35 = False
        if s >= 2:
            s_applicable += 1
            o35 = lemma35_cond(quad)
            fired_35 = o35.fired
            outcomes.append(("35", o35))
        for name, outcome in outcomes:
            if not outcome.fired:
                continue
            fired[name] += 1
            if value == 1:
                continue
            record = Counterexample(
                n=n,
                elems=elems,
                index_numerator=num,
                context=f"lemma-{name}",
                detail=f"(a,b,c)=({a},{b},{c}), witness {outcome.witness}",
            )
            if name == "34":
                findings_34.append(record)
            else:
                violations[name].append(record)
        if probes_on and (s < 2 or not fired_35):
            if s > 9:
                probe_s.append((n, a, b, c))
            try:
                k1 = compute_k1(quad)
                if k1 > 6:
                    probe_k1.append((n, a, b, c))
            except InvariantViolated:
                k1_undefined += 1
            except CeilMismatch:
                pass
    vacuous = {
        "lemma35": s_applicable == 0,
        "probes": not probes_on,
    }
    return LemmaSweepReport(
        n=n,
        quad_count=quad_count,
        fired=fired,
        violations={k: tuple(v) for k, v in violations.items()},
        findings_34=tuple(findings_34),
        probe_s_violations=tuple(probe_s),
        probe_k1_violations=tuple(probe_k1),
        k1_undefined=k1_undefined,
        vacuous=vacuous,
        elapsed=time.perf_counter() - t0,
    )


def three_prime_moduli(lo: int, hi: int, coprime_to_6: bool = True) -> list[int]:
    """Moduli in (lo, hi] that are products of three distinct primes."""
    out = []
    for n in range(lo + 1, hi + 1):
        mod = factorize(n)
        if not mod.is_squarefree or len(mod.prime_divisors) != 3:
            continue
        if coprime_to_6 and not mod.coprime_to_6:
            continue
        out.append(n)
    return out


def validate_remark32(lo: int, hi: int) -> Remark32Report:
    """Check the lower bound on a over every qualifying reduced class
    with modulus in (lo, hi].

    Qualifying means: three-prime squarefree modulus coprime to 6, class
    reduced with global gcd 1 and a unit element, pattern A2/A3/A4.
    """
    t0 = time.perf_counter()
    moduli = three_prime_moduli(lo, hi)
    violations: list[Counterexample] = []
    census: Counter[str] = Counter()
    vacuous: list[int] = []
    qualifying = 0
    bounded = (Pattern.A2, Pattern.A3, Pattern.A4)
    for n in moduli:
        mod = factorize(n)
        mask = mod.unit_mask()
        n_qualifying = 0
        for elems in _reduced_unit_classes(n):
            seq = GroupSequence(mod, elems)
            cls = classify_pattern(seq)
            if cls.pattern not in bounded:
                continue
            quad = normalize_quad(seq)
            if quad is None:
                continue
            qualifying += 1
            n_qualifying += 1
            census[cls.pattern.value] += 1
            if not remark32_check(quad, cls.pattern):
                num, _ = _index_numerator(n, elems, mask)
                violations.append(
                    Counterexample(
                        n=n,
                        elems=elems,
                        index_numerator=num,
                        context="remark32",
                        detail=f"pattern {cls.pattern.value}, a={quad.a}",
                    )
                )
        if n_qualifying == 0:
            vacuous.append(n)
    return Remark32Report(
        lo=lo,
        hi=hi,
        checked_moduli=tuple(moduli),
        qualifying_count=qualifying,
        violations=tuple(violations),
        vacuous_moduli=tuple(vacuous),
        census=dict(census),
        elapsed=time.perf_counter() - t0,
    )
