"""Exhaustive verification over orbit classes of minimal zero-sum quads.

Classes (orbits under the unit action) are enumerated from one divisor
stripe.  The unit orbit of x is the set of residues with gcd gcd(x, n),
whose smallest member is that gcd, so the canonical (lexicographically
smallest) member of a class starts with d = min gcd(x, n) over its
elements.  Sweeping the sorted quads (d, y2, y3, y4) whose elements all
have gcd >= d, for each proper divisor d of n, therefore meets every
class, and canonicalising them needs only the units that map an element
of gcd d to d.  A class's canonical member lies in exactly one stripe,
so keeping the stripe tuples that are their own canonical form yields
each class once, in sorted order, with no set to deduplicate.

Most stripe tuples are not canonical, and the stripe tells which from
unit images read off one table of modular inverses.
Let q = (d, y2, y3, y4) and x = q[i], i >= 1, with gcd(x, n) = d.  Every
unit t with t x == d sends d to the same residue img[x] = d ((x / d)^-1
mod n / d).  No element of t q is below d, so sorted(t q) starts
(d, <= img[x]), and img[x] < y2 makes it smaller than q: the stripe
skips such a q.  If every element of q is a multiple of d, t sends each
y to one fixed residue too, (y / d) img[x] mod n, for every lift t of
x, because d (n / d) = n; and the lifts of d itself fix every multiple
of d.  So the candidate images of q are q itself and, for each such
x != d, (d, sorted(img[x], t y, t y')) over the other two elements y,
y', and q is canonical iff each of these (at most three) sorted triples
is at least (y2, y3, y4).  The nine cross images settle almost every q
at once.  img[x] >= y2 already holds for each x, so the six others are
compared with y2 one by one, and the first below y2 gives a smaller
image of q and ends the test; if all nine are above y2, every image is
larger.  Only on a tie, some image equal to y2, are the triples sorted
and compared.  A q with an element that is not a multiple of d
(possible when some divisor of n above d is not a multiple of d) has
images that depend on the lift, and goes to sequences._canonical_tuple.

Reduced classes come from the same walk, through anchors.  With p the
least prime of n and m = n // p, a reduced quad (d, y2, y3, y4) is not
minimal once scaled by p, so d, some y or some d + y is 0 mod m.  If m
does not divide d, some y is then an anchor, 0 or -d (mod m), and only
the O(p n) anchored quads are walked.  If m divides d, every y is an
anchor and the stripe is walked in full: for a prime n, m = 1, and the
stripe d = m holds only multiples of m, the largest proper divisor.

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
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

from .classify import (
    Pattern,
    _match_gcd_pattern,
    _normal_form_rows,
    _quad_elems,
    classify_pattern,
    normalize_quad,
)
from .errors import PreconditionViolated
from .lemmas import (
    _ceil_div,
    _k1,
    _lemma33_cond1,
    _lemma33_cond2,
    _lemma34_cond,
    _lemma35_cond,
    remark32_check,
)
from .sequences import (
    GroupSequence,
    _canonical_tuple,
    _index_numerator,
    _min_gcd,
    _multiset_minimal_zero_sum,
)
from .zncore import Modulus, factorize, modulus_range


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
    census: dict[str, int]
    violations: tuple[Counterexample, ...]
    vacuous_moduli: tuple[int, ...]
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


def _census(counts: Counter[Pattern]) -> dict[str, int]:
    """A pattern census keyed in Pattern order, not in meeting order."""
    return {p.value: counts[p] for p in Pattern if counts[p]}


def _stripe(n: int, d: int, reduced: bool = False) -> Iterator[tuple[int, ...]]:
    """The canonical sorted minimal zero-sum quads (d, y2, y3, y4), y4
    forced, whose elements all have gcd(y, n) >= d; with reduced, only
    the reduced ones.

    Such a quad is minimal iff no element equals n - d (no pair with
    the first element vanishes).  A residue y above n - d has
    gcd(y, n) <= n - y < d, so every element is at most n - d - 1, the
    integer total is n or 2n, and for each total the y3 range is the one
    where y3 <= y4 <= n - d - 1.  The tuples come in lexicographic order:
    for a fixed y2, every y3 of total n is at most (n - d - y2) / 2, below
    n - y2 + 1, the least y3 of total 2n.

    With reduced, the cofactors n // p are taken least prime p first, and
    only the quads holding an anchor y == 0 or -d (mod m), m = n // p for
    the least p, are walked: for a y2 that is not one, y3 keeps the
    residues 0, -d, rest and rest + d mod m, the last two making y4 the
    anchor.  Reducedness is tested before canonicity.

    For y of gcd d, img[y] = d ((y / d)^-1 mod n / d) is the image of d
    under every unit mapping y to d; img is n where gcd(y, n) > d, which
    no unit maps to d, and -1 where gcd(y, n) < d, outside the stripe.
    img[y] < y2 rules a quad out at once.  When every element is a
    multiple of d, the cross images (img[x] and (z // d) img[x] mod n for
    the other two elements z, for each x in y2, y3, y4 of gcd d other
    than d) decide canonicity exactly, ties included (see the module
    docstring).  The img[x] are >= y2 by then, so the six others are
    compared with y2 in turn: the first below y2, not canonical, with no
    further product taken; all above, canonical; a tie (any of the nine
    equal to y2), canonical iff the sorted triple of each such x is at
    least [y2, y3, y4].  A quad with an element that is not a multiple of
    d goes to sequences._canonical_tuple.
    """
    top = n - d - 1
    cofactors = tuple(n // p for p in factorize(n).prime_divisors) if reduced else ()
    m = cofactors[0] if reduced else None
    img = [n] * n if d == 1 else [n if math.gcd(y, n) > d else -1 for y in range(n)]
    nd = n // d
    img[::d] = [d * pow(r, -1, nd) if math.gcd(r, nd) == 1 else n for r in range(nd)]
    for y2 in range(d, top + 1):
        i2 = img[y2]
        if i2 < y2:
            continue
        k2, exact = y2 // d, y2 % d == 0
        # the lifts of d itself fix every multiple of d: no cross images
        if y2 == d:
            i2 = n
        anchored = m is None or y2 % m in (0, -d % m)
        for total in (n, 2 * n):
            rest = total - d - y2
            lo, hi = (y2 if y2 > rest - top else rest - top), rest // 2 + 1
            if anchored or lo >= hi:
                y3s = range(lo, hi)
            else:
                y3s = sorted({
                    *range(lo + -lo % m, hi, m), *range(lo + (-d - lo) % m, hi, m),
                    *range(lo + (rest - lo) % m, hi, m),
                    *range(lo + (rest + d - lo) % m, hi, m),
                })
            for y3 in y3s:
                y4 = rest - y3
                i3, i4 = img[y3], img[y4]
                if i3 < y2 or i4 < y2:
                    continue
                quad = (d, y2, y3, y4)
                if cofactors and not _is_reduced_quad_raw(n, quad, cofactors):
                    continue
                if not exact or y3 % d:
                    if _canonical_tuple(n, quad, d) == quad:
                        yield quad
                    continue
                k3, k4 = y3 // d, y4 // d
                # i2, i3, i4 >= y2 here: only the cross images can rule q out
                tie = y2 in (i2, i3, i4)
                if i2 < n:
                    u = k3 * i2 % n
                    if u < y2:
                        continue
                    v = k4 * i2 % n
                    if v < y2:
                        continue
                    if u == y2 or v == y2:
                        tie = True
                if i3 < n:
                    u = k2 * i3 % n
                    if u < y2:
                        continue
                    v = k4 * i3 % n
                    if v < y2:
                        continue
                    if u == y2 or v == y2:
                        tie = True
                if i4 < n:
                    u = k2 * i4 % n
                    if u < y2:
                        continue
                    v = k3 * i4 % n
                    if v < y2:
                        continue
                    if u == y2 or v == y2:
                        tie = True
                if not tie or all(
                    sorted(image) >= [y2, y3, y4]
                    for image in (
                        (i2, k3 * i2 % n, k4 * i2 % n),
                        (i3, k2 * i3 % n, k4 * i3 % n),
                        (i4, k2 * i4 % n, k3 * i4 % n),
                    )
                    if image[0] < n
                ):
                    yield quad


def all_minimal_quad_classes(n: int) -> list[tuple[int, ...]]:
    """Sorted canonical representatives of every minimal zero-sum quad
    class over Z_n, including classes with nontrivial global gcd.

    The canonical representative of a class starts with d, the least
    gcd(x, n) over its elements, so it lies in the stripe of d and in no
    other.  Keeping the stripe tuples that are their own canonical form
    yields each class once, in order: the stripes run by increasing d
    and each yields its tuples in lexicographic order.
    """
    return [q for d in factorize(n).divisors()[:-1] for q in _stripe(n, d)]


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
    """Stream canonical class representatives in sorted order, lazily.

    The classes come from _stripe, called on each proper divisor of n in
    ascending order, and no stripe is opened before the last class of the
    one below it is taken.
    A class has a unit element iff its canonical member starts with 1, so
    require_coprime_element reads the d = 1 stripe alone; require_reduced
    walks each stripe through its anchors.  Pattern filtering implies
    classification, which skips classes with nontrivial global gcd.
    """
    mod = factorize(n)
    stripes = (1,) if require_coprime_element else mod.divisors()[:-1]
    for elems in (q for d in stripes for q in _stripe(n, d, require_reduced)):
        if pattern is not None and math.gcd(*elems, n) != 1:
            continue
        seq = GroupSequence(mod, elems)
        if pattern is not None and classify_pattern(seq).pattern is not pattern:
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
    cofactors = tuple(n // p for p in mod.prime_divisors)
    three_prime = mod.is_squarefree and len(mod.prime_divisors) == 3
    census: Counter[Pattern] = Counter()
    counterexamples: list[Counterexample] = []
    reduced_count = 0
    max_index = 0
    classes = all_minimal_quad_classes(n)
    for elems in classes:
        num, _ = _index_numerator(n, elems)
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
                census[cls.pattern] += 1
    vacuous = {"pattern_census": not three_prime or sum(census.values()) == 0}
    return VerifyReport(
        n=n,
        in_conjecture=mod.coprime_to_6,
        class_count=len(classes),
        max_index=max_index,
        counterexamples=tuple(counterexamples),
        pattern_census=_census(census),
        reduced_count=reduced_count,
        vacuous=vacuous,
        elapsed=time.perf_counter() - t0,
    )


def verify_many(
    ns: list[int],
    jobs: int | None = None,
    on_result: Callable[[int, VerifyReport | None, str | None], None] | None = None,
) -> list[tuple[int, VerifyReport | None, str | None]]:
    """Run verify_conjecture over many moduli, optionally in parallel.

    Results are reported through on_result as they complete (single
    caller thread) and returned sorted by n, so the final output does
    not depend on the worker count.  Any failure of a modulus (an
    exception, or a dead worker's BrokenProcessPool) is reported as
    (n, None, "<type>: <message>") instead of aborting the run.
    """
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    results: dict[int, tuple[int, VerifyReport | None, str | None]] = {}
    with ExitStack() as stack:
        if jobs == 1 or len(ns) <= 1:
            calls = ((n, partial(verify_conjecture, n)) for n in ns)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = {pool.submit(verify_conjecture, n): n for n in ns}
            calls = ((futures[fut], fut.result) for fut in as_completed(futures))
        for n, call in calls:
            try:
                item = (n, call(), None)
            except Exception as exc:
                item = (n, None, f"{type(exc).__name__}: {exc}")
            results[n] = item
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


def _sample_minimal_tuples(
    n: int, k: int, samples: int, rng: random.Random
) -> Iterator[tuple[int, ...]]:
    """Rejection-sample sorted minimal zero-sum k-tuples over Z_n: draw
    k-1 sorted residues in [1, n-1], force the last by the zero sum."""
    for _ in range(samples):
        draw = sorted(rng.randrange(1, n) for _ in range(k - 1))
        last = (-sum(draw)) % n
        if last == 0 or last < draw[-1]:
            continue
        elems = tuple(draw) + (last,)
        if _multiset_minimal_zero_sum(n, elems):
            yield elems


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
    randomized mode rejection-samples sorted tuples.  The moduli come
    from `modulus_range`, which refuses a bad range up front; k < 1, a
    negative limit and random samples < 1 are refused too.  Only n < k
    is skipped: no minimal zero-sum sequence over Z_n is longer than n.
    Results are one canonical representative per class, sorted by (n,
    class).  A limit >= 0 stops the search at the first modulus that
    reaches it and keeps the first limit hits.
    """
    if mode not in ("exhaustive", "random"):
        raise PreconditionViolated(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and k > 8:
        raise PreconditionViolated("exhaustive search is guarded at k <= 8")
    if k < 1:
        raise PreconditionViolated(f"k must be >= 1, got {k}")
    if mode == "random" and samples < 1:
        raise PreconditionViolated(f"samples must be >= 1, got {samples}")
    if limit is not None and limit < 0:
        raise PreconditionViolated(f"limit must be >= 0, got {limit}")
    hits: list[Counterexample] = []
    rng = random.Random(seed)
    for n in modulus_range(n_lo, n_hi):
        if k > n:
            continue
        if mode == "random":
            stream = _sample_minimal_tuples(n, k, samples, rng)
        elif k == 4:
            stream = all_minimal_quad_classes(n)
        else:
            stream = iter_minimal_tuples(n, k)
        # the index numerator is constant on a class: keep the first
        found: dict[tuple[int, ...], int] = {}
        for elems in stream:
            num, _ = _index_numerator(n, elems)
            if num >= min_index * n:
                found.setdefault(_canonical_tuple(n, elems, _min_gcd(n, elems)), num)
        hits.extend(
            Counterexample(
                n=n,
                elems=canon,
                index_numerator=num,
                context="search",
                detail=f"k={k}, index {Fraction(num, n)}",
            )
            for canon, num in sorted(found.items())
        )
        if limit is not None and len(hits) >= limit:
            break
    return hits[:limit]


def _reduced_unit_classes(n: int) -> list[tuple[int, ...]]:
    """Sorted canonical reduced classes that contain a unit element."""
    return list(_stripe(n, 1, True))


def _theorem21_moduli(lo: int, hi: int) -> list[int]:
    """Theorem 2.1's modulus rule: the moduli in [max(lo, 2), hi] that are
    squarefree with three or four prime factors."""
    mods = map(factorize, modulus_range(lo, hi))
    return [m.n for m in mods if m.is_squarefree and len(m.factors) in (3, 4)]


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
    if not _theorem21_moduli(n, n):
        raise PreconditionViolated(
            f"validator needs squarefree n with 3 or 4 primes, got {mod.factors}"
        )
    primes = mod.prime_divisors
    census: Counter[Pattern] = Counter()
    anomalies: list[Counterexample] = []
    a3_unrefined = 0
    classes = _reduced_unit_classes(n)
    for elems in classes:
        if d == 4:
            pattern = Pattern.OTHER
            detail = "reduced unit-element class over a 4-prime modulus"
        else:
            gcds = sorted(math.gcd(x, n) for x in elems)
            pattern = _match_gcd_pattern(gcds, primes).pattern
            detail = "reduced class outside the gcd-multiset statements"
        if pattern is Pattern.OTHER:
            num, _ = _index_numerator(n, elems)
            anomalies.append(
                Counterexample(
                    n=n,
                    elems=elems,
                    index_numerator=num,
                    context="theorem21",
                    detail=detail,
                )
            )
            continue
        census[pattern] += 1
        if pattern is Pattern.A3:
            cls = classify_pattern(GroupSequence(mod, elems))
            if cls.pattern is not Pattern.A3:
                a3_unrefined += 1
    return Theorem21Report(
        n=n,
        prime_count=d,
        qualifying_count=len(classes),
        census=_census(census),
        a3_without_normal_form=a3_unrefined,
        anomalies=tuple(anomalies),
        vacuous=len(classes) == 0,
        elapsed=time.perf_counter() - t0,
    )


def validate_lemmas(n: int) -> LemmaSweepReport:
    """Sweep every normalized quad over Z_n through the conditions that
    apply to it: 33.1, 33.2 and 34 always, 35 when s = b // a >= 2.

    The normal forms are walked one row (one c) at a time.  The 33.1 and
    33.2 witnesses of a whole row come from one call of each row kernel,
    and their fired counts are the entries that are not None.  34 fires
    on every normal form, so its count is the row length: at k = b its
    clause ab <= bn holds (a < n), and its m-range [ceil(bn/c), n] holds
    the unit n - 1, since (c - b)n >= c (b < c < n).  Per quad only 35,
    the index and the probes remain.  A 33.1 witness (k, m) certifies
    index 1 when the norm of the quad under m is n (it always is; the
    proof is in the lemmas module docstring), and only the other quads
    run the index kernel.  A condition firing while the oracle index
    exceeds 1 is recorded as a violation (as a finding for 34, the
    condition with the suspect final clause); the quad's elements,
    records and 34 witness are built only then.
    Structural probes run only for n > 1000: under the
    no-coprime-multiplier assumption, s should stay <= 9 and, when
    defined, k1 <= 6.
    """
    t0 = time.perf_counter()
    factorize(n)  # refuses n outside [2, 2^31]
    fired = {"33.1": 0, "33.2": 0, "34": 0, "35": 0}
    violations: dict[str, list[Counterexample]] = {"33.1": [], "33.2": [], "35": []}
    findings_34: list[Counterexample] = []
    probe_s: list[tuple[int, int, int, int]] = []
    probe_k1: list[tuple[int, int, int, int]] = []
    k1_undefined = 0
    quad_count = 0
    s_applicable = 0
    probes_on = n > 1000
    for c, bs in _normal_form_rows(n):
        blo, bhi = bs.start, bs.stop - 1
        row331 = _lemma33_cond1(n, c, blo, bhi)
        row332 = _lemma33_cond2(n, c, blo, bhi)
        for name, row in (("33.1", row331), ("33.2", row332)):
            fired[name] += len(row) - row.count(None)
        fired["34"] += len(bs)
        quad_count += len(bs)
        ceil_nc = _ceil_div(n, c)
        for b, w331, w332 in zip(bs, row331, row332):
            a = c + 1 - b
            m = w331[1] if w331 else 0
            if m and m + m * c % n + m * (n - b) % n + m * (n - a) % n == n:
                num = n
            else:
                num, _ = _index_numerator(n, _quad_elems(n, a, b, c))
            s = b // a
            s_applicable += s >= 2
            w35 = _lemma35_cond(n, a, b) if s >= 2 else None
            if w35 is not None:
                fired["35"] += 1
            if num != n:
                for name, witness in (
                    ("33.1", w331),
                    ("33.2", w332),
                    ("34", _lemma34_cond(n, a, b, c)),
                    ("35", w35),
                ):
                    if witness is None:
                        continue
                    record = Counterexample(
                        n=n,
                        elems=_quad_elems(n, a, b, c),
                        index_numerator=num,
                        context=f"lemma-{name}",
                        detail=f"(a,b,c)=({a},{b},{c}), witness {witness}",
                    )
                    if name == "34":
                        findings_34.append(record)
                    else:
                        violations[name].append(record)
            if probes_on and w35 is None:
                if s > 9:
                    probe_s.append((n, a, b, c))
                if ceil_nc == _ceil_div(n, b):
                    k1 = _k1(n, b, c)
                    if k1 is None:
                        k1_undefined += 1
                    elif k1 > 6:
                        probe_k1.append((n, a, b, c))
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


def three_prime_moduli(lo: int, hi: int) -> list[int]:
    """Remark 3.2's moduli: those of theorem 2.1 in [max(lo, 2), hi] with
    three prime factors and coprime to 6."""
    mods = map(factorize, _theorem21_moduli(lo, hi))
    return [m.n for m in mods if len(m.factors) == 3 and m.coprime_to_6]


def validate_remark32(lo: int, hi: int) -> Remark32Report:
    """Check the lower bound on a over every qualifying reduced class
    with modulus in [lo, hi] (`three_prime_moduli`).

    Qualifying means: three-prime squarefree modulus coprime to 6, class
    reduced with global gcd 1 and a unit element, pattern A2/A3/A4.
    """
    t0 = time.perf_counter()
    moduli = three_prime_moduli(lo, hi)
    violations: list[Counterexample] = []
    census: Counter[Pattern] = Counter()
    vacuous: list[int] = []
    bounded = (Pattern.A2, Pattern.A3, Pattern.A4)
    for n in moduli:
        mod = factorize(n)
        n_qualifying = 0
        for elems in _reduced_unit_classes(n):
            seq = GroupSequence(mod, elems)
            cls = classify_pattern(seq)
            if cls.pattern not in bounded:
                continue
            quad = normalize_quad(seq)
            if quad is None:
                continue
            n_qualifying += 1
            census[cls.pattern] += 1
            if not remark32_check(quad, cls.pattern):
                num, _ = _index_numerator(n, elems)
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
        qualifying_count=sum(census.values()),
        census=_census(census),
        violations=tuple(violations),
        vacuous_moduli=tuple(vacuous),
        elapsed=time.perf_counter() - t0,
    )
