"""Randomized and exhaustive property suites: orbit invariance,
integrality, enumeration completeness, and interval arithmetic."""

import math
import random
from fractions import Fraction

from zsindex import (
    GroupSequence,
    IntervalQ,
    NormalizedQuad,
    all_minimal_quad_classes,
    canonical_rep,
    enumerate_minimal_quads,
    factorize,
    index_of,
    interval_integers,
    is_minimal_zero_sum,
    is_reduced,
    is_zero_sum,
    iter_minimal_tuples,
    naive_minimal_quad_classes,
    normalize_quad,
    seq_norm,
    validate_theorem21,
    verify_conjecture,
)


def _random_sequence(rng, n_max=500, k_max=5):
    n = rng.randrange(2, n_max + 1)
    k = rng.randrange(1, k_max + 1)
    return GroupSequence.of(n, [rng.randrange(1, n) for _ in range(k)])


def test_orbit_invariance_of_index_and_minimality():
    rng = random.Random(424242)
    for _ in range(10_000):
        s = _random_sequence(rng)
        n = s.n
        units = [t for t in range(1, n) if math.gcd(t, n) == 1]
        t = rng.choice(units)
        scaled = GroupSequence.of(n, [t * x % n for x in s.elems])
        assert index_of(scaled).value == index_of(s).value
        assert is_minimal_zero_sum(scaled) == is_minimal_zero_sum(s)


def test_integrality_iff_zero_sum():
    rng = random.Random(31337)
    for _ in range(10_000):
        s = _random_sequence(rng)
        r = index_of(s)
        assert r.is_integer == is_zero_sum(s)
        assert r.is_integer == (r.numerator % s.n == 0)
        assert seq_norm(s, r.witness_t) == r.value


def _brute_normal_form(seq):
    # the least unit t over all units whose sorted image reads
    # [1, c, n-b, n-a] with 1 + c = a + b, 2 <= a <= b, 1 < c and b, c < n/2
    n = seq.n
    for t in range(1, n):
        if math.gcd(t, n) != 1:
            continue
        e1, c, nb, na = sorted(t * x % n for x in seq.elems)
        a, b = n - na, n - nb
        if e1 == 1 and 1 + c == a + b and 2 <= a <= b and 1 < c and 2 * max(b, c) < n:
            return NormalizedQuad(n, a, b, c, unit=t, reflected=False)
    return None


def test_canonical_enumeration_matches_naive_all_n_60():
    for n in range(5, 61):
        fast = all_minimal_quad_classes(n)
        naive = sorted(naive_minimal_quad_classes(n))
        assert fast == naive, n
        # the paths that share the canonical form and the unit stripe
        # with the fast enumerator, pinned against the naive classes
        mod = factorize(n)
        seqs = [GroupSequence(mod, elems) for elems in naive]
        assert verify_conjecture(n).reduced_count == sum(map(is_reduced, seqs)), n
        with_unit = [s for s in seqs if any(math.gcd(x, n) == 1 for x in s.elems)]
        forms = [normalize_quad(s) for s in with_unit]
        assert forms == [_brute_normal_form(s) for s in with_unit], n
        coprime = enumerate_minimal_quads(n, require_coprime_element=True)
        assert [s.elems for s in coprime] == [s.elems for s in with_unit], n
        if n in (30, 42):
            qualifying = sum(map(is_reduced, with_unit))
            assert validate_theorem21(n).qualifying_count == qualifying, n


def test_canonical_enumeration_matches_naive_composites():
    # composites with several divisor stripes, past the exhaustive range
    for n in (105, 125, 165, 195, 231):
        fast = all_minimal_quad_classes(n)
        assert fast == naive_minimal_quad_classes(n), n
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for elems in fast:
            assert elems == min(
                tuple(sorted(u * x % n for x in elems)) for u in units
            ), (n, elems)
        # reducedness, the reduced unit stripe and the normal form where
        # all three prime cofactors matter; a canonical class starts with
        # 1 iff it has a unit element
        mod = factorize(n)
        seqs = [GroupSequence(mod, elems) for elems in fast]
        with_unit = [s for s in seqs if s.elems[0] == 1]
        assert verify_conjecture(n).reduced_count == sum(map(is_reduced, seqs)), n
        if n != 125:
            qualifying = sum(map(is_reduced, with_unit))
            assert qualifying == 5, n
            assert validate_theorem21(n).qualifying_count == qualifying, n
        if n in (105, 165):
            assert [normalize_quad(s) for s in with_unit] == [
                _brute_normal_form(s) for s in with_unit
            ], n


def test_interval_arithmetic_randomized():
    rng = random.Random(2718281)
    for _ in range(1_000):
        lo = Fraction(rng.randrange(-400, 400), rng.randrange(1, 12))
        hi = lo + Fraction(rng.randrange(0, 300), rng.randrange(1, 12))
        lo_closed = rng.random() < 0.5
        hi_closed = rng.random() < 0.5
        interval = IntervalQ(lo, hi, lo_closed=lo_closed, hi_closed=hi_closed)
        got = interval_integers(interval)
        window = range(math.floor(lo) - 2, math.ceil(hi) + 3)
        expected = [
            m
            for m in window
            if (lo <= m if lo_closed else lo < m)
            and (m <= hi if hi_closed else m < hi)
        ]
        assert got == expected, (lo, hi, lo_closed, hi_closed)


def test_pair_law():
    rng = random.Random(55)
    for _ in range(2_000):
        n = rng.randrange(3, 500)
        x = rng.randrange(1, n)
        if x == n - x:
            continue
        s = GroupSequence.of(n, [x, n - x])
        t = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        assert seq_norm(s, t) == 1


def test_short_sequence_law_exhaustive():
    # every minimal zero-sum sequence of length <= 3 has index 1
    for n in range(2, 201):
        for k in (2, 3):
            for elems in iter_minimal_tuples(n, k):
                assert index_of(GroupSequence.of(n, elems)).value == 1, (n, elems)


def test_index_range_law():
    rng = random.Random(808)
    cases = 0
    while cases < 2_000:
        n = rng.randrange(5, 200)
        k = rng.randrange(2, 7)
        head = sorted(rng.randrange(1, n) for _ in range(k - 1))
        last = -sum(head) % n
        if last == 0:
            continue
        s = GroupSequence.of(n, head + [last])
        if not is_minimal_zero_sum(s):
            continue
        cases += 1
        value = index_of(s).value
        assert 1 <= value <= k - 1
        if s.k == 4:
            assert value in (1, 2, 3)


def test_canonical_rep_orbit_constant_random():
    rng = random.Random(7171)
    for _ in range(1_000):
        s = _random_sequence(rng, n_max=300, k_max=5)
        n = s.n
        rep = canonical_rep(s)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        t = rng.choice(units)
        scaled = GroupSequence.of(n, [t * x % n for x in s.elems])
        assert canonical_rep(scaled).elems == rep.elems
        # the representative is itself in the orbit and no candidate beats it
        assert rep.elems <= s.elems
        assert rep.elems == min(tuple(sorted(u * x % n for x in s.elems)) for u in units)


def test_class_counts_nonnegative_and_census_bounded():
    from zsindex import verify_conjecture

    for n in (25, 35, 49):
        report = verify_conjecture(n)
        assert report.class_count >= 0
        assert sum(report.pattern_census.values()) <= report.class_count
        assert (report.max_index == 1) == (not report.counterexamples)
