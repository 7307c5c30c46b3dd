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


def _sorted_minimal_quad_count(n):
    # |X|, X the sorted minimal zero-sum quads over Z_n, in O(n^2): fix
    # x1 <= x2 with x1 + x2 != 0 and s = -(x1 + x2) mod n; then x3 + x4
    # is s or s + n, and only x1 + x3 and x2 + x3 can still be zero
    total = 0
    for x1 in range(1, n):
        for x2 in range(x1, n):
            s = -(x1 + x2) % n
            if s == 0:
                continue
            # x3 in [x2, s // 2] (x3 + x4 = s) or [lo2, hi2] (= s + n)
            hi1 = s // 2
            lo2 = max(x2, s + 1)
            hi2 = (s + n) // 2
            total += max(0, hi1 - x2 + 1) + max(0, hi2 - lo2 + 1)
            for bad in {n - x1, n - x2}:
                if x2 <= bad <= hi1 or lo2 <= bad <= hi2:
                    total -= 1
    return total


def _stabilizer_size(n, q):
    # a unit t with sorted(t * q) == q maps d = q[0] to some y = d * r of
    # q with gcd(r, n/d) == 1, so t == r (mod n/d): try only those t
    d = q[0]
    m = n // d
    count = 0
    for y in set(q):
        r = y // d
        if y % d or math.gcd(r, m) != 1:
            continue
        for t in range(r % m, n, m):
            if math.gcd(t, n) == 1 and sorted(t * x % n for x in q) == list(q):
                count += 1
    return count


def test_quad_class_orbits_partition_sorted_minimal_quads():
    # the classes split X into unit orbits, so sum phi(n) / |Stab(q)|
    # over the classes is |X|; a missed or doubled class breaks it
    for n in range(2, 41):
        assert _sorted_minimal_quad_count(n) == len(list(iter_minimal_tuples(n, 4))), n
    expected = {
        25: (32, 624),
        30: (153, 1_082),
        49: (116, 4_800),
        60: (719, 8_840),
        61: (155, 9_300),
        105: (1_119, 47_770),
        231: (4_591, 511_366),
        385: (10_430, 2_371_584),
        997: (41_417, 41_251_332),
        1001: (59_686, 41_750_000),
        1225: (95_836, 76_531_824),
    }
    for n, (class_count, x_count) in expected.items():
        phi = factorize(n).phi()
        classes = all_minimal_quad_classes(n)
        orbit_sum = 0
        for q in classes:
            stab = _stabilizer_size(n, q)
            assert phi % stab == 0, (n, q, stab)
            orbit_sum += phi // stab
        assert (len(classes), orbit_sum) == (class_count, x_count), n
        assert _sorted_minimal_quad_count(n) == x_count, n
