"""Tests for the sequence algebra: norms, minimality, index, scaling,
reducedness, and canonical orbit representatives."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from zsindex import (
    GroupSequence,
    InvariantViolated,
    LengthTooLarge,
    NotAPrimeDivisor,
    NotAUnit,
    NotMinimal,
    all_minimal_quad_classes,
    canonical_rep,
    factorize,
    index_of,
    is_minimal_zero_sum,
    is_reduced,
    is_zero_sum,
    iter_minimal_tuples,
    scale_seq,
    seq_norm,
)
from zsindex.sequences import _index_numerator, _multiset_minimal_zero_sum


def _seq(n, values):
    return GroupSequence.of(n, values)


def test_sequence_construction():
    s = _seq(11, [9, 4, 1, 8])
    assert s.elems == (1, 4, 8, 9)
    assert s.n == 11
    assert s.k == 4
    # values are reduced into [1, n-1] first
    assert _seq(7, [8, -1]).elems == (1, 6)


def test_sequence_rejects_identity():
    with pytest.raises(InvariantViolated):
        _seq(7, [7])
    with pytest.raises(InvariantViolated):
        _seq(7, [1, 14])
    with pytest.raises(InvariantViolated):
        _seq(7, [])


def test_sequence_direct_construction_invariants():
    mod = factorize(11)
    with pytest.raises(InvariantViolated):
        GroupSequence(mod, (4, 1, 8, 9))
    with pytest.raises(InvariantViolated):
        GroupSequence(mod, (0, 4))
    with pytest.raises(InvariantViolated):
        GroupSequence(mod, (1, 11))


def test_seq_norm_examples():
    assert seq_norm(_seq(7, [1, 6]), 1) == Fraction(1)
    assert seq_norm(_seq(7, [2, 5]), 3) == Fraction(1)
    assert seq_norm(_seq(11, [1, 4, 8, 9]), 1) == Fraction(2)


def test_seq_norm_rejects_non_unit():
    with pytest.raises(NotAUnit):
        seq_norm(_seq(10, [1, 9]), 5)


def test_minimality_examples():
    assert is_minimal_zero_sum(_seq(10, [5, 5]))
    assert not is_minimal_zero_sum(_seq(10, [2, 8, 5, 5]))
    assert is_zero_sum(_seq(10, [2, 8, 5, 5]))
    assert is_minimal_zero_sum(_seq(7, [1, 1, 5]))


def test_minimality_requires_zero_sum():
    assert not is_minimal_zero_sum(_seq(10, [1, 2]))


def test_minimality_length_guard():
    with pytest.raises(LengthTooLarge):
        is_minimal_zero_sum(_seq(25, [1] * 25))


def test_minimality_builds_no_n_bit_mask():
    # a short sequence keeps its subset sums in a set: no n-bit integer
    # (5.3 MB peak at this n with the mask) is built
    n = 20_000_003
    seq = _seq(n, [1, 2, 3, n - 6])
    tracemalloc.start()
    try:
        minimal = is_minimal_zero_sum(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert minimal
    assert peak < 1_000_000


def _brute_minimal(n, values):
    if len(values) <= 1 or sum(values) % n:
        return False
    return not any(
        sum(sub) % n == 0
        for r in range(1, len(values))
        for sub in combinations(values, r)
    )


def test_minimality_set_and_mask_match_brute_force():
    # the set (n >= 256 * 2^(k-1)) and the mask decide alike; half the
    # multisets draw from a few residues and their negatives, so that
    # proper zero-sum subsets are common
    rng = random.Random(2025)
    seen = {"set": [0, 0], "mask": [0, 0]}
    for _ in range(3000):
        k = rng.randint(2, 7)
        n = rng.choice((rng.randint(2, 300), rng.randint(2100, 20_000)))
        if rng.random() < 0.5:
            pool = [rng.randint(1, n) for _ in range(3)]
            pool += [n - x or n for x in pool]
        else:
            pool = range(1, n + 1)
        head = [rng.choice(pool) for _ in range(k - 1)]
        values = tuple(sorted(head + [-sum(head) % n or n]))
        expected = _brute_minimal(n, values)
        assert _multiset_minimal_zero_sum(n, values) == expected, (n, values)
        seen["set" if n >= 256 << (k - 1) else "mask"][expected] += 1
    assert all(min(counts) >= 50 for counts in seen.values()), seen


def test_index_examples():
    r = index_of(_seq(7, [1, 6]))
    assert r.value == 1 and r.witness_t == 1 and r.is_integer

    r = index_of(_seq(11, [1, 4, 8, 9]))
    assert r.value == 1
    assert r.witness_t == 3
    assert sum((3 * x - 1) % 11 + 1 for x in (1, 4, 8, 9)) == r.numerator == 11


def test_index_non_integer_when_not_zero_sum():
    r = index_of(_seq(10, [1, 2]))
    assert not r.is_integer
    assert r.value == Fraction(3, 10)


def test_smallest_non_coprime_quad_with_index_two():
    # Exhaustive scan of every minimal zero-sum quad for n <= 6 with
    # gcd(n, 6) != 1: the first modulus carrying an index >= 2 class is
    # n = 6, and its unique witness class is (1, 3, 4, 4) with index 2.
    found = {}
    for n in (2, 3, 4, 6):
        for t in combinations_with_replacement(range(1, n), 4):
            if sum(t) % n != 0:
                continue
            s = GroupSequence(factorize(n), t)
            if not is_minimal_zero_sum(s):
                continue
            r = index_of(s)
            if r.value >= 2:
                found.setdefault(n, set()).add(canonical_rep(s).elems)
    assert sorted(found) == [6]
    assert found[6] == {(1, 3, 4, 4)}
    assert index_of(_seq(6, [1, 3, 4, 4])).value == 2


def test_scale_examples():
    assert scale_seq(_seq(15, [1, 2, 3, 9]), 3) == (3, 6, 9, 12)
    assert scale_seq(_seq(15, [1, 2, 3, 9]), 5) == (5, 10, 15, 15)
    assert scale_seq(_seq(25, [5, 5, 5, 10]), 5) == (25, 25, 25, 25)


def test_scale_rejects_non_divisor():
    with pytest.raises(NotAPrimeDivisor):
        scale_seq(_seq(15, [1, 2, 3, 9]), 7)
    with pytest.raises(NotAPrimeDivisor):
        scale_seq(_seq(15, [1, 2, 3, 9]), 15)


def test_reduced_examples():
    assert not is_reduced(_seq(15, [1, 1, 13]))
    assert is_reduced(_seq(15, [1, 2, 3, 9]))
    assert is_reduced(_seq(25, [5, 5, 5, 10]))


def test_reduced_requires_minimal():
    with pytest.raises(NotMinimal):
        is_reduced(_seq(10, [2, 8, 5, 5]))


def test_canonical_rep_is_orbit_minimum():
    # Full-orbit cross-check: the canonical form of [2,5,7,8] over Z_11
    # is the lexicographically smallest sorted multiple, here via t = 7.
    s = _seq(11, [2, 8, 5, 7])
    orbit = {
        tuple(sorted((t * x - 1) % 11 + 1 for x in s.elems))
        for t in range(1, 11)
    }
    assert canonical_rep(s).elems == min(orbit) == (1, 2, 3, 5)


def test_canonical_rep_idempotent_and_orbit_constant():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(5, 200)
        k = rng.randrange(1, 6)
        s = _seq(n, [rng.randrange(1, n) for _ in range(k)])
        rep = canonical_rep(s)
        assert canonical_rep(rep).elems == rep.elems
        t = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        scaled = _seq(n, [t * x % n for x in s.elems])
        assert canonical_rep(scaled).elems == rep.elems


def test_orbit_double_count_n25():
    # Naive count of sorted minimal zero-sum quads must equal the sum of
    # orbit sizes over canonical classes.
    n = 25
    mod = factorize(n)
    all_quads = set()
    for t in combinations_with_replacement(range(1, n), 4):
        if sum(t) % n == 0 and is_minimal_zero_sum(GroupSequence(mod, t)):
            all_quads.add(t)
    classes = {canonical_rep(GroupSequence(mod, t)).elems for t in all_quads}
    assert len(classes) == 32
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    orbit_total = 0
    for rep in classes:
        orbit_total += len(
            {tuple(sorted((u * x - 1) % n + 1 for x in rep)) for u in units}
        )
    assert orbit_total == len(all_quads)


def _plain_index_scan(n, elems):
    # every unit in increasing order; the first one reaching the minimum
    best = witness = 0
    for t in range(1, n):
        if math.gcd(t, n) != 1:
            continue
        total = sum(t * x % n for x in elems)
        if witness == 0 or total < best:
            best, witness = total, t
    return best, witness



def test_index_builds_no_table():
    # the kernel tests each t by gcd: a large modulus costs no table of
    # n entries (40 MB at this n with a unit-mask table)
    n = 20_000_003
    seq = _seq(n, [1, 2, 3, n - 6])
    tracemalloc.start()
    try:
        r = index_of(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.numerator, r.witness_t) == (n, 1)
    assert peak < 1_000_000

def test_index_kernel_matches_plain_scan():
    # the kernel returns at t = 1 when the plain sum meets the floor, and
    # otherwise stops at the floor; both must give the plain scan's result
    checked = 0
    for n in range(2, 151):
        tuples = list(all_minimal_quad_classes(n))
        if n <= 20:
            tuples += list(iter_minimal_tuples(n, 6))
        for elems in tuples:
            assert _index_numerator(n, elems) == _plain_index_scan(n, elems), (n, elems)
            checked += 1
    assert checked > 10_000
