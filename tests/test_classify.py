"""Tests for gcd profiles, the four-pattern classifier, and the
(a, b, c) normal form of quads."""

import math
import random
import tracemalloc

import pytest

from zsindex import (
    GroupSequence,
    InvariantViolated,
    NoCoprimeElement,
    NormalizedQuad,
    Pattern,
    PatternClass,
    PreconditionViolated,
    canonical_rep,
    classify_pattern,
    denormalize,
    gcd_profile,
    normalize_quad,
    seq_norm,
)


def _seq(n, values):
    return GroupSequence.of(n, values)


def test_gcd_profile_examples():
    # gcds align with the sorted storage order (1, 35, 308, 330)
    p = gcd_profile(_seq(385, [1, 35, 330, 308]))
    assert p.gcds == (1, 35, 77, 55)
    assert sorted(p.gcds) == [1, 35, 55, 77]
    assert p.global_gcd == 1

    p = gcd_profile(_seq(385, [2, 3, 4, 6]))
    assert p.gcds == (1, 1, 1, 1)

    assert gcd_profile(_seq(25, [5, 10, 15, 20])).global_gcd == 5


def test_classify_a4():
    cls = classify_pattern(_seq(385, [35, 55, 77, 218]))
    assert cls.pattern is Pattern.A4
    assert cls.prime_roles == (5, 7, 11)


def test_classify_a2():
    cls = classify_pattern(_seq(385, [5, 7, 35, 338]))
    assert cls.pattern is Pattern.A2
    assert cls.prime_roles == (5, 7, 11)
    # same pattern under a different prime-role assignment
    cls = classify_pattern(_seq(385, [22, 28, 77, 258]))
    assert cls.pattern is Pattern.A2
    assert cls.prime_roles == (7, 11, 5)


def test_classify_a1():
    cls = classify_pattern(_seq(385, [5, 28, 77, 275]))
    assert cls.pattern is Pattern.A1
    assert gcd_profile(_seq(385, [5, 28, 77, 275])).gcds == (5, 7, 77, 55)


def test_classify_a3_refined():
    # all gcds 1 and the shifted normal-form entries carry the three
    # pairwise prime products: n = 231 = 3*7*11, (a,b,c) = (34,43,76),
    # gcd(77,231) = 77, gcd(42,231) = 21, gcd(33,231) = 33.
    s = _seq(231, [1, 76, 188, 197])
    cls = classify_pattern(s)
    assert cls.pattern is Pattern.A3
    assert cls.prime_roles == (7, 11, 3)
    q = normalize_quad(s)
    assert (q.a, q.b, q.c) == (34, 43, 76)


def test_classify_other():
    assert classify_pattern(_seq(385, [1, 2, 5, 377])).pattern is Pattern.OTHER
    # non-three-prime modulus always classifies Other
    assert classify_pattern(_seq(25, [1, 6, 8, 10])).pattern is Pattern.OTHER


def test_classify_rejects_global_gcd():
    with pytest.raises(PreconditionViolated):
        classify_pattern(_seq(25, [5, 5, 5, 10]))


def test_classify_rejects_non_minimal():
    with pytest.raises(PreconditionViolated):
        classify_pattern(_seq(10, [2, 8, 5, 5]))
    with pytest.raises(PreconditionViolated):
        classify_pattern(_seq(11, [1, 10]))


def test_classify_orbit_invariant():
    rng = random.Random(5)
    for elems in [(35, 55, 77, 218), (5, 7, 35, 338), (5, 28, 77, 275)]:
        base = classify_pattern(_seq(385, elems))
        for _ in range(5):
            t = rng.choice([u for u in range(1, 385) if math.gcd(u, 385) == 1])
            scaled = _seq(385, [t * x % 385 for x in elems])
            assert classify_pattern(scaled) == base


def test_normalize_examples():
    q = normalize_quad(_seq(11, [1, 4, 8, 9]))
    assert (q.a, q.b, q.c, q.unit, q.reflected) == (2, 3, 4, 1, False)

    q = normalize_quad(_seq(11, [2, 8, 5, 7]))
    assert (q.a, q.b, q.c, q.unit) == (2, 3, 4, 6)

    q = normalize_quad(_seq(11, [1, 2, 3, 5]))
    assert (q.a, q.b, q.c, q.unit) == (2, 3, 4, 4)


def test_canonical_forms_build_no_table():
    # both canonical forms take their multipliers from pow: a large prime
    # modulus costs no table of n entries (about 170 MB at this n)
    n = 2000003
    seq = _seq(n, [1, 2, 3, n - 6])
    tracemalloc.start()
    try:
        rep = canonical_rep(seq)
        q = normalize_quad(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.elems == (1, 2, 3, n - 6)
    assert (q.a, q.b, q.c, q.unit) == (2, 666667, 666668, 666668)
    assert peak < 4_000_000


def test_normalize_requires_coprime_element():
    with pytest.raises(NoCoprimeElement):
        normalize_quad(_seq(15, [3, 3, 3, 6]))


def test_normalize_requires_minimal_quad():
    with pytest.raises(PreconditionViolated):
        normalize_quad(_seq(10, [2, 8, 5, 5]))
    with pytest.raises(PreconditionViolated):
        normalize_quad(_seq(7, [1, 1, 5]))


def test_normalized_quad_invariants():
    with pytest.raises(InvariantViolated):
        NormalizedQuad(n=11, a=2, b=3, c=5)  # 1 + c != a + b
    with pytest.raises(InvariantViolated):
        NormalizedQuad(n=11, a=1, b=4, c=4)  # a < 2
    with pytest.raises(InvariantViolated):
        NormalizedQuad(n=11, a=4, b=3, c=6)  # a > b
    with pytest.raises(InvariantViolated):
        NormalizedQuad(n=10, a=2, b=5, c=6)  # b, c must stay below n/2


def test_denormalize_examples():
    s = denormalize(NormalizedQuad(n=11, a=2, b=3, c=4))
    assert s.elems == (1, 4, 8, 9)
    s = denormalize(NormalizedQuad(n=385, a=35, b=70, c=104))
    assert s.elems == (1, 104, 315, 350)
    assert sum(s.elems) == 2 * 385


def test_normalize_round_trip():
    rng = random.Random(17)
    tried = 0
    while tried < 200:
        n = rng.randrange(9, 120)
        c = rng.randrange(2, (n - 1) // 2 + 1)
        b = rng.randrange((c + 2) // 2, c + 1)
        a = c + 1 - b
        if not (2 <= a <= b and 2 * b < n):
            continue
        tried += 1
        q = NormalizedQuad(n, a, b, c)
        s = denormalize(q)
        assert seq_norm(s, 1) == 2
        back = normalize_quad(s)
        assert (back.a, back.b, back.c) == (a, b, c)


def test_pattern_class_shape():
    assert classify_pattern(_seq(385, [1, 2, 5, 377])) == PatternClass(Pattern.OTHER)
