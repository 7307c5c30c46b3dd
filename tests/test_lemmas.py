"""Tests for the interval machinery and the index-1 sufficient conditions."""

import math
import random
from fractions import Fraction

import pytest

from zsindex import (
    CeilMismatch,
    HypothesisViolated,
    IntervalQ,
    InvariantViolated,
    LemmaOutcome,
    NormalizedQuad,
    Pattern,
    PatternClass,
    SNotLargeEnough,
    WrongPattern,
    assumption_b,
    compute_k1,
    compute_s,
    denormalize,
    index_of,
    interval_integers,
    lemma33_cond1,
    lemma33_cond2,
    lemma34_cond,
    lemma35_cond,
    lemma51_bound,
    omega_build,
    remark32_check,
)
from zsindex.classify import _normal_form_rows
from zsindex.lemmas import _lemma33_cond1, _lemma33_cond2


def test_interval_integers_examples():
    assert interval_integers(IntervalQ(Fraction(11, 4), Fraction(11, 3))) == [3]
    assert interval_integers(
        IntervalQ(Fraction(22, 5), Fraction(22, 4), hi_closed=False)
    ) == [5]
    assert interval_integers(
        IntervalQ(Fraction(7, 2), Fraction(4), lo_closed=False, hi_closed=False)
    ) == []


def test_interval_endpoint_flags():
    closed = IntervalQ(Fraction(3), Fraction(5))
    assert interval_integers(closed) == [3, 4, 5]
    assert interval_integers(IntervalQ(Fraction(3), Fraction(5), lo_closed=False)) == [4, 5]
    assert interval_integers(IntervalQ(Fraction(3), Fraction(5), hi_closed=False)) == [3, 4]


def test_interval_rejects_reversed():
    with pytest.raises(InvariantViolated):
        IntervalQ(Fraction(5), Fraction(3))


def test_lemma33_cond1_example():
    out = lemma33_cond1(NormalizedQuad(11, 2, 3, 4))
    assert out.fired
    assert out.witness == (1, 3)
    # the witness satisfies the stated inequalities exactly
    k, m = out.witness
    assert Fraction(k * 11, 4) <= m <= Fraction(k * 11, 3)
    assert math.gcd(m, 11) == 1 and 1 <= k <= 3 and m * 2 < 11
    assert index_of(denormalize(NormalizedQuad(11, 2, 3, 4))).value == 1


def test_lemma33_cond2_example():
    out = lemma33_cond2(NormalizedQuad(11, 2, 3, 4))
    assert out.fired
    assert out.witness == (3,)
    # M = 3: |6| and |9| both exceed 11/2; M = 1 satisfies only one
    assert (2 * 6 > 11) and (2 * 9 > 11)
    assert (2 * 2 > 11, 2 * 3 > 11, 2 * 4 < 11).count(True) == 1


def test_lemma34_example():
    out = lemma34_cond(NormalizedQuad(11, 2, 3, 4))
    assert out.fired
    assert out.witness == (1, 3)
    assert 2 <= Fraction(1 * 11, 3)


def test_lemma35_needs_s_at_least_2():
    with pytest.raises(SNotLargeEnough):
        lemma35_cond(NormalizedQuad(11, 2, 3, 4))


def test_lemma35_fires():
    quad = NormalizedQuad(11, 2, 4, 5)
    assert compute_s(quad) == 2
    out = lemma35_cond(quad)
    assert out.fired
    t, m = out.witness
    s = 2
    assert Fraction((2 * s - 2 * t - 1) * 11, 2 * 4) <= m <= Fraction((s - t) * 11, 4)
    assert math.gcd(m, 11) == 1


def test_compute_s():
    assert compute_s(NormalizedQuad(21, 2, 9, 10)) == 4
    assert compute_s(NormalizedQuad(11, 2, 3, 4)) == 1


def test_compute_k1_example():
    quad = NormalizedQuad(11, 2, 4, 5)
    assert compute_k1(quad) == 2


def test_compute_k1_ceil_guard():
    with pytest.raises(CeilMismatch):
        compute_k1(NormalizedQuad(11, 2, 3, 4))


def test_compute_k1_range_property():
    # whenever defined, 2 <= k1 <= b
    rng = random.Random(23)
    checked = 0
    while checked < 150:
        n = rng.randrange(9, 400)
        c = rng.randrange(2, (n - 1) // 2 + 1)
        b = rng.randrange((c + 2) // 2, c + 1)
        a = c + 1 - b
        if not (2 <= a <= b and 2 * b < n):
            continue
        quad = NormalizedQuad(n, a, b, c)
        try:
            k1 = compute_k1(quad)
        except CeilMismatch:
            continue
        checked += 1
        assert 2 <= k1 <= b


def test_assumption_b():
    assert assumption_b(NormalizedQuad(11, 2, 3, 4)) is True  # s < 2, vacuous
    assert assumption_b(NormalizedQuad(11, 2, 4, 5)) is False  # lemma 35 fires


def test_omega_single_interval_when_s_is_2():
    quad = NormalizedQuad(13, 2, 5, 6)
    assert compute_s(quad) == 2
    omega = omega_build(quad)
    assert omega == [IntervalQ(Fraction(3 * 13, 10), Fraction(2 * 13, 5))]


def test_omega_lower_coefficient_variants():
    quad = NormalizedQuad(21, 2, 9, 10)  # s = 4, intervals for t = 0, 1
    omega = omega_build(quad)
    assert len(omega) == 2
    # the lower coefficient is 2s - 2t - 1: 7 at t = 0, 5 at t = 1
    assert omega[0] == IntervalQ(Fraction(7 * 21, 18), Fraction(4 * 21, 9))
    assert omega[1] == IntervalQ(Fraction(5 * 21, 18), Fraction(3 * 21, 9))


def test_lemma51_anchors():
    assert lemma51_bound(2, 4, 7, 9) == Fraction(240)
    assert lemma51_bound(2, 4, 6, 8) == Fraction(360)
    assert lemma51_bound(5, 8, 2, 2) == Fraction(60)


def test_lemma51_accepts_rationals():
    # u = 5/2: denom = 15 - 10 = 5, bound = (5/2)*4*6*10 / 5 = 120
    assert lemma51_bound(Fraction(5, 2), 4, 7, 9) == Fraction(120)


def test_lemma51_hypothesis_guard():
    with pytest.raises(HypothesisViolated):
        lemma51_bound(2, 4, 2, 9)
    with pytest.raises(HypothesisViolated):
        lemma51_bound(1, 1, 4, 2)  # u(k1-1) == s+1 boundary


def test_remark32_boundaries():
    a36 = NormalizedQuad(150, 36, 36, 71)
    a35 = NormalizedQuad(150, 35, 36, 70)
    a34 = NormalizedQuad(150, 34, 40, 73)
    assert remark32_check(a36, Pattern.A3) is True
    assert remark32_check(a35, Pattern.A3) is False
    assert remark32_check(a35, Pattern.A2) is True
    assert remark32_check(a34, Pattern.A4) is False
    assert remark32_check(a36, PatternClass(Pattern.A4, (5, 7, 11))) is True


def test_remark32_rejects_other_patterns():
    quad = NormalizedQuad(150, 36, 36, 71)
    with pytest.raises(WrongPattern):
        remark32_check(quad, Pattern.A1)
    with pytest.raises(WrongPattern):
        remark32_check(quad, Pattern.OTHER)


def test_conditions_sound_on_small_moduli():
    # exhaustive small-n sweep: the first collapse condition is sound for
    # every modulus; the remaining conditions are asserted only where the
    # modulus is coprime to 6 (they are known to misfire at some even n)
    for n in range(9, 61):
        coprime6 = math.gcd(n, 6) == 1
        for c in range(2, (n - 1) // 2 + 1):
            for b in range((c + 2) // 2, c):
                a = c + 1 - b
                if a < 2 or a > b:
                    continue
                quad = NormalizedQuad(n, a, b, c)
                value = index_of(denormalize(quad)).value
                if lemma33_cond1(quad).fired:
                    assert value == 1, (n, a, b, c, "33.1")
                if not coprime6:
                    continue
                fired = [lemma33_cond2(quad).fired, lemma34_cond(quad).fired]
                if compute_s(quad) >= 2:
                    fired.append(lemma35_cond(quad).fired)
                if any(fired):
                    assert value == 1, (n, a, b, c)


def _normal_form_quads(n):
    # every (a, b, c) of the normal form over Z_n, by c then b
    for c, bs in _normal_form_rows(n):
        for b in bs:
            yield c + 1 - b, b, c


def _ref_lemma33_cond1(n, a, b, c):
    # unbounded k-scan: every k in [1, b], empty m-ranges included
    m_cap = (n - 1) // a
    for k in range(1, b + 1):
        lo = -((-k * n) // c)
        hi = min(k * n // b, m_cap)
        for m in range(lo, hi + 1):
            if math.gcd(m, n) == 1:
                return True, (k, m)
    return False, None


def _ref_lemma34_cond(n, a, b, c):
    # unbounded k-scan: every k in [1, b], skipping those with ab > kn
    for k in range(1, b + 1):
        if a * b > k * n:
            continue
        lo = -((-k * n) // c)
        hi = k * n // b
        for m in range(lo, hi + 1):
            if math.gcd(m, n) == 1:
                return True, (k, m)
    return False, None


def _ref_lemma33_cond2(n, a, b, c):
    # every M in [1, n/2], the three inequalities on exact rationals
    half = Fraction(n, 2)
    for big_m in range(1, n // 2 + 1):
        if math.gcd(big_m, n) != 1:
            continue
        hits = [
            big_m * a % n > half,
            big_m * b % n > half,
            big_m * c % n < half,
        ]
        if hits.count(True) >= 2:
            return True, (big_m,)
    return False, None


def _ref_lemma35_cond(n, a, b, c):
    # the intervals of the --omega display, with a window one wider than
    # each on both sides, each m tested against the exact endpoints
    for t, interval in enumerate(omega_build(NormalizedQuad(n, a, b, c))):
        lo, hi = interval.lo, interval.hi
        for m in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            if lo <= m <= hi and math.gcd(m, n) == 1:
                return True, (t, m)
    return False, None


def _ref_compute_k1(n, b, c):
    # unbounded downward k-scan from b; the exception type is the result
    def ceil_div(p, q):
        return -((-p) // q)

    if ceil_div(n, c) != ceil_div(n, b):
        return CeilMismatch
    for k in range(b, 0, -1):
        if ceil_div((k - 1) * n, c) != ceil_div((k - 1) * n, b):
            continue
        if ceil_div(k * n, c) <= ceil_div(k * n, b) - 1:
            return k
    return InvariantViolated


def _k1_or_error(quad):
    try:
        return compute_k1(quad)
    except (CeilMismatch, InvariantViolated) as exc:
        return type(exc)


def test_bounded_k_scans_match_unbounded_references():
    # the scans of 33.1, 34 and compute_k1 start and stop at bounds their
    # intervals imply; every normal form of n = 5..150, 420 and 1013 must
    # give the witness, fired flag and k1 of the full scans, and the
    # public wrappers of all four conditions must agree with the
    # references; 34 fires on every form, which the lemma sweep's count
    # relies on
    forms = 0
    for n in [*range(5, 151), 420, 1013]:
        for a, b, c in _normal_form_quads(n):
            forms += 1
            quad = NormalizedQuad(n, a, b, c)
            out = lemma33_cond1(quad)
            assert (out.fired, out.witness) == _ref_lemma33_cond1(n, a, b, c), quad
            out = lemma33_cond2(quad)
            assert (out.fired, out.witness) == _ref_lemma33_cond2(n, a, b, c), quad
            out = lemma34_cond(quad)
            assert (out.fired, out.witness) == _ref_lemma34_cond(n, a, b, c), quad
            assert out.fired, quad
            if b // a >= 2:
                out = lemma35_cond(quad)
                assert (out.fired, out.witness) == _ref_lemma35_cond(n, a, b, c), quad
            assert _k1_or_error(quad) == _ref_compute_k1(n, b, c), quad
    assert forms > 140_000


def _check_row_kernel(kernel, ref, ns, seed):
    # a row kernel against a per-quad reference, b by b, on every row of
    # each n: the empty row c = 2, and each full row with its lower half,
    # upper half and two seeded sub-windows; returns the windows checked
    rng = random.Random(seed)
    windows = 0
    for n in ns:
        for c, bs in _normal_form_rows(n):
            want = [ref(n, c + 1 - b, b, c)[1] for b in bs]
            lo, hi = bs.start, bs.stop - 1
            if not bs:
                assert kernel(n, c, lo, hi) == []
                continue
            mid = (lo + hi) // 2
            subs = [(lo, hi), (lo, mid), (mid + 1, hi)]
            for _ in range(2):
                x, y = sorted(rng.randint(lo, hi) for _ in range(2))
                subs.append((x, y))
            for x, y in subs:
                got = kernel(n, c, x, y)
                assert got == want[x - lo:y - lo + 1], (n, c, x, y)
                windows += 1
    return windows


def test_lemma33_row_kernel_matches_reference():
    # the 33.1 row kernel against the unbounded per-quad scan on n =
    # 5..150, 420 and 1013
    ns = [*range(5, 151), 420, 1013]
    assert _check_row_kernel(_lemma33_cond1, _ref_lemma33_cond1, ns, 331) > 5_000


def test_lemma33_cond2_row_kernel_matches_reference():
    # the 33.2 row kernel against the scan of every M on exact rationals,
    # on odd and even n = 5..150, 420 and 1020; on an odd n the row test
    # r > n // 2 differs from r >= n // 2 at r = (n - 1) / 2
    ns = [*range(5, 151), 420, 1020]
    assert _check_row_kernel(_lemma33_cond2, _ref_lemma33_cond2, ns, 332) > 5_000


def test_lemma33_witness_norm_is_n():
    # a 33.1 witness (k, m) certifies index 1: the norm of (1, c, n-b,
    # n-a) under m is exactly n, for every normal form where 33.1 fires
    checked = 0
    for n in [*range(5, 201), 420, 480]:
        for c, bs in _normal_form_rows(n):
            for b, witness in zip(bs, _lemma33_cond1(n, c, bs.start, bs.stop - 1)):
                if witness is None:
                    continue
                m = witness[1]
                quad = NormalizedQuad(n, c + 1 - b, b, c)
                assert sum(m * x % n for x in quad.elems) == n, (quad, witness)
                checked += 1
    assert checked > 100_000



def test_lemma33_cond1_covers_every_form_exactly_when_5_does_not_divide_n():
    # for n <= 700 coprime to 6, 33.1 fires on every normal form when
    # 5 does not divide n, and misses at least one form at every
    # multiple of 5 from 25 on (n = 5 has no normal form at all)
    missed = []
    for n in range(5, 701):
        if math.gcd(n, 6) != 1:
            continue
        for c, bs in _normal_form_rows(n):
            if None in _lemma33_cond1(n, c, bs.start, bs.stop - 1):
                missed.append(n)
                break
    assert missed == [n for n in range(25, 701, 5) if math.gcd(n, 6) == 1]

def test_wrapper_outcomes_pinned():
    # every field of each public wrapper's outcome, the detail included
    quad = NormalizedQuad(11, 2, 4, 5)
    assert [lemma33_cond1(quad), lemma33_cond2(quad), lemma34_cond(quad),
            lemma35_cond(quad)] == [
        LemmaOutcome("33.1", True, (2, 5), "k=2, m=5"),
        LemmaOutcome("33.2", True, (3,), "M=3"),
        LemmaOutcome("34", True, (2, 5), "k=2, m=5"),
        LemmaOutcome("35", True, (0, 5), "t=0, m=5"),
    ]
