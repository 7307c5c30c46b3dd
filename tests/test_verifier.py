"""Tests for enumeration, conjecture verification, witness search, and
the empirical validators."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from zsindex import (
    CeilMismatch,
    Counterexample,
    GroupSequence,
    InvariantViolated,
    LemmaSweepReport,
    NormalizedQuad,
    Pattern,
    PreconditionViolated,
    all_minimal_quad_classes,
    canonical_rep,
    classify_pattern,
    compute_k1,
    compute_s,
    denormalize,
    enumerate_minimal_quads,
    factorize,
    index_of,
    is_minimal_zero_sum,
    is_reduced,
    iter_minimal_tuples,
    naive_minimal_quad_classes,
    search_high_index,
    three_prime_moduli,
    validate_lemmas,
    validate_remark32,
    validate_theorem21,
    verify_conjecture,
    verifier,
    verify_many,
)
from test_lemmas import (
    _normal_form_quads,
    _ref_lemma33_cond1,
    _ref_lemma33_cond2,
    _ref_lemma34_cond,
    _ref_lemma35_cond,
)


def test_decomposition_matches_naive_spot():
    for n in (5, 11, 12, 24, 30, 45):
        assert set(all_minimal_quad_classes(n)) == set(naive_minimal_quad_classes(n))


def test_class_counts_frozen():
    assert len(all_minimal_quad_classes(25)) == 32
    assert len(all_minimal_quad_classes(12)) == 21


def test_orbit_appears_exactly_once():
    target = canonical_rep(GroupSequence.of(11, [1, 4, 8, 9])).elems
    classes = [s.elems for s in enumerate_minimal_quads(11)]
    assert classes.count(target) == 1
    assert len(classes) == len(set(classes))


def test_enumerate_filters_reduced():
    for s in enumerate_minimal_quads(35, require_reduced=True):
        assert is_reduced(s)
    reduced = sum(1 for _ in enumerate_minimal_quads(35, require_reduced=True))
    total = sum(1 for _ in enumerate_minimal_quads(35))
    assert 0 < reduced < total


def test_enumerate_pattern_filter_matches_congruence_scan():
    # A4 classes at n = 385 carry gcds {1, 35, 55, 77}; scanning the
    # one-unit representatives x = (1, 35*i, 55*j, 77*k) directly gives
    # an independent enumeration of the same classes.
    mod = factorize(385)
    scan = set()
    for i in range(1, 11):
        for j in range(1, 7):
            for k in range(1, 5):
                elems = (1, 35 * i, 55 * j, 77 * k)
                if sum(elems) % 385 != 0:
                    continue
                s = GroupSequence.of(385, elems)
                if is_minimal_zero_sum(s):
                    scan.add(canonical_rep(s).elems)
    stream = {s.elems for s in enumerate_minimal_quads(385, pattern=Pattern.A4)}
    assert stream == scan
    assert len(stream) == 1


def test_enumerate_coprime_element_space():
    # the coprime-element filter reads the d = 1 stripe, so every emitted
    # class contains a unit
    for s in enumerate_minimal_quads(25, require_coprime_element=True):
        assert any(math.gcd(x, 25) == 1 for x in s.elems)
        assert sum(s.elems) % 25 == 0


def test_enumerate_coprime_element_reads_only_the_unit_stripe(monkeypatch):
    # a class has a unit element iff its canonical member starts with 1,
    # so the coprime filter opens the d = 1 stripe alone, and the lazy
    # stream opens no later stripe before its first class
    real_stripe = verifier._stripe
    opened = []

    def stripe(n, d, *rest):
        opened.append(d)
        return real_stripe(n, d, *rest)

    monkeypatch.setattr(verifier, "_stripe", stripe)
    for n in (105, 385):
        opened.clear()
        list(enumerate_minimal_quads(n, require_coprime_element=True))
        assert opened == [1], n
        opened.clear()
        next(enumerate_minimal_quads(n))
        assert opened == [1], n
    # with reducedness too, exactly the classes theorem 2.1 checks,
    # including those with no normal form (all 5 at n = 385), against
    # the whole d = 1 stripe filtered by reducedness
    composite = [n for n in range(4, 201) if factorize(n).prime_divisors != (n,)]
    for n in [*composite, 385, 1001]:
        stream = enumerate_minimal_quads(n, True, True)
        assert [s.elems for s in stream] == _stripe_reduced_unit_classes(n), n


def test_enumerate_reduced_matches_class_filter():
    # the reduced enumeration walks each stripe through its anchors; the
    # reference filters every class by reducedness.  Covers the anchored
    # stripes d > 1, and the stripes walked in full because every residue
    # in them is an anchor: d = n/p of a prime power, and every prime n
    for n in [*range(4, 201), 231, 385, 455]:
        cofactors = tuple(n // p for p in factorize(n).prime_divisors)
        reference = [
            elems
            for elems in all_minimal_quad_classes(n)
            if verifier._is_reduced_quad_raw(n, elems, cofactors)
        ]
        stream = enumerate_minimal_quads(n, require_reduced=True)
        assert [s.elems for s in stream] == reference, n


def test_verify_conjecture_25():
    report = verify_conjecture(25)
    assert report.in_conjecture
    assert report.class_count == 32
    assert report.max_index == 1
    assert report.counterexamples == ()
    assert report.vacuous["pattern_census"] is True


def test_verify_conjecture_35():
    report = verify_conjecture(35)
    assert report.in_conjecture
    assert report.class_count == 79
    assert report.max_index == 1
    assert report.reduced_count == 38
    assert report.vacuous["pattern_census"] is True


def test_verify_conjecture_12_out_of_domain():
    report = verify_conjecture(12)
    assert not report.in_conjecture
    assert report.class_count == 21
    assert report.max_index == 2
    found = {c.elems for c in report.counterexamples}
    assert found == {
        (1, 4, 9, 10),
        (1, 5, 9, 9),
        (1, 6, 7, 10),
        (1, 6, 8, 9),
        (1, 7, 8, 8),
        (2, 6, 8, 8),
    }
    for c in report.counterexamples:
        r = index_of(GroupSequence.of(12, c.elems))
        assert r.numerator == c.index_numerator == 24
        assert c.index_value == Fraction(2)


def test_verify_many_worker_count_invariance():
    ns = [12, 25, 35]
    runs = []
    for jobs in (1, 2):
        reports = verify_many(ns, jobs=jobs)
        runs.append(
            [
                (r.n, r.class_count, r.max_index, tuple(c.elems for c in r.counterexamples))
                for _, r, _ in reports
            ]
        )
    assert runs[0] == runs[1]
    assert [row[0] for row in runs[0]] == sorted(ns)


def test_verify_many_on_result_callback():
    seen = []
    verify_many([25, 12], jobs=1, on_result=lambda n, rep, err: seen.append((n, err)))
    assert sorted(seen) == [(12, None), (25, None)]


def test_iter_minimal_tuples_complete():
    n, k = 10, 5
    mod = factorize(n)
    brute = {
        t
        for t in combinations_with_replacement(range(1, n), k)
        if sum(t) % n == 0 and is_minimal_zero_sum(GroupSequence(mod, t))
    }
    walked = list(iter_minimal_tuples(n, k))
    assert set(walked) == brute
    assert len(walked) == len(brute)


def _brute_high_index(n, k):
    """(n, class, index numerator) of every minimal zero-sum k-class over
    Z_n with index >= 2, from all sorted k-multisets, in class order."""
    units = [t for t in range(1, n) if math.gcd(t, n) == 1]
    found = {}
    for elems in combinations_with_replacement(range(1, n), k):
        if sum(elems) % n:
            continue
        if any(
            sum(x for i, x in enumerate(elems) if mask >> i & 1) % n == 0
            for mask in range(1, 2**k - 1)
        ):
            continue
        num = min(sum(t * x % n for x in elems) for t in units)
        if num >= 2 * n:
            canon = min(tuple(sorted(t * x % n for x in elems)) for t in units)
            found[canon] = num
    return [(n, canon, num) for canon, num in sorted(found.items())]


def test_search_exhaustive_k4():
    hits = search_high_index(2, 20, 4)
    assert all(math.gcd(h.n, 6) != 1 for h in hits)
    assert (hits[0].n, hits[0].elems) == (6, (1, 3, 4, 4))
    by_n = {}
    for h in hits:
        by_n.setdefault(h.n, []).append(h.elems)
        r = index_of(GroupSequence.of(h.n, h.elems))
        assert r.numerator == h.index_numerator
        assert r.value >= 2
    assert sorted(by_n) == [6, 8, 9, 10, 12, 14, 15, 16, 18, 20]
    # the whole hit list, in order, against a brute force over multisets
    for k in (4, 5, 6):
        expected = [hit for n in range(5, 15) for hit in _brute_high_index(n, k)]
        assert expected
        got = [(h.n, h.elems, h.index_numerator) for h in search_high_index(5, 14, k)]
        assert got == expected


def test_search_k3_empty():
    assert search_high_index(2, 60, 3) == []


def test_search_limit_and_min_index():
    hits = search_high_index(2, 20, 4, limit=3)
    assert len(hits) == 3
    assert hits == search_high_index(2, 20, 4)[:3]
    assert search_high_index(2, 20, 4, limit=0) == []
    assert search_high_index(2, 20, 4, min_index=3) == []


def test_search_random_mode():
    exhaustive = {h.elems for h in search_high_index(12, 12, 4)}
    sampled = search_high_index(12, 12, 4, mode="random", samples=4000, seed=3)
    assert sampled
    for h in sampled:
        assert h.n == 12 and h.elems in exhaustive


def test_search_guards():
    with pytest.raises(PreconditionViolated):
        search_high_index(2, 20, 9)
    with pytest.raises(PreconditionViolated):
        search_high_index(2, 20, 4, mode="guess")
    with pytest.raises(PreconditionViolated):
        search_high_index(2, 20, 4, limit=-1)


def test_delegation_cross_check():
    # classes with global gcd d > 1 must agree with their compressed
    # image over Z_{n/d} on both minimality and index
    for n in range(8, 121):
        for elems in all_minimal_quad_classes(n):
            g = math.gcd(math.gcd(*elems), n)
            if g == 1:
                continue
            inner = GroupSequence.of(n // g, [x // g for x in elems])
            assert is_minimal_zero_sum(inner)
            assert (
                index_of(GroupSequence.of(n, elems)).value
                == index_of(inner).value
            )


def test_theorem21_385():
    report = validate_theorem21(385)
    assert report.prime_count == 3
    assert report.qualifying_count == 5
    assert report.census == {"A2": 3, "A3": 1, "A4": 1}
    assert report.a3_without_normal_form == 1
    assert report.anomalies == ()
    assert not report.vacuous


def test_theorem21_1001():
    report = validate_theorem21(1001)
    assert report.qualifying_count == 5
    assert report.census == {"A2": 3, "A3": 1, "A4": 1}
    assert report.a3_without_normal_form == 0
    assert report.anomalies == ()


def _unpruned_stripe(n, d):
    # every sorted minimal zero-sum quad (d, y2, y3, y4), y4 forced, whose
    # elements have gcd(y, n) >= d, with no pruning.  A zero-sum quad is
    # minimal iff no element is 0 or -d: a vanishing triple leaves a zero
    # element, and a vanishing pair leaves another, one of them holding d
    ok = [y != n - d and math.gcd(y, n) >= d for y in range(n)]
    ok[0] = False
    for y2 in range(d, n):
        if ok[y2]:
            for y3 in range(y2, n):
                y4 = (-d - y2 - y3) % n
                if y4 >= y3 and ok[y3] and ok[y4]:
                    yield (d, y2, y3, y4)


def _stripe_reduced_unit_classes(n):
    # reference: filter the whole d = 1 stripe by reducedness and canonicity
    cofactors = tuple(n // p for p in factorize(n).prime_divisors)
    return [
        quad
        for quad in _unpruned_stripe(n, 1)
        if verifier._is_reduced_quad_raw(n, quad, cofactors)
        and verifier._canonical_tuple(n, quad, 1) == quad
    ]


def test_stripe_yields_exactly_its_canonical_quads():
    # the cross-image decision, ties included, against the full canonical
    # form, on every proper divisor of n <= 120, the unit stripe of 385,
    # and every stripe of 105 and 1001, where some divisor above d is not
    # a multiple of d and the quads holding it go to _canonical_tuple
    cases = [(n, d) for n in range(4, 121) for d in factorize(n).divisors()[:-1]]
    cases += [(385, 1)]
    cases += [(n, d) for n in (105, 1001) for d in factorize(n).divisors()[:-1]]
    for n, d in cases:
        expected = [
            quad
            for quad in _unpruned_stripe(n, d)
            if verifier._canonical_tuple(n, quad, d) == quad
        ]
        assert list(verifier._stripe(n, d)) == expected, (n, d)


def test_reduced_unit_classes_match_stripe_filter():
    # prime powers, even n, and three- and four-prime moduli, the inputs
    # the validators pass; a prime n makes every residue an anchor, so
    # its candidates cost O(n^2) and only primes below 60 are checked
    composite = [n for n in range(4, 201) if factorize(n).prime_divisors != (n,)]
    primes = [n for n in range(4, 60) if factorize(n).prime_divisors == (n,)]
    for n in [*primes, *composite, 231, 385, 1001, 1155, 1309, 2431]:
        assert verifier._reduced_unit_classes(n) == _stripe_reduced_unit_classes(n), n


def test_main_theorem_reduced_unit_classes_have_index_1():
    # the paper's main theorem: for gcd(n, 6) = 1 a reduced minimal
    # zero-sum quad with a unit element has index 1; at a prime it is the
    # whole conjecture, which verify checks, so only composites run here
    moduli = [
        n
        for n in range(5, 1001)
        if math.gcd(n, 6) == 1 and factorize(n).prime_divisors != (n,)
    ]
    classes = [(n, q) for n in moduli for q in verifier._reduced_unit_classes(n)]
    assert (len(moduli), len(classes)) == (166, 124770)
    assert [c for c in classes if verifier._index_numerator(*c)[0] != c[0]] == []


def test_main_theorem_fails_without_coprime_to_6():
    # the boundary: off gcd(n, 6) = 1 reduced unit-element classes of
    # index 2 exist, among them these four at n = 6, 8, 9 and 15
    high = {}
    for n in range(4, 301):
        if math.gcd(n, 6) == 1 or factorize(n).prime_divisors == (n,):
            continue
        for q in verifier._reduced_unit_classes(n):
            num, _ = verifier._index_numerator(n, q)
            if num != n:
                high.setdefault(n, []).append((q, Fraction(num, n)))
    assert len(high) == 65
    assert {index for found in high.values() for _, index in found} == {2}
    assert ((1, 3, 4, 4), 2) in high[6]
    assert ((1, 4, 5, 6), 2) in high[8]
    assert ((1, 4, 6, 7), 2) in high[9]
    assert ((1, 6, 10, 13), 2) in high[15]


def test_theorem21_survey_1000_3000():
    moduli = three_prime_moduli(1000, 3000)
    assert len(moduli) == 54
    for n in moduli:
        report = validate_theorem21(n)
        assert report.qualifying_count == 5, n
        assert report.census == {"A2": 3, "A3": 1, "A4": 1}, n
        assert report.anomalies == (), n


def test_theorem21_anomaly_records(monkeypatch):
    # no real modulus yields an anomaly, so feed the validator one class
    # per anomaly kind: a gcd multiset outside A1-A4, and any class at all
    # over a four-prime modulus
    for n, elems, detail in (
        (385, (1, 5, 5, 374), "reduced class outside the gcd-multiset statements"),
        (1155, (1, 1, 1, 1152), "reduced unit-element class over a 4-prime modulus"),
    ):
        monkeypatch.setattr(verifier, "_reduced_unit_classes", lambda _n: [elems])
        report = validate_theorem21(n)
        assert report.anomalies == (
            Counterexample(
                n=n,
                elems=elems,
                index_numerator=index_of(GroupSequence.of(n, elems)).numerator,
                context="theorem21",
                detail=detail,
            ),
        )
        assert report.census == {} and report.qualifying_count == 1


def test_census_keys_in_pattern_order():
    # equal censuses print alike: keys follow Pattern, not the order in
    # which the classes were met
    assert list(validate_theorem21(1374).census) == ["A2", "A4"]
    assert list(validate_theorem21(1390).census) == ["A2", "A4"]
    assert list(verify_conjecture(110).pattern_census) == ["A1", "A2", "A4"]
    assert list(verify_conjecture(105).pattern_census) == ["A1", "A2", "A4", "Other"]
    assert list(validate_remark32(1000, 1400).census) == ["A2", "A3", "A4"]


def test_theorem21_guards():
    with pytest.raises(PreconditionViolated):
        validate_theorem21(25)
    with pytest.raises(PreconditionViolated):
        validate_theorem21(35)
    with pytest.raises(PreconditionViolated):
        validate_theorem21(4 * 9 * 25)


def test_validate_lemmas_25():
    report = validate_lemmas(25)
    assert report.quad_count == 30
    assert report.fired == {"33.1": 29, "33.2": 30, "34": 30, "35": 14}
    assert all(not v for v in report.violations.values())
    assert report.findings_34 == ()
    assert report.vacuous == {"lemma35": False, "probes": True}


def test_validate_lemmas_even_modulus_misfires():
    # the second collapse condition and the final-clause condition both
    # misfire at n = 10 on the index-2 quad (1, 3, 8, 8)
    report = validate_lemmas(10)
    assert [c.elems for c in report.violations["33.2"]] == [(1, 3, 8, 8)]
    assert [c.elems for c in report.findings_34] == [(1, 3, 8, 8)]
    assert report.violations["33.1"] == ()
    assert report.violations["35"] == ()
    # the interval-family condition first misfires at n = 18
    report = validate_lemmas(18)
    assert any(c.elems == (1, 5, 14, 16) for c in report.violations["35"])


def test_validate_lemmas_k1_probe_propagates_unexpected_errors(monkeypatch):
    # the probe catches no error: one raised by its k1 kernel escapes
    import zsindex.verifier as verifier

    def broken(n, b, c):
        raise TypeError("not a documented k1 failure")

    monkeypatch.setattr(verifier, "_k1", broken)
    with pytest.raises(TypeError, match="not a documented"):
        validate_lemmas(1001)


def _ref_validate_lemmas(n):
    # the sweep as one index_of per normal form and one test-local
    # reference scan per condition, sharing no kernel with the row sweep
    fired = {"33.1": 0, "33.2": 0, "34": 0, "35": 0}
    violations = {"33.1": [], "33.2": [], "35": []}
    findings_34 = []
    probe_s = []
    probe_k1 = []
    k1_undefined = 0
    quad_count = 0
    s_applicable = 0
    for a, b, c in _normal_form_quads(n):
        quad = NormalizedQuad(n, a, b, c)
        quad_count += 1
        result = index_of(denormalize(quad))
        s = compute_s(quad)
        s_applicable += s >= 2
        witnesses = {
            "33.1": _ref_lemma33_cond1(n, a, b, c)[1],
            "33.2": _ref_lemma33_cond2(n, a, b, c)[1],
            "34": _ref_lemma34_cond(n, a, b, c)[1],
        }
        if s >= 2:
            witnesses["35"] = _ref_lemma35_cond(n, a, b, c)[1]
        for name, witness in witnesses.items():
            if witness is None:
                continue
            fired[name] += 1
            if result.value == 1:
                continue
            record = Counterexample(
                n=n,
                elems=quad.elems,
                index_numerator=result.numerator,
                context=f"lemma-{name}",
                detail=f"(a,b,c)=({a},{b},{c}), witness {witness}",
            )
            (findings_34 if name == "34" else violations[name]).append(record)
        if n > 1000 and witnesses.get("35") is None:
            if s > 9:
                probe_s.append((n, a, b, c))
            try:
                if compute_k1(quad) > 6:
                    probe_k1.append((n, a, b, c))
            except InvariantViolated:
                k1_undefined += 1
            except CeilMismatch:
                pass
    return LemmaSweepReport(
        n=n,
        quad_count=quad_count,
        fired=fired,
        violations={k: tuple(v) for k, v in violations.items()},
        findings_34=tuple(findings_34),
        probe_s_violations=tuple(probe_s),
        probe_k1_violations=tuple(probe_k1),
        k1_undefined=k1_undefined,
        vacuous={"lemma35": s_applicable == 0, "probes": n <= 1000},
        elapsed=0.0,
    )


def test_validate_lemmas_matches_outcome_sweep(monkeypatch):
    # the row sweep against the per-quad reference sweep, field for
    # field; even n and multiples of 3 bring violations and findings,
    # 1001 and 1020 the probes.  A quad whose 33.1 witness certifies
    # index 1 skips the index kernel, so the kernel runs exactly on the
    # quads where 33.1 does not fire; at 480 that is 3,409 of 14,161, so
    # both paths are taken.  At 1020 = 4 * 3 * 5 * 17, 33.2 misses one
    # quad and 34 has one finding
    import zsindex.verifier as verifier

    scans = 0
    index_numerator = verifier._index_numerator

    def counting(*args):
        nonlocal scans
        scans += 1
        return index_numerator(*args)

    monkeypatch.setattr(verifier, "_index_numerator", counting)
    seen = {"violations": 0, "findings_34": 0}
    quads_and_scans = {}
    for n in [*range(5, 131), 420, 480, 1001, 1020]:
        scans = 0
        got = dataclasses.asdict(dataclasses.replace(validate_lemmas(n), elapsed=0.0))
        assert got == dataclasses.asdict(_ref_validate_lemmas(n)), n
        assert scans == got["quad_count"] - got["fired"]["33.1"], n
        quads_and_scans[n] = (got["quad_count"], scans)
        seen["violations"] += sum(map(len, got["violations"].values()))
        seen["findings_34"] += len(got["findings_34"])
    assert min(seen.values()) > 0
    assert quads_and_scans[480] == (14161, 3409)
    assert (got["quad_count"], got["fired"]["33.2"]) == (64516, 64515)
    assert len(got["findings_34"]) == 1


def test_three_prime_moduli_window():
    assert three_prime_moduli(1000, 1500) == [
        1001, 1015, 1045, 1085, 1105, 1235, 1265, 1295, 1309, 1435, 1463, 1495,
    ]


def test_validate_remark32_below_domain_is_vacuous():
    # at n = 385 every bounded-pattern class has element sum n, which
    # admits no normal form, so the range is fully vacuous
    report = validate_remark32(380, 390)
    assert report.checked_moduli == (385,)
    assert report.qualifying_count == 0
    assert report.census == {}
    assert report.vacuous_moduli == (385,)
    assert report.violations == ()


def test_validate_remark32_on_domain_slice():
    report = validate_remark32(1000, 1100)
    assert report.checked_moduli == (1001, 1015, 1045, 1085)
    assert report.qualifying_count == 10
    assert report.census == {"A2": 6, "A3": 3, "A4": 1}
    assert report.violations == ()
    assert report.vacuous_moduli == ()


def test_counterexample_value():
    c = Counterexample(n=12, elems=(1, 4, 9, 10), index_numerator=24, context="x")
    assert c.index_value == Fraction(2)
