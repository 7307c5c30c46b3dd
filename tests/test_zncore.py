"""Tests for modular arithmetic primitives: factorization, residues, units."""

import math
import random

import pytest

from zsindex import Modulus, NotAUnit, factorize, inv_mod, residue_rep


def test_factorize_385():
    mod = factorize(385)
    assert mod.n == 385
    assert mod.factors == ((5, 1), (7, 1), (11, 1))
    assert mod.coprime_to_6 is True
    assert mod.is_squarefree


def test_factorize_1001():
    mod = factorize(1001)
    assert mod.factors == ((7, 1), (11, 1), (13, 1))


def test_factorize_prime_power():
    mod = factorize(9)
    assert mod.factors == ((3, 2),)
    assert mod.coprime_to_6 is False
    assert not mod.is_squarefree
    # the top of the range: the largest prime square and a Mersenne prime
    assert factorize(46337**2).factors == ((46337, 2),)
    assert factorize(2**31 - 1).factors == ((2**31 - 1, 1),)


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-7)


def test_factorize_rejects_oversized():
    with pytest.raises(ValueError):
        factorize(2**31 + 1)
    # a prime far above the range is rejected without being factored
    with pytest.raises(ValueError):
        factorize(2**89 - 1)


def test_factorize_roundtrip_random():
    rng = random.Random(20250825)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        mod = factorize(n)
        prod = 1
        for p, mult in mod.factors:
            assert mult >= 1
            prod *= p**mult
        assert prod == n
        primes = [p for p, _ in mod.factors]
        assert primes == sorted(primes)
        assert len(primes) == len(set(primes))


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(n=12, factors=((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Modulus(n=15, factors=((5, 1), (3, 1)))
    with pytest.raises(ValueError):
        Modulus(n=1, factors=())


def test_residue_rep_examples():
    assert residue_rep(38, 7) == 3
    assert residue_rep(-1, 7) == 6
    assert residue_rep(14, 7) == 7


def test_residue_rep_range_and_congruence():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(2, 5000)
        x = rng.randrange(-10**9, 10**9)
        r = residue_rep(x, n)
        assert 1 <= r <= n
        assert (r - x) % n == 0


def test_inv_mod_examples():
    assert inv_mod(3, 7) == 5
    for n in (2, 7, 10, 385, 9973):
        assert inv_mod(1, n) == 1
    with pytest.raises(NotAUnit):
        inv_mod(5, 10)


def test_inv_mod_property():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(2, 10**6)
        t = rng.randrange(1, n)
        if math.gcd(t, n) != 1:
            with pytest.raises(NotAUnit):
                inv_mod(t, n)
        else:
            assert residue_rep(t * inv_mod(t, n), n) % n == 1


def units(n):
    return [r for r in range(n) if math.gcd(r, n) == 1]


def test_units_small():
    assert units(10) == [1, 3, 7, 9]
    assert units(7) == [1, 2, 3, 4, 5, 6]


def test_units_count_matches_phi():
    assert factorize(385).phi() == 240
    assert len(units(385)) == 240
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 3000)
        assert len(units(n)) == factorize(n).phi()


def test_divisors():
    assert factorize(12).divisors() == (1, 2, 3, 4, 6, 12)
    assert factorize(385).divisors() == (1, 5, 7, 11, 35, 55, 77, 385)
    assert factorize(13).divisors() == (1, 13)
