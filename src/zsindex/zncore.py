"""Exact arithmetic over Z_n: factorization, residues, units, inverses.

Residues use the representative convention |x|_n in [1, n]: the class of 0
is represented by n itself, every other class by its smallest positive
member.  All functions are exact integer arithmetic; nothing here floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ModulusOutOfRange, NotAUnit

MAX_MODULUS = 2**31


@dataclass(frozen=True)
class Modulus:
    """A modulus n with its prime factorization.

    factors is a tuple of (prime, multiplicity) pairs sorted by prime.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_MODULUS:
            raise ModulusOutOfRange(f"modulus must be in [2, 2^31], got {self.n}")
        prod = 1
        for p, mult in self.factors:
            prod *= p**mult
        if prod != self.n:
            raise ValueError("factorization does not multiply back to n")
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes):
            raise ValueError("factors must be sorted by prime")

    @property
    def coprime_to_6(self) -> bool:
        return math.gcd(self.n, 6) == 1

    @property
    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(mult == 1 for _, mult in self.factors)

    def phi(self) -> int:
        """Euler totient, from the stored factorization."""
        value = 1
        for p, mult in self.factors:
            value *= (p - 1) * p ** (mult - 1)
        return value

    def divisors(self) -> tuple[int, ...]:
        """All positive divisors of n in increasing order."""
        divs = [1]
        for p, mult in self.factors:
            divs = [d * p**e for d in divs for e in range(mult + 1)]
        return tuple(sorted(divs))


@lru_cache(maxsize=4096)
def factorize(n: int) -> Modulus:
    """Factor n by trial division (2, then odd p while p * p <= what is
    left) and wrap it as a Modulus, which rejects n outside [2, 2^31]
    with ModulusOutOfRange.  Divisors stop at sqrt(MAX_MODULUS), so an
    out-of-range n is rejected without being factored in full.
    """
    remaining = n
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= min(remaining, MAX_MODULUS):
        if remaining % p == 0:
            mult = 0
            while remaining % p == 0:
                remaining //= p
                mult += 1
            factors.append((p, mult))
        p += 1 if p == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return Modulus(n=n, factors=tuple(factors))


def modulus_range(lo: int, hi: int) -> range:
    """The moduli in [max(lo, 2), hi], both ends included; refused with
    ModulusOutOfRange before anything is listed if hi > MAX_MODULUS."""
    if hi > MAX_MODULUS:
        raise ModulusOutOfRange(f"modulus must be in [2, 2^31], got {hi}")
    return range(max(lo, 2), hi + 1)


def residue_rep(x: int, n: int) -> int:
    """The representative of x mod n in [1, n]; multiples of n map to n."""
    return (x - 1) % n + 1


def inv_mod(t: int, n: int) -> int:
    """Inverse of t mod n in [1, n-1]; raises NotAUnit if gcd(t, n) > 1."""
    try:
        return pow(t, -1, n)
    except ValueError:
        raise NotAUnit(f"{t} is not a unit mod {n}") from None
