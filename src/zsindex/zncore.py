"""Exact arithmetic over Z_n: factorization, residues, units, inverses.

Residues use the representative convention |x|_n in [1, n]: the class of 0
is represented by n itself, every other class by its smallest positive
member.  All functions are exact integer arithmetic; nothing here floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAUnit

MAX_MODULUS = 2**31

# Largest factor a sieve-driven trial division must reach: sqrt(2^31).
_SIEVE_LIMIT = 46_341

_small_primes: list[int] | None = None


def _sieve_primes() -> list[int]:
    """Primes up to sqrt(MAX_MODULUS), computed once and cached."""
    global _small_primes
    if _small_primes is None:
        limit = _SIEVE_LIMIT
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, int(math.isqrt(limit)) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        _small_primes = [i for i in range(limit + 1) if flags[i]]
    return _small_primes


@dataclass(frozen=True)
class Modulus:
    """A modulus n with its prime factorization.

    factors is a tuple of (prime, multiplicity) pairs sorted by prime.
    coprime_to_6 records whether gcd(n, 6) == 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    coprime_to_6: bool

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_MODULUS:
            raise ValueError(f"modulus must be in [2, 2^31], got {self.n}")
        prod = 1
        for p, mult in self.factors:
            prod *= p**mult
        if prod != self.n:
            raise ValueError("factorization does not multiply back to n")
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes):
            raise ValueError("factors must be sorted by prime")
        if self.coprime_to_6 != (math.gcd(self.n, 6) == 1):
            raise ValueError("coprime_to_6 flag inconsistent with n")

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

    def unit_mask(self) -> bytes:
        """Length-n lookup table: entry r is 1 iff gcd(r, n) == 1."""
        return _unit_mask(self.n, self.prime_divisors)

    def units(self):
        """Yield the units of Z_n in increasing order."""
        mask = self.unit_mask()
        for r in range(1, self.n):
            if mask[r]:
                yield r

    def inverse_table(self) -> tuple[int, ...]:
        """Entry r is the inverse of r mod n for units, 0 otherwise."""
        return _inverse_table(self.n, self.prime_divisors)

    def divisors(self) -> tuple[int, ...]:
        """All positive divisors of n in increasing order."""
        divs = [1]
        for p, mult in self.factors:
            divs = [d * p**e for d in divs for e in range(mult + 1)]
        return tuple(sorted(divs))


@lru_cache(maxsize=512)
def _unit_mask(n: int, prime_divisors: tuple[int, ...]) -> bytes:
    mask = bytearray(b"\x01") * n
    mask[0] = 0
    for p in prime_divisors:
        mask[0::p] = bytes(len(range(0, n, p)))
    return bytes(mask)


@lru_cache(maxsize=512)
def _inverse_table(n: int, prime_divisors: tuple[int, ...]) -> tuple[int, ...]:
    mask = _unit_mask(n, prime_divisors)
    return tuple(pow(r, -1, n) if mask[r] else 0 for r in range(n))


@lru_cache(maxsize=64)
def _lift_table(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Entry r lists the units t of Z_n with t * d * r == d (mod n).

    Those are the lifts of r^-1 mod n // d that are units mod n; the
    entry is empty unless gcd(r, n // d) == 1, i.e. gcd(d * r, n) == d.
    """
    m = n // d
    mask = factorize(n).unit_mask()
    return tuple(
        tuple(t for t in range(pow(r, -1, m), n, m) if mask[t])
        if math.gcd(r, m) == 1
        else ()
        for r in range(m)
    )


@lru_cache(maxsize=4096)
def factorize(n: int) -> Modulus:
    """Factor n by sieve-driven trial division and wrap it as a Modulus.

    Rejects n <= 1 and n > 2^31.
    """
    if n <= 1:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus must be <= 2^31, got {n}")
    remaining = n
    factors: list[tuple[int, int]] = []
    for p in _sieve_primes():
        if p * p > remaining:
            break
        if remaining % p == 0:
            mult = 0
            while remaining % p == 0:
                remaining //= p
                mult += 1
            factors.append((p, mult))
    if remaining > 1:
        factors.append((remaining, 1))
    return Modulus(n=n, factors=tuple(factors), coprime_to_6=math.gcd(n, 6) == 1)


def residue_rep(x: int, n: int) -> int:
    """The representative of x mod n in [1, n]; multiples of n map to n."""
    return (x - 1) % n + 1


def inv_mod(t: int, n: int) -> int:
    """Inverse of t mod n in [1, n-1]; raises NotAUnit if gcd(t, n) > 1."""
    try:
        return pow(t, -1, n)
    except ValueError:
        raise NotAUnit(f"{t} is not a unit mod {n}") from None
