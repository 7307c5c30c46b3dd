"""Sequences over Z_n and their exact index.

A sequence is a finite multiset of nonzero residues.  Its norm under a
unit t is sum(|t*x_i|_n) / n with |.|_n in [1, n]; the index is the
minimum of that norm over all units t.  For zero-sum sequences every
norm is a positive integer, so the index is an integer >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    InvariantViolated,
    LengthTooLarge,
    NotAPrimeDivisor,
    NotAUnit,
    NotMinimal,
)
from .zncore import Modulus, factorize, residue_rep

# Guard for subset enumeration in minimality tests.
MAX_MINIMALITY_LENGTH = 24


@dataclass(frozen=True)
class GroupSequence:
    """A sorted multiset of residues in [1, n-1] over a fixed modulus."""

    modulus: Modulus
    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus.n
        if len(self.elems) < 1:
            raise InvariantViolated("sequence must be nonempty")
        prev = 1
        for x in self.elems:
            if not 1 <= x <= n - 1:
                raise InvariantViolated(f"element {x} outside [1, {n - 1}]")
            if x < prev:
                raise InvariantViolated("elements must be sorted ascending")
            prev = x

    @classmethod
    def of(cls, modulus: Modulus | int, values: Iterable[int]) -> "GroupSequence":
        """Build a sequence, reducing values mod n; rejects the identity."""
        mod = modulus if isinstance(modulus, Modulus) else factorize(modulus)
        reduced = sorted(residue_rep(v, mod.n) for v in values)
        if reduced and reduced[-1] == mod.n:
            raise InvariantViolated("the identity (residue 0) is not allowed")
        return cls(mod, tuple(reduced))

    @property
    def n(self) -> int:
        return self.modulus.n

    @property
    def k(self) -> int:
        return len(self.elems)


@dataclass(frozen=True)
class IndexResult:
    """Outcome of an index computation: numerator / n, with witness."""

    numerator: int
    modulus_n: int
    witness_t: int
    is_integer: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.modulus_n)


def seq_norm(seq: GroupSequence, t: int) -> Fraction:
    """Exact norm sum(|t*x_i|_n) / n for a unit t."""
    n = seq.n
    if math.gcd(t, n) != 1:
        raise NotAUnit(f"{t} is not a unit mod {n}")
    return Fraction(sum(t * x % n for x in seq.elems), n)


def is_zero_sum(seq: GroupSequence) -> bool:
    return sum(seq.elems) % seq.n == 0


def _subset_sum_bits(n: int, elems: Iterable[int]) -> int:
    """Bitmask over Z_n: bit r set iff some nonempty sub-multiset sums to r.

    Values are taken mod n, so an identity element (residue n) sets bit 0.
    """
    full = (1 << n) - 1
    bits = 0
    for x in elems:
        r = x % n
        shifted = ((bits << r) | (bits >> (n - r))) & full if r else bits
        bits = bits | shifted | (1 << r)
    return bits


def is_minimal_zero_sum(seq: GroupSequence) -> bool:
    """True iff seq is zero-sum and no proper nonempty subset is zero-sum.

    Guarded at k <= 24.
    """
    return _multiset_minimal_zero_sum(seq.n, seq.elems)


def _index_numerator(n: int, elems: tuple[int, ...]) -> tuple[int, int]:
    """(min norm numerator, smallest witness unit) for a raw tuple.

    Scans the units t (gcd(t, n) == 1, tested per t: no table of n
    entries is built) in increasing order and stops early once the norm
    hits the theoretical floor (the least multiple of n that is >= k for
    a zero-sum sequence, k otherwise), which no unit can beat.  The
    first unit is t = 1, whose norm is the plain sum of elements in
    [1, n-1], so a sum at the floor returns before the scan of t >= 2.
    """
    k = len(elems)
    best = sum(elems)
    witness = 1
    floor_sum = n * ((k + n - 1) // n) if best % n == 0 else k
    if best <= floor_sum:
        return best, witness
    for t in range(2, n):
        if math.gcd(t, n) != 1:
            continue
        total = 0
        for x in elems:
            total += t * x % n
        if total < best:
            best = total
            witness = t
            if total <= floor_sum:
                break
    return best, witness


def index_of(seq: GroupSequence) -> IndexResult:
    """Minimum norm over all units, with the smallest achieving t."""
    n = seq.n
    best, witness = _index_numerator(n, seq.elems)
    return IndexResult(
        numerator=best,
        modulus_n=n,
        witness_t=witness,
        is_integer=best % n == 0,
    )


def scale_seq(seq: GroupSequence, p: int) -> tuple[int, ...]:
    """Multiset of |p*x_i|_n for a prime p | n; identities come out as n."""
    n = seq.n
    if p not in seq.modulus.prime_divisors:
        raise NotAPrimeDivisor(f"{p} is not a prime divisor of {n}")
    return tuple(sorted(residue_rep(p * x, n) for x in seq.elems))


def _multiset_minimal_zero_sum(n: int, values: tuple[int, ...]) -> bool:
    """Minimality for raw multisets with values in [1, n] (n = identity).

    Proper subsets are scanned over the first k-1 values only: for a
    zero-sum total, a proper zero-sum subset exists iff one avoids the
    last value (take complements).  A length-1 multiset is never counted
    as minimal here: the lone identity is the trivial zero-sum sequence,
    and a lone non-identity is not zero-sum at all.

    The subset sums have two representations.  The n-bit mask costs time
    and memory in n, whatever k is (at n near 2^31 the mask alone is
    256 MB); a set holds at most 2^(k-1) - 1 residues, about 96 bytes
    each.  The set is used when n >= 256 * 2^(k-1).  Timed on random
    multisets, the set overtakes the mask at n / 2^(k-1) of about 230 for
    k = 8, 190 for k = 12, 110 for k = 16 and 90 for k = 20; for k = 4
    both take 1-2 us and the set is within 1.3x of the mask.  From 256 on
    the set is both faster and smaller at every k from 8 to 20.
    """
    if len(values) > MAX_MINIMALITY_LENGTH:
        raise LengthTooLarge(f"minimality guard: k = {len(values)} > 24")
    if len(values) <= 1:
        return False
    if sum(values) % n != 0:
        return False
    head = values[:-1]
    if n < 256 << len(head):
        return _subset_sum_bits(n, head) & 1 == 0
    sums: set[int] = set()
    for x in head:
        sums |= {(s + x) % n for s in sums}
        sums.add(x % n)
    return 0 not in sums


def is_reduced(seq: GroupSequence) -> bool:
    """True iff scaling by every prime p | n destroys minimality."""
    if not is_minimal_zero_sum(seq):
        raise NotMinimal("reducedness is defined for minimal zero-sum sequences")
    for p in seq.modulus.prime_divisors:
        if _multiset_minimal_zero_sum(seq.n, scale_seq(seq, p)):
            return False
    return True


def _canonical_tuple(n: int, elems: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Lexicographically smallest sorted(t * elems mod n) over units t.

    d must be the least gcd(x, n) over the elements.  The unit orbit of
    x is the set of residues with the same gcd, whose smallest member is
    that gcd, so the minimum starts with d and the only candidate
    multipliers are the units t with t * x == d for an element x with
    gcd(x, n) == d.  With m = n // d, those x are the multiples d * r
    with gcd(r, m) == 1, and their t are the lifts t = r^-1 mod m + j * m
    in [1, n) with gcd(t, n) == 1; no table of n entries is built.
    """
    m = n // d
    best: tuple[int, ...] | None = None
    for x in elems:
        r = x // d
        if x % d or math.gcd(r, m) != 1:
            continue
        for t in range(pow(r, -1, m), n, m):
            if math.gcd(t, n) != 1:
                continue
            cand = tuple(sorted([t * y % n for y in elems]))
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _min_gcd(n: int, elems: tuple[int, ...]) -> int:
    return min(math.gcd(x, n) for x in elems)


def canonical_rep(seq: GroupSequence) -> GroupSequence:
    """Canonical orbit representative under the unit action."""
    best = _canonical_tuple(seq.n, seq.elems, _min_gcd(seq.n, seq.elems))
    return GroupSequence(seq.modulus, best)
