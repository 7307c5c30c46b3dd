"""Gcd patterns and the normal form for minimal zero-sum quads.

A quad with a unit element can be rescaled so its sorted residues read
[1, c, n-b, n-a] with 1 + c = a + b, 2 <= a <= b, 1 < c and b, c < n/2
(sum 2n).  The gcd multiset of a quad over a squarefree n = p1*p2*p3
falls into four named patterns; everything else is Other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterator

from .errors import (
    InvariantViolated,
    NoCoprimeElement,
    PreconditionViolated,
)
from .sequences import GroupSequence, is_minimal_zero_sum


class Pattern(Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    OTHER = "Other"


@dataclass(frozen=True)
class PatternClass:
    """A matched pattern plus the prime-role assignment that matched.

    prime_roles lists which prime of n plays each of the three named
    roles, in role order; it is None for Other and for the bare A3
    statement of _match_gcd_pattern.
    """

    pattern: Pattern
    prime_roles: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class GcdProfile:
    """Per-element gcds with n, aligned with the sorted sequence."""

    gcds: tuple[int, ...]
    global_gcd: int


@dataclass(frozen=True)
class NormalizedQuad:
    """Parameters (a, b, c) of a quad in normal form over Z_n.

    The denormalized sequence is [1, c, n-b, n-a]; provenance records
    the unit multiplier.  reflected says whether the orbit was reflected
    (x -> n-x) before scaling; normalize_quad always sets it to False,
    because reflection is scaling by the unit -1, which the multiplier
    already covers.
    """

    n: int
    a: int
    b: int
    c: int
    unit: int = 1
    reflected: bool = False

    def __post_init__(self) -> None:
        n, a, b, c = self.n, self.a, self.b, self.c
        if 1 + c != a + b:
            raise InvariantViolated("normal form requires 1 + c = a + b")
        if not 2 <= a <= b:
            raise InvariantViolated("normal form requires 2 <= a <= b")
        if not (2 * b < n and 1 < c and 2 * c < n):
            raise InvariantViolated("normal form requires b, c in (1, n/2)")

    @property
    def elems(self) -> tuple[int, int, int, int]:
        """The denormalized quad (1, c, n-b, n-a), sorted."""
        return _quad_elems(self.n, self.a, self.b, self.c)


def _quad_elems(n: int, a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """The sorted quad (1, c, n-b, n-a) of the normal form (a, b, c)."""
    return (1, c, n - b, n - a)


def _normal_form_rows(n: int) -> Iterator[tuple[int, range]]:
    """Every c of the normal form over Z_n, ascending, with its range of b.

    For each c the range of b is exactly the one where a = c + 1 - b
    satisfies 2 <= a <= b.
    """
    for c in range(2, (n - 1) // 2 + 1):
        yield c, range((c + 2) // 2, c)


def denormalize(quad: NormalizedQuad) -> GroupSequence:
    """The sorted quad [1, c, n-b, n-a] as a sequence over Z_n."""
    return GroupSequence.of(quad.n, quad.elems)


def gcd_profile(seq: GroupSequence) -> GcdProfile:
    n = seq.n
    gcds = tuple(math.gcd(x, n) for x in seq.elems)
    global_gcd = math.gcd(*gcds)
    return GcdProfile(gcds=gcds, global_gcd=global_gcd)


def normalize_quad(seq: GroupSequence) -> NormalizedQuad | None:
    """Search the orbit of a quad for a normal form.

    A normal form starts with 1, so the candidate multipliers are the
    inverses of the unit elements, scanned by increasing t.  Each maps a
    unit element to 1, the least residue, so the sorted image (1, e2, e3,
    e4) is in normal form exactly when NormalizedQuad(n, n-e4, n-e3, e2)
    meets its invariants.  The first such t wins, so unit is the least
    multiplier that gives the shape.  Returns None when no orbit member
    has the normal-form shape.
    """
    n = seq.n
    if seq.k != 4 or not is_minimal_zero_sum(seq):
        raise PreconditionViolated("normalization needs a minimal zero-sum quad")
    candidates = sorted({pow(x, -1, n) for x in seq.elems if math.gcd(x, n) == 1})
    if not candidates:
        raise NoCoprimeElement(f"no element of {seq.elems} is a unit mod {n}")
    for t in candidates:
        _, e2, e3, e4 = sorted(t * x % n for x in seq.elems)
        try:
            return NormalizedQuad(n, n - e4, n - e3, e2, unit=t)
        except InvariantViolated:
            continue
    return None


def _match_gcd_pattern(multiset: list[int], primes: tuple[int, ...]) -> PatternClass:
    """The statement A1..A4 that a sorted gcd multiset meets, else Other.

    primes are the three prime divisors of a squarefree n; the roles are
    those of the first prime assignment that matches.  A3 is the bare
    statement "all gcds 1", with no roles: classify_pattern refines it
    through the normal form.
    """
    if multiset == [1, 1, 1, 1]:
        return PatternClass(Pattern.A3)
    if multiset[0] != 1:
        for q1, q2, q3 in permutations(primes):
            if multiset == sorted((q1 * q2, q2, q1 * q3, q3)):
                return PatternClass(Pattern.A1, (q1, q2, q3))
        return PatternClass(Pattern.OTHER)
    for q1, q2, q3 in permutations(primes):
        if multiset == sorted((1, q1, q2, q1 * q2)):
            return PatternClass(Pattern.A2, (q1, q2, q3))
    p1, p2, p3 = primes
    if multiset == sorted((1, p1 * p2, p1 * p3, p2 * p3)):
        return PatternClass(Pattern.A4, (p1, p2, p3))
    return PatternClass(Pattern.OTHER)


def classify_pattern(seq: GroupSequence) -> PatternClass:
    """Match a quad's gcd multiset against the four named patterns.

    Requires a minimal zero-sum quad with global_gcd 1.  Returns Other
    unless n is squarefree with exactly three prime factors.  The
    all-units case additionally needs the normal form to exist and its
    shifted entries c+1, b-1, a-1 to carry the three pairwise prime
    products as gcds with n.
    """
    if seq.k != 4 or not is_minimal_zero_sum(seq):
        raise PreconditionViolated("classification needs a minimal zero-sum quad")
    profile = gcd_profile(seq)
    if profile.global_gcd != 1:
        raise PreconditionViolated("classification needs global_gcd = 1")
    mod = seq.modulus
    primes = mod.prime_divisors
    if len(primes) != 3 or not mod.is_squarefree:
        return PatternClass(Pattern.OTHER)
    cls = _match_gcd_pattern(sorted(profile.gcds), primes)
    if cls.pattern is not Pattern.A3:
        return cls
    quad = normalize_quad(seq)
    if quad is None:
        return PatternClass(Pattern.OTHER)
    return _classify_all_units(quad, primes)


def _classify_all_units(quad: NormalizedQuad, primes: tuple[int, ...]) -> PatternClass:
    n = quad.n
    p1, p2, p3 = primes
    products = sorted((p1 * p2, p1 * p3, p2 * p3))
    vals = (
        math.gcd(quad.c + 1, n),
        math.gcd(quad.b - 1, n),
        math.gcd(quad.a - 1, n),
    )
    if sorted(vals) != products:
        return PatternClass(Pattern.OTHER)
    role1 = math.gcd(vals[0], vals[1])
    role2 = math.gcd(vals[0], vals[2])
    role3 = math.gcd(vals[1], vals[2])
    return PatternClass(Pattern.A3, (role1, role2, role3))
