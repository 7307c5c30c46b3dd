"""Sufficient conditions certifying index 1 for normalized quads.

Each condition searches for a coprime multiplier inside an exact
rational interval derived from the normal-form parameters (a, b, c).
All arithmetic is exact: intervals carry Fractions, and the searches
use integer ceil/floor divisions equivalent to the rational bounds.

Each condition has one kernel on plain integers that returns its first
witness, or None when it does not fire; the lemma sweep reads the
kernels, and the public functions wrap them in a LemmaOutcome.  The
kernels of 33.1 and 33.2 take a window [blo, bhi] of one row of the
normal forms (one c, with a = c + 1 - b) and return the witness of each
b of the window; the public lemma33_cond1 and lemma33_cond2 run them on
the window [b, b].  The kernels of 34 and 35 scan one quad.  34 fires
on every normal form (proof in verifier.validate_lemmas), so the sweep
counts it from the row length and scans only the quads of index > 1,
whose witnesses it records as findings.

A 33.1 witness (k, m) also proves index 1 directly.  From kn <= mc,
mb <= kn and ma < n, the residues of m, mc, -mb and -ma mod n are at
most m, mc - kn, kn - mb and n - ma, which sum to m (1 + c - a - b) + n
= n, since c = a + b - 1.  Every norm of a zero-sum quad under a unit
is a positive multiple of n, so the norm of (1, c, n-b, n-a) under m is
exactly n, the least possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classify import NormalizedQuad, Pattern, PatternClass
from .errors import (
    CeilMismatch,
    HypothesisViolated,
    InvariantViolated,
    SNotLargeEnough,
    WrongPattern,
)


@dataclass(frozen=True)
class IntervalQ:
    """A rational interval with independently open/closed endpoints."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise InvariantViolated(f"empty bounds: {self.lo} > {self.hi}")

    def integer_bounds(self) -> tuple[int, int]:
        """Smallest and largest integers inside; empty when lo > hi."""
        lo_int = -((-self.lo.numerator) // self.lo.denominator)
        if not self.lo_closed and self.lo == lo_int:
            lo_int += 1
        hi_int = self.hi.numerator // self.hi.denominator
        if not self.hi_closed and self.hi == hi_int:
            hi_int -= 1
        return lo_int, hi_int


@dataclass(frozen=True)
class LemmaOutcome:
    """Result of one condition check, with the witness when it fired."""

    lemma_id: str
    fired: bool
    witness: tuple[int, ...] | None = None
    detail: str = ""


def interval_integers(interval: IntervalQ) -> list[int]:
    """All integers inside the interval, honoring open endpoints."""
    lo_int, hi_int = interval.integer_bounds()
    return list(range(lo_int, hi_int + 1))


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _outcome(lemma_id: str, witness: tuple[int, ...] | None) -> LemmaOutcome:
    """Wrap a kernel's witness, naming its entries in the detail."""
    if witness is None:
        return LemmaOutcome(lemma_id, False)
    names = {"33.1": "km", "33.2": "M", "34": "km", "35": "tm"}[lemma_id]
    detail = ", ".join(f"{x}={v}" for x, v in zip(names, witness))
    return LemmaOutcome(lemma_id, True, witness, detail)


def _lemma33_cond1(
    n: int, c: int, blo: int, bhi: int
) -> list[tuple[int, int] | None]:
    """The first (k, m) of 33.1, by k then m ascending, for each b of the
    window [blo, bhi] of row c (a = c + 1 - b), listed by b.

    For b the m-range at k is [lo, min(kn//b, (n-1)//a)] with
    lo = ceil(kn/c), the same for every b of the row, and so is u, the
    least unit >= lo.  The first unit of b's range is u exactly when
    ub <= kn and ua <= n - 1, so b fires at k, with witness (k, u),
    exactly when b lies in [max(blo, k, c+1 - (n-1)//u), min(bhi, kn//u)].
    As k grows, lo and u never decrease, so the lower end never
    decreases either: a b below it never fires at a later k, and the b
    values take their witnesses left to right, with nxt the least one
    still open.  The scan stops once u exceeds (n-1)//(c+1-bhi), the
    largest (n-1)//a of the window, or once no b is open.  u is found by
    a gcd scan from lo, resumed from the last u, so each row tests each
    m at most once, with no table.
    """
    out: list[tuple[int, int] | None] = [None] * (bhi - blo + 1)
    u_cap = (n - 1) // (c + 1 - bhi)
    nxt = blo
    u = 0
    for k in range(1, bhi + 1):
        lo = _ceil_div(k * n, c)
        if u < lo:
            u = lo
            while u <= u_cap and math.gcd(u, n) != 1:
                u += 1
        if u > u_cap:
            break
        first = max(nxt, k, c + 1 - (n - 1) // u)
        last = min(bhi, k * n // u)
        for b in range(first, last + 1):
            out[b - blo] = (k, u)
        nxt = max(first, last + 1)
        if nxt > bhi:
            break
    return out


def _lemma33_cond2(
    n: int, c: int, blo: int, bhi: int
) -> list[tuple[int] | None]:
    """The least unit M of 33.2 for each b of the window [blo, bhi] of
    row c (a = c + 1 - b), listed by b.

    The units M <= n/2 are scanned in ascending order, each tested once
    per row: Mc mod n and M(c+1) mod n do not depend on b, and for each
    b still open, rb = Mb mod n and ra = (M(c+1) - rb) mod n.  No residue
    of a unit times a, b or c is n/2, since each of them lies in (0, n/2),
    so 2r > n is exactly r > n // 2 for either parity of n.  b takes the
    witness (M,) when two of 2ra > n, 2rb > n and 2(Mc mod n) < n hold,
    and leaves the open list; the scan stops once the list is empty.  It
    starts at M = 2: for M = 1, ra = a and rb = b are below n/2
    (a <= b < c < n/2), so at most one inequality holds and M = 1 never
    fires.
    """
    out: list[tuple[int] | None] = [None] * (bhi - blo + 1)
    open_bs: range | list[int] = range(blo, bhi + 1)
    half = n // 2
    for m in range(2, half + 1):
        if math.gcd(m, n) != 1:
            continue
        mc1 = m * (c + 1)
        still = []
        if 2 * (m * c % n) < n:
            for b in open_bs:
                rb = m * b % n
                if rb > half or (mc1 - rb) % n > half:
                    out[b - blo] = (m,)
                else:
                    still.append(b)
        else:
            for b in open_bs:
                rb = m * b % n
                if rb > half and (mc1 - rb) % n > half:
                    out[b - blo] = (m,)
                else:
                    still.append(b)
        if not still:
            break
        open_bs = still
    return out


def _lemma34_cond(n: int, a: int, b: int, c: int) -> tuple[int, int] | None:
    """The first (k, m) of 34, by k then m ascending.  The clause
    ab <= kn holds from k = ceil(ab/n) on, so the scan starts there."""
    for k in range(_ceil_div(a * b, n), b + 1):
        kn = k * n
        for m in range(_ceil_div(kn, c), kn // b + 1):
            if math.gcd(m, n) == 1:
                return k, m
    return None


def _lemma35_cond(n: int, a: int, b: int) -> tuple[int, int] | None:
    """The first (t, m) of 35, by t then m ascending; None when s < 2,
    where t has no admissible value."""
    s = b // a
    for t in range(s // 2):
        lo = _ceil_div((2 * s - 2 * t - 1) * n, 2 * b)
        hi = (s - t) * n // b
        for m in range(lo, hi + 1):
            if math.gcd(m, n) == 1:
                return t, m
    return None


def lemma33_cond1(quad: NormalizedQuad) -> LemmaOutcome:
    """Certificate: coprime m in [kn/c, kn/b] with 1 <= k <= b and ma < n.

    Such an m makes the norm under m collapse to exactly n (see the
    module docstring).  The witness is the first hit, scanning k
    ascending and m ascending: the row kernel on the window [b, b].
    """
    return _outcome("33.1", _lemma33_cond1(quad.n, quad.c, quad.b, quad.b)[0])


def lemma33_cond2(quad: NormalizedQuad) -> LemmaOutcome:
    """Certificate: unit M <= n/2 with two of |Ma|, |Mb| above n/2 or
    |Mc| below n/2 (at least two of the three inequalities).

    The witness is the least such M: the row kernel on the window [b, b].
    """
    return _outcome("33.2", _lemma33_cond2(quad.n, quad.c, quad.b, quad.b)[0])


def lemma34_cond(quad: NormalizedQuad) -> LemmaOutcome:
    """Transcribed as stated: coprime m in [kn/c, kn/b] with 1 <= k <= b
    and a <= kn/b.

    The final clause is suspected of being misstated at the source; the
    sweeps therefore report exceptions to this condition as findings
    rather than failures.  The witness is the first hit, scanning k
    ascending and m ascending.
    """
    return _outcome("34", _lemma34_cond(quad.n, quad.a, quad.b, quad.c))


def compute_s(quad: NormalizedQuad) -> int:
    """The quotient s = b // a (always >= 1 in normal form)."""
    return quad.b // quad.a


def lemma35_cond(quad: NormalizedQuad) -> LemmaOutcome:
    """Certificate: coprime integer in [(2s-2t-1)n/2b, (s-t)n/b] for some
    t in [0, floor(s/2) - 1]; requires s >= 2."""
    s = compute_s(quad)
    if s < 2:
        raise SNotLargeEnough(f"s = {s} < 2 for (a, b) = ({quad.a}, {quad.b})")
    return _outcome("35", _lemma35_cond(quad.n, quad.a, quad.b))


def _conditions(quad: NormalizedQuad) -> list[LemmaOutcome]:
    """The outcomes of the conditions that apply to a normal form: 33.1,
    33.2 and 34 always, 35 when s = b // a >= 2."""
    outcomes = [lemma33_cond1(quad), lemma33_cond2(quad), lemma34_cond(quad)]
    if compute_s(quad) >= 2:
        outcomes.append(lemma35_cond(quad))
    return outcomes


def assumption_b(quad: NormalizedQuad) -> bool:
    """True when no admissible t yields a coprime integer in the t-th
    interval of omega_build; vacuously true when s < 2."""
    return _lemma35_cond(quad.n, quad.a, quad.b) is None


def omega_build(quad: NormalizedQuad) -> list[IntervalQ]:
    """The intervals [(2s-2t-1)n/2b, (s-t)n/b] for t in [0, floor(s/2)-1].

    They are exact and closed on both ends.  Only the `lemma --omega`
    display reads this: _lemma35_cond scans the same intervals by integer
    bounds (a kernel built on these Fractions made validate_lemmas(1001)
    1.65x slower), and the tests check they agree.
    """
    n, b = quad.n, quad.b
    s = compute_s(quad)
    out = []
    for t in range(s // 2):
        coeff = 2 * s - 2 * t - 1
        out.append(
            IntervalQ(Fraction(coeff * n, 2 * b), Fraction((s - t) * n, b))
        )
    return out


def _k1(n: int, b: int, c: int) -> int | None:
    """compute_k1 on plain integers, for a normal form whose ceil(n/c) =
    ceil(n/b) the caller has checked: k1, or None when no k qualifies.

    A k with (k-1)n(c-b) >= bc cannot qualify: then [(k-1)n/c, (k-1)n/b)
    has length >= 1, so it holds an integer and ceil((k-1)n/c) <
    ceil((k-1)n/b).  Every k above ceil(bc / (n(c-b))) is such a k
    (c > b in normal form), so the downward scan starts at the smaller
    of that bound and b.
    """
    start = min(b, (b * c - 1) // (n * (c - b)) + 1)
    for k in range(start, 0, -1):
        if _ceil_div((k - 1) * n, c) != _ceil_div((k - 1) * n, b):
            continue
        if _ceil_div(k * n, c) < _ceil_div(k * n, b):
            return k
    return None


def compute_k1(quad: NormalizedQuad) -> int:
    """Largest k <= b with ceil((k-1)n/c) = ceil((k-1)n/b) and an integer
    in [kn/c, kn/b); defined only when ceil(n/c) = ceil(n/b).

    Raises CeilMismatch when the guard fails, and InvariantViolated when
    no k qualifies.
    """
    n, b, c = quad.n, quad.b, quad.c
    if _ceil_div(n, c) != _ceil_div(n, b):
        raise CeilMismatch(
            f"ceil(n/c) = {_ceil_div(n, c)} != ceil(n/b) = {_ceil_div(n, b)}"
        )
    k1 = _k1(n, b, c)
    if k1 is None:
        raise InvariantViolated(f"no admissible k1 for (n, b, c) = ({n}, {b}, {c})")
    return k1


def lemma51_bound(
    u: Fraction | int, v: Fraction | int, k1: int, s: int
) -> Fraction:
    """Exact bound u*v*(k1-1)*(s+1) / (u*(k1-1) - (s+1)).

    Requires u*(k1-1) > s+1; anything else is outside the hypothesis.
    """
    u = Fraction(u)
    v = Fraction(v)
    denom = u * (k1 - 1) - (s + 1)
    if denom <= 0:
        raise HypothesisViolated(
            f"u*(k1-1) = {u * (k1 - 1)} must exceed s+1 = {s + 1}"
        )
    return u * v * (k1 - 1) * (s + 1) / denom


def remark32_check(quad: NormalizedQuad, cls: Pattern | PatternClass) -> bool:
    """Lower bound on a for reduced quads: a >= 36 under the all-units
    pattern, a >= 35 under the two mixed patterns with a unit element."""
    pattern = cls.pattern if isinstance(cls, PatternClass) else cls
    if pattern == Pattern.A3:
        return quad.a >= 36
    if pattern in (Pattern.A2, Pattern.A4):
        return quad.a >= 35
    raise WrongPattern(f"bound applies to A2/A3/A4 only, got {pattern.value}")
