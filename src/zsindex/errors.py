"""Exception hierarchy shared by all zsindex modules."""

from __future__ import annotations


class ZsIndexError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAUnit(ZsIndexError):
    """Raised when a modular inverse is requested for a non-unit."""


class LengthTooLarge(ZsIndexError):
    """Raised when a subset-enumeration guard (k <= 24) is exceeded."""


class ModulusOutOfRange(ZsIndexError, ValueError):
    """Raised when a modulus lies outside [2, 2^31]."""


class NotAPrimeDivisor(ZsIndexError):
    """Raised when a scaling prime does not divide the modulus."""


class NotMinimal(ZsIndexError):
    """Raised when an operation requires a minimal zero-sum sequence."""


class NoCoprimeElement(ZsIndexError):
    """Raised when normalization needs a unit element and none exists."""


class PreconditionViolated(ZsIndexError):
    """Raised when a documented operation precondition fails."""


class InvariantViolated(ZsIndexError):
    """Raised when arguments would break a structural invariant."""


class SNotLargeEnough(ZsIndexError):
    """Raised when a quotient parameter s = b // a is below 2."""


class CeilMismatch(ZsIndexError):
    """Raised when ceil(n/c) != ceil(n/b), so k1 has no guarantee."""


class HypothesisViolated(ZsIndexError):
    """Raised when a bound formula is evaluated outside its hypothesis."""


class WrongPattern(ZsIndexError):
    """Raised when a check is applied to an unsupported pattern class."""


class CacheConfigMismatch(ZsIndexError):
    """Raised in strict mode when cache records carry a stale config."""


class UsageError(ZsIndexError):
    """Raised for malformed command-line invocations."""
