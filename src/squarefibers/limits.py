"""Desk-scale size limits and the shared error taxonomy.

Everything in this package is exact and enumeration-heavy, so every
entry point is bounded.  The bounds are deliberately small: the point
is auditable computation, not asymptotic reach.
"""

MAX_FIELD_ORDER = 2**20
MAX_POLY_DEGREE = 64
MAX_PARTITION_WEIGHT = 64
MAX_CLASS_COUNT = 10**6
MAX_ROOT_CLASS_COUNT = 10**4
MAX_GROUP_ORDER = 10**6
MAX_ENUMERATION_SPACE = 2**24
MAX_FACTORED_INTEGER = 2**64 - 1  # largest integer factorint takes: its primality test is proven below 2^64
MAX_PROFILE_ENTRIES = 10**4  # most entries (divisors of m1) of a Butler profile
MAX_ECHO_CHARS = 60  # most characters of an input value that an error message repeats


def exceeds(base: int, exp: int, bound: int) -> bool:
    """base**exp > bound for base >= 2, without forming a power that the
    bound could not hold: an exp past the bound's bit length overflows it."""
    return exp >= bound.bit_length() or base**exp > bound


def clip(value) -> str:
    """``str(value)`` for an error message, cut to MAX_ECHO_CHARS characters
    and followed by its length when longer, so that a huge input still
    gives a short line."""
    text = str(value)
    if len(text) <= MAX_ECHO_CHARS:
        return text
    return f"{text[:MAX_ECHO_CHARS]}… ({len(text)} characters)"


class InputError(ValueError):
    """Malformed or mathematically invalid input (CLI exit code 2)."""


class ScaleLimitError(ValueError):
    """Request exceeds the configured desk-scale bounds (CLI exit code 3)."""
