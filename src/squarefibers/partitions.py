"""Integer partitions in multiplicity form, plus the centralizer-exponent
statistics that the class-counting formulas consume."""

from __future__ import annotations

from functools import lru_cache

from .limits import MAX_PARTITION_WEIGHT, InputError, ScaleLimitError, clip
from .records import Record


class Partition(Record):
    """Pairs (part, multiplicity) of ints, parts >= 1 strictly increasing
    and multiplicities >= 1.

    The constructor checks none of this: values built inside the package
    hold it by construction, and partition text from outside enters
    through ``formats.partition_from_text``, which checks it.  The empty
    partition (weight 0) is a legal value but only ever appears as an
    intermediate; class data never stores it.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        _set_pairs(self, pairs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pairs,))

    @property
    def weight(self) -> int:
        return sum(a * m for a, m in self.pairs)

    def is_empty(self) -> bool:
        return not self.pairs

    def max_part(self) -> int:
        return self.pairs[-1][0] if self.pairs else 0

    def multiplicity_vector(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for a, m in self.pairs:
            out[a - 1] = m
        return tuple(out)

    def all_multiplicities_even(self) -> bool:
        return all(m % 2 == 0 for _, m in self.pairs)

    def __str__(self) -> str:
        return "+".join(f"{a}^{m}" for a, m in self.pairs) if self.pairs else "(empty)"


# The slot's own setter, which skips the refusing __setattr__.
_set_pairs = Partition.pairs.__set__


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, ordered lexicographically by multiplicity vector."""
    if n < 0:
        raise InputError("cannot partition a negative integer")
    if n > MAX_PARTITION_WEIGHT:
        raise ScaleLimitError(f"partition weight {clip(n)} exceeds {MAX_PARTITION_WEIGHT}")
    if n == 0:
        return (Partition(()),)
    acc: list[Partition] = []

    def rec(remaining: int, max_part: int, parts: list[tuple[int, int]]):
        if remaining == 0:
            acc.append(Partition(tuple(reversed(parts))))
            return
        for part in range(min(max_part, remaining), 0, -1):
            for mult in range(remaining // part, 0, -1):
                parts.append((part, mult))
                rec(remaining - part * mult, part - 1, parts)
                parts.pop()

    rec(n, n, [])
    acc.sort(key=lambda lam: lam.multiplicity_vector(n))
    return tuple(acc)


def partition_count(n: int) -> int:
    """p(n) by the classic table recurrence (independent of partitions_of)."""
    if n < 0:
        raise InputError("negative weight")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def gamma_exponent(lam: Partition) -> int:
    """Power of q^deg f contributed by one polynomial block (f, lam) of a
    centralizer.

    With (a_j, m_j) the part/multiplicity pairs in increasing part order,
    this is 2 * sum_{u<v} a_u m_u m_v + sum_j (a_j - 1) m_j^2;
    equivalently sum_i (lam'_i)^2 - sum_j m_j^2 for the conjugate
    partition lam', the form the tests compare against.  lam must be
    nonempty; that is not checked.
    """
    pairs = lam.pairs
    total = 0
    for u, (a_u, m_u) in enumerate(pairs):
        total += (a_u - 1) * m_u * m_u
        for _, m_v in pairs[u + 1 :]:
            total += 2 * a_u * m_u * m_v
    return total


def halve_multiplicities(lam: Partition) -> Partition:
    """Halve every multiplicity.  Every multiplicity must be even (an odd
    one means the skew square-root branch is empty for this block); that is
    not checked, so callers test all_multiplicities_even first."""
    return Partition(tuple((a, m // 2) for a, m in lam.pairs))
