"""Partition statistics: the centralizer exponent in both printed forms,
halving, and enumeration order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarefibers.limits import ScaleLimitError
from squarefibers.partitions import (
    Partition,
    gamma_exponent,
    halve_multiplicities,
    partition_count,
    partitions_of,
)


def _conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram, back in multiplicity form."""
    heights: dict[int, int] = {}
    for i in range(1, lam.max_part() + 1):
        h = sum(m for a, m in lam.pairs if a >= i)
        heights[h] = heights.get(h, 0) + 1
    return Partition(tuple(sorted(heights.items())))


def _doubled(lam: Partition) -> Partition:
    return Partition(tuple((a, 2 * m) for a, m in lam.pairs))


def _gamma_exponent_conjugate_form(lam: Partition) -> int:
    """Reference: the exponent via the conjugate partition lam',
    sum_i (lam'_i)^2 - sum_j m_j^2."""
    conj_sq = sum(m * a * a for a, m in _conjugate(lam).pairs)
    return conj_sq - sum(m * m for _, m in lam.pairs)


def test_partitions_of_counts():
    assert len(partitions_of(0)) == 1 and partitions_of(0)[0].is_empty()
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(7)) == 15
    for n in range(9):
        assert len(partitions_of(n)) == partition_count(n)


def test_partitions_of_is_lex_sorted_on_multiplicity_vectors():
    for n in (4, 6):
        vecs = [lam.multiplicity_vector(n) for lam in partitions_of(n)]
        assert vecs == sorted(vecs)
        assert all(lam.weight == n for lam in partitions_of(n))


def test_partitions_of_bound():
    with pytest.raises(ScaleLimitError):
        partitions_of(65)


def test_gamma_exponent_examples():
    assert gamma_exponent(Partition(((2, 1),))) == 1
    assert gamma_exponent(Partition(((1, 1), (2, 1)))) == 3
    assert gamma_exponent(Partition(((1, 2),))) == 0


def test_gamma_exponent_two_forms_agree_exhaustively():
    for n in range(1, 13):
        for lam in partitions_of(n):
            assert gamma_exponent(lam) == _gamma_exponent_conjugate_form(lam)


def test_halve_multiplicities():
    assert halve_multiplicities(Partition(((1, 2),))) == Partition(((1, 1),))
    assert halve_multiplicities(Partition(((1, 2), (3, 4)))) == Partition(
        ((1, 1), (3, 2))
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.data())
def test_halve_then_double_roundtrip(n, data):
    lam = data.draw(st.sampled_from(partitions_of(n))) if n else Partition(())
    doubled = _doubled(lam)
    assert halve_multiplicities(doubled) == lam
    if lam.all_multiplicities_even() and not lam.is_empty():
        assert _doubled(halve_multiplicities(lam)) == lam


def test_conjugate_is_an_involution_and_preserves_weight():
    for n in range(1, 11):
        for lam in partitions_of(n):
            conj = _conjugate(lam)
            assert conj.weight == n
            assert _conjugate(conj) == lam
