import itertools

import pytest
from hypothesis import given, settings, strategies as st

from symfusion.shapes import (ContainmentError, ParityError, Partition,
                              column_tableau, conjugate, count_semistandard,
                              dim_sym_irrep, partitions_of, row_tableau, skew,
                              standard_tableaux, validate_label)


def P(*parts):
    return Partition(parts)


def test_conjugate_examples():
    assert conjugate(P()) == P()
    assert conjugate(P(5, 3, 3, 3, 3)) == P(5, 5, 5, 1, 1)
    assert conjugate(P(3, 1)) == P(2, 1, 1)


@st.composite
def partition_st(draw, max_boxes=8):
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    opts = partitions_of(n)
    return opts[draw(st.integers(min_value=0, max_value=len(opts) - 1))]


@settings(max_examples=200, deadline=None)
@given(partition_st())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


def test_partition_validation_and_text():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    assert str(P(5, 3, 3, 3, 3)) == "5,3,3,3,3"
    assert Partition.from_string("5,3,3,3,3") == P(5, 3, 3, 3, 3)
    assert Partition.from_string("") == P()


def test_skew_examples():
    s = skew(P(2))
    assert s.cells == ((1, 1), (1, 2)) and s.n == 2
    assert skew(P(5, 3, 3, 3, 3), P(3, 3, 2)).n == 9
    with pytest.raises(ContainmentError):
        skew(P(1), P(2))


def test_paper_content_sequences():
    s = skew(P(5, 3, 3, 3, 3), P(3, 3, 2))
    assert row_tableau(s).contents == (3, 4, 0, -3, -2, -1, -4, -3, -2)
    assert column_tableau(s).contents == (-3, -4, -2, -3, 0, -1, -2, 3, 4)


def test_row_tableau_entries():
    s = skew(P(2, 1))
    t = row_tableau(s)
    assert dict(zip(s.cells, t.entries)) == {(1, 1): 1, (1, 2): 2, (2, 1): 3}


def test_standard_tableaux_counts():
    assert len(standard_tableaux(skew(P(1)))) == 1
    assert len(standard_tableaux(skew(P(2, 1)))) == 2
    assert len(standard_tableaux(skew(P(2, 1), P(1)))) == 2


def test_standard_tableaux_sorted_and_valid():
    tabs = standard_tableaux(skew(P(3, 2)))
    assert [t.entries for t in tabs] == sorted(t.entries for t in tabs)
    for t in tabs:
        pos = dict(zip(t.shape.cells, t.entries))
        for (i, j), k in pos.items():
            assert pos.get((i, j + 1), k + 1) > k
            assert pos.get((i + 1, j), k + 1) > k


@settings(max_examples=100, deadline=None)
@given(partition_st(max_boxes=6))
def test_tableau_count_matches_dimension(p):
    assert len(standard_tableaux(skew(p))) == dim_sym_irrep(p)


def test_dim_examples():
    assert dim_sym_irrep(P(4)) == 1
    assert dim_sym_irrep(P(2, 1)) == 2
    assert dim_sym_irrep(P(2, 2)) == 2


def test_validate_label():
    assert validate_label(P(1, 1), "O", 2)
    assert not validate_label(P(1, 1), "Sp", 2)
    assert validate_label(P(2), "GL", 1)
    assert not validate_label(P(1, 1), "GL", 1)
    with pytest.raises(ParityError):
        validate_label(P(1), "Sp", 3)


def test_count_semistandard():
    assert count_semistandard(skew(P(2)), 2) == 3
    assert count_semistandard(skew(P(1, 1)), 2) == 1
    assert count_semistandard(skew(P(1, 1)), 1) == 0
    # disconnected skew cells are unconstrained against each other
    assert count_semistandard(skew(P(2, 1), P(1)), 2) == 4


def test_count_semistandard_by_content():
    # Kostka numbers of (2,1) on N = 3: K_{(2,1),(2,1)} = 1, K_{(2,1),(1,1,1)} = 2,
    # K_{(2,1),(3)} = 0, and the count is symmetric under permuting the content
    s = skew(P(2, 1))
    for content, kostka in [((2, 1, 0), 1), ((0, 1, 2), 1), ((1, 0, 2), 1),
                            ((1, 1, 1), 2), ((3, 0, 0), 0), ((0, 0, 3), 0)]:
        assert count_semistandard(s, 3, content) == kostka
    total = sum(count_semistandard(s, 3, a) for a in itertools.product(range(4), repeat=3))
    assert total == count_semistandard(s, 3) == 8
    assert count_semistandard(s, 3, (1, 1, 0)) == 0  # too few entries
    assert count_semistandard(skew(P(2, 1), P(1)), 2, (1, 1)) == 2
    for bad in [(1, 2), (2, 2, -1)]:
        with pytest.raises(ValueError):
            count_semistandard(s, 3, bad)


def test_partition_helpers():
    assert [p.parts for p in partitions_of(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                                   (1, 1, 1, 1)]
    assert [[m.parts for m in partitions_of(k) if P(2, 1).contains(m)]
            for k in (1, 2, 3)] == [[(1,)], [(2,), (1, 1)], [(2, 1)]]
