"""Partitions, bipartitions, boxes, and the finite-N label map."""

import pytest
from hypothesis import given, settings, strategies as st

from jacklaurent.rational import K, RAT_ZERO, rat
from jacklaurent.partitions import normalize_partition, part, size, \
    conjugate, boxes, add_box_candidates, remove_box_candidates, add_box, \
    remove_box, chi_N, dominance_leq, w_bipartition, w_sequence, \
    content_box, partitions_of, bipartitions_up_to, \
    LengthTooSmall, IncomparableInput


partitions = st.lists(st.integers(1, 5), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


class TestBasics:
    def test_normalize(self):
        assert normalize_partition((3, 2, 0, 0)) == (3, 2)
        assert normalize_partition([]) == ()
        with pytest.raises(ValueError):
            normalize_partition((1, 2))
        with pytest.raises(ValueError):
            normalize_partition((2, -1))

    def test_part_indexing(self):
        lam = (4, 2, 1)
        assert part(lam, 1) == 4
        assert part(lam, 3) == 1
        assert part(lam, 9) == 0

    def test_size_and_boxes(self):
        assert size((3, 1)) == 4
        assert boxes((2, 1)) == [(1, 1), (1, 2), (2, 1)]
        assert boxes(()) == []

    @settings(max_examples=50, deadline=None)
    @given(partitions)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert size(conjugate(lam)) == size(lam)

    def test_conjugate_example(self):
        assert conjugate((3, 1)) == (2, 1, 1)


class TestBoxMoves:
    def test_add_candidates(self):
        assert add_box_candidates((2, 1)) == [(1, 3), (2, 2), (3, 1)]
        assert add_box_candidates(()) == [(1, 1)]

    def test_remove_candidates(self):
        assert remove_box_candidates((2, 2, 1)) == [(2, 2), (3, 1)]
        assert remove_box_candidates(()) == []

    def test_add_remove_roundtrip(self):
        lam = (3, 1)
        for box in add_box_candidates(lam):
            assert remove_box(add_box(lam, box), box) == lam
        with pytest.raises(ValueError):
            add_box(lam, (3, 3))

    def test_content(self):
        assert content_box((1, 1)) == RAT_ZERO
        assert content_box((2, 3)) == rat(2) + K
        assert content_box((2, 3), a=rat(5)) == rat(7) + K


class TestFiniteLabels:
    def test_chi_N(self):
        assert chi_N(((2, 1), (1,)), 4) == (2, 1, 0, -1)
        assert chi_N(((), ()), 2) == (0, 0)
        with pytest.raises(LengthTooSmall):
            chi_N(((2, 1), (1,)), 2)

    def test_w_maps(self):
        assert w_bipartition(((2, 1), (1,))) == ((1,), (2, 1))
        assert w_sequence((2, 1, 0, -1)) == (1, 0, -1, -2)
        chi = (3, 1, -2)
        assert w_sequence(w_sequence(chi)) == chi


class TestDominance:
    def test_less(self):
        assert dominance_leq((1, 1, 1), (3, 0, 0))
        assert dominance_leq((2, 1, 0), (3, 0, 0))
        assert not dominance_leq((3, 0, 0), (2, 1, 0))

    def test_incomparable_inputs(self):
        with pytest.raises(IncomparableInput):
            dominance_leq((1,), (1, 1))
        with pytest.raises(IncomparableInput):
            dominance_leq((2, 0), (1, 0))


class TestEnumerations:
    def test_partitions_of(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                    (1, 1, 1, 1)]
        assert partitions_of(0) == [()]
        assert partitions_of(3, max_part=2) == [(2, 1), (1, 1, 1)]

    def test_counts(self):
        # partition numbers p(0..6) = 1,1,2,3,5,7,11
        for n, want in enumerate((1, 1, 2, 3, 5, 7, 11)):
            assert len(partitions_of(n)) == want

    def test_bipartitions(self):
        labels = bipartitions_up_to(2)
        assert ((), ()) in labels
        assert ((1,), (1,)) in labels
        assert ((2,), ()) in labels
        # sizes 0..2: empty pair, 2 single-box, 2+2 two-box single-sided,
        # and the mixed ((1),(1)) -- eight in all
        assert len(labels) == len(set(labels)) == 8
        assert len(bipartitions_up_to(4)) == 38
