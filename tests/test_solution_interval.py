"""Unit tests for the IntervalSet representation of solution intervals."""

import pytest

from repro.core.contracts import ContractViolation
from repro.core.distance import union_spans
from repro.core.solution_interval import IntervalSet
from repro.util.checks import checking


class TestConstruction:
    def test_empty(self):
        si = IntervalSet()
        assert len(si) == 0
        assert not si
        assert list(si) == []

    def test_merges_overlaps(self):
        si = IntervalSet([(0, 4), (2, 6)])
        assert si.intervals == [(0, 6)]

    def test_merges_adjacent(self):
        si = IntervalSet([(0, 3), (3, 5)])
        assert si.intervals == [(0, 5)]

    def test_keeps_disjoint(self):
        si = IntervalSet([(5, 7), (0, 2)])
        assert si.intervals == [(0, 2), (5, 7)]

    def test_drops_empty_intervals(self):
        si = IntervalSet([(3, 3), (5, 4), (1, 2)])
        assert si.intervals == [(1, 2)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalSet([(-1, 3)])

    def test_from_points(self):
        si = IntervalSet.from_points([5, 1, 2, 3, 9])
        assert si.intervals == [(1, 4), (5, 6), (9, 10)]

    def test_full(self):
        assert IntervalSet.full(4).intervals == [(0, 4)]
        assert IntervalSet.full(0).intervals == []
        with pytest.raises(ValueError):
            IntervalSet.full(-1)

    def test_union_spans_equals_normalising_each_keys_spans(self, rng):
        keys = rng.integers(0, 6, 300)
        start = rng.integers(0, 400, 300)
        stop = start + rng.integers(1, 25, 300)
        merged = union_spans(keys, start, stop)
        assert sorted(merged) == sorted(set(keys.tolist()))
        for key, spans in merged.items():
            mine = keys == key
            expected = IntervalSet(zip(start[mine].tolist(), stop[mine].tolist()))
            assert spans == expected

    def test_canonical_spans_are_checked_under_contracts(self):
        spans = [(0, 2), (5, 7)]
        assert IntervalSet._of_canonical(spans).intervals == spans
        with checking("contracts"):
            with pytest.raises(ContractViolation, match="touches"):
                IntervalSet._of_canonical([(0, 3), (3, 5)])


class TestQueries:
    def test_len_counts_points(self):
        si = IntervalSet([(0, 3), (10, 12)])
        assert len(si) == 5

    def test_contains(self):
        si = IntervalSet([(2, 5), (8, 9)])
        assert 2 in si and 4 in si and 8 in si
        assert 5 not in si and 7 not in si and 0 not in si

    def test_iteration_sorted(self):
        si = IntervalSet([(8, 10), (1, 3)])
        assert list(si) == [1, 2, 8, 9]

    def test_equality_and_hash(self):
        a = IntervalSet([(0, 2), (2, 4)])
        b = IntervalSet([(0, 4)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntervalSet([(0, 5)])
        assert a != "x"

    def test_repr(self):
        assert "[0, 2)" in repr(IntervalSet([(0, 2)]))


class TestAlgebra:
    def test_union(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(2, 6), (10, 11)])
        assert (a | b).intervals == [(0, 6), (10, 11)]

    def test_add(self):
        si = IntervalSet([(0, 2)]).add(5, 8)
        assert si.intervals == [(0, 2), (5, 8)]

    def test_intersection(self):
        a = IntervalSet([(0, 5), (8, 12)])
        b = IntervalSet([(3, 9), (11, 20)])
        assert (a & b).intervals == [(3, 5), (8, 9), (11, 12)]

    def test_intersection_empty(self):
        a = IntervalSet([(0, 2)])
        b = IntervalSet([(5, 6)])
        assert not (a & b)
        assert a.intersection_size(b) == 0

    def test_intersection_size(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(5, 15)])
        assert a.intersection_size(b) == 5

    def test_difference(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(2, 4), (6, 7)])
        assert (a - b).intervals == [(0, 2), (4, 6), (7, 10)]

    def test_difference_total(self):
        a = IntervalSet([(3, 6)])
        b = IntervalSet([(0, 10)])
        assert not (a - b)

    def test_difference_no_overlap(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(5, 8)])
        assert (a - b) == a

    def test_issubset(self):
        assert IntervalSet([(2, 4)]).issubset(IntervalSet([(0, 10)]))
        assert not IntervalSet([(2, 12)]).issubset(IntervalSet([(0, 10)]))

    def test_coverage(self):
        si = IntervalSet([(0, 25)])
        assert si.coverage(100) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            si.coverage(0)

    def test_set_semantics_against_python_sets(self):
        """Cross-check all algebra against plain integer sets."""
        a = IntervalSet([(0, 7), (10, 14), (20, 21)])
        b = IntervalSet([(5, 12), (13, 25)])
        sa, sb = set(a), set(b)
        assert set(a | b) == sa | sb
        assert set(a & b) == sa & sb
        assert set(a - b) == sa - sb
        assert set(b - a) == sb - sa
