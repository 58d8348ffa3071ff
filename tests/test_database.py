"""Unit tests for the sequence database (Section 3.4.1 pre-processing)."""

import numpy as np
import pytest

from repro.core.database import SegmentKey, SequenceDatabase
from repro.core.sequence import MultidimensionalSequence
from repro.index import build_tree


class TestPopulation:
    def test_add_returns_id(self, rng):
        db = SequenceDatabase(dimension=3)
        assert db.add(rng.random((30, 3)), sequence_id="a") == "a"
        assert "a" in db
        assert len(db) == 1

    def test_auto_ids_are_ordinals(self, rng):
        db = SequenceDatabase(dimension=2)
        ids = [db.add(rng.random((10, 2))) for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_auto_ids_skip_ordinals_still_in_use_after_a_remove(self, rng):
        """The count is no longer a free id once something was removed:
        add x3, remove(0), add used to raise ``KeyError: sequence id 2
        already stored`` — and went on raising on every retry."""
        db = SequenceDatabase(dimension=2)
        for _ in range(3):
            db.add(rng.random((10, 2)))
        db.remove(0)
        assert db.add(rng.random((10, 2))) == 3
        db.remove(1)
        db.remove(3)
        assert db.add(rng.random((10, 2))) == 1  # the count again, and free
        assert db.add(rng.random((10, 2))) == 3
        assert db.ids() == [2, 1, 3]

    def test_id_from_sequence_object(self, rng):
        db = SequenceDatabase(dimension=2)
        seq = MultidimensionalSequence(rng.random((10, 2)), sequence_id="named")
        assert db.add(seq) == "named"

    def test_duplicate_id_rejected(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((10, 2)), sequence_id="x")
        with pytest.raises(KeyError, match="already stored"):
            db.add(rng.random((10, 2)), sequence_id="x")

    def test_dimension_mismatch_rejected(self, rng):
        db = SequenceDatabase(dimension=3)
        with pytest.raises(ValueError, match="dimension"):
            db.add(rng.random((10, 2)))

    def test_add_all(self, rng):
        db = SequenceDatabase(dimension=2)
        ids = db.add_all(rng.random((8, 2)) for _ in range(4))
        assert ids == [0, 1, 2, 3]
        assert db.ids() == ids

    def test_counts(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((25, 2)))
        db.add(rng.random((35, 2)))
        assert db.point_count == 60
        assert db.segment_count == sum(len(p) for _, p in db.partitions())

    def test_unknown_id_raises(self):
        db = SequenceDatabase(dimension=2)
        with pytest.raises(KeyError, match="unknown sequence id"):
            db.partition("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceDatabase(dimension=0)

    @pytest.mark.parametrize("constant", [float("nan"), float("inf"), -1.0, 0.0])
    def test_a_cost_constant_that_is_not_finite_and_positive_is_refused(
        self, constant
    ):
        """Refused at construction, not at the first ``add`` (a negative
        one) or never (NaN and infinity grew every segment to the cap)."""
        with pytest.raises(ValueError, match="cost_constant"):
            SequenceDatabase(dimension=3, cost_constant=constant)


class TestIndexKinds:
    """The trees :func:`repro.index.build_tree` builds beside a database."""

    @pytest.mark.parametrize("kind", ["rtree", "rstar", "str"])
    def test_index_holds_every_segment(self, rng, kind):
        db = SequenceDatabase(dimension=2)
        for i in range(6):
            db.add(rng.random((int(rng.integers(20, 50)), 2)), sequence_id=i)
        index = build_tree(db, kind)
        assert len(index) == len(db.index) == db.segment_count
        keys = {(e.payload.sequence_id, e.payload.segment_index)
                for e in index.entries()}
        expected = {
            (sid, segment.index)
            for sid, partition in db.partitions()
            for segment in partition
        }
        assert keys == expected

    def test_str_index_rebuilt_after_late_insert(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((20, 2)), sequence_id=0)
        first = build_tree(db, "str")
        assert len(first) == db.segment_count
        db.add(rng.random((20, 2)), sequence_id=1)
        second = build_tree(db, "str")
        assert len(second) == db.segment_count > len(first)
        second.check_invariants(check_min_fill=False)

    def test_payloads_are_segment_keys(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((30, 2)), sequence_id="s")
        entry = next(iter(build_tree(db).entries()))
        assert isinstance(entry.payload, SegmentKey)
        assert entry.payload.sequence_id == "s"

    def test_index_mbrs_match_partition(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((40, 2)), sequence_id="s")
        partition = db.partition("s")
        for entry in build_tree(db).entries():
            segment = partition[entry.payload.segment_index]
            assert entry.mbr == segment.mbr

    def test_partition_parameters_forwarded(self, rng):
        db = SequenceDatabase(dimension=2, cost_constant=0.5, max_points=5)
        db.add(rng.random((40, 2)), sequence_id="s")
        partition = db.partition("s")
        assert partition.cost_constant == 0.5
        assert max(partition.counts) <= 5

    def test_repr(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((10, 2)))
        assert "sequences=1" in repr(db) and "index_kind" not in repr(db)
