"""Systematic edge cases and failure injection across the pipeline.

Degenerate geometry (identical points, zero-volume MBRs), extreme
thresholds, single-element sequences and corpora, and adversarial query
shapes — the places where off-by-ones and division-by-zero live.
"""

import numpy as np
import pytest

from repro.baselines.sequential import SequentialScan, exact_solution_interval
from repro.core.database import SequenceDatabase
from repro.core.distance import (
    dnorm_instances,
    normalized_distance,
    sequence_distance,
)
from repro.core.mbr import MBR
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence


class TestDegenerateGeometry:
    def test_all_identical_points(self):
        """A constant sequence: one zero-volume MBR, everything matches."""
        points = np.full((30, 3), 0.5)
        partition = partition_sequence(points, max_points=None)
        assert len(partition) == 1
        assert partition[0].mbr.volume() == 0.0

        db = SequenceDatabase(dimension=3)
        db.add(points, sequence_id="flat")
        result = SimilaritySearch(db).search(points[:5], 0.0)
        assert "flat" in result.answers
        interval = result.solution_intervals["flat"]
        assert len(interval) == 30

    def test_zero_volume_mbrs_distance(self):
        a = MBR.of_points(np.full((5, 2), 0.2))
        b = MBR.of_points(np.full((5, 2), 0.7))
        assert a.min_distance(b) == pytest.approx(np.hypot(0.5, 0.5))

    def test_axis_aligned_degenerate_sequence(self):
        """Points on a line: MBRs collapse in one dimension."""
        points = np.column_stack(
            [np.linspace(0, 1, 20), np.full(20, 0.5)]
        )
        partition = partition_sequence(points)
        for segment in partition:
            assert segment.mbr.sides[1] == 0.0

    def test_single_point_sequences_everywhere(self):
        db = SequenceDatabase(dimension=2)
        for i in range(5):
            db.add([[i / 10, i / 10]], sequence_id=i)
        engine = SimilaritySearch(db)
        result = engine.search([[0.0, 0.0]], 0.05)
        assert result.answers == [0]
        assert engine.knn([[0.21, 0.21]], 1)[0][1] == 2


class TestExtremeThresholds:
    @pytest.fixture
    def small_db(self, rng):
        db = SequenceDatabase(dimension=2)
        for i in range(6):
            db.add(rng.random((20, 2)), sequence_id=i)
        return db

    def test_epsilon_zero_finds_only_exact(self, small_db):
        engine = SimilaritySearch(small_db)
        query = small_db.sequence(3).points[2:8]
        result = engine.search(query, 0.0)
        assert 3 in result.answers

    def test_epsilon_diagonal_finds_everything(self, small_db):
        engine = SimilaritySearch(small_db)
        query = small_db.sequence(0).points[:4]
        result = engine.search(query, np.sqrt(2))
        assert set(result.answers) == set(range(6))
        scan = SequentialScan.from_database(small_db).scan(query, np.sqrt(2))
        assert scan.answers == set(range(6))

    def test_huge_epsilon_interval_covers_everything(self, small_db):
        engine = SimilaritySearch(small_db)
        query = small_db.sequence(0).points[:4]
        result = engine.search(query, np.sqrt(2))
        for sid, interval in result.solution_intervals.items():
            assert len(interval) == len(small_db.sequence(sid))


class TestQueryShapes:
    def test_single_point_query(self, rng):
        db = SequenceDatabase(dimension=3)
        db.add(rng.random((40, 3)), sequence_id=0)
        engine = SimilaritySearch(db)
        point = db.sequence(0).points[17:18]
        result = engine.search(point, 0.0)
        assert 0 in result.answers

    def test_query_exactly_as_long_as_data(self, rng):
        db = SequenceDatabase(dimension=2)
        points = rng.random((25, 2))
        db.add(points, sequence_id=0)
        result = SimilaritySearch(db).search(points, 0.0)
        assert 0 in result.answers

    def test_query_one_longer_than_data(self, rng):
        """The smallest long-query case: one extra point."""
        db = SequenceDatabase(dimension=2)
        points = rng.random((20, 2))
        db.add(points, sequence_id=0)
        query = np.vstack([points, [[0.5, 0.5]]])
        exact = sequence_distance(query, points)
        result = SimilaritySearch(db).search(query, exact + 1e-9)
        assert 0 in result.answers

    def test_mixed_length_corpus_with_long_query(self, rng):
        db = SequenceDatabase(dimension=2)
        lengths = [5, 60, 8, 200, 12]
        for i, n in enumerate(lengths):
            db.add(rng.random((n, 2)), sequence_id=i)
        query = rng.random((50, 2))  # longer than some, shorter than others
        engine = SimilaritySearch(db)
        result = engine.search(query, 0.4, find_intervals=False)
        relevant = {
            i
            for i in range(5)
            if sequence_distance(query, db.sequence(i)) <= 0.4
        }
        assert relevant <= set(result.answers)


def batched_dnorm(query, query_count, mbrs, counts, epsilon=np.inf):
    """One instance of the batched body: ``(found, windows)``."""
    found, windows = dnorm_instances(
        np.array([query.min_distance(mbr) for mbr in mbrs]),
        np.array(counts),
        np.array([0, len(mbrs)]),
        np.array([query_count]),
        np.array([epsilon]),
    )
    return bool(found[0]), windows


class TestDnormDegeneracies:
    def test_every_count_one(self):
        """Single-point MBRs: the windows are pure point runs."""
        query = MBR([0.0], [0.0])
        mbrs = [MBR([v], [v]) for v in (0.1, 0.2, 0.3, 0.4)]
        counts = [1, 1, 1, 1]
        result = normalized_distance(query, 2, mbrs, counts, 0)
        # window [0..1]: (0.1 + 0.2) / 2
        assert result.value == pytest.approx(0.15)
        _, windows = batched_dnorm(query, 2, mbrs, counts)
        assert windows.anchor[0] == 0
        assert windows.value[0] == pytest.approx(0.15)

    def test_query_count_one_is_always_plain(self):
        query = MBR([0.0], [0.0])
        mbrs = [MBR([0.3], [0.4]), MBR([0.8], [0.9])]
        for anchor in range(2):
            result = normalized_distance(query, 1, mbrs, [3, 3], anchor)
            assert result.marginal_index is None
            assert result.value == pytest.approx(query.min_distance(mbrs[anchor]))

    def test_row_only_below_filters(self):
        query = MBR([0.0], [0.0])
        mbrs = [MBR([0.1], [0.1]), MBR([0.9], [0.9])]
        found, windows = batched_dnorm(query, 1, mbrs, [5, 5], epsilon=0.5)
        assert found
        assert windows.anchor.tolist() == [0]

    def test_row_only_below_empty(self):
        query = MBR([0.0], [0.0])
        mbrs = [MBR([0.9], [0.9])]
        found, windows = batched_dnorm(query, 1, mbrs, [5], epsilon=0.1)
        assert not found
        assert len(windows.anchor) == 0


class TestExactIntervalEdges:
    def test_query_length_one(self):
        data = MultidimensionalSequence([[0.1], [0.5], [0.9]])
        si = exact_solution_interval([[0.5]], data, 0.05)
        assert list(si) == [1]

    def test_whole_sequence_matches(self):
        data = MultidimensionalSequence([[0.5], [0.5]])
        si = exact_solution_interval([[0.5], [0.5]], data, 0.0)
        assert list(si) == [0, 1]

    def test_threshold_boundary_inclusive(self):
        data = MultidimensionalSequence([[0.0], [0.4]])
        si = exact_solution_interval([[0.2]], data, 0.2)
        assert list(si) == [0, 1]  # both exactly at distance 0.2


class TestEmptyAndTinyCorpora:
    def test_search_on_empty_database(self):
        db = SequenceDatabase(dimension=2)
        engine = SimilaritySearch(db)
        result = engine.search([[0.5, 0.5]], 0.3)
        assert result.answers == []
        assert result.candidates == []
        assert engine.knn([[0.5, 0.5]], 3) == []

    def test_corpus_of_one(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((10, 2)), sequence_id="only")
        result = SimilaritySearch(db).search(
            db.sequence("only").points[:3], 0.01
        )
        assert result.answers == ["only"]
