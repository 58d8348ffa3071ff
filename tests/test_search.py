"""Integration tests for the three-phase SIMILARITY_SEARCH algorithm."""

import time

import numpy as np
import pytest

import repro.core.search as search_module
from repro.core.contracts import BOUND_TOLERANCE
from repro.core.database import SequenceDatabase
from repro.core.distance import min_dmbr_runs, sequence_distance
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.datagen import generate_queries, generate_video_corpus
from repro.util.budget import Deadline, OperationCancelled, deadline_scope


def smooth_walk(rng, length, dimension=3, step=0.03):
    """A clipped random walk: realistically smooth multidimensional data."""
    steps = rng.normal(0.0, step, size=(length, dimension))
    walk = np.clip(0.5 + np.cumsum(steps, axis=0), 0.0, 1.0)
    return walk


def lemma1_bounds(engine, query_partition):
    """Lemma 1's ``min Dmbr`` per table row: the threshold from which a
    sequence is a Phase-2 candidate, and the bound ``knn`` ranked by before
    the mean bound replaced it — kept as the comparison."""
    table = engine.database.segment_table
    return min_dmbr_runs(
        query_partition.low_matrix,
        query_partition.high_matrix,
        table.low_columns,
        table.high_columns,
        table.sequence_offsets,
        site="knn.bounds",
    )


@pytest.fixture
def populated(rng):
    db = SequenceDatabase(dimension=3, max_points=16)
    sequences = {}
    for i in range(25):
        walk = smooth_walk(rng, int(rng.integers(40, 120)))
        sequences[i] = MultidimensionalSequence(walk, sequence_id=i)
        db.add(sequences[i])
    return db, sequences


class TestCorrectness:
    def test_no_false_dismissals(self, populated, rng):
        """Lemmas 1-3: every truly relevant sequence must survive both
        pruning phases, at several thresholds and query lengths."""
        db, sequences = populated
        engine = SimilaritySearch(db)
        for trial in range(6):
            source = sequences[int(rng.integers(0, 25))]
            length = int(rng.integers(10, min(40, len(source))))
            start = int(rng.integers(0, len(source) - length + 1))
            noise = rng.normal(0, 0.02, size=(length, 3))
            query = np.clip(source.points[start : start + length] + noise, 0, 1)
            for epsilon in (0.05, 0.15, 0.3):
                result = engine.search(query, epsilon, find_intervals=False)
                relevant = {
                    sid
                    for sid, seq in sequences.items()
                    if sequence_distance(query, seq) <= epsilon
                }
                assert relevant <= set(result.candidates)
                assert relevant <= set(result.answers)

    def test_answers_subset_of_candidates(self, populated, rng):
        db, sequences = populated
        engine = SimilaritySearch(db)
        query = sequences[3].points[5:25]
        result = engine.search(query, 0.1)
        assert set(result.answers) <= set(result.candidates)

    def test_exact_subsequence_always_found(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        query = sequences[7].points[10:30]
        result = engine.search(query, 0.01)
        assert 7 in result.answers
        assert 7 in result.solution_intervals

    def test_self_match_at_zero_epsilon(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(sequences[0].points, 0.0)
        assert 0 in result.answers

    def test_phase3_prunes_at_least_as_hard(self, populated, rng):
        """Dnorm >= Dmbr minimum (Lemma 3), so AS_norm cannot exceed AS_mbr."""
        db, sequences = populated
        engine = SimilaritySearch(db)
        for epsilon in (0.05, 0.1, 0.2):
            query = smooth_walk(rng, 30)
            result = engine.search(query, epsilon, find_intervals=False)
            assert len(result.answers) <= len(result.candidates)

    def test_long_query(self, populated, rng):
        """A query longer than data sequences still works (Definition 3
        slides the shorter sequence, here the data)."""
        db, sequences = populated
        engine = SimilaritySearch(db)
        query = smooth_walk(rng, 400)
        result = engine.search(query, 0.25, find_intervals=False)
        relevant = {
            sid
            for sid, seq in sequences.items()
            if sequence_distance(query, seq) <= 0.25
        }
        assert relevant <= set(result.answers)


class TestSolutionIntervals:
    def test_intervals_only_for_answers(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(sequences[2].points[0:20], 0.05)
        assert set(result.solution_intervals) == set(result.answers)

    def test_intervals_within_sequence_bounds(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(sequences[2].points[0:20], 0.15)
        for sid, interval in result.solution_intervals.items():
            length = len(db.sequence(sid))
            for start, stop in interval.intervals:
                assert 0 <= start < stop <= length

    def test_interval_recall_on_exact_match(self, populated):
        """The approximate SI must cover most of the exact one (paper: >=98%
        at corpus scale; assert a slightly looser bound per query here)."""
        from repro.baselines.sequential import exact_solution_interval

        db, sequences = populated
        engine = SimilaritySearch(db)
        query = sequences[11].points[5:35]
        epsilon = 0.1
        result = engine.search(query, epsilon)
        exact = exact_solution_interval(query, sequences[11], epsilon)
        assert len(exact) > 0
        approx = result.solution_intervals[11]
        covered = approx.intersection_size(exact)
        assert covered / len(exact) >= 0.9

    def test_find_intervals_false_skips_assembly(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(
            sequences[2].points[0:20], 0.15, find_intervals=False
        )
        assert result.solution_intervals == {}
        assert len(result.answers) >= 1


class TestStatsAndValidation:
    def test_stats_populated(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(sequences[1].points[0:15], 0.1)
        stats = result.stats
        assert stats.query_segments >= 1
        assert stats.node_accesses > 0
        assert stats.candidates_after_dmbr == len(result.candidates)
        assert stats.answers_after_dnorm == len(result.answers)
        assert stats.total_seconds > 0

    def test_validation(self, populated, rng):
        db, _ = populated
        engine = SimilaritySearch(db)
        with pytest.raises(ValueError, match="epsilon"):
            engine.search(smooth_walk(rng, 10), -0.1)
        with pytest.raises(ValueError, match="dimension"):
            engine.search(rng.random((10, 2)), 0.1)
        with pytest.raises(TypeError):
            SimilaritySearch("not a database")

    def test_result_contains(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        result = engine.search(sequences[4].points[0:12], 0.05)
        assert 4 in result

    def test_candidate_within_matches_lower_bound(self, populated, rng):
        """The membership test agrees with the exact bound at every
        threshold, including exactly at the bound value."""
        db, _ = populated
        engine = SimilaritySearch(db)
        partition = engine.search(smooth_walk(rng, 30), 0.2).query_partition
        for sid in list(db.ids())[:8]:
            bound = min(
                float(db.partition(sid).mbr_distance_row(segment.mbr).min())
                for segment in partition
            )
            for epsilon in (bound / 2, bound, bound * 2, 0.0, 0.5):
                assert engine.candidates_within(partition, [sid], epsilon) == (
                    [sid] if bound <= epsilon else []
                )
        with pytest.raises(ValueError, match="epsilon"):
            engine.candidates_within(partition, [0], -0.5)


class TestKnn:
    def test_knn_matches_brute_force(self, populated, rng):
        db, sequences = populated
        engine = SimilaritySearch(db)
        query = smooth_walk(rng, 25)
        exact = sorted(
            (sequence_distance(query, seq), sid)
            for sid, seq in sequences.items()
        )
        for k in (1, 3, 7):
            got = engine.knn(query, k)
            np.testing.assert_allclose(
                [d for d, _ in got], [d for d, _ in exact[:k]], atol=1e-12
            )

    def test_knn_of_stored_sequence_finds_itself(self, populated):
        db, sequences = populated
        engine = SimilaritySearch(db)
        got = engine.knn(sequences[9].points[3:23], 1)
        assert got[0][1] == 9
        assert got[0][0] == pytest.approx(0.0)

    def test_knn_k_larger_than_database(self, populated, rng):
        db, _ = populated
        engine = SimilaritySearch(db)
        got = engine.knn(smooth_walk(rng, 10), 100)
        assert len(got) == len(db)

    def test_knn_validation(self, populated, rng):
        db, _ = populated
        engine = SimilaritySearch(db)
        with pytest.raises(ValueError):
            engine.knn(smooth_walk(rng, 10), 0)
        with pytest.raises(ValueError, match="dimension"):
            engine.knn(rng.random((5, 2)), 1)

    def test_an_expired_deadline_stops_the_refinement(self, populated, rng):
        db, _ = populated
        engine = SimilaritySearch(db)
        query = smooth_walk(rng, 10)
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(OperationCancelled, match="knn.bounds"):
                engine.knn(query, 3)
        # Past the bounds, every refinement is a cancellation point too.
        ready = engine._lower_bounds(engine._prepare(query)[1])
        engine._lower_bounds = lambda query_partition: ready
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(OperationCancelled, match="knn.refine"):
                engine.knn(query, 3)


def reversed_bounds(engine):
    """Make ``engine`` rank the *last* table row first: bounds that are
    still lower bounds (each at most its own), in descending row order."""
    own = engine._lower_bounds

    def bounds(query_partition):
        exact = own(query_partition)
        return exact.min() * np.linspace(1.0, 0.0, len(exact))

    engine._lower_bounds = bounds


class TestKnnTieOrder:
    """Equal distances come back in database insertion order, whatever
    order the bounds had their sequences refined in."""

    def duplicates(self, rng):
        db = SequenceDatabase(dimension=3, max_points=8)
        walk = smooth_walk(rng, 40)
        db.add(smooth_walk(rng, 50), sequence_id="other-first")
        for name in ("dup-a", "dup-b", "dup-c", "dup-d"):
            db.add(walk, sequence_id=name)
        db.add(smooth_walk(rng, 30), sequence_id="other-last")
        return SimilaritySearch(db), walk[5:25]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lowest_rows_win(self, rng, reverse):
        engine, query = self.duplicates(rng)
        if reverse:
            reversed_bounds(engine)
        for k in (1, 2, 3):
            assert engine.knn(query, k) == [
                (0.0, name) for name in ("dup-a", "dup-b", "dup-c")[:k]
            ]

    def test_a_bound_an_ulp_above_its_distance_is_still_refined(self):
        """Six query points at 0 against nine at 0.1: the bound's
        ``6 * 0.1 / 6`` rounds an ulp above the pairwise mean ``D`` is, so
        without ``BOUND_TOLERANCE`` in the stop test row 0 would be
        skipped once its duplicate in row 1 has been refined."""
        db = SequenceDatabase(dimension=1, max_points=64)
        db.add(np.full((9, 1), 0.1), sequence_id="first")
        db.add(np.full((9, 1), 0.1), sequence_id="second")
        engine = SimilaritySearch(db)
        query = np.zeros((6, 1))
        exact = sequence_distance(query, np.full((9, 1), 0.1))
        own = engine._lower_bounds(engine._prepare(query)[1])
        assert exact < own[0] <= exact + BOUND_TOLERANCE
        engine._lower_bounds = lambda query_partition: own * [1.0, 0.0]
        assert engine.knn(query, 1) == [(exact, "first")]


class TestKnnRefinements:
    """``knn`` refines only rows that both bounds leave within the k-th
    distance current at the time — and fewer of them than under the mean
    bound alone, or under Lemma 1's bound."""

    @pytest.fixture(scope="class")
    def video(self):
        corpus = generate_video_corpus(200, length_range=(56, 256), seed=77)
        queries = generate_queries(
            corpus, 12, length_range=(16, 64), noise=0.01, seed=78
        ).queries
        db = SequenceDatabase(dimension=3)
        for sequence in corpus:
            db.add(sequence)
        return SimilaritySearch(db), [query.points for query in queries]

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def counting(query, sequence):
            calls.append((sequence, sequence_distance(query, sequence)))
            return calls[-1][1]

        monkeypatch.setattr(search_module, "sequence_distance", counting)
        return calls

    def test_every_refined_row_was_within_both_bounds_when_refined(
        self, video, monkeypatch
    ):
        engine, queries = video
        ids = engine.database.segment_table.ids
        row_of = {id(engine.database.sequence(sid)): row for row, sid in enumerate(ids)}
        calls = self.counted(monkeypatch)
        for query in queries:
            del calls[:]
            engine.knn(query, 5)
            _, partition = engine._prepare(query)
            bounds = engine._lower_bounds(partition)
            first = np.argsort(bounds, kind="stable")[:5].tolist()
            refined: list[float] = []
            for sequence, distance in calls:
                row = row_of[id(sequence)]
                if len(refined) < 5:
                    assert row in first
                else:
                    kth = refined[4]
                    tight = engine._segment_mean_bounds(partition, [row])
                    assert bounds[row] - BOUND_TOLERANCE <= kth
                    assert tight[0] - BOUND_TOLERANCE <= kth
                refined = sorted([*refined, distance])

    def test_fewer_refinements_than_under_the_mean_bound_alone(
        self, video, monkeypatch
    ):
        engine, queries = video
        calls = self.counted(monkeypatch)
        answers = [engine.knn(query, 5) for query in queries]
        cascade_calls = len(calls)
        monkeypatch.setattr(
            SimilaritySearch,
            "_segment_mean_bounds",
            lambda self, partition, rows: [-np.inf] * len(rows),
        )
        del calls[:]
        assert [engine.knn(query, 5) for query in queries] == answers
        assert cascade_calls < len(calls)
        # Under the mean bound alone: exactly the rows whose bound is
        # within the final k-th distance.
        for query, answer in zip(queries, answers):
            del calls[:]
            engine.knn(query, 5)
            bounds = engine._lower_bounds(engine._prepare(query)[1])
            assert len(calls) == int((bounds - BOUND_TOLERANCE <= answer[-1][0]).sum())

    def test_fewer_refinements_than_under_lemma_1(self, video, monkeypatch):
        engine, queries = video
        calls = self.counted(monkeypatch)
        answers = [engine.knn(query, 5) for query in queries]
        mean_bound_calls = len(calls)
        monkeypatch.setattr(SimilaritySearch, "_lower_bounds", lemma1_bounds)
        del calls[:]
        assert [engine.knn(query, 5) for query in queries] == answers
        assert mean_bound_calls < len(calls)
