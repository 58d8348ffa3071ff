"""Unit tests for the k-best-subsequence search extension."""

import time

import numpy as np
import pytest

from repro.core.database import SequenceDatabase
from repro.core.distance import sliding_mean_distances
from repro.core.search import SimilaritySearch, SubsequenceHit
from repro.core.sequence import MultidimensionalSequence
from repro.util.budget import Deadline, OperationCancelled, deadline_scope
from tests.test_search import reversed_bounds, smooth_walk


def brute_force_best_local_minima(corpus, query, k):
    """Reference: local-minimum alignments across the corpus, sorted."""
    hits = []
    length = len(query)
    for sequence_id, sequence in corpus.items():
        if len(sequence) < length:
            continue
        distances = sliding_mean_distances(query, sequence)
        n = distances.shape[0]
        for offset in range(n):
            left_ok = offset == 0 or distances[offset] <= distances[offset - 1]
            right_ok = (
                offset == n - 1 and n > 1 and distances[offset] < distances[offset - 1]
            ) or (offset < n - 1 and distances[offset] <= distances[offset + 1])
            if n == 1:
                left_ok = right_ok = True
            if offset == 0:
                keep = n == 1 or distances[0] <= distances[1]
            elif offset == n - 1:
                keep = distances[-1] < distances[-2]
            else:
                keep = left_ok and distances[offset] <= distances[offset + 1]
            if keep:
                hits.append((float(distances[offset]), sequence_id, offset))
    hits.sort()
    return hits[:k]


@pytest.fixture
def corpus_db(rng):
    db = SequenceDatabase(dimension=3, max_points=16)
    corpus = {}
    for i in range(15):
        seq = MultidimensionalSequence(
            smooth_walk(rng, int(rng.integers(30, 90))), sequence_id=i
        )
        corpus[i] = seq
        db.add(seq)
    return db, corpus


class TestKnnSubsequences:
    def test_planted_best_match_found_first(self, corpus_db, rng):
        db, corpus = corpus_db
        engine = SimilaritySearch(db)
        source = corpus[6]
        query = source.points[10:25]
        hits = engine.knn_subsequences(query, 3)
        assert hits[0].sequence_id == 6
        assert hits[0].offset == 10
        assert hits[0].distance == pytest.approx(0.0)
        assert hits[0].length == 15

    def test_matches_brute_force_ranking(self, corpus_db, rng):
        db, corpus = corpus_db
        engine = SimilaritySearch(db)
        query = smooth_walk(rng, 12)
        for k in (1, 4, 8):
            hits = engine.knn_subsequences(query, k)
            expected = brute_force_best_local_minima(corpus, query, k)
            got = [(h.distance, h.sequence_id, h.offset) for h in hits]
            np.testing.assert_allclose(
                [g[0] for g in got], [e[0] for e in expected], atol=1e-12
            )

    def test_distances_ascending(self, corpus_db, rng):
        db, _ = corpus_db
        engine = SimilaritySearch(db)
        hits = engine.knn_subsequences(smooth_walk(rng, 10), 6)
        distances = [hit.distance for hit in hits]
        assert distances == sorted(distances)

    def test_include_overlapping_returns_every_alignment(self, corpus_db, rng):
        db, corpus = corpus_db
        engine = SimilaritySearch(db)
        query = corpus[2].points[5:15]
        dense = engine.knn_subsequences(
            query, 10, exclude_overlapping=False
        )
        sparse = engine.knn_subsequences(query, 10)
        # Without dedup, neighbours of the best alignment flood the top-k.
        offsets = [h.offset for h in dense if h.sequence_id == 2]
        assert any(abs(a - b) == 1 for a in offsets for b in offsets if a != b)
        assert len(sparse) <= len(dense)

    def test_shorter_sequences_skipped(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((5, 2)), sequence_id="short")
        db.add(rng.random((40, 2)), sequence_id="long")
        engine = SimilaritySearch(db)
        hits = engine.knn_subsequences(rng.random((10, 2)), 5)
        assert all(hit.sequence_id == "long" for hit in hits)

    def test_k_larger_than_alignments(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((12, 2)), sequence_id=0)
        engine = SimilaritySearch(db)
        hits = engine.knn_subsequences(rng.random((10, 2)), 50)
        assert 1 <= len(hits) <= 3  # only 3 alignments exist, deduped

    def test_validation(self, corpus_db, rng):
        db, _ = corpus_db
        engine = SimilaritySearch(db)
        with pytest.raises(ValueError):
            engine.knn_subsequences(smooth_walk(rng, 5), 0)
        with pytest.raises(ValueError, match="dimension"):
            engine.knn_subsequences(rng.random((5, 2)), 1)

    def test_hit_type(self, corpus_db, rng):
        db, _ = corpus_db
        engine = SimilaritySearch(db)
        hits = engine.knn_subsequences(smooth_walk(rng, 8), 2)
        assert all(isinstance(hit, SubsequenceHit) for hit in hits)

    def test_an_expired_deadline_stops_the_refinement(self, corpus_db, rng):
        db, _ = corpus_db
        engine = SimilaritySearch(db)
        query = smooth_walk(rng, 8)
        ready = engine._lower_bounds(engine._prepare(query)[1])
        engine._lower_bounds = lambda query_partition: ready
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(OperationCancelled, match="knn.refine"):
                engine.knn_subsequences(query, 2)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ties_by_insertion_order_then_offset(self, rng, reverse):
        """Duplicate sequences, each holding the query twice: the k hits
        are the earliest (row, offset) pairs whatever the bound order."""
        db = SequenceDatabase(dimension=3, max_points=8)
        motif = smooth_walk(rng, 12)
        stored = np.concatenate(
            [smooth_walk(rng, 20), motif, smooth_walk(rng, 15), motif]
        )
        db.add(smooth_walk(rng, 60), sequence_id="other")
        for name in ("dup-a", "dup-b", "dup-c"):
            db.add(stored, sequence_id=name)
        engine = SimilaritySearch(db)
        if reverse:
            reversed_bounds(engine)
        expected = [("dup-a", 20), ("dup-a", 47), ("dup-b", 20), ("dup-b", 47)]
        for k in (1, 2, 3, 4):
            hits = engine.knn_subsequences(motif, k)
            assert [(hit.sequence_id, hit.offset) for hit in hits] == expected[:k]
            assert all(hit.distance == 0.0 for hit in hits)
