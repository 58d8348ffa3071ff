"""Property-based end-to-end tests of the full search pipeline.

The paper's headline guarantee — no false dismissals for sequence
selection — must hold for *any* corpus, any query and any threshold, so it
is tested here with hypothesis-generated inputs through the complete
pipeline (partitioning, indexing, Phase 2, Phase 3), not just at the
distance level.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.sequential import (
    SequentialScan,
    exact_range_search,
    exact_solution_interval,
)
from repro.core.contracts import BOUND_TOLERANCE
from repro.core.database import SequenceDatabase
from repro.core.distance import (
    segment_mean_bounds,
    sequence_distance,
    sliding_mean_distances,
)
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from tests.test_knn_subsequences import brute_force_best_local_minima
from tests.test_search import lemma1_bounds


def corpora(min_sequences=2, max_sequences=6, dims=(1, 3)):
    """Strategy: a small corpus plus a query of the same dimension."""

    def build(dimension):
        sequence = arrays(
            np.float64,
            st.tuples(st.integers(3, 25), st.just(dimension)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        )
        return st.tuples(
            st.lists(sequence, min_size=min_sequences, max_size=max_sequences),
            sequence,
            st.floats(0.0, 0.8),
        )

    return st.integers(dims[0], dims[1]).flatmap(build)


class TestEndToEndGuarantees:
    @given(corpora())
    @settings(max_examples=50, deadline=None)
    def test_no_false_dismissals_anywhere(self, case):
        sequences, query, epsilon = case
        database = SequenceDatabase(dimension=sequences[0].shape[1], max_points=4)
        corpus = {}
        for ordinal, points in enumerate(sequences):
            corpus[ordinal] = MultidimensionalSequence(points)
            database.add(corpus[ordinal], sequence_id=ordinal)
        engine = SimilaritySearch(database)

        result = engine.search(query, epsilon, find_intervals=False)
        relevant = exact_range_search(query, corpus, epsilon)

        assert relevant <= set(result.candidates), "Phase 2 false dismissal"
        assert relevant <= set(result.answers), "Phase 3 false dismissal"
        assert set(result.answers) <= set(result.candidates)

    @given(corpora(dims=(2, 2)))
    @settings(max_examples=30, deadline=None)
    def test_solution_intervals_well_formed(self, case):
        sequences, query, epsilon = case
        database = SequenceDatabase(dimension=2, max_points=4)
        for ordinal, points in enumerate(sequences):
            database.add(points, sequence_id=ordinal)
        engine = SimilaritySearch(database)

        result = engine.search(query, epsilon, find_intervals=True)
        assert set(result.solution_intervals) == set(result.answers)
        for sequence_id, interval in result.solution_intervals.items():
            length = len(database.sequence(sequence_id))
            for start, stop in interval.intervals:
                assert 0 <= start < stop <= length

    @given(corpora(dims=(2, 2)))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_epsilon(self, case):
        """A larger threshold can only grow the answer set."""
        sequences, query, epsilon = case
        database = SequenceDatabase(dimension=2, max_points=4)
        for ordinal, points in enumerate(sequences):
            database.add(points, sequence_id=ordinal)
        engine = SimilaritySearch(database)

        tight = engine.search(query, epsilon, find_intervals=False)
        loose = engine.search(query, epsilon + 0.2, find_intervals=False)
        assert set(tight.answers) <= set(loose.answers)
        assert set(tight.candidates) <= set(loose.candidates)

    @given(corpora(dims=(1, 2), max_sequences=4))
    @settings(max_examples=30, deadline=None)
    def test_knn_first_hit_is_true_minimum(self, case):
        sequences, query, _ = case
        database = SequenceDatabase(dimension=sequences[0].shape[1], max_points=4)
        corpus = {}
        for ordinal, points in enumerate(sequences):
            corpus[ordinal] = MultidimensionalSequence(points)
            database.add(corpus[ordinal], sequence_id=ordinal)
        engine = SimilaritySearch(database)
        best_distance, _ = engine.knn(query, 1)[0]
        true_minimum = min(
            sequence_distance(query, seq) for seq in corpus.values()
        )
        assert abs(best_distance - true_minimum) <= 1e-9


class TestSolutionIntervalQuality:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(12, 40), st.just(2)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        ),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_interval_never_escapes_approximation_by_much(
        self, points, epsilon
    ):
        """For a query cut from the sequence itself, the exact interval of
        the source must be almost fully covered (the paper's recall claim,
        asserted at >= 50% per instance to allow adversarial partitions;
        corpus-level recall is asserted at 0.95+ in the benchmarks)."""
        sequence = MultidimensionalSequence(points)
        query = MultidimensionalSequence(points[3:9])
        database = SequenceDatabase(dimension=2, max_points=4)
        database.add(sequence, sequence_id=0)
        engine = SimilaritySearch(database)

        result = engine.search(query, epsilon, find_intervals=True)
        assert 0 in result.answers  # exact subsequence: distance 0
        exact = exact_solution_interval(query, sequence, epsilon)
        approx = result.solution_intervals[0]
        assert len(exact) > 0
        covered = approx.intersection_size(exact)
        assert covered / len(exact) >= 0.5


# ----------------------------------------------------------------------
# k-NN: exact to the bit, ranked by the mean-Dmbr bound
# ----------------------------------------------------------------------
def brute_force_knn(engine, query, k):
    """``(distance, id)`` of a full scan, by (distance, insertion order)."""
    scan = [
        (sequence_distance(query, partition.sequence), sequence_id)
        for sequence_id, partition in engine.database.partitions()
    ]
    return sorted(scan, key=lambda pair: pair[0])[:k]


def knn_cases(query_length=st.integers(1, 60)):
    """Strategy: corpus, query (shorter or longer than the stored
    sequences, which hold 3-25 points), ``max_points`` and ``k``."""

    def build(dimension):
        def points(length):
            return arrays(
                np.float64,
                st.tuples(length, st.just(dimension)),
                # A coarse grid makes duplicated points, zero gaps and tied
                # distances common.
                elements=st.integers(0, 8).map(lambda step: step / 8),
            )

        return st.tuples(
            st.lists(points(st.integers(3, 25)), min_size=1, max_size=7),
            points(query_length),
            st.sampled_from([1, 4, 16]),
            st.integers(1, 9),
        )

    return st.integers(1, 3).flatmap(build)


def knn_engine(sequences, max_points):
    database = SequenceDatabase(
        dimension=sequences[0].shape[1], max_points=max_points
    )
    for ordinal, points in enumerate(sequences):
        database.add(points, sequence_id=ordinal)
    return SimilaritySearch(database)


class TestKnnIsExact:
    @given(knn_cases())
    @settings(max_examples=120, deadline=None)
    def test_knn_is_the_sorted_brute_force(self, case):
        """Distances bit-equal to a full scan's — shorter and longer
        queries, one-point MBRs, ``k >= N`` — ties in insertion order."""
        sequences, query, max_points, k = case
        engine = knn_engine(sequences, max_points)
        assert engine.knn(query, k) == brute_force_knn(engine, query, k)

    @given(knn_cases())
    @settings(max_examples=120, deadline=None)
    def test_mean_bound_sits_between_lemma_1_and_the_distance(self, case):
        sequences, query, max_points, _ = case
        engine = knn_engine(sequences, max_points)
        _, query_partition = engine._prepare(query)
        bounds = engine._lower_bounds(query_partition)
        weakest = lemma1_bounds(engine, query_partition)
        exact = np.array(
            [sequence_distance(query, points) for points in sequences]
        )
        assert np.all(bounds >= weakest - BOUND_TOLERANCE)
        assert np.all(bounds <= exact + BOUND_TOLERANCE)

    @given(knn_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_stored_subsequence_is_found_at_distance_zero(self, case, data):
        sequences, _, max_points, k = case
        engine = knn_engine(sequences, max_points)
        source = data.draw(st.integers(0, len(sequences) - 1))
        stop = data.draw(st.integers(1, len(sequences[source])))
        start = data.draw(st.integers(0, stop - 1))
        found = engine.knn(sequences[source][start:stop], k)
        assert found == brute_force_knn(engine, sequences[source][start:stop], k)
        assert found[0][0] == 0.0

    @given(knn_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_after_add_append_and_remove(self, case, data):
        sequences, query, max_points, k = case
        engine = knn_engine(sequences, max_points)
        database = engine.database
        engine.knn(query, k)  # derive the table the writes then replace
        database.add(sequences[0][::-1], sequence_id="added")
        assert engine.knn(query, k) == brute_force_knn(engine, query, k)
        target = data.draw(st.sampled_from(list(database.ids())))
        database.append_points(target, sequences[-1][:3])
        assert engine.knn(query, k) == brute_force_knn(engine, query, k)
        database.remove(data.draw(st.sampled_from(list(database.ids()))))
        assert engine.knn(query, k) == brute_force_knn(engine, query, k)

    @given(knn_cases(query_length=st.integers(1, 25)), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_knn_subsequences_is_the_sorted_brute_force(self, case, exclude):
        sequences, query, max_points, k = case
        engine = knn_engine(sequences, max_points)
        if exclude:  # one hit per dip of the profile
            expected = brute_force_best_local_minima(
                dict(enumerate(sequences)), query, k
            )
        else:  # every alignment
            expected = sorted(
                (distance, row, offset)
                for row, points in enumerate(sequences)
                if len(points) >= len(query)
                for offset, distance in enumerate(
                    sliding_mean_distances(query, points).tolist()
                )
            )[:k]
        hits = engine.knn_subsequences(query, k, exclude_overlapping=exclude)
        assert [(hit.distance, hit.sequence_id, hit.offset) for hit in hits] == (
            expected
        )
        assert all(hit.length == len(query) for hit in hits)


# ----------------------------------------------------------------------
# The segment-mean bound: below Dmean at every alignment, in both roles
# ----------------------------------------------------------------------
def bound_cases():
    """Strategy: a query and a stored sequence — either one the shorter,
    or both as long — each varied or constant, and ``max_points``."""

    def build(dimension):
        grid = st.integers(0, 8).map(lambda step: step / 8)

        def points(length):
            varied = arrays(
                np.float64,
                (length, dimension),
                elements=grid | st.floats(0.0, 1.0, allow_nan=False),
            )
            constant = arrays(np.float64, (dimension,), elements=grid).map(
                lambda point: np.tile(point, (length, 1))
            )
            return varied | constant

        lengths = st.integers(1, 30).flatmap(
            lambda first: st.tuples(st.just(first), st.just(first) | st.integers(1, 30))
        )
        return st.tuples(
            lengths.flatmap(lambda pair: st.tuples(*map(points, pair))),
            st.sampled_from([1, 2, 4, 16, 64]),
        )

    return st.integers(1, 3).flatmap(build)


def scan_knn(scan, query, k):
    """``knn`` over the sequential baseline's corpus: every sequence's
    ``D``, by (distance, insertion order)."""
    found = [(sequence_distance(query, s), sid) for sid, s in scan.sequences.items()]
    return sorted(found, key=lambda pair: pair[0])[:k]


def scan_alignments(scan, query, k):
    """``knn_subsequences(exclude_overlapping=False)`` over the same corpus."""
    return sorted(
        (distance, sid, offset)
        for sid, sequence in scan.sequences.items()
        if len(sequence) >= len(query)
        for offset, distance in enumerate(
            sliding_mean_distances(query, sequence).tolist()
        )
    )[:k]


class TestSegmentMeanBound:
    @given(bound_cases())
    @settings(max_examples=200, deadline=None)
    def test_below_dmean_at_every_alignment(self, case):
        """Blocks on the shorter side — its MCOST segments, as ``knn``
        puts them on the query, or a single block, the loosest partition —
        whichever side that is."""
        (query, stored), max_points = case
        short, long = sorted((query, stored), key=len)  # equal: the query
        for counts in (
            partition_sequence(short, max_points=max_points).counts,
            np.array([len(short)]),
        ):
            longs = [long, short, long[::-1]]
            bounds = segment_mean_bounds(short, counts, longs)
            for row, other in enumerate(longs):
                exact = sliding_mean_distances(short, other)
                assert np.all(bounds[row, : len(exact)] <= exact + BOUND_TOLERANCE)
                assert np.all(np.isinf(bounds[row, len(exact) :]))

    @given(bound_cases())
    @settings(max_examples=100, deadline=None)
    def test_the_row_bound_is_below_d(self, case):
        (query, stored), max_points = case
        engine = knn_engine([stored, query[::-1]], max_points)
        _, query_partition = engine._prepare(query)
        bounds = engine._segment_mean_bounds(query_partition, [0, 1])
        assert bounds[0] <= sequence_distance(query, stored) + BOUND_TOLERANCE
        assert bounds[1] <= sequence_distance(query, query[::-1]) + BOUND_TOLERANCE
        if len(stored) < len(query):  # only the mean-Dmbr bound filters it
            assert bounds[0] == -np.inf

    def test_round_off_off_the_unit_cube(self):
        """Coordinates near 1e6 and a few hundred points: the running sums
        cancel to errors far above ``BOUND_TOLERANCE``, and the bound must
        allow for them.  A near-copy ties the exact copy on the mean-``Dmbr``
        bound and comes first in insertion order, so it is refined first;
        the exact copy after it must still be found."""
        walk = np.random.default_rng(7).normal(0.0, 1e-2, (400, 3)).cumsum(axis=0)
        points = 1e6 + walk
        near = points.copy()  # a few ulps off, inside its segment's MBR
        near[70] += 1e-7 * ((points[69] + points[71]) / 2 - points[70])
        database = SequenceDatabase(dimension=3, max_points=16)
        for ordinal, sequence in enumerate([near, points, points[::-1]]):
            database.add(
                MultidimensionalSequence(sequence, validate_unit_cube=False),
                sequence_id=ordinal,
            )
        engine = SimilaritySearch(database)
        for short in (points, points[50:90]):
            off_cube = MultidimensionalSequence(short, validate_unit_cube=False)
            counts = partition_sequence(off_cube, max_points=16).counts
            exact = sliding_mean_distances(short, points)
            bounds = segment_mean_bounds(short, counts, [points])[0]
            assert np.all(bounds <= exact + BOUND_TOLERANCE)
            if len(short) == len(points):
                assert engine.knn(off_cube, 1) == [(0.0, 1)]
            else:
                hits = engine.knn_subsequences(off_cube, 1)
                assert [(h.distance, h.sequence_id, h.offset) for h in hits] == [
                    (0.0, 1, 50)
                ]
