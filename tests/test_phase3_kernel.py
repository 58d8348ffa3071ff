"""The batched Phase-3 kernel against the per-sequence reference.

``phase3_kernel`` must return *the same* verdicts, solution intervals and
work counters as running ``normalized_distance_row`` sequence by sequence
— including the reference's tie-break between equal ``Dnorm`` windows —
not merely sound ones.  The corpora here are built to make ties and edge
windows common: random walks whose steps are often exactly zero
(duplicated points, all-zero ``Dmbr`` rows), one-point segments
(``max_points`` 1), sequences shorter than a query MBR (the fallback
window), long queries, and survivor lists that are empty or touch the
first, last and adjacent rows of the segment table.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.database import SequenceDatabase
from repro.core.distance import normalized_distance_row
from repro.core.partitioning import partition_sequence
from repro.core.search import SearchStats, SimilaritySearch, phase3_kernel
from repro.core.solution_interval import IntervalSet

_STEPS = [0.0, 0.0, 0.0, 0.01, -0.01, 0.05, -0.05, 0.4, -0.4]
_EPSILONS = [0.0, 0.02, 0.1, 0.3, 1.0]


def walks(dimension: int, length):
    """Strategy: a clipped random walk with many exactly repeated points."""
    steps = arrays(
        np.float64,
        st.tuples(length, st.just(dimension)),
        elements=st.sampled_from(_STEPS),
    )
    return steps.map(lambda s: np.clip(0.5 + np.cumsum(s, axis=0), 0.0, 1.0))


@st.composite
def cases(draw, min_sequences=0):
    dimension = draw(st.integers(1, 3))
    max_points = draw(st.integers(1, 8))
    corpus = draw(
        st.lists(
            walks(dimension, st.integers(1, 40)),
            min_size=min_sequences,
            max_size=6,
        )
    )
    query = draw(walks(dimension, st.integers(1, 50)))
    if corpus and draw(st.booleans()):
        # A query cut out of the corpus: exact zeros and real matches.
        source = corpus[draw(st.integers(0, len(corpus) - 1))]
        start = draw(st.integers(0, len(source) - 1))
        query = source[start : start + draw(st.integers(1, 30))]
    database = SequenceDatabase(dimension, max_points=max_points)
    for ordinal, points in enumerate(corpus):
        database.add(points, sequence_id=f"s{ordinal}")
    chosen = (
        draw(st.lists(st.sampled_from(sorted(database.ids())), unique=True))
        if corpus
        else []
    )
    return database, query, chosen, draw(st.sampled_from(_EPSILONS))


def reference_phase3(query_partition, partition, epsilon, find_intervals):
    """Phase 3 for one sequence, straight from ``normalized_distance_row``.

    Returns ``(matched, interval, dmbr_rows, dnorm_evaluations)``; without
    intervals it stops at the first query MBR that matches, as the search
    always has.
    """
    counts = partition.counts
    segments = partition.segments
    spans = []
    matched = False
    dmbr_rows = dnorm_evaluations = 0
    for query_segment in query_partition:
        row = partition.mbr_distance_row(query_segment.mbr)
        dmbr_rows += 1
        if float(row.min()) > epsilon:
            continue
        results = normalized_distance_row(
            query_segment.mbr,
            int(query_segment.count),
            partition.mbrs,
            counts,
            dmbr_row=row,
            only_below=epsilon,
        )
        dnorm_evaluations += len(counts)
        if results:
            matched = True
            if not find_intervals:
                break
            for result in results:
                for t, first, last in result.involved_points(counts):
                    base = segments[t].start
                    spans.append((base + first, base + last + 1))
    return matched, IntervalSet(spans), dmbr_rows, dnorm_evaluations


class TestKernelEqualsReference:
    @given(cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_verdicts_intervals_and_counters(self, case, find_intervals):
        database, query, chosen, epsilon = case
        query_partition = partition_sequence(
            query, max_points=database.max_points
        )
        table = database.segment_table
        rows = np.array(
            sorted(table.rows[sid] for sid in chosen), dtype=np.int64
        )

        stats = SearchStats()
        matched, windows = phase3_kernel(
            database,
            rows,
            query_partition,
            epsilon,
            find_intervals=find_intervals,
            stats=stats,
        )
        intervals = windows.solution_intervals()

        expected_rows = expected_evaluations = 0
        for row in rows.tolist():
            hit, interval, dmbr_rows, dnorm_evaluations = reference_phase3(
                query_partition,
                database.partition(table.ids[row]),
                epsilon,
                find_intervals,
            )
            expected_rows += dmbr_rows
            expected_evaluations += dnorm_evaluations
            assert (row in matched.tolist()) == hit, table.ids[row]
            assert intervals.get(row, IntervalSet()) == interval, table.ids[row]
        assert stats.dmbr_rows == expected_rows
        assert stats.dnorm_evaluations == expected_evaluations
        # Every match has a window behind it when windows are asked for.
        assert set(intervals) == (
            set(matched.tolist()) if find_intervals else set()
        )

    @given(cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batched_siblings_equal_single_id_calls(self, case, find_intervals):
        """``match_candidates`` / ``candidates_within`` against one id at a
        time — which also sends long queries down the role-swapped path."""
        database, query, chosen, epsilon = case
        search = SimilaritySearch(database)
        query_partition = partition_sequence(
            query, max_points=database.max_points
        )
        in_order = [sid for sid in database.ids() if sid in chosen]

        assert search.candidates_within(query_partition, chosen, epsilon) == [
            sid
            for sid in in_order
            if search.candidate_within(query_partition, sid, epsilon)
        ]
        expected = {}
        for sid in in_order:
            hit, interval = search.match_candidate(
                query_partition, sid, epsilon, find_intervals=find_intervals
            )
            if hit:
                expected[sid] = interval
        got = search.match_candidates(
            query_partition, chosen, epsilon, find_intervals=find_intervals
        )
        assert got == expected
        assert list(got) == list(expected)  # database insertion order

    def test_empty_database_and_empty_survivor_list(self):
        database = SequenceDatabase(2)
        search = SimilaritySearch(database)
        query = np.full((5, 2), 0.5)
        result = search.search(query, 0.3)
        assert result.candidates == result.answers == []
        assert search.knn(query, 3) == []
        database.add(np.full((9, 2), 0.5), sequence_id="only")
        partition = partition_sequence(query)
        assert search.match_candidates(partition, [], 0.3) == {}
        assert search.candidates_within(partition, [], 0.3) == []

    def test_a_window_never_reaches_into_the_next_sequence(self):
        """Two one-point sequences side by side in the table: a 2-point
        query MBR finds no window in either (only the fallback), so the
        near one must not borrow the far one's point, nor the reverse."""
        database = SequenceDatabase(1, max_points=1)
        database.add([[0.5]], sequence_id="near")
        database.add([[0.9]], sequence_id="far")
        database.add([[0.5]], sequence_id="near-too")
        search = SimilaritySearch(database)
        partition = partition_sequence(np.array([[0.5], [0.5]]), max_points=2)
        assert len(partition) == 1 and partition[0].count == 2
        stats = SearchStats()
        matched, windows = phase3_kernel(
            database, np.arange(3), partition, 0.1, find_intervals=True, stats=stats
        )
        assert matched.tolist() == [0, 2]
        assert windows.solution_intervals() == {
            0: IntervalSet([(0, 1)]),
            2: IntervalSet([(0, 1)]),
        }
        assert search.search(np.array([[0.5], [0.5]]), 0.1).answers == [
            "near",
            "near-too",
        ]
