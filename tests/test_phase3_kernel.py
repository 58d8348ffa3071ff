"""The one Phase-3 body against the per-sequence row reference.

``repro.core.distance.dnorm_instances`` — alone, and through
``dnorm_pairs``, which reads every instance off one ``Dmbr`` block and
builds only those within reach, for every caller: ``phase3_kernel`` /
``match_candidates`` (one query, many sequences), ``match_queries`` (many
queries, one sequence), the swapped instances of the long-query case,
``explain`` and ``min_normalized_distance`` — must return *the same*
verdicts, solution intervals, work counters and values as running
``normalized_distance_row`` sequence by sequence, including its tie-break
between equal ``Dnorm`` windows, not merely sound ones.
``normalized_distance_row`` is the O(r) per-sequence implementation that
used to live in ``repro.core.distance``; it is kept here, unchanged, as the
reference.  The corpora are built to
make ties and edge windows common: random walks whose steps are often
exactly zero (duplicated points, all-zero ``Dmbr`` rows), one-point
segments (``max_points`` 1), sequences shorter than a query MBR (the
fallback window), long queries, and survivor lists that are empty or touch
the first, last and adjacent rows of the segment table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.distance as distance_module
import repro.core.search as search_module
from repro.core.contracts import lower_bounds
from repro.core.database import SequenceDatabase
from repro.core.distance import (
    INFINITY,
    NormalizedDistance,
    SegmentRuns,
    _validate_normalized_distance,
    dnorm_instances,
    dnorm_pairs,
    min_normalized_distance,
)
from repro.core.mbr import MBR
from repro.core.partitioning import partition_sequence
from repro.core.search import (
    SearchStats,
    SimilaritySearch,
    _stored_runs,
    phase3_kernel,
)
from repro.core.solution_interval import IntervalSet

_STEPS = [0.0, 0.0, 0.0, 0.01, -0.01, 0.05, -0.05, 0.4, -0.4]
_EPSILONS = [0.0, 0.02, 0.1, 0.3, 1.0]


# ----------------------------------------------------------------------
# The reference: Dnorm against every anchor of one sequence, in Python
# ----------------------------------------------------------------------
def _validate_normalized_distance_row(
    result: list[NormalizedDistance],
    query_mbr,
    query_count: int,
    data_mbrs,
    data_counts,
    *,
    dmbr_row: np.ndarray | None = None,
    only_below: float | None = None,
) -> None:
    mbr_list = list(data_mbrs)
    for entry in result:
        _validate_normalized_distance(
            entry, query_mbr, query_count, mbr_list, data_counts, entry.target_index
        )


@dataclass(frozen=True)
class DnormWindow:
    """One candidate ``Dnorm`` window shared by a run of anchors.

    A window's value and membership do not depend on the anchor — only its
    *validity* does (the anchor must lie among the fully-weighted MBRs).
    ``normalized_distance_row`` therefore enumerates each window once and
    lets every anchor in ``[anchor_first, anchor_last]`` consider it.
    """

    value: float
    first: int
    last: int
    marginal_index: int | None
    marginal_count: int
    marginal_side: str
    anchor_first: int
    anchor_last: int

    def as_result(self, anchor: int) -> NormalizedDistance:
        """This window viewed as the result for one anchor."""
        return NormalizedDistance(
            value=self.value,
            target_index=anchor,
            window=(self.first, self.last),
            marginal_index=self.marginal_index,
            marginal_count=self.marginal_count,
            marginal_side=self.marginal_side,
        )


@lower_bounds(
    _validate_normalized_distance_row, label="Dnorm row >= window min Dmbr"
)
def normalized_distance_row(
    query_mbr,
    query_count: int,
    data_mbrs,
    data_counts,
    *,
    dmbr_row: np.ndarray | None = None,
    only_below: float | None = None,
) -> list[NormalizedDistance]:
    """``Dnorm`` against *every* anchor of a data sequence at once.

    Semantically identical to calling :func:`normalized_distance` for each
    ``target_index`` (a property test asserts this), but O(r) instead of
    O(r^2): every candidate window is enumerated once via prefix sums of
    the point counts and of ``Dmbr * count``, and each anchor then takes
    the minimum over the windows whose fully-weighted span covers it.

    Parameters
    ----------
    only_below:
        When given, only the anchors whose ``Dnorm`` is at most this value
        are materialised (the search's Phase 3 only acts on sub-threshold
        anchors); ``None`` returns every anchor, in order.

    Returns
    -------
    list of NormalizedDistance
        One entry per anchor (filtered and still anchor-ordered when
        ``only_below`` is given).
    """
    counts = np.asarray(data_counts, dtype=np.int64)
    mbr_list = list(data_mbrs)
    r = len(mbr_list)
    if counts.shape != (r,):
        raise ValueError(
            f"data_counts must have one entry per data MBR; got {counts.shape} "
            f"for {r} MBRs"
        )
    if r == 0:
        raise ValueError("data sequence has no MBRs")
    if np.any(counts < 1):
        raise ValueError("every data MBR must contain at least one point")
    if query_count < 1:
        raise ValueError(f"query_count must be >= 1, got {query_count}")
    if dmbr_row is None:
        dmbr_row = np.array(
            [query_mbr.min_distance(m) for m in mbr_list], dtype=np.float64
        )
    else:
        dmbr_row = np.asarray(dmbr_row, dtype=np.float64)
        if dmbr_row.shape != (r,):
            raise ValueError(
                f"dmbr_row must have one entry per data MBR; got {dmbr_row.shape}"
            )

    # The remainder runs in plain Python: the per-sequence segment counts
    # this operates on are tiny (typically < 100), where list arithmetic
    # and bisect beat numpy's per-call overhead by an order of magnitude.
    count_list = counts.tolist()
    row_list = dmbr_row.tolist()
    prefix = [0] * (r + 1)
    weighted_prefix = [0.0] * (r + 1)
    for index in range(r):
        prefix[index + 1] = prefix[index] + count_list[index]
        weighted_prefix[index + 1] = (
            weighted_prefix[index] + row_list[index] * count_list[index]
        )
    total = prefix[-1]
    # A difference of running sums can round below the least Dmbr, which
    # Dnorm never is (Lemma 2); the body floors every value there too.
    least = min(row_list)

    windows: list[DnormWindow] = []
    # LD windows, one per start k: fully weighted k..l-1, marginal l.
    for k in range(r):
        l = bisect.bisect_left(prefix, prefix[k] + query_count) - 1
        if l >= r or l <= k:
            continue
        marginal = query_count - (prefix[l] - prefix[k])
        value = max(
            least,
            (weighted_prefix[l] - weighted_prefix[k] + row_list[l] * marginal)
            / query_count,
        )
        windows.append(
            DnormWindow(
                value=value,
                first=k,
                last=l,
                marginal_index=l,
                marginal_count=marginal,
                marginal_side="right",
                anchor_first=k,
                anchor_last=l - 1,
            )
        )
    # RD windows, one per end q_end: marginal p, fully weighted p+1..q_end.
    for q_end in range(r):
        threshold = prefix[q_end + 1] - query_count
        if threshold < 0:
            continue
        p = bisect.bisect_right(prefix, threshold) - 1
        if p >= q_end:
            continue
        marginal = query_count - (prefix[q_end + 1] - prefix[p + 1])
        value = max(
            least,
            (
                weighted_prefix[q_end + 1]
                - weighted_prefix[p + 1]
                + row_list[p] * marginal
            )
            / query_count,
        )
        windows.append(
            DnormWindow(
                value=value,
                first=p,
                last=q_end,
                marginal_index=p,
                marginal_count=marginal,
                marginal_side="left",
                anchor_first=p + 1,
                anchor_last=q_end,
            )
        )

    fallback_value = max(least, weighted_prefix[-1] / total)

    # Anchor-wise minimum over covering windows; no result objects are
    # built for anchors the caller will discard.
    values = [
        row_list[anchor] if count_list[anchor] >= query_count else INFINITY
        for anchor in range(r)
    ]
    window_of = [-1] * r
    for window_id, window in enumerate(windows):
        value = window.value
        for anchor in range(window.anchor_first, window.anchor_last + 1):
            if count_list[anchor] < query_count and value < values[anchor]:
                values[anchor] = value
                window_of[anchor] = window_id
    for anchor in range(r):
        if count_list[anchor] < query_count and window_of[anchor] == -1:
            values[anchor] = fallback_value

    def materialise(anchor: int) -> NormalizedDistance:
        if count_list[anchor] >= query_count:
            return NormalizedDistance(
                value=row_list[anchor],
                target_index=anchor,
                window=(anchor, anchor),
                marginal_index=None,
                marginal_count=0,
                marginal_side="none",
            )
        window_id = window_of[anchor]
        if window_id >= 0:
            return windows[window_id].as_result(anchor)
        return NormalizedDistance(
            value=fallback_value,
            target_index=anchor,
            window=(0, r - 1),
            marginal_index=None,
            marginal_count=0,
            marginal_side="none",
        )

    if only_below is None:
        return [materialise(anchor) for anchor in range(r)]
    return [
        materialise(anchor)
        for anchor in range(r)
        if values[anchor] <= only_below
    ]




# ----------------------------------------------------------------------
# Strategies and the per-pair reference built on it
# ----------------------------------------------------------------------
def walks(dimension: int, length):
    """Strategy: a clipped random walk with many exactly repeated points."""
    steps = arrays(
        np.float64,
        st.tuples(length, st.just(dimension)),
        elements=st.sampled_from(_STEPS),
    )
    return steps.map(lambda s: np.clip(0.5 + np.cumsum(s, axis=0), 0.0, 1.0))


@st.composite
def corpora(draw, min_sequences=0):
    """A small database, plus a way to draw queries that often match it."""
    dimension = draw(st.integers(1, 3))
    max_points = draw(st.integers(1, 8))
    corpus = draw(
        st.lists(
            walks(dimension, st.integers(1, 40)),
            min_size=min_sequences,
            max_size=6,
        )
    )
    database = SequenceDatabase(dimension, max_points=max_points)
    for ordinal, points in enumerate(corpus):
        database.add(points, sequence_id=f"s{ordinal}")
    return database, corpus


@st.composite
def queries_for(draw, corpus, dimension, max_length=50):
    query = draw(walks(dimension, st.integers(1, max_length)))
    if corpus and draw(st.booleans()):
        # A query cut out of the corpus: exact zeros and real matches.
        source = corpus[draw(st.integers(0, len(corpus) - 1))]
        start = draw(st.integers(0, len(source) - 1))
        query = source[start : start + draw(st.integers(1, 30))]
    return query


@st.composite
def cases(draw, min_sequences=0):
    database, corpus = draw(corpora(min_sequences))
    query = draw(queries_for(corpus, database.dimension))
    chosen = (
        draw(st.lists(st.sampled_from(sorted(database.ids())), unique=True))
        if corpus
        else []
    )
    return database, query, chosen, draw(st.sampled_from(_EPSILONS))


def reference_phase3(query_partition, partition, epsilon, find_intervals):
    """Phase 3 for one (query, sequence) pair from ``normalized_distance_row``.

    Returns ``(matched, interval, dmbr_rows, dnorm_evaluations)``; without
    intervals it stops at the first probe that matches, as the search
    always has.  A query holding more points than the sequence swaps the
    roles: each data segment probes the query's partition, and a hit
    contributes that data segment's whole span.
    """
    swapped = len(query_partition.sequence) > len(partition.sequence)
    probes, targets = (
        (partition, query_partition) if swapped else (query_partition, partition)
    )
    counts = targets.counts
    segments = targets.segments
    spans = []
    matched = False
    dmbr_rows = dnorm_evaluations = 0
    for probe in probes:
        row = targets.mbr_distance_row(probe.mbr)
        dmbr_rows += 1
        if float(row.min()) > epsilon:
            continue
        results = normalized_distance_row(
            probe.mbr,
            int(probe.count),
            targets.mbrs,
            counts,
            dmbr_row=row,
            only_below=epsilon,
        )
        dnorm_evaluations += len(counts)
        if results:
            matched = True
            if not find_intervals:
                break
            if swapped:
                spans.append((probe.start, probe.stop))
                continue
            for result in results:
                for t, first, last in result.involved_points(counts):
                    base = segments[t].start
                    spans.append((base + first, base + last + 1))
    return matched, IntervalSet(spans), dmbr_rows, dnorm_evaluations


def kernel_rows(database, rows, query_partition, epsilon, find_intervals, stats):
    """``phase3_kernel`` for one query against table rows: ``row -> interval``
    of the rows that match."""
    found = phase3_kernel(
        database.segment_table,
        [(query_partition, epsilon)],
        rows,
        find_intervals=find_intervals,
        stats=stats,
    )
    return {
        int(rows[pair]): interval
        for pair, interval in found.items()
        if interval is not None
    }


def reference_best(query_partition, partition):
    """What ``explain`` reports, the way it used to find it: every anchor of
    every probe in order, a strict ``<`` keeping the first smallest
    ``Dnorm``.  Returns ``(min Dmbr, probe index, NormalizedDistance)``."""
    swapped = len(query_partition.sequence) > len(partition.sequence)
    probes, targets = (
        (partition, query_partition) if swapped else (query_partition, partition)
    )
    floors = []
    best = None
    for probe in probes:
        row = targets.mbr_distance_row(probe.mbr)
        floors.append(float(row.min()))
        for result in normalized_distance_row(
            probe.mbr, int(probe.count), targets.mbrs, targets.counts, dmbr_row=row
        ):
            if best is None or result.value < best[1].value:
                best = (probe.index, result)
    return min(floors), best[0], best[1]


# ----------------------------------------------------------------------
# The body itself, instance by instance
# ----------------------------------------------------------------------
@st.composite
def instance_sets(draw):
    """Stacked runs and instances over them, probe counts unconstrained:
    a probe may hold more points than its whole target run (Definition 5's
    fallback), which no search can ask for."""
    dimension = draw(st.integers(1, 3))
    max_points = draw(st.integers(1, 6))
    partitions = [
        partition_sequence(points, max_points=max_points)
        for points in draw(
            st.lists(walks(dimension, st.integers(1, 25)), min_size=1, max_size=4)
        )
    ]
    instances = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(partitions) - 1),  # target run
                st.integers(0, len(partitions) - 1),  # partition of the probe
                st.integers(0, 24),  # its segment (wrapped)
                st.integers(1, 30),  # |q_i|
                st.sampled_from([*_EPSILONS, INFINITY]),
            ),
            max_size=8,
        )
    )
    return partitions, instances


class TestBodyEqualsRowReference:
    @given(instance_sets())
    # Eight one-point segments whose last three lie 0.9 - 0.6 from the
    # probe (0.30000000000000004 in floating point), |q_i| = 2: the running
    # sums put window (6, 7) at 0.29999999999999993, below every Dmbr of
    # the run, so at eps = 0.3 the body's "nearest <= eps" cut skipped
    # what the row reference found, and at eps = inf it reported it.
    @example(
        (
            [
                partition_sequence(
                    np.array([[0.5], [0.5], [0.55], [0.55], [0.55], [0.6], [0.6], [0.6]]),
                    max_points=1,
                ),
                partition_sequence(np.array([[0.9]]), max_points=1),
            ],
            [(0, 1, 0, 2, 0.3), (0, 1, 0, 2, INFINITY)],
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_instance(self, drawn):
        partitions, instances = drawn
        probes = [
            partitions[p].segments[s % len(partitions[p])].mbr
            for _, p, s, _, _ in instances
        ]
        rows = [
            partitions[target].mbr_distance_row(probe)
            for (target, *_), probe in zip(instances, probes)
        ]
        arguments = (
            np.concatenate([np.zeros(0), *rows]),
            np.concatenate(
                [np.zeros(0, dtype=np.int64)]
                + [partitions[t].counts for t, *_ in instances]
            ),
            np.cumsum([0, *(len(row) for row in rows)]),
            np.array([count for *_, count, _ in instances], dtype=np.int64),
            np.array([epsilon for *_, epsilon in instances], dtype=np.float64),
        )
        found, windows = dnorm_instances(*arguments)
        found_only, none = dnorm_instances(*arguments, windows=False)
        assert found_only.tolist() == found.tolist()
        assert len(none.instance) == 0

        emitted = {}
        for fields in zip(
            *(
                getattr(windows, name).tolist()
                for name in (
                    "instance", "anchor", "first", "last", "value", "start", "stop"
                )
            )
        ):
            emitted.setdefault(fields[0], set()).add(fields[1:])
        for index, ((target, _, _, count, epsilon), probe, row) in enumerate(
            zip(instances, probes, rows)
        ):
            partition = partitions[target]
            counts = partition.counts
            results = normalized_distance_row(
                probe, count, partition.mbrs, counts, dmbr_row=row, only_below=epsilon
            )
            assert found[index] == bool(results)
            expected = {}
            for result in results:  # anchors ascend: the first one is kept
                points = [
                    (partition.segments[t].start + first, partition.segments[t].start + last + 1)
                    for t, first, last in result.involved_points(counts)
                ]
                # An LD and an RD window may cover the same segments.
                expected.setdefault(
                    (*result.window, result.value, result.marginal_side),
                    (result.target_index, points[0][0], points[-1][1]),
                )
            assert emitted.get(index, set()) == {
                (anchor, first, last, value, start, stop)
                for (first, last, value, _), (anchor, start, stop) in expected.items()
            }


# ----------------------------------------------------------------------
# The Dmbr block: which instances are built, and what they are handed
# ----------------------------------------------------------------------
def probing(query_partition, partition):
    """``(probes, targets)`` of one pair: the query probes unless it holds
    more points than the stored sequence."""
    if len(query_partition.sequence) > len(partition.sequence):
        return partition, query_partition
    return query_partition, partition


@st.composite
def tight_cases(draw):
    """A database, a query of many one- or two-point MBRs and a threshold
    at which most (probe, sequence) instances are out of reach: zero, a
    small one, or exactly some instance's least Dmbr."""
    database, corpus = draw(corpora(min_sequences=1))
    query = partition_sequence(
        draw(queries_for(corpus, database.dimension)),
        max_points=draw(st.integers(1, 2)),
    )
    minima = sorted(
        float(targets.mbr_distance_row(probe.mbr).min())
        for _, partition in database.partitions()
        for probes, targets in [probing(query, partition)]
        for probe in probes
    )
    lowest = minima[: len(minima) // 3 + 1]
    epsilon = draw(st.sampled_from([0.0, 0.01, 0.02, *lowest]))
    return database, query, epsilon


class TestDmbrBlock:
    @given(corpora(min_sequences=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_instance_minima_are_the_row_minima(self, drawn, data):
        """Straight and swapped pairs of several queries and rows in one
        block: every instance's least Dmbr is its row's, bit for bit."""
        database, corpus = drawn
        table = database.segment_table
        partitions = [
            partition_sequence(
                data.draw(queries_for(corpus, database.dimension, max_length=60)),
                max_points=database.max_points,
            )
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        rows = np.array(
            data.draw(
                st.lists(st.integers(0, len(corpus) - 1), min_size=1, unique=True)
            ),
            dtype=np.int64,
        )
        grids = dnorm_pairs(
            SegmentRuns.of(partitions),
            _stored_runs(table),
            rows,
            np.full(len(partitions), INFINITY),
        )
        for query, column in np.ndindex(len(partitions), len(rows)):
            stored = database.partition(table.ids[rows[column]])
            probes, targets = probing(partitions[query], stored)
            swapped = probes is stored
            grid = grids[swapped]
            # Probes lie on the grid's first axis, in runs; targets on its second.
            run, target = (column, query) if swapped else (query, column)
            first = grid.probe_runs[run]
            assert grid.probe_runs[run + 1] - first == len(probes)
            least = grid.nearest[first : first + len(probes), target]
            assert [value.hex() for value in least.tolist()] == [
                float(targets.mbr_distance_row(probe.mbr).min()).hex()
                for probe in probes
            ]
            assert grid.built[first : first + len(probes), target].all()

    @pytest.mark.parametrize("query", [[[0.8]], [[0.8], [0.8], [0.8]]])
    def test_an_instance_exactly_at_its_threshold_is_built_and_matches(self, query):
        """The one instance's least Dmbr is the threshold itself — straight
        (a one-point query against a two-point sequence) and swapped (a
        three-point query against it)."""
        database = SequenceDatabase(1, max_points=1)
        database.add([[0.5], [0.5]], sequence_id="only")
        epsilon = MBR([0.8], [0.8]).min_distance(MBR([0.5], [0.5]))
        assert epsilon > 0.3  # 0.30000000000000004: not a round number
        search = SimilaritySearch(database)
        partition = partition_sequence(np.array(query), max_points=1)
        expected = IntervalSet([(0, 2)])
        assert search.match_candidates(partition, ["only"], epsilon) == {
            "only": expected
        }
        assert search.match_queries([(partition, epsilon, True)], "only") == (
            [True],
            [expected],
        )
        assert search.search(query, epsilon).answers == ["only"]

    @given(tight_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_counters_count_every_instance(self, case, find_intervals):
        """Most instances are never built, yet both counters are the
        reference's, which examines them all."""
        database, query, epsilon = case
        table = database.segment_table
        rows = np.arange(len(table.ids), dtype=np.int64)
        stats = SearchStats()
        found = kernel_rows(database, rows, query, epsilon, find_intervals, stats)
        expected = {}
        expected_rows = expected_evaluations = 0
        for row in rows.tolist():
            hit, interval, dmbr_rows, dnorm_evaluations = reference_phase3(
                query, database.partition(table.ids[row]), epsilon, find_intervals
            )
            expected_rows += dmbr_rows
            expected_evaluations += dnorm_evaluations
            if hit:
                expected[row] = interval
        assert found == expected
        assert stats.dmbr_rows == expected_rows
        assert stats.dnorm_evaluations == expected_evaluations

    @given(tight_cases())
    @settings(max_examples=200, deadline=None)
    def test_the_body_gets_only_instances_within_reach(self, case):
        database, query, epsilon = case
        table = database.segment_table
        received = []
        body = distance_module.dnorm_instances

        def spy(dmbr, counts, offsets, probe_counts, epsilons, **kwargs):
            received.append(len(probe_counts))
            return body(dmbr, counts, offsets, probe_counts, epsilons, **kwargs)

        distance_module.dnorm_instances = spy
        try:
            kernel_rows(
                database,
                np.arange(len(table.ids), dtype=np.int64),
                query,
                epsilon,
                True,
                SearchStats(),
            )
        finally:
            distance_module.dnorm_instances = body
        assert sum(received) == sum(
            float(targets.mbr_distance_row(probe.mbr).min()) <= epsilon
            for _, partition in database.partitions()
            for probes, targets in [probing(query, partition)]
            for probe in probes
        )


# ----------------------------------------------------------------------
# One query, many sequences
# ----------------------------------------------------------------------
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
        found = kernel_rows(
            database, rows, query_partition, epsilon, find_intervals, stats
        )

        expected = {}
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
            if hit:
                expected[row] = interval
                # Every match has points behind it when they are asked for.
                assert bool(interval) == find_intervals, table.ids[row]
        assert found == expected
        assert list(found) == list(expected)  # ascending rows
        assert stats.dmbr_rows == expected_rows
        assert stats.dnorm_evaluations == expected_evaluations

    @given(cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batched_siblings_equal_single_id_calls(self, case, find_intervals):
        """``match_candidates`` / ``candidates_within`` over a list against
        one-element lists and against the reference — which also sends
        long queries down the role-swapped instances."""
        database, query, chosen, epsilon = case
        search = SimilaritySearch(database)
        query_partition = partition_sequence(
            query, max_points=database.max_points
        )
        in_order = [sid for sid in database.ids() if sid in chosen]

        assert search.candidates_within(query_partition, chosen, epsilon) == [
            sid
            for sid in in_order
            if search.candidates_within(query_partition, [sid], epsilon)
        ]
        expected = {}
        for sid in in_order:
            hit, interval, _, _ = reference_phase3(
                query_partition, database.partition(sid), epsilon, find_intervals
            )
            alone = search.match_candidates(
                query_partition, [sid], epsilon, find_intervals=find_intervals
            )
            assert alone == ({sid: interval} if hit else {})
            expected.update(alone)
        got = search.match_candidates(
            query_partition, chosen, epsilon, find_intervals=find_intervals
        )
        assert got == expected
        assert list(got) == list(expected)  # database insertion order

    @given(corpora(min_sequences=1), st.data(), st.booleans(), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_tiles_change_nothing(self, drawn, data, find_intervals, cells):
        """Phase 3 takes the (query, row) pairs in tiles whose ``Dmbr``
        block holds at most ``_PHASE3_TILE_CELLS`` cells beside one query's
        or one row's own; with tiny tiles (one pair a tile at 1 cell) the
        verdicts, intervals, their order and both counters are those of
        the one tile."""
        database, corpus = drawn
        queries = [
            (
                partition_sequence(
                    data.draw(queries_for(corpus, database.dimension)),
                    max_points=database.max_points,
                ),
                data.draw(st.sampled_from(_EPSILONS)),
            )
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        table = database.segment_table
        rows = np.arange(len(table.ids), dtype=np.int64)
        whole = SearchStats()
        expected = phase3_kernel(
            table, queries, rows, find_intervals=find_intervals, stats=whole
        )

        tiles = []

        def recording(asked, stored, group, *args, **kwargs):
            tiles.append((np.diff(asked.offsets), np.diff(stored.offsets)[group]))
            return dnorm_pairs(asked, stored, group, *args, **kwargs)

        original = search_module._PHASE3_TILE_CELLS
        search_module._PHASE3_TILE_CELLS = cells
        search_module.dnorm_pairs = recording
        try:
            tiled = SearchStats()
            found = phase3_kernel(
                table, queries, rows, find_intervals=find_intervals, stats=tiled
            )
        finally:
            search_module._PHASE3_TILE_CELLS = original
            search_module.dnorm_pairs = dnorm_pairs
        assert found == expected
        assert list(found) == list(expected)
        assert tiled.dmbr_rows == whole.dmbr_rows
        assert tiled.dnorm_evaluations == whole.dnorm_evaluations
        # Every pair in one tile; past its first query and first row, a
        # tile's runs hold at most the budget.
        assert sum(len(q) * len(r) for q, r in tiles) == len(queries) * len(rows)
        segments = len(table.counts)
        assert all(q[1:].sum() <= max(1, cells // segments) for q, _ in tiles)
        assert all(r[1:].sum() <= max(1, cells // q.sum()) for q, r in tiles)

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
        assert search.match_queries([], "only") == ([], [])

    def test_a_window_never_reaches_into_the_next_sequence(self):
        """Two-point sequences of one-point segments side by side in the
        table: a 2-point query MBR has exactly one window in each, so the
        near ones must not borrow the far one's points, nor the reverse."""
        database = SequenceDatabase(1, max_points=1)
        database.add([[0.5], [0.5]], sequence_id="near")
        database.add([[0.9], [0.9]], sequence_id="far")
        database.add([[0.5], [0.5]], sequence_id="near-too")
        search = SimilaritySearch(database)
        partition = partition_sequence(np.array([[0.5], [0.5]]), max_points=2)
        assert len(partition) == 1 and partition[0].count == 2
        found = kernel_rows(
            database, np.arange(3), partition, 0.1, True, SearchStats()
        )
        assert found == {0: IntervalSet([(0, 2)]), 2: IntervalSet([(0, 2)])}
        assert search.search(np.array([[0.5], [0.5]]), 0.1).answers == [
            "near",
            "near-too",
        ]


# ----------------------------------------------------------------------
# Long queries: the swapped instances, batched
# ----------------------------------------------------------------------
class TestLongQueryCandidates:
    @given(corpora(min_sequences=1), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hits_spans_and_counters(self, drawn, data, find_intervals):
        """Every stored sequence is shorter than the query, so every
        candidate takes the role swap — all of them in one pass."""
        database, corpus = drawn
        longest = max(len(points) for points in corpus)
        query = data.draw(
            walks(database.dimension, st.integers(longest + 1, longest + 30))
        )
        if data.draw(st.booleans()):
            # The query contains a stored sequence: a real long-query match.
            query[3 : 3 + len(corpus[0])] = corpus[0][: len(query) - 3]
        epsilon = data.draw(st.sampled_from(_EPSILONS))
        query_partition = partition_sequence(query, max_points=database.max_points)
        search = SimilaritySearch(database)

        result = search.search(query, epsilon, find_intervals=find_intervals)
        expected = {}
        expected_rows = expected_evaluations = 0
        for sid in result.candidates:
            hit, interval, dmbr_rows, dnorm_evaluations = reference_phase3(
                query_partition, database.partition(sid), epsilon, find_intervals
            )
            expected_rows += dmbr_rows
            expected_evaluations += dnorm_evaluations
            if hit:
                expected[sid] = interval
        assert result.answers == list(expected)
        assert result.solution_intervals == (expected if find_intervals else {})
        assert result.stats.dmbr_rows == expected_rows
        assert result.stats.dnorm_evaluations == expected_evaluations


# ----------------------------------------------------------------------
# Many queries, one sequence (the ε-cache patch)
# ----------------------------------------------------------------------
class TestMatchQueries:
    @given(corpora(min_sequences=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_query_at_its_own_threshold(self, drawn, data):
        database, corpus = drawn
        search = SimilaritySearch(database)
        sid = data.draw(st.sampled_from(sorted(database.ids())))
        queries = [
            (
                partition_sequence(
                    data.draw(queries_for(corpus, database.dimension)),
                    max_points=database.max_points,
                ),
                data.draw(st.sampled_from(_EPSILONS)),
                data.draw(st.booleans()),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        expected = []
        for query_partition, epsilon, find_intervals in queries:
            hit, interval, _, _ = reference_phase3(
                query_partition, database.partition(sid), epsilon, find_intervals
            )
            expected.append(interval if hit else None)
        admitted = search.queries_within([(q, eps) for q, eps, _ in queries], sid)
        assert search.match_queries(queries, sid) == (admitted, expected)

    def test_validation(self):
        database = SequenceDatabase(1)
        database.add(np.full((12, 1), 0.9), sequence_id="only")
        search = SimilaritySearch(database)
        partition = partition_sequence(np.full((4, 1), 0.5))
        assert search.match_queries(
            [(partition, 0.0, True), (partition, 0.5, True), (partition, 0.5, False)],
            "only",
        ) == ([False, True, True], [None, IntervalSet([(0, 12)]), IntervalSet()])
        with pytest.raises(KeyError):
            search.match_queries([(partition, 0.1, True)], "missing")
        with pytest.raises(ValueError):
            search.match_queries([(partition, -0.1, True)], "only")


# ----------------------------------------------------------------------
# explain / min_normalized_distance: the same body at eps = inf
# ----------------------------------------------------------------------
class TestUnthresholdedCallers:
    @given(cases(min_sequences=1))
    @settings(max_examples=200, deadline=None)
    def test_explain_and_min_dnorm_are_the_references(self, case):
        database, query, _, epsilon = case
        search = SimilaritySearch(database)
        query_partition = partition_sequence(
            query, max_points=database.max_points
        )
        for sid, partition in database.partitions():
            min_dmbr, probe, best = reference_best(query_partition, partition)
            explanation = search.explain(query, epsilon, sid)
            # Bit for bit: these are the same sums in the same order.
            assert explanation.min_dmbr.hex() == min_dmbr.hex()
            assert explanation.min_dnorm.hex() == float(best.value).hex()
            assert explanation.best_probe_segment == probe
            assert explanation.best_anchor == best.target_index
            assert explanation.best_window == best.window
            assert (
                min_normalized_distance(query_partition, partition).hex()
                == float(best.value).hex()
            )
