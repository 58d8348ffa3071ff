"""The three-phase similarity search (Section 3.4.2 of the paper).

Algorithm SIMILARITY_SEARCH:

* **Phase 1 — query partitioning.**  The query sequence is partitioned into
  MBRs with the same MCOST algorithm used for data sequences.
* **Phase 2 — first pruning (index search).**  For each query MBR the
  R-tree is probed for data-segment MBRs with ``Dmbr <= eps``; every
  sequence owning at least one such segment becomes a candidate
  (``AS_mbr``).  Lemma 1 guarantees no false dismissals.
* **Phase 3 — second pruning and solution intervals.**  For each candidate
  sequence and each query MBR, ``Dnorm`` is evaluated against every data
  segment; sequences with some ``Dnorm <= eps`` survive (``AS_norm``,
  Lemmas 2-3: still no false dismissals for sequence selection) and the
  points participating in each sub-threshold ``Dnorm`` computation are
  accumulated into the sequence's approximate solution interval (§3.3).

Phase 3 runs as one batched kernel, :func:`phase3_kernel`, over the rows
of the database's :class:`~repro.core.database.SegmentTable` that survived
Phase 2: per query MBR one ``Dmbr`` row over all their segments, every
``LD`` / ``RD`` window of every sequence at once, and the solution
intervals by one sort-and-merge.  It returns exactly what
:func:`repro.core.distance.normalized_distance_row` — the per-sequence
reference, still used for single sequences, ``explain`` and the contract
validators — would return candidate by candidate (a property test holds
the two equal), including the reference's tie-break between equal windows.
The k-NN bounds read the same table.

A k-nearest-sequences extension (:meth:`SimilaritySearch.knn`) implements
the optimal multi-step algorithm of Seidl & Kriegel over the same ``Dmbr``
lower bound — not part of the paper, but the natural follow-up query its
metrics enable.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.contracts import BOUND_TOLERANCE, ContractViolation, lower_bounds
from repro.core.database import SegmentTable, SequenceDatabase
from repro.core.distance import (
    NormalizedDistance,
    normalized_distance_row,
    sequence_distance,
    sliding_mean_distances,
)
from repro.core.partitioning import PartitionedSequence, partition_sequence
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import IntervalSet
from repro.util.budget import checkpoint
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy.typing as npt

    SequenceLike = MultidimensionalSequence | npt.ArrayLike

__all__ = [
    "MatchExplanation",
    "Phase3Windows",
    "SearchResult",
    "SearchStats",
    "SimilaritySearch",
    "SubsequenceHit",
    "phase3_kernel",
]

#: Phase 3 takes the Phase-2 survivors in chunks of about this many
#: segments: one cancellation checkpoint per chunk and query MBR (well
#: under a millisecond apart), and temporaries that stay cache-sized.
_PHASE3_CHUNK_SEGMENTS = 2048


@dataclass(frozen=True)
class SubsequenceHit:
    """One ranked subsequence match: where, and at what exact distance."""

    distance: float
    sequence_id: object
    offset: int
    length: int


@dataclass(frozen=True)
class MatchExplanation:
    """The full bound chain for one (query, sequence, epsilon) triple.

    Produced by :meth:`SimilaritySearch.explain`.  The invariant
    ``min_dmbr <= min_dnorm <= exact_distance`` always holds (Lemmas 1-3),
    so ``survives_phase2 >= survives_phase3 >= truly_relevant`` as booleans
    — a sequence pruned despite being relevant would be a correctness bug.
    """

    sequence_id: object
    epsilon: float
    #: Whether the long-query direction (roles swapped) was used.
    long_query: bool
    query_segments: int
    data_segments: int
    min_dmbr: float
    min_dnorm: float
    exact_distance: float
    survives_phase2: bool
    survives_phase3: bool
    truly_relevant: bool
    #: Probe segment (query MBR index, or data MBR index for long queries)
    #: achieving the best Dnorm.
    best_probe_segment: int
    best_anchor: int
    best_window: tuple[int, int]

    def verdict(self) -> str:
        """One-line human-readable summary."""
        if self.truly_relevant:
            status = "relevant, retrieved"
        elif self.survives_phase3:
            status = "false hit (passes both bounds, fails exact)"
        elif self.survives_phase2:
            status = "pruned by Dnorm (Phase 3)"
        else:
            status = "pruned by Dmbr (Phase 2)"
        return (
            f"{self.sequence_id!r} @ eps={self.epsilon}: {status} "
            f"[Dmbr {self.min_dmbr:.4f} <= Dnorm {self.min_dnorm:.4f} "
            f"<= D {self.exact_distance:.4f}]"
        )


@dataclass
class SearchStats:
    """Work and time accounting for one search call."""

    #: Wall-clock seconds per phase.
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    phase3_seconds: float = 0.0
    #: Index node accesses performed during Phase 2.
    node_accesses: int = 0
    #: Number of query MBRs produced by Phase 1.
    query_segments: int = 0
    #: Sequences surviving Phase 2 / Phase 3.
    candidates_after_dmbr: int = 0
    answers_after_dnorm: int = 0
    #: ``Dnorm`` evaluations actually performed (after fast-path skips).
    dnorm_evaluations: int = 0
    #: ``Dmbr`` rows computed (one per surviving query-MBR x sequence pair).
    dmbr_rows: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end search time."""
        return self.phase1_seconds + self.phase2_seconds + self.phase3_seconds


@dataclass
class SearchResult:
    """Everything one range search produces.

    Attributes
    ----------
    epsilon:
        The threshold searched with.
    query_partition:
        Phase 1's partition of the query sequence.
    candidates:
        Sequence ids surviving Phase 2 (the paper's ``AS_mbr``), in database
        insertion order.
    answers:
        Sequence ids surviving Phase 3 (``AS_norm``), in database order.
    solution_intervals:
        Approximate solution interval per answer sequence (only populated
        when the search was asked to find intervals).
    stats:
        Work/time accounting.
    """

    epsilon: float
    query_partition: PartitionedSequence
    candidates: list[object]
    answers: list[object]
    solution_intervals: dict[object, IntervalSet] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)

    def __contains__(self, sequence_id: object) -> bool:
        return sequence_id in set(self.answers)


def _validate_search_no_false_dismissals(
    result: SearchResult,
    engine: "SimilaritySearch",
    query: SequenceLike,
    epsilon: float,
    *,
    find_intervals: bool = True,
) -> None:
    """Lemmas 1-3 end to end: no stored sequence with ``D(Q, S)`` inside
    the threshold may be missing from the answer set.

    This recomputes the exact sliding distance against *every* stored
    sequence, so it is a full sequential scan per search — the price of
    certainty, paid only while contract checking is enabled.
    """
    query_sequence = result.query_partition.sequence
    answers = set(result.answers)
    candidates = set(result.candidates)
    for sequence_id, partition in engine.database.partitions():
        exact = sequence_distance(query_sequence, partition.sequence)
        if exact >= epsilon - BOUND_TOLERANCE:
            continue
        if sequence_id not in candidates:
            raise ContractViolation(
                f"false dismissal in Phase 2: sequence {sequence_id!r} has "
                f"exact distance {exact!r} <= epsilon {epsilon!r} but was "
                f"pruned by the Dmbr index probe — Lemma 1 violated"
            )
        if sequence_id not in answers:
            raise ContractViolation(
                f"false dismissal in Phase 3: sequence {sequence_id!r} has "
                f"exact distance {exact!r} <= epsilon {epsilon!r} but was "
                f"pruned by Dnorm — Lemmas 2-3 violated"
            )


def _validate_explanation(
    result: "MatchExplanation",
    engine: "SimilaritySearch",
    query: SequenceLike,
    epsilon: float,
    sequence_id: object,
) -> None:
    """The reported bound chain must be ordered: Dmbr <= Dnorm <= D."""
    if result.min_dmbr > result.min_dnorm + BOUND_TOLERANCE:
        raise ContractViolation(
            f"explain({sequence_id!r}): min Dmbr {result.min_dmbr!r} exceeds "
            f"min Dnorm {result.min_dnorm!r} — Lemma 2 violated"
        )
    if result.min_dnorm > result.exact_distance + BOUND_TOLERANCE:
        raise ContractViolation(
            f"explain({sequence_id!r}): min Dnorm {result.min_dnorm!r} "
            f"exceeds the exact distance {result.exact_distance!r} — "
            f"Lemma 3 violated"
        )


@dataclass(frozen=True)
class Phase3Windows:
    """The ``Dnorm`` windows one Phase-3 pass settled on, as flat arrays.

    One entry per window that some anchor with ``Dnorm <= eps`` took its
    value from: the anchor's own segment when that holds ``|q_i|`` points,
    its winning ``LD`` / ``RD`` window otherwise, the whole sequence in the
    short-sequence fallback.  ``start:stop`` is the run of the sequence's
    points the window covers — exactly ``|q_i|`` consecutive points for an
    ``LD`` / ``RD`` window — which is what §3.3 unions into the solution
    interval.  Segment and point positions are sequence-local.
    """

    #: Table row of the data sequence, and index of the query MBR.
    row: np.ndarray
    probe: np.ndarray
    #: First and last data segment taking part, and the window's ``Dnorm``.
    first: np.ndarray
    last: np.ndarray
    value: np.ndarray
    #: The half-open point range covered.
    start: np.ndarray
    stop: np.ndarray

    def solution_intervals(self) -> dict[int, IntervalSet]:
        """Union the windows of each row: ``row -> IntervalSet`` (§3.3).

        One sort by (row, start) and a running maximum of the stops merge
        every row's overlapping or touching spans at once.
        """
        if len(self.row) == 0:
            return {}
        stride = int(self.stop.max()) + 1  # keeps rows apart on one axis
        low = self.row * stride + self.start
        order = np.argsort(low)
        low = low[order]
        reach = np.maximum.accumulate((self.row * stride + self.stop)[order])
        heads = np.flatnonzero(np.append(True, low[1:] > reach[:-1]))
        tails = np.append(heads[1:], len(low)) - 1
        rows = low[heads] // stride
        spans: dict[int, list[tuple[int, int]]] = {}
        for row, start, stop in zip(
            rows.tolist(),
            (low[heads] - rows * stride).tolist(),
            (reach[tails] - rows * stride).tolist(),
        ):
            spans.setdefault(row, []).append((start, stop))
        return {row: IntervalSet(merged) for row, merged in spans.items()}


#: Field by field, what :class:`Phase3Windows` holds when nothing matched.
_NO_WINDOWS: tuple[np.ndarray, ...] = (
    *[np.zeros(0, dtype=np.int64)] * 4,
    np.zeros(0),
    *[np.zeros(0, dtype=np.int64)] * 2,
)


def _gather_rows(
    table: SegmentTable, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The segments of some table rows, laid out contiguously.

    Returns ``(lows, highs, counts, offsets)``: sequence ``i`` of ``rows``
    owns the gathered entries ``offsets[i]:offsets[i + 1]``.
    """
    first = table.sequence_offsets[rows]
    sizes = table.sequence_offsets[rows + 1] - first
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    take = np.arange(offsets[-1]) + np.repeat(first - offsets[:-1], sizes)
    return table.lows[take], table.highs[take], table.counts[take], offsets


def _sequence_bounds(
    query_partition: PartitionedSequence,
    lows: np.ndarray,
    highs: np.ndarray,
    offsets: np.ndarray,
    site: str,
) -> np.ndarray:
    """Lemma 1's bound for many sequences: ``min Dmbr`` over all MBR pairs.

    The sequences are the runs ``offsets[i]:offsets[i + 1]`` of the corner
    matrices (a whole segment table, or rows gathered from one).
    """
    if len(offsets) == 1:
        return np.zeros(0)
    best = np.full(len(lows), np.inf)
    for segment in query_partition:
        checkpoint(site)
        np.minimum(best, segment.mbr.min_distance_rows(lows, highs), out=best)
    return np.minimum.reduceat(best, offsets[:-1])


#: Cells of one broadcast block in :func:`_nearest_dmbr` (8 MB of float64).
_BROADCAST_CELLS = 1 << 20


def _nearest_dmbr(
    lows: np.ndarray,
    highs: np.ndarray,
    other_lows: np.ndarray,
    other_highs: np.ndarray,
) -> np.ndarray:
    """Per rectangle ``(lows[i], highs[i])``: its least ``Dmbr`` to any of the
    other rectangles — :meth:`MBR.min_distance_rows` for many rectangles at
    once, same arithmetic, blocked so the broadcast stays bounded."""
    nearest = np.empty(len(lows))
    step = max(1, _BROADCAST_CELLS // other_lows.size)
    for start in range(0, len(lows), step):
        block = slice(start, start + step)
        gaps = other_lows - highs[block, None, :]
        np.maximum(gaps, lows[block, None, :] - other_highs, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        np.multiply(gaps, gaps, out=gaps)
        nearest[block] = np.sqrt(gaps.sum(axis=2).min(axis=1))
    return nearest


def _validate_phase3_windows(
    result: tuple[np.ndarray, Phase3Windows],
    database: SequenceDatabase,
    rows: np.ndarray,
    query_partition: PartitionedSequence,
    epsilon: float,
    *,
    find_intervals: bool,
    stats: SearchStats,
) -> None:
    """Lemma 2 for every window the kernel emitted: ``Dnorm`` is a convex
    combination of the window's ``Dmbr`` values, so it cannot fall below
    their minimum — recomputed here from the MBR objects themselves, not
    from the rows the kernel computed."""
    windows = result[1]
    ids = database.segment_table.ids
    for row, probe, first, last, value in zip(
        windows.row.tolist(),
        windows.probe.tolist(),
        windows.first.tolist(),
        windows.last.tolist(),
        windows.value.tolist(),
    ):
        query_mbr = query_partition[probe].mbr
        data_mbrs = database.partition(ids[row]).mbrs[first : last + 1]
        bound = min(query_mbr.min_distance(mbr) for mbr in data_mbrs)
        if value < bound - BOUND_TOLERANCE:
            raise ContractViolation(
                f"Dnorm contract violated in Phase 3: value {value!r} falls "
                f"below the window's minimum Dmbr {bound!r} (sequence "
                f"{ids[row]!r}, query MBR {probe}, window ({first}, {last})) "
                f"— Lemma 2 no longer holds"
            )


@lower_bounds(
    _validate_phase3_windows, label="Phase-3 windows >= window min Dmbr"
)
def phase3_kernel(
    database: SequenceDatabase,
    rows: np.ndarray,
    query_partition: PartitionedSequence,
    epsilon: float,
    *,
    find_intervals: bool,
    stats: SearchStats,
) -> tuple[np.ndarray, Phase3Windows]:
    """Phase 3 for many stored sequences at once.

    Parameters
    ----------
    rows:
        Ascending rows of ``database.segment_table``; each sequence must
        hold at least as many points as the query (the long-query case
        swaps roles and is handled per sequence).
    find_intervals:
        When false, a sequence is dropped from the later query MBRs as
        soon as one matched it, and no windows are reported.

    Returns
    -------
    (matched, windows)
        The rows with some ``Dnorm <= epsilon`` (ascending), and the
        windows behind their solution intervals.

    Notes
    -----
    For a query MBR of ``|q_i|`` points and a sequence whose segments
    start at points ``P[0] < P[1] < ...``, Definition 5's windows are runs
    of exactly ``|q_i|`` consecutive points: the ``LD`` window starting at
    segment ``k`` covers ``[P[k], P[k] + |q_i|)``, the ``RD`` window ending
    at segment ``e`` covers ``[P[e + 1] - |q_i|, P[e + 1])``.  A binary
    search on ``P`` finds the marginal segment, prefix sums of
    ``Dmbr * count`` give the value, and a window exists only if it stays
    inside its own sequence.  The prefix sums restart at every sequence,
    so each value carries the same rounding as the reference's running
    sum.  ``stats.dmbr_rows`` counts one row per examined sequence and
    query MBR, ``stats.dnorm_evaluations`` the segments of the sequences
    whose row minimum is within ``epsilon``.
    """
    epsilon = check_threshold(epsilon)
    table = database.segment_table
    matched = [rows[:0]]
    emitted = [_NO_WINDOWS]
    if len(rows):
        sizes = table.sequence_offsets[rows + 1] - table.sequence_offsets[rows]
        chunk_of = (np.cumsum(sizes) - 1) // _PHASE3_CHUNK_SEGMENTS
        for chunk in np.split(rows, np.flatnonzero(np.diff(chunk_of)) + 1):
            found = _phase3_chunk(
                table, chunk, query_partition, epsilon, find_intervals, stats, emitted
            )
            matched.append(chunk[found])
    return np.concatenate(matched), Phase3Windows(
        *(np.concatenate(parts) for parts in zip(*emitted))
    )


def _phase3_chunk(
    table: SegmentTable,
    rows: np.ndarray,
    query_partition: PartitionedSequence,
    epsilon: float,
    find_intervals: bool,
    stats: SearchStats,
    emitted: list[tuple[np.ndarray, ...]],
) -> np.ndarray:
    """One chunk of :func:`phase3_kernel`: a mask of the ``rows`` that matched."""
    lows, highs, counts, offsets = _gather_rows(table, rows)
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(len(rows)), sizes)  # sequence of each segment
    local = np.arange(len(counts)) - offsets[:-1][owner]  # its index therein
    points = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=points[1:])
    origin = points[offsets[:-1]]  # first point of each sequence
    lengths = table.lengths[rows]
    begin = origin[owner]
    end = begin + lengths[owner]
    # Per-sequence running sums of Dmbr * count live in one padded matrix,
    # a row per sequence: slot[s] holds the sum *before* segment s and
    # slot[s] + 1 the sum including it.  Column 0 stays 0, and whatever an
    # earlier query MBR left behind a sequence's last slot feeds no slot
    # that is read, so the matrix is reused as it is.
    width = int(sizes.max()) + 1
    weighted = np.zeros((len(rows), width))
    prefix = weighted.reshape(-1)
    slot = owner * width + local

    found = np.zeros(len(rows), dtype=bool)
    pending = ~found
    for probe in query_partition:
        checkpoint("search.phase3")
        size = int(probe.count)
        row = probe.mbr.min_distance_rows(lows, highs)
        stats.dmbr_rows += int(pending.sum())
        # Dnorm is a weighted mean of row values, so it cannot fall below
        # the row minimum: only a sequence whose minimum is within epsilon
        # can match this query MBR.
        active = pending & (np.minimum.reduceat(row, offsets[:-1]) <= epsilon)
        if not active.any():
            continue
        stats.dnorm_evaluations += int(sizes[active].sum())
        live = active[owner]
        small = live & (counts < size)
        prefix[slot + 1] = row * counts
        np.cumsum(weighted, axis=1, out=weighted)

        # Anchors holding >= |q_i| points: Dnorm is their own Dmbr.
        solo = np.flatnonzero(live & ~small & (row <= epsilon))
        # LD windows, one per first segment: the |q_i| points from its
        # first point on; the marginal segment holds the last of them.
        reach = points[:-1] + size
        ld_first = np.flatnonzero(small & (reach <= end))
        ld_last = np.searchsorted(points, reach[ld_first], side="left") - 1
        ld = (
            prefix[slot[ld_last]]
            - prefix[slot[ld_first]]
            + row[ld_last] * (reach[ld_first] - points[ld_last])
        ) / size
        # RD windows, one per last segment: the |q_i| points up to its
        # last point; the marginal segment holds the first of them.
        floor = points[1:] - size
        rd_last = np.flatnonzero(small & (floor >= begin))
        rd_first = np.searchsorted(points, floor[rd_last], side="right") - 1
        rd = (
            prefix[slot[rd_last] + 1]
            - prefix[slot[rd_first] + 1]
            + row[rd_first] * (points[rd_first + 1] - floor[rd_last])
        ) / size
        # A sequence shorter than |q_i| has no window: every MBR counts in
        # full, normalised by the sequence length (Definition 5's fallback).
        short = np.flatnonzero(active & (lengths < size))
        whole = prefix[short * width + sizes[short]] / lengths[short]

        keep = ld <= epsilon
        ld_first, ld_last, ld = ld_first[keep], ld_last[keep], ld[keep]
        keep = rd <= epsilon
        rd_first, rd_last, rd = rd_first[keep], rd_last[keep], rd[keep]
        keep = whole <= epsilon
        short, whole = short[keep], whole[keep]
        found[owner[solo]] = True
        found[owner[ld_first]] = True
        found[owner[rd_last]] = True
        found[short] = True
        if not find_intervals:
            pending = ~found
            continue

        # The windows in the reference's order: LD by first segment, then
        # RD by last.  An LD window serves every segment but its last as
        # anchor, an RD window every segment but its first.
        first = np.concatenate([ld_first, rd_first])
        last = np.concatenate([ld_last, rd_last])
        value = np.concatenate([ld, rd])
        start = np.concatenate([points[ld_first], floor[rd_last]])
        won = _winning_windows(
            np.concatenate([ld_first, rd_first + 1]), last - first, value
        )
        first = np.concatenate([solo, first[won], offsets[:-1][short]])
        last = np.concatenate([solo, last[won], offsets[1:][short] - 1])
        start = np.concatenate([points[solo], start[won], origin[short]])
        span = np.concatenate(
            [counts[solo], np.full(len(won), size), lengths[short]]
        )
        sequence = owner[first]
        start -= origin[sequence]
        emitted.append(
            (
                rows[sequence],
                np.full(len(first), probe.index),
                local[first],
                local[last],
                np.concatenate([row[solo], value[won], whole]),
                start,
                start + span,
            )
        )
    return found


def _winning_windows(
    first_anchor: np.ndarray, anchors: np.ndarray, value: np.ndarray
) -> np.ndarray:
    """The windows that give some anchor its ``Dnorm`` (indices, ascending).

    Window ``w`` covers the ``anchors[w]`` anchors from ``first_anchor[w]``
    on.  Each anchor takes the smallest value among the windows covering
    it and, between equal values, the earliest window — the reference's
    strict ``<`` over LD windows by start, then RD windows by end, which is
    the order the caller passes them in.  Only windows within the threshold
    are passed: a larger one cannot win an anchor that ends up within it.
    """
    if len(value) == 0:
        return np.zeros(0, dtype=np.int64)
    window = np.repeat(np.arange(len(anchors)), anchors)
    anchor = (
        np.arange(len(window))
        - np.repeat(np.cumsum(anchors) - anchors, anchors)
        + first_anchor[window]
    )
    # lexsort is stable, so equal (anchor, value) pairs keep window order.
    order = np.lexsort((value[window], anchor))
    ranked = anchor[order]
    wins = np.zeros(len(value), dtype=bool)
    wins[window[order[np.append(True, ranked[1:] != ranked[:-1])]]] = True
    return np.flatnonzero(wins)


class SimilaritySearch:
    """Range and k-NN similarity search over a :class:`SequenceDatabase`."""

    def __init__(self, database: SequenceDatabase) -> None:
        if not isinstance(database, SequenceDatabase):
            raise TypeError(
                f"expected a SequenceDatabase, got {type(database).__name__}"
            )
        self.database = database

    # ------------------------------------------------------------------
    # Range search (the paper's algorithm)
    # ------------------------------------------------------------------
    @lower_bounds(
        _validate_search_no_false_dismissals, label="no false dismissals"
    )
    def search(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        find_intervals: bool = True,
    ) -> SearchResult:
        """Run SIMILARITY_SEARCH for one query sequence and threshold.

        Parameters
        ----------
        query:
            The query sequence (any length; both shorter and longer than
            data sequences is allowed, per the paper's "long query" case).
        epsilon:
            Similarity threshold in the normalised space.
        find_intervals:
            When true (default), Phase 3 also assembles the approximate
            solution interval of every answer sequence.

        Returns
        -------
        SearchResult
        """
        epsilon = check_threshold(epsilon)
        if not isinstance(query, MultidimensionalSequence):
            query = MultidimensionalSequence(query)
        if query.dimension != self.database.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != database dimension "
                f"{self.database.dimension}"
            )

        stats = SearchStats()

        # Phase 1: partition the query sequence.
        started = time.perf_counter()
        query_partition = partition_sequence(
            query,
            cost_constant=self.database.cost_constant,
            max_points=self.database.max_points,
        )
        stats.phase1_seconds = time.perf_counter() - started
        stats.query_segments = len(query_partition)

        # Phase 2: first pruning via the Dmbr index probe.
        started = time.perf_counter()
        index = self.database.index
        accesses_before = index.stats.node_accesses
        candidate_ids: set[object] = set()
        for segment in query_partition:
            checkpoint("search.phase2")
            for entry in index.search_within(segment.mbr, epsilon):
                candidate_ids.add(entry.payload.sequence_id)
        stats.node_accesses = index.stats.node_accesses - accesses_before
        rows = self._rows_of(candidate_ids)
        ids = self.database.segment_table.ids
        candidates = [ids[row] for row in rows.tolist()]
        stats.phase2_seconds = time.perf_counter() - started
        stats.candidates_after_dmbr = len(candidates)

        # Phase 3: second pruning with Dnorm + solution intervals.
        started = time.perf_counter()
        intervals = self._match_rows(
            query_partition,
            rows,
            epsilon,
            find_intervals=find_intervals,
            stats=stats,
        )
        answers = list(intervals)
        stats.phase3_seconds = time.perf_counter() - started
        stats.answers_after_dnorm = len(answers)

        return SearchResult(
            epsilon=epsilon,
            query_partition=query_partition,
            candidates=candidates,
            answers=answers,
            solution_intervals=intervals if find_intervals else {},
            stats=stats,
        )

    def _match_rows(
        self,
        query_partition: PartitionedSequence,
        rows: np.ndarray,
        epsilon: float,
        *,
        find_intervals: bool,
        stats: SearchStats,
    ) -> dict[object, IntervalSet]:
        """Phase 3 for the given table rows (ascending).

        Returns ``id -> solution interval`` for every sequence with some
        ``Dnorm <= epsilon``, in row order (the intervals are empty unless
        asked for).  Sequences at least as long as the query go through
        :func:`phase3_kernel` together; the paper's long-query case, where
        the roles of the two partitions swap, is examined per sequence.
        """
        table = self.database.segment_table
        long_query = table.lengths[rows] < len(query_partition.sequence)
        matched, windows = phase3_kernel(
            self.database,
            rows[~long_query],
            query_partition,
            epsilon,
            find_intervals=find_intervals,
            stats=stats,
        )
        # With intervals on, every matched row has at least one window.
        found = (
            windows.solution_intervals()
            if find_intervals
            else dict.fromkeys(matched.tolist(), IntervalSet())
        )
        for row in rows[long_query].tolist():
            checkpoint("search.phase3")
            hit, interval = self._examine_candidate_long_query(
                query_partition,
                self.database.partition(table.ids[row]),
                epsilon,
                find_intervals=find_intervals,
                stats=stats,
            )
            if hit:
                found[row] = interval
        return {table.ids[row]: found[row] for row in sorted(found)}

    # ------------------------------------------------------------------
    # Building blocks reused by the serving cache
    # ------------------------------------------------------------------
    def candidate_lower_bound(
        self, query_partition: PartitionedSequence, sequence_id: object
    ) -> float:
        """The Phase-2 bound ``min Dmbr`` for one stored sequence.

        The minimum over all (query segment, data segment) MBR pairs —
        exactly the quantity the index probe thresholds, so a sequence is
        a Phase-2 candidate at ``eps`` iff this value is ``<= eps``.
        ``Dmbr`` is symmetric in its two rectangles, so the result is
        independent of the long-query role swap.
        """
        partition = self.database.partition(sequence_id)
        return min(
            float(partition.mbr_distance_row(segment.mbr).min())
            for segment in query_partition
        )

    def candidate_within(
        self,
        query_partition: PartitionedSequence,
        sequence_id: object,
        epsilon: float,
    ) -> bool:
        """Whether one stored sequence is a Phase-2 candidate at ``epsilon``.

        Equivalent to ``candidate_lower_bound(...) <= epsilon``; the
        one-query form of :meth:`queries_within`.
        """
        epsilon = check_threshold(epsilon)
        return self.queries_within([(query_partition, epsilon)], sequence_id)[0]

    def queries_within(
        self,
        queries: Sequence[tuple[PartitionedSequence, float]],
        sequence_id: object,
    ) -> list[bool]:
        """For each ``(query partition, epsilon)``: is one stored sequence a
        Phase-2 candidate of that query at that threshold?

        The dual of :meth:`candidates_within` — many queries against one
        sequence — in one broadcast ``Dmbr`` between the stacked query MBRs
        and the sequence's segment rows.  The ε-aware result cache uses it
        to re-derive the Phase-2 verdict of every cached query for the one
        sequence a write touched, without an index probe.
        """
        partition = self.database.partition(sequence_id)
        if not queries:
            return []
        epsilons = np.array([check_threshold(epsilon) for _, epsilon in queries])
        sizes = [len(query_partition) for query_partition, _ in queries]
        nearest = _nearest_dmbr(
            np.concatenate([q.low_matrix for q, _ in queries]),
            np.concatenate([q.high_matrix for q, _ in queries]),
            partition.low_matrix,
            partition.high_matrix,
        )
        starts = np.cumsum([0, *sizes[:-1]])
        verdicts: list[bool] = (
            np.minimum.reduceat(nearest, starts) <= epsilons
        ).tolist()
        return verdicts

    def match_candidate(
        self,
        query_partition: PartitionedSequence,
        sequence_id: object,
        epsilon: float,
        *,
        find_intervals: bool = True,
    ) -> tuple[bool, IntervalSet]:
        """Run Phase 3 for a single stored sequence.

        Evaluates ``Dnorm`` between the pre-partitioned query and the
        stored sequence exactly as :meth:`search` does for each Phase-2
        survivor, returning whether the sequence matches at ``epsilon``
        and (when requested) its approximate solution interval.  The
        ε-aware result cache of :mod:`repro.service` uses this to refine a
        cached wider-threshold result down to a tighter one — sound by
        the monotonicity of Lemmas 2-3 — without re-running Phases 1-2.
        """
        epsilon = check_threshold(epsilon)
        partition = self.database.partition(sequence_id)
        return self._examine_candidate(
            query_partition,
            partition,
            epsilon,
            find_intervals=find_intervals,
            stats=SearchStats(),
        )

    def candidates_within(
        self,
        query_partition: PartitionedSequence,
        sequence_ids: Iterable[object],
        epsilon: float,
    ) -> list[object]:
        """Those of ``sequence_ids`` that are Phase-2 candidates at ``epsilon``.

        :meth:`candidate_within` for many stored sequences in one pass over
        the segment table; the result is in database insertion order.
        """
        epsilon = check_threshold(epsilon)
        table = self.database.segment_table
        rows = self._rows_of(sequence_ids)
        lows, highs, _, offsets = _gather_rows(table, rows)
        bounds = _sequence_bounds(
            query_partition, lows, highs, offsets, "search.phase2"
        )
        return [table.ids[row] for row in rows[bounds <= epsilon].tolist()]

    def match_candidates(
        self,
        query_partition: PartitionedSequence,
        sequence_ids: Iterable[object],
        epsilon: float,
        *,
        find_intervals: bool = True,
    ) -> dict[object, IntervalSet]:
        """Run Phase 3 for many stored sequences at once.

        :meth:`match_candidate` for a whole list: maps every sequence that
        matches at ``epsilon`` to its approximate solution interval (empty
        unless ``find_intervals``), in database insertion order.  This is
        the same batched kernel :meth:`search` runs over the Phase-2
        survivors, so refining a cached result costs what Phase 3 costs.
        """
        epsilon = check_threshold(epsilon)
        return self._match_rows(
            query_partition,
            self._rows_of(sequence_ids),
            epsilon,
            find_intervals=find_intervals,
            stats=SearchStats(),
        )

    def _rows_of(self, sequence_ids: Iterable[object]) -> np.ndarray:
        """Ascending segment-table rows of some stored ids (unknown: KeyError)."""
        index = self.database.segment_table.rows
        return np.array(
            sorted({index[sid] for sid in sequence_ids}), dtype=np.int64
        )

    def _examine_candidate(
        self,
        query_partition: PartitionedSequence,
        partition: PartitionedSequence,
        epsilon: float,
        *,
        find_intervals: bool,
        stats: SearchStats,
    ) -> tuple[bool, IntervalSet]:
        """Phase 3 for one candidate: any ``Dnorm <= eps``?  Collect spans.

        The per-sequence reference of :func:`phase3_kernel`, kept for
        single ids: with one sequence it is the cheaper of the two.

        In the paper's long-query case (query holds more points than the
        data sequence) the roles of the two partitions are swapped before
        applying ``Dnorm`` — Lemmas 2-3 assume the query is the shorter
        sequence, and the swap keeps the bound sound (see
        :func:`repro.core.distance.min_normalized_distance`).  A match then
        contributes the matching *data* segment's full point span to the
        solution interval, since the whole data segment aligns inside the
        query.
        """
        query_points = len(query_partition.sequence)
        data_points = len(partition.sequence)
        if query_points > data_points:
            return self._examine_candidate_long_query(
                query_partition,
                partition,
                epsilon,
                find_intervals=find_intervals,
                stats=stats,
            )
        counts = partition.counts
        segments = partition.segments
        matched = False
        spans: list[tuple[int, int]] = []
        for query_segment in query_partition:
            checkpoint("search.phase3.candidate")
            row = partition.mbr_distance_row(query_segment.mbr)
            stats.dmbr_rows += 1
            if float(row.min()) > epsilon:
                # Dnorm is a weighted mean of row values, so it cannot fall
                # below the row minimum: no anchor of this pair can match.
                continue
            matches = normalized_distance_row(
                query_segment.mbr,
                int(query_segment.count),
                partition.mbrs,
                counts,
                dmbr_row=row,
                only_below=epsilon,
            )
            stats.dnorm_evaluations += len(counts)
            if matches:
                matched = True
                if not find_intervals:
                    return True, IntervalSet()
                for result in matches:
                    for t, first, last in result.involved_points(counts):
                        base = segments[t].start
                        spans.append((base + first, base + last + 1))
        return matched, IntervalSet(spans)

    def _examine_candidate_long_query(
        self,
        query_partition: PartitionedSequence,
        partition: PartitionedSequence,
        epsilon: float,
        *,
        find_intervals: bool,
        stats: SearchStats,
    ) -> tuple[bool, IntervalSet]:
        """Phase 3 with swapped roles: data segments probe the query MBRs."""
        query_mbrs = query_partition.mbrs
        query_counts = query_partition.counts
        matched = False
        spans: list[tuple[int, int]] = []
        for data_segment in partition:
            checkpoint("search.phase3.long-query")
            row = query_partition.mbr_distance_row(data_segment.mbr)
            stats.dmbr_rows += 1
            if float(row.min()) > epsilon:
                continue
            matches = normalized_distance_row(
                data_segment.mbr,
                int(data_segment.count),
                query_mbrs,
                query_counts,
                dmbr_row=row,
                only_below=epsilon,
            )
            stats.dnorm_evaluations += len(query_counts)
            if matches:
                matched = True
                if not find_intervals:
                    return True, IntervalSet()
                spans.append((data_segment.start, data_segment.stop))
        return matched, IntervalSet(spans)

    # ------------------------------------------------------------------
    # k-nearest sequences (extension)
    # ------------------------------------------------------------------
    def knn(self, query: SequenceLike, k: int) -> list[tuple[float, object]]:
        """The ``k`` database sequences nearest to ``query`` under ``D``.

        Optimal multi-step k-NN (Seidl & Kriegel '98): sequences are ranked
        by their ``Dmbr`` lower bound (Lemma 1) and refined with the exact
        sliding distance in ascending bound order; refinement stops as soon
        as the next lower bound exceeds the current k-th exact distance,
        which guarantees an exact answer with the fewest refinements.

        Returns
        -------
        list of (distance, sequence_id)
            The exact distances, ascending; fewer than ``k`` when the
            database is smaller than ``k``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not isinstance(query, MultidimensionalSequence):
            query = MultidimensionalSequence(query)
        if query.dimension != self.database.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != database dimension "
                f"{self.database.dimension}"
            )
        query_partition = partition_sequence(
            query,
            cost_constant=self.database.cost_constant,
            max_points=self.database.max_points,
        )

        table = self.database.segment_table
        bounds = list(zip(self._lower_bounds(query_partition).tolist(), table.ids))
        bounds.sort(key=lambda pair: pair[0])

        exact: list[tuple[float, object]] = []
        for lower, sequence_id in bounds:
            checkpoint("knn.refine")
            if len(exact) >= k and lower > exact[k - 1][0]:
                break
            distance = sequence_distance(
                query, self.database.sequence(sequence_id)
            )
            exact.append((distance, sequence_id))
            exact.sort(key=lambda pair: pair[0])
        return exact[:k]

    def _lower_bounds(self, query_partition: PartitionedSequence) -> np.ndarray:
        """Lemma 1's ``min Dmbr`` bound of every stored sequence, by table row."""
        table = self.database.segment_table
        return _sequence_bounds(
            query_partition,
            table.lows,
            table.highs,
            table.sequence_offsets,
            "knn.bounds",
        )

    def knn_subsequences(
        self, query: SequenceLike, k: int, *, exclude_overlapping: bool = True
    ) -> list[SubsequenceHit]:
        """The ``k`` best *subsequence* matches across the database.

        Where :meth:`knn` ranks whole sequences by ``D(Q, S)``, this ranks
        individual alignments — "the five best scenes anywhere in the
        archive".  Sequences are refined in ascending order of their
        Lemma-1 lower bound (``min Dmbr``), evaluating the exact sliding
        ``Dmean`` at every alignment; refinement stops when the next
        sequence's bound exceeds the current k-th best alignment.

        Parameters
        ----------
        query:
            The query sequence; must be no longer than the sequences it is
            to be found in (longer sequences are skipped).
        k:
            Number of hits to return.
        exclude_overlapping:
            When true (default), at most one hit per overlapping run of
            alignments is kept (the local minimum), so the k hits are k
            genuinely different places rather than one place k times.

        Returns
        -------
        list of SubsequenceHit
            Ascending by exact distance; fewer than ``k`` when the corpus
            has fewer eligible alignments.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not isinstance(query, MultidimensionalSequence):
            query = MultidimensionalSequence(query)
        if query.dimension != self.database.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != database dimension "
                f"{self.database.dimension}"
            )
        query_partition = partition_sequence(
            query,
            cost_constant=self.database.cost_constant,
            max_points=self.database.max_points,
        )
        length = len(query)

        table = self.database.segment_table
        bounds = [
            (lower, sequence_id)
            for lower, sequence_id, points in zip(
                self._lower_bounds(query_partition).tolist(),
                table.ids,
                table.lengths.tolist(),
            )
            if points >= length  # else no alignment of the full query exists
        ]
        bounds.sort(key=lambda pair: pair[0])

        hits: list[SubsequenceHit] = []
        for lower, sequence_id in bounds:
            if len(hits) >= k and lower > hits[k - 1].distance:
                break
            sequence = self.database.sequence(sequence_id)
            distances = sliding_mean_distances(query, sequence)
            offsets = self._candidate_offsets(distances, exclude_overlapping)
            for offset in offsets:
                hits.append(
                    SubsequenceHit(
                        distance=float(distances[offset]),
                        sequence_id=sequence_id,
                        offset=int(offset),
                        length=length,
                    )
                )
            hits.sort(key=lambda hit: hit.distance)
            del hits[max(k, 0) * 4 :]  # keep a slack buffer while refining
        return hits[:k]

    # ------------------------------------------------------------------
    # Explanation (debugging / teaching aid)
    # ------------------------------------------------------------------
    @lower_bounds(_validate_explanation, label="Dmbr <= Dnorm <= D chain")
    def explain(
        self, query: SequenceLike, epsilon: float, sequence_id: object
    ) -> MatchExplanation:
        """Why does (or doesn't) one sequence match this query?

        Runs the two pruning levels against a single stored sequence and
        reports every bound involved: the minimum ``Dmbr`` per query MBR,
        the minimum ``Dnorm`` with its winning anchor/window, and the exact
        sliding distance — the chain
        ``min Dmbr <= min Dnorm <= D(Q, S)`` made visible.

        Returns
        -------
        MatchExplanation
        """
        epsilon = check_threshold(epsilon)
        if not isinstance(query, MultidimensionalSequence):
            query = MultidimensionalSequence(query)
        if query.dimension != self.database.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != database dimension "
                f"{self.database.dimension}"
            )
        partition = self.database.partition(sequence_id)
        query_partition = partition_sequence(
            query,
            cost_constant=self.database.cost_constant,
            max_points=self.database.max_points,
        )

        long_query = len(query) > len(partition.sequence)
        if long_query:
            probe_partition, target_partition = partition, query_partition
        else:
            probe_partition, target_partition = query_partition, partition

        per_probe_dmbr: list[float] = []
        best_dnorm: tuple[int, NormalizedDistance] | None = None
        for segment in probe_partition:
            row = target_partition.mbr_distance_row(segment.mbr)
            per_probe_dmbr.append(float(row.min()))
            for result in normalized_distance_row(
                segment.mbr,
                int(segment.count),
                target_partition.mbrs,
                target_partition.counts,
                dmbr_row=row,
            ):
                if best_dnorm is None or result.value < best_dnorm[1].value:
                    best_dnorm = (segment.index, result)

        exact = sequence_distance(query, partition.sequence)
        min_dmbr = min(per_probe_dmbr)
        if best_dnorm is None:
            raise RuntimeError(
                "explain() found no Dnorm result — empty partition"
            )
        probe_index, dnorm_result = best_dnorm
        return MatchExplanation(
            sequence_id=sequence_id,
            epsilon=epsilon,
            long_query=long_query,
            query_segments=len(query_partition),
            data_segments=len(partition),
            min_dmbr=min_dmbr,
            min_dnorm=float(dnorm_result.value),
            exact_distance=float(exact),
            survives_phase2=min_dmbr <= epsilon,
            survives_phase3=dnorm_result.value <= epsilon,
            truly_relevant=exact <= epsilon,
            best_probe_segment=probe_index,
            best_anchor=dnorm_result.target_index,
            best_window=dnorm_result.window,
        )

    @staticmethod
    def _candidate_offsets(
        distances: np.ndarray, exclude_overlapping: bool
    ) -> np.ndarray:
        if not exclude_overlapping:
            return np.arange(distances.shape[0])
        if distances.shape[0] == 1:
            return np.array([0])
        # Local minima of the alignment-distance profile: one hit per dip.
        interior = (
            (distances[1:-1] <= distances[:-2])
            & (distances[1:-1] <= distances[2:])
        )
        offsets = [0] if distances[0] <= distances[1] else []
        offsets.extend((np.nonzero(interior)[0] + 1).tolist())
        if distances[-1] < distances[-2]:
            offsets.append(distances.shape[0] - 1)
        return np.array(offsets, dtype=np.int64)
