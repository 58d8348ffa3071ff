"""The three-phase similarity search (Section 3.4.2 of the paper).

Algorithm SIMILARITY_SEARCH:

* **Phase 1 — query partitioning.**  The query sequence is partitioned into
  MBRs with the same MCOST algorithm used for data sequences.
* **Phase 2 — first pruning (index search).**  The index is probed with
  the query MBRs for data-segment MBRs with ``Dmbr <= eps``
  (:meth:`SequenceDatabase.candidate_rows
  <repro.core.database.SequenceDatabase.candidate_rows>`: one batched
  descent for all of them on the default packed index, one R-tree probe
  each on the paper's substrate); every sequence owning at least one such
  segment becomes a candidate (``AS_mbr``).  Lemma 1 guarantees no false
  dismissals.
* **Phase 3 — second pruning and solution intervals.**  For each candidate
  sequence and each query MBR, ``Dnorm`` is evaluated against every data
  segment; sequences with some ``Dnorm <= eps`` survive (``AS_norm``,
  Lemmas 2-3: still no false dismissals for sequence selection) and the
  points participating in each sub-threshold ``Dnorm`` computation are
  accumulated into the sequence's approximate solution interval (§3.3).

Phase 3 is one pass of :func:`repro.core.distance.dnorm_pairs` over
(query, stored sequence) pairs, and every caller here only names its
pairs: :meth:`SimilaritySearch.search` and
:meth:`~SimilaritySearch.match_candidates` pair one query with many rows of
the database's :class:`~repro.core.database.SegmentTable`,
:meth:`~SimilaritySearch.match_queries` pairs many queries with one row,
and ``explain`` reads the same pass at ``eps = inf``.  The pass computes
one ``Dmbr`` block between the queries' MBRs and the rows' segments with
the kernel the index descends with, reads each *instance*'s least ``Dmbr``
off it — a probe rectangle against the run of target segments it is
measured against, at a threshold — and hands only the instances within
their threshold, as rows of the block, to the one body
:func:`repro.core.distance.dnorm_instances`.  A pair whose query holds more
points than the stored sequence (the paper's long-query case) swaps roles
— each data segment probes the query's partition — and reads the block
transposed.  The k-NN bounds and the ε-cache's Phase-2 shortcuts
(``candidates_within``, ``queries_within``) scan the same table's corner
columns with the same kernel.

A k-nearest-sequences extension (:meth:`SimilaritySearch.knn`) implements
the optimal multi-step algorithm of Seidl & Kriegel over a mean of the same
``Dmbr`` values — not part of the paper, but the natural follow-up query its
metrics enable.  It shares one best-first driver with the top-k alignments
of :meth:`~SimilaritySearch.knn_subsequences`, with a second, tighter bound
before the exact ``D``: :func:`repro.core.distance.segment_mean_bounds`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.core.contracts import BOUND_TOLERANCE, ContractViolation, lower_bounds
from repro.core.database import SegmentTable, SequenceDatabase
from repro.core.distance import (
    SegmentRuns,
    dnorm_between,
    dnorm_pairs,
    min_dmbr_runs,
    run_entries,
    segment_mean_bounds,
    sequence_distance,
    sliding_mean_distances,
    union_spans,
)
from repro.core.mbr import BROADCAST_CELLS, dmbr_columns, min_dmbr_columns
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
    "SearchResult",
    "SearchStats",
    "SimilaritySearch",
    "SubsequenceHit",
    "phase3_kernel",
]

#: Rows whose segment-mean bound the k-NN driver takes in one pass: a call
#: costs about as much as one exact ``D``, whatever the rows' lengths.
_KNN_BATCH_ROWS = 16
#: A ranked k-NN entry: (distance, table row), or (distance, row, offset).
_Entry = TypeVar("_Entry", tuple[float, int], tuple[float, int, int])


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
    #: ``Dnorm`` evaluations: one per target segment of each instance whose
    #: least ``Dmbr`` is within the threshold.
    dnorm_evaluations: int = 0
    #: ``Dmbr`` rows: one per (probe, candidate) instance — each query MBR
    #: against each candidate, or each data segment against a longer query
    #: — as if every instance were examined; without solution intervals a
    #: candidate's count stops at its first matching probe.
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


def _scanned_profiles(
    engine: "SimilaritySearch", query: SequenceLike
) -> tuple[MultidimensionalSequence, list[np.ndarray]]:
    """The k-NN validators' full scan: per table row, ``Dmean`` at every
    alignment of the shorter of (query, sequence) inside the longer, once
    the row's lower bound is checked against the least of them, ``D``."""
    query, query_partition = engine._prepare(query)
    ids = engine.database.segment_table.ids
    profiles = []
    for sid, lower in zip(ids, engine._lower_bounds(query_partition).tolist()):
        stored = engine.database.sequence(sid).points
        short, long = sorted((query.points, stored), key=len)
        profiles.append(sliding_mean_distances(short, long))
        if lower > profiles[-1].min() + BOUND_TOLERANCE:
            raise ContractViolation(
                f"k-NN bound {lower!r} of sequence {sid!r} exceeds its distance "
                f"{float(profiles[-1].min())!r}: a neighbour may go unrefined"
            )
    return query, profiles


def _validate_knn(
    result: list[tuple[float, object]],
    engine: "SimilaritySearch",
    query: SequenceLike,
    k: int,
) -> None:
    """The answer is the head of a full scan sorted by (``D``, table row)."""
    _, profiles = _scanned_profiles(engine, query)
    scan = zip((float(p.min()) for p in profiles), engine.database.segment_table.ids)
    expected = sorted(scan, key=lambda pair: pair[0])[:k]  # stable: ties by row
    if result != expected:
        raise ContractViolation(
            f"knn(k={k}) returned {result!r}; a full scan finds {expected!r}"
        )


def _validate_knn_subsequences(
    result: list[SubsequenceHit],
    engine: "SimilaritySearch",
    query: SequenceLike,
    k: int,
    *,
    exclude_overlapping: bool = True,
) -> None:
    """The hits are the head of a full scan of the eligible alignments,
    sorted by (``Dmean``, table row, offset)."""
    table = engine.database.segment_table
    query, profiles = _scanned_profiles(engine, query)
    scan = sorted(
        (float(profile[offset]), row, int(offset))
        for row, profile in enumerate(profiles)
        if table.lengths[row] >= len(query)
        for offset in engine._candidate_offsets(profile, exclude_overlapping)
    )[:k]
    hits = [(hit.distance, table.rows[hit.sequence_id], hit.offset) for hit in result]
    if hits != scan:
        raise ContractViolation(
            f"knn_subsequences(k={k}) returned (distance, row, offset) {hits!r}; "
            f"a full scan finds {scan!r}"
        )


def _stored_runs(table: SegmentTable) -> SegmentRuns:
    """The table's sequences as the runs :func:`dnorm_pairs` reads."""
    return SegmentRuns(
        table.lows,
        table.highs,
        table.low_columns,
        table.high_columns,
        table.counts,
        table.sequence_offsets,
        table.lengths,
    )


#: Phase 3 takes the (query, row) pairs in tiles whose ``Dmbr`` block holds
#: at most this many cells beside one query's or one row's own (half a
#: megabyte): one block, one body pass and one cancellation checkpoint
#: each, and temporaries that stay bounded however wide ε is.  A range
#: search on the benchmark's N = 500 corpus is one tile.
_PHASE3_TILE_CELLS = 1 << 16


def _tile_cuts(sizes: np.ndarray, budget: int) -> list[int]:
    """Cut consecutive runs of ``sizes`` entries into tiles: tile ``k``
    takes the runs ``cuts[k]:cuts[k + 1]``, whose runs after the first
    hold at most ``budget`` entries.  No runs make no tile."""
    budget = max(1, budget)
    last = np.cumsum(sizes) - 1  # each run's last entry
    # A run starts a tile where its last entry and the run before's fall
    # in different ones (the first run's "run before" ends at -1).
    starts = np.flatnonzero(last // budget != (last - sizes) // budget)
    return [*starts.tolist(), len(sizes)]


def _tiles(
    probes: list[int], sizes: np.ndarray
) -> list[tuple[int, int, list[int]]]:
    """The (query, row) pairs of :func:`phase3_kernel` in tiles.

    ``probes`` and ``sizes`` are the MBRs of each query and the segments
    of each row.  Returns, per run ``a:b`` of queries, the cuts of the
    rows into runs whose ``Dmbr`` block against those queries holds at
    most :data:`_PHASE3_TILE_CELLS` cells beside one query's or one row's
    own.  A block within the budget is one tile, cut no further.
    """
    segments = int(sizes.sum())
    if sum(probes) * segments <= _PHASE3_TILE_CELLS:
        return [(0, len(probes), [0, len(sizes)])]
    tiles = _tile_cuts(np.array(probes), _PHASE3_TILE_CELLS // max(1, segments))
    return [
        (a, b, _tile_cuts(sizes, _PHASE3_TILE_CELLS // sum(probes[a:b])))
        for a, b in zip(tiles, tiles[1:])
    ]


def phase3_kernel(
    table: SegmentTable,
    queries: Sequence[tuple[PartitionedSequence, float]],
    rows: np.ndarray,
    *,
    find_intervals: bool,
    stats: SearchStats,
) -> dict[int, IntervalSet | None]:
    """Phase 3 for every (query, stored sequence) pair at once.

    Pair ``p = a * len(rows) + c`` is ``queries[a]`` — a partition and its
    threshold — against table row ``rows[c]`` (the rows are distinct).
    Returns, ascending, ``p -> solution interval`` for the pairs with some
    ``Dnorm <= eps`` and ``p -> None`` for the other pairs Phase 2 admits
    (some ``Dmbr <= eps``); a pair it does not admit is absent.  The
    intervals are empty unless ``find_intervals``; without them a pair
    also stops being examined — and counted in ``stats`` — at its first
    probe that matches.

    The pairs go through :func:`repro.core.distance.dnorm_pairs` in tiles
    (runs of queries by runs of rows, :func:`_tiles`), one call each — a
    range search is usually one tile: one ``Dmbr`` block
    between the tile's query MBRs and its rows' segments, every (probe,
    pair) instance's least ``Dmbr`` read off it, and ``Dnorm`` only for
    the instances where that is within the threshold.
    ``stats`` counts ``Dmbr`` rows and ``Dnorm`` evaluations as if every
    instance were examined, as the per-sequence search did.

    Usually the query's MBRs probe the stored sequence's segments, and the
    sub-threshold windows make the interval.  Where the query holds more
    points than the sequence (the paper's long-query case) the roles swap
    — Lemmas 2-3 assume the probing side is the shorter sequence, and the
    swap keeps the bound sound (see
    :func:`repro.core.distance.min_normalized_distance`): each data
    segment probes the query's partition, and a hit contributes that data
    segment's whole span, since all of it aligns inside the query.
    """
    stored = _stored_runs(table)
    epsilons = np.array([epsilon for _, epsilon in queries])
    # Which (query, row) pairs Phase 2 admits and Phase 3 matches.
    near = np.zeros((len(queries), len(rows)), dtype=bool)
    matched = np.zeros_like(near)
    spans = [(np.zeros(0, dtype=np.int64),) * 3]
    sizes = stored.offsets[rows + 1] - stored.offsets[rows]
    probes = [len(partition) for partition, _ in queries]
    for a, b, cuts in _tiles(probes, sizes):
        asked = SegmentRuns.of([partition for partition, _ in queries[a:b]])
        for first, stop in zip(cuts, cuts[1:]):
            group = rows[first:stop]
            grids = dnorm_pairs(
                asked, stored, group, epsilons[a:b], windows=find_intervals
            )
            for grid, swap in zip(grids, (False, True)):
                if grid is None:
                    continue
                # The grid's probes come in runs (a query's MBRs, or a
                # row's segments); summed over them, a cell is one (probe
                # run, target run) pair: a (query, row) pair of the tile.
                heads = grid.probe_runs[:-1]
                runs = grid.probe_runs[1:] - heads
                # One Dmbr row per examined instance; Dnorm over the
                # target's segments where its least Dmbr is within the
                # threshold (built).
                if find_intervals:
                    stats.dmbr_rows += int(runs @ grid.pairs.sum(axis=1))
                    stats.dnorm_evaluations += grid.evaluated
                else:
                    # A pair is settled by its first matching probe.
                    earlier = np.cumsum(grid.found, axis=0) - grid.found
                    examined = earlier == np.repeat(earlier[heads], runs, axis=0)
                    count = np.add.reduceat(examined, heads, axis=0, dtype=np.int64)
                    stats.dmbr_rows += int(count[grid.pairs].sum())
                    count = np.add.reduceat(
                        examined & grid.built, heads, axis=0, dtype=np.int64
                    )
                    targets = (
                        asked.offsets[1:] - asked.offsets[:-1]
                        if swap
                        else sizes[first:stop]
                    )
                    stats.dnorm_evaluations += int((count * targets).sum())
                admitted = np.logical_or.reduceat(grid.built, heads, axis=0)
                near[a:b, first:stop] |= admitted.T if swap else admitted
                if not find_intervals:
                    hit = np.logical_or.reduceat(grid.found, heads, axis=0)
                    matched[a:b, first:stop] |= hit.T if swap else hit
                elif not swap:
                    # Every matched pair has a window: its points.
                    probe, row = np.divmod(grid.windows.instance, len(group))
                    query = a + np.searchsorted(heads, probe, side="right") - 1
                    spans.append(
                        (
                            query * len(rows) + first + row,
                            grid.windows.start,
                            grid.windows.stop,
                        )
                    )
                else:
                    # A matching data segment's whole span aligns inside
                    # the query.
                    segment, query = np.divmod(np.flatnonzero(grid.found), b - a)
                    row = np.searchsorted(heads, segment, side="right") - 1
                    segment += stored.offsets[group[row]] - heads[row]
                    base = table.point_offsets[stored.offsets[group[row]]]
                    spans.append(
                        (
                            (a + query) * len(rows) + first + row,
                            table.point_offsets[segment] - base,
                            table.point_offsets[segment + 1] - base,
                        )
                    )
    # Ascending, as flatnonzero lists them; every matched pair is admitted.
    found: dict[int, IntervalSet | None] = dict.fromkeys(np.flatnonzero(near).tolist())
    if find_intervals:
        found.update(union_spans(*map(np.concatenate, zip(*spans))))
    else:
        found.update(dict.fromkeys(np.flatnonzero(matched).tolist(), IntervalSet()))
    return found


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
        stats = SearchStats()

        # Phase 1: partition the query sequence.
        started = time.perf_counter()
        query, query_partition = self._prepare(query)
        stats.phase1_seconds = time.perf_counter() - started
        stats.query_segments = len(query_partition)

        # Phase 2: first pruning via the Dmbr index probe.
        started = time.perf_counter()
        rows, stats.node_accesses = self.database.candidate_rows(
            query_partition, epsilon
        )
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

    def _coerce(self, query: SequenceLike) -> MultidimensionalSequence:
        """``query`` as a sequence of this database's dimension."""
        if not isinstance(query, MultidimensionalSequence):
            query = MultidimensionalSequence(query)
        if query.dimension != self.database.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != database dimension "
                f"{self.database.dimension}"
            )
        return query

    def _prepare(
        self, query: SequenceLike
    ) -> tuple[MultidimensionalSequence, PartitionedSequence]:
        """Phase 1: the validated query and its MCOST partition."""
        query = self._coerce(query)
        return query, partition_sequence(
            query,
            cost_constant=self.database.cost_constant,
            max_points=self.database.max_points,
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
        """Phase 3 for one query and the given table rows (ascending):
        ``id -> solution interval`` of those that match, in row order."""
        table = self.database.segment_table
        found = phase3_kernel(
            table,
            [(query_partition, epsilon)],
            rows,
            find_intervals=find_intervals,
            stats=stats,
        )
        return {
            table.ids[rows[p]]: interval
            for p, interval in found.items()
            if interval is not None
        }

    # ------------------------------------------------------------------
    # Building blocks reused by the serving cache
    # ------------------------------------------------------------------
    def queries_within(
        self,
        queries: Sequence[tuple[PartitionedSequence, float]],
        sequence_id: object,
    ) -> list[bool]:
        """For each ``(query partition, epsilon)``: is one stored sequence a
        Phase-2 candidate of that query at that threshold?

        The dual of :meth:`candidates_within` — many queries against one
        sequence — in one column-wise ``Dmbr`` between the stacked query
        MBRs and the sequence's segments.  The ε-aware result cache uses it
        to re-derive the Phase-2 verdict of every cached query for the one
        sequence a write touched, without an index probe.
        """
        partition = self.database.partition(sequence_id)
        if not queries:
            return []
        epsilons = np.array([check_threshold(epsilon) for _, epsilon in queries])
        asked = SegmentRuns.of([query_partition for query_partition, _ in queries])
        nearest = min_dmbr_columns(
            asked.lows,
            asked.highs,
            partition.low_matrix.T,
            partition.high_matrix.T,
            axis=1,
            site="search.phase2",
        )
        verdicts: list[bool] = (
            np.minimum.reduceat(nearest, asked.offsets[:-1]) <= epsilons
        ).tolist()
        return verdicts

    def match_queries(
        self,
        queries: Sequence[tuple[PartitionedSequence, float, bool]],
        sequence_id: object,
    ) -> tuple[list[bool], list[IntervalSet | None]]:
        """Run Phases 2 and 3 for many queries against one stored sequence.

        Per ``(query partition, epsilon, find_intervals)``: whether Phase 2
        admits the sequence at that threshold — the verdict of
        :meth:`queries_within`, from the same ``Dmbr`` values — and the
        sequence's approximate solution interval if it matches (empty
        unless asked for), else ``None``; all in one pass.  The ε-aware
        result cache uses it to re-examine the one sequence a write
        touched under every cached query its box filter lets through.
        """
        table = self.database.segment_table
        row = table.rows[sequence_id]
        if not queries:
            return [], []
        found = phase3_kernel(
            table,
            [(partition, check_threshold(eps)) for partition, eps, _ in queries],
            np.array([row]),
            find_intervals=any(wanted for _, _, wanted in queries),
            stats=SearchStats(),
        )
        return [p in found for p in range(len(queries))], [
            None if found.get(p) is None else found[p] if wanted else IntervalSet()
            for p, (_, _, wanted) in enumerate(queries)
        ]

    def candidates_within(
        self,
        query_partition: PartitionedSequence,
        sequence_ids: Iterable[object],
        epsilon: float,
    ) -> list[object]:
        """Those of ``sequence_ids`` that are Phase-2 candidates at ``epsilon``.

        Exactly the sequences the index probe would return among them, in
        one pass over their segments' columns of the table; database
        insertion order.
        """
        epsilon = check_threshold(epsilon)
        table = self.database.segment_table
        rows = self._rows_of(sequence_ids)
        take, offsets = run_entries(table.sequence_offsets, rows)
        bounds = min_dmbr_runs(
            query_partition.low_matrix,
            query_partition.high_matrix,
            table.low_columns.take(take, axis=1),
            table.high_columns.take(take, axis=1),
            offsets,
            site="search.phase2",
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

        Maps every one of ``sequence_ids`` that matches at ``epsilon`` to
        its approximate solution interval (empty unless
        ``find_intervals``), in database insertion order — what
        :meth:`search` does with the Phase-2 survivors, so refining a
        cached result down to a tighter threshold (sound by the
        monotonicity of Lemmas 2-3) skips Phases 1-2.
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

    # ------------------------------------------------------------------
    # k-nearest sequences (extension)
    # ------------------------------------------------------------------
    @lower_bounds(_validate_knn, label="k-NN exact; mean Dmbr <= D")
    def knn(self, query: SequenceLike, k: int) -> list[tuple[float, object]]:
        """The ``k`` database sequences nearest to ``query`` under ``D``.

        Optimal multi-step k-NN (Seidl & Kriegel '98) with two bounds:
        sequences are visited in ascending order of the mean-``Dmbr`` bound
        (:meth:`_lower_bounds`) until the next one is past the current k-th
        exact distance, and one at least as long as the query is refined
        with the exact sliding distance only if its segment-mean bound is
        within that distance too.

        Returns
        -------
        list of (distance, sequence_id)
            Ascending by (exact distance, insertion order); fewer than
            ``k`` when the database is smaller than ``k``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query, query_partition = self._prepare(query)
        nearest = self._best_first(
            query_partition,
            k,
            lambda row, sequence: [(sequence_distance(query, sequence), row)],
        )
        ids = self.database.segment_table.ids
        return [(distance, ids[row]) for distance, row in nearest]

    def _best_first(
        self,
        query_partition: PartitionedSequence,
        k: int,
        refine: Callable[[int, MultidimensionalSequence], Iterable[_Entry]],
        covering: bool = False,
    ) -> list[_Entry]:
        """The ``k`` least ``(distance, row, ...)`` entries ``refine(row,
        sequence)`` yields over the table (rows no shorter than the query
        if ``covering``), best first: rows in ascending mean-``Dmbr`` bound
        until one is past the current k-th distance; once there are k
        entries, each batch of rows gets the segment-mean bound as well,
        and a row it puts past the k-th distance is skipped."""
        table = self.database.segment_table
        bounds = self._lower_bounds(query_partition)
        order = np.argsort(bounds, kind="stable")
        if covering:
            order = order[table.lengths[order] >= len(query_partition.sequence)]
        best: list[_Entry] = []
        while len(order):
            if len(best) < k:  # no k-th distance to compare a bound with yet
                batch, tighter = order[:1].tolist(), [-np.inf]
            else:
                # The bounds' sums round differently from D's pairwise mean
                # and may exceed it by a few ulps: hence the tolerance.
                batch = order[:_KNN_BATCH_ROWS]
                batch = batch[bounds[batch] - BOUND_TOLERANCE <= best[-1][0]].tolist()
                if not batch:
                    break
                tighter = self._segment_mean_bounds(query_partition, batch)
            order = order[len(batch) :]
            for row, lower in zip(batch, tighter):
                checkpoint("knn.refine")
                kth = best[-1][0] if len(best) == k else np.inf
                if max(bounds[row], lower) - BOUND_TOLERANCE <= kth:
                    sequence = self.database.sequence(table.ids[row])
                    best = sorted([*best, *refine(row, sequence)])[:k]
        return best

    def _segment_mean_bounds(
        self, query_partition: PartitionedSequence, rows: list[int]
    ) -> list[float]:
        """The segment-mean bound of ``D`` per given table row, over the
        query's MCOST segments; ``-inf`` for a row shorter than the query,
        which the mean-``Dmbr`` bound alone filters (a bound per such row
        would cost about as much as its exact ``D``)."""
        table = self.database.segment_table
        query = query_partition.sequence.points
        stored = [self.database.sequence(table.ids[row]).points for row in rows]
        covering = [points for points in stored if len(points) >= len(query)]
        blocks = query_partition.counts
        bounds = iter(segment_mean_bounds(query, blocks, covering).min(axis=1).tolist())
        return [
            next(bounds) if len(points) >= len(query) else -np.inf
            for points in stored
        ]

    def _lower_bounds(self, query_partition: PartitionedSequence) -> np.ndarray:
        """A lower bound of ``D(Q, S)`` per stored sequence, by table row.

        ``D`` pairs *every* point of the shorter sequence with one of the
        other, no closer than the MBRs holding them.  So for ``|S| >= |Q|``
        the ``|q_i|``-weighted mean, over the query MBRs, of the ``Dmbr``
        to their nearest segment of ``S`` bounds every alignment's
        ``Dmean``; for ``|S| < |Q|`` the roles swap (``|s_g|``-weighted,
        over the segments of ``S``).  Either mean is at least Lemma 1's
        minimum of the same values (docs/algorithms.md, "k-NN").
        """
        table = self.database.segment_table
        heads = table.sequence_offsets[:-1]
        forward = np.zeros(len(heads))  # sum_i |q_i| * min_g Dmbr(q_i, s_g)
        nearest = np.full(len(table.counts), np.inf)  # min_i Dmbr(q_i, s_g)
        step = max(1, BROADCAST_CELLS // max(1, len(table.counts)))
        for start in range(0, len(query_partition), step):
            checkpoint("knn.bounds")
            block = slice(start, start + step)
            distances = dmbr_columns(
                query_partition.low_matrix[block],
                query_partition.high_matrix[block],
                table.low_columns,
                table.high_columns,
            )
            forward += query_partition.counts[block] @ np.minimum.reduceat(
                distances, heads, axis=1
            )
            np.minimum(nearest, distances.min(axis=0), out=nearest)
        length = len(query_partition.sequence)
        return np.where(
            table.lengths >= length,
            forward / length,
            np.add.reduceat(nearest * table.counts, heads) / table.lengths,
        )

    @lower_bounds(_validate_knn_subsequences, label="top-k alignments exact")
    def knn_subsequences(
        self, query: SequenceLike, k: int, *, exclude_overlapping: bool = True
    ) -> list[SubsequenceHit]:
        """The ``k`` best *subsequence* matches across the database.

        Where :meth:`knn` ranks whole sequences by ``D(Q, S)``, this ranks
        individual alignments — "the five best scenes anywhere in the
        archive".  Sequences are visited as in :meth:`knn`, with the same
        two bounds, and a refined one has the exact sliding ``Dmean``
        evaluated at every alignment.

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
            Ascending by (exact distance, insertion order, offset); fewer
            than ``k`` when the corpus has fewer eligible alignments.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query, query_partition = self._prepare(query)
        table = self.database.segment_table

        def refine(
            row: int, sequence: MultidimensionalSequence
        ) -> Iterable[tuple[float, int, int]]:
            distances = sliding_mean_distances(query, sequence)
            offsets = self._candidate_offsets(distances, exclude_overlapping)
            return zip(distances[offsets].tolist(), repeat(row), offsets.tolist())

        best = self._best_first(query_partition, k, refine, covering=True)
        return [
            SubsequenceHit(distance, table.ids[row], offset, len(query))
            for distance, row, offset in best
        ]

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
        query, query_partition = self._prepare(query)
        partition = self.database.partition(sequence_id)
        long_query = len(query) > len(partition.sequence)
        # Every anchor of every probe; the reported one is the first, in
        # (probe, anchor) order, among those with the smallest Dnorm.
        nearest, windows = dnorm_between(query_partition, partition)
        best = np.lexsort((windows.anchor, windows.instance, windows.value))[0]
        min_dmbr = float(nearest.min())
        min_dnorm = float(windows.value[best])
        exact = sequence_distance(query, partition.sequence)
        return MatchExplanation(
            sequence_id=sequence_id,
            epsilon=epsilon,
            long_query=long_query,
            query_segments=len(query_partition),
            data_segments=len(partition),
            min_dmbr=min_dmbr,
            min_dnorm=min_dnorm,
            exact_distance=float(exact),
            survives_phase2=min_dmbr <= epsilon,
            survives_phase3=min_dnorm <= epsilon,
            truly_relevant=exact <= epsilon,
            best_probe_segment=int(windows.instance[best]),
            best_anchor=int(windows.anchor[best]),
            best_window=(int(windows.first[best]), int(windows.last[best])),
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
