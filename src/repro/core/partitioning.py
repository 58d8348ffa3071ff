"""Partitioning a sequence into MBR-bounded subsequences (Section 3.4.3).

The paper adopts the greedy marginal-cost partitioning of Faloutsos et
al. '94 with a modified cost function.  For an n-dimensional subsequence of
``m`` points whose enclosing MBR has sides ``L = (L1, ..., Ln)``, the
*marginal cost* of a point is the estimated number of disk accesses of the
MBR divided by the number of points it amortises over::

    MCOST = prod_k (L_k + Q_k + eps) / m

where ``Q_k`` are the sides of a (typical) query MBR and ``eps`` the search
threshold.  ``prod_k (L_k + Q_k + eps)`` is the probability that a query
rectangle expanded by ``eps`` intersects the MBR in the unit data space —
i.e. the expected access count.  The paper fixes the combined constant
``Q_k + eps = 0.3`` "since it demonstrates the best partitioning by an
extensive experiment"; :data:`DEFAULT_COST_CONSTANT` records that choice and
``benchmarks/bench_ablation_mcost.py`` re-verifies it.

Grouping is greedy and order-preserving: a subsequence grows point by point
while adding the next point does not increase MCOST; when it would (or when
the configured maximum MBR population is hit), the current MBR is closed and
a new one starts at that point.

The pass settles one segment per step (:func:`_partition_rows`).  Whether
a segment is a single point is decided for every possible start of the
sequence by one set of NumPy calls (:func:`_one_point_segments`); a
segment of two or more points is decided in one NumPy pass over a window
of its points: running corners by ``np.maximum.accumulate``, MCOST of
every prefix, the first prefix whose cost rises.  Both compute each cost
with the same IEEE operations in the same order — ``(h_k - l_k) + c``
multiplied over the dimensions left to right, divided by the population —
so the boundaries are those of the point-by-point pass bit for bit.  That
pass is kept as :func:`_scalar_pass`, the reference the ``contracts``
check holds every partition to.  The pass yields segment counts only; the
corners are taken from the points by :func:`_runs` (``reduceat``), behind
partitioning, growing and loading alike.  Because the greedy pass never
revisits a closed segment, a sequence that grows at its end is
re-partitioned from the start of its last segment only
(:meth:`PartitionedSequence.extended_to`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.contracts import ContractViolation
from repro.core.mbr import MBR
from repro.core.sequence import MultidimensionalSequence
from repro.util.checks import CONTRACTS
from repro.util.freeze import freeze
from repro.util.validation import check_positive

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = [
    "DEFAULT_COST_CONSTANT",
    "PartitionedSequence",
    "SequenceSegment",
    "marginal_cost",
    "partition_sequence",
]

#: The paper's adopted value for ``Q_k + eps`` in the MCOST formula.
DEFAULT_COST_CONSTANT = 0.3

#: Default cap on points per MBR (the paper's ``max``; value not reported,
#: chosen here so that even a monotone drift cannot produce one giant MBR).
DEFAULT_MAX_POINTS = 64

#: Most points one NumPy pass reads; a longer segment (``max_points``
#: above it, or ``None``) is decided window by window.
_WINDOW = 64

#: 1.0, 2.0, ...: the populations of a window's prefixes.
_POPULATIONS = freeze(np.arange(1, _WINDOW + 1, dtype=np.float64))


def _checked_cost_constant(value: float) -> float:
    """``value`` as a float, if it is a finite number above zero.

    NaN or infinity would make every MCOST comparison false, so every
    segment would silently grow to the population cap.
    """
    constant = check_positive("cost_constant", value)
    if not math.isfinite(constant):
        raise ValueError(f"cost_constant must be finite, got {value!r}")
    return constant


def marginal_cost(
    sides: npt.ArrayLike,
    point_count: int,
    cost_constant: float = DEFAULT_COST_CONSTANT,
) -> float:
    """The MCOST of an MBR with the given side lengths and population.

    Parameters
    ----------
    sides:
        Side lengths ``(L1, ..., Ln)`` of the MBR.
    point_count:
        Number of sequence points the MBR encloses (``m >= 1``).
    cost_constant:
        The combined ``Q_k + eps`` constant (paper default 0.3).
    """
    if point_count < 1:
        raise ValueError(f"point_count must be >= 1, got {point_count}")
    cost_constant = _checked_cost_constant(cost_constant)
    arr = np.asarray(sides, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("side lengths must be non-negative")
    return float(np.prod(arr + cost_constant) / point_count)


@dataclass(frozen=True, slots=True)
class SequenceSegment:
    """One partition cell: a contiguous run of points and its bounding MBR.

    Attributes
    ----------
    index:
        Zero-based position of this segment among the sequence's segments
        (the paper's MBR subscript, minus one).
    start:
        Zero-based offset of the segment's first point in the sequence.
    count:
        Number of points in the segment.
    mbr:
        The minimum bounding rectangle of those points.
    """

    index: int
    start: int
    count: int
    mbr: MBR

    @property
    def stop(self) -> int:
        """One past the zero-based offset of the segment's last point."""
        return self.start + self.count

    def point_range(self) -> range:
        """The range of zero-based sequence offsets this segment covers."""
        return range(self.start, self.stop)


class PartitionedSequence:
    """A sequence together with its ordered MBR partition.

    Built by :func:`partition_sequence`; consumed by the database (which
    indexes the MBRs), by ``Dnorm`` (which needs MBRs *and* point counts) and
    by solution-interval assembly (which needs point offsets).
    """

    __slots__ = (
        "_sequence",
        "_segments",
        "_counts",
        "_stops",
        "_cost_constant",
        "_low_matrix",
        "_high_matrix",
    )

    def __init__(
        self,
        sequence: MultidimensionalSequence,
        segments: list[SequenceSegment],
        cost_constant: float = DEFAULT_COST_CONSTANT,
    ) -> None:
        if not segments:
            raise ValueError("a partitioned sequence needs at least one segment")
        expected_start = 0
        for position, segment in enumerate(segments):
            if segment.index != position:
                raise ValueError(
                    f"segment {position} carries index {segment.index}"
                )
            if segment.start != expected_start:
                raise ValueError(
                    f"segment {position} starts at {segment.start}, expected "
                    f"{expected_start} (segments must tile the sequence)"
                )
            if segment.count < 1:
                raise ValueError(f"segment {position} is empty")
            expected_start = segment.stop
        if expected_start != len(sequence):
            raise ValueError(
                f"segments cover {expected_start} points but the sequence has "
                f"{len(sequence)}"
            )
        self._assemble(
            sequence,
            list(segments),
            np.array([s.count for s in segments], dtype=np.int64),
            np.array([s.mbr.low_tuple for s in segments], dtype=np.float64),
            np.array([s.mbr.high_tuple for s in segments], dtype=np.float64),
            cost_constant,
        )

    def _assemble(
        self,
        sequence: MultidimensionalSequence,
        segments: list[SequenceSegment],
        counts: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        cost_constant: float,
    ) -> None:
        """Take ownership of an already consistent partition (no checks)."""
        self._sequence = sequence
        self._segments = segments
        # The matrices are shared by reference across engine snapshots and
        # cache entries, so they are frozen at construction: an in-place
        # write here would corrupt Dmbr for every concurrent reader.
        self._counts = freeze(counts)
        self._stops = freeze(np.cumsum(counts))
        self._cost_constant = cost_constant
        self._low_matrix = freeze(lows)
        self._high_matrix = freeze(highs)

    @classmethod
    def _of_counts(
        cls,
        sequence: MultidimensionalSequence,
        counts: npt.ArrayLike,
        cost_constant: float,
    ) -> "PartitionedSequence":
        """The partition of ``sequence`` into consecutive runs of ``counts``
        points, each run's MBR taken from its points: what the greedy pass's
        counts, and a stored partition's, are made into.

        The caller has checked that ``counts`` are positive and sum to the
        sequence's length.  The corners equal the scalar pass's to the bit;
        whether the counts are MCOST's own is not re-checked.
        """
        counts = np.asarray(counts, dtype=np.int64)
        segments, lows, highs = _runs(
            sequence.points, counts, first_start=0, first_index=0
        )
        partition = object.__new__(cls)
        partition._assemble(sequence, segments, counts, lows, highs, cost_constant)
        return partition

    def extended_to(
        self,
        sequence: MultidimensionalSequence,
        *,
        max_points: int | None = DEFAULT_MAX_POINTS,
    ) -> "PartitionedSequence":
        """The partition of ``sequence``: this one's sequence grown at its end.

        Equal, segment for segment, to partitioning ``sequence`` from
        scratch with this partition's cost constant and the same
        ``max_points``: the greedy pass decides each boundary from the
        current segment alone, so only the last segment can change.  The
        pass therefore restarts at that segment's first point; every
        closed segment — and the last one too, when the first new point
        closes it unchanged — is kept by reference.  The cost is linear in
        the points added plus the last segment, not in the stream's length.

        The caller guarantees that ``sequence`` starts with this
        partition's points; that is not re-checked.
        """
        if len(sequence) < len(self._sequence):
            raise ValueError(
                f"the grown sequence has {len(sequence)} points, fewer than "
                f"the {len(self._sequence)} already partitioned"
            )
        last = self._segments[-1]
        counts = np.asarray(
            _partition_rows(
                sequence.points[last.start :], self._cost_constant, max_points
            ),
            dtype=np.int64,
        )
        kept = len(self._segments) - 1
        tail, lows, highs = _runs(
            sequence.points, counts, first_start=last.start, first_index=kept
        )
        if tail[0].count == last.count:
            tail[0] = last  # the same points: the same segment
        partition = object.__new__(type(self))
        partition._assemble(
            sequence,
            [*self._segments[:kept], *tail],
            np.concatenate([self._counts[:kept], counts]),
            np.concatenate([self._low_matrix[:kept], lows]),
            np.concatenate([self._high_matrix[:kept], highs]),
            self._cost_constant,
        )
        if CONTRACTS.on:
            _hold_to_scalar_pass(partition, max_points, "extended_to's result")
        return partition

    @property
    def sequence(self) -> MultidimensionalSequence:
        """The underlying sequence."""
        return self._sequence

    @property
    def segments(self) -> list[SequenceSegment]:
        """The ordered partition cells (copy-safe list)."""
        return list(self._segments)

    @property
    def counts(self) -> np.ndarray:
        """Point count per segment, in order (frozen; writes raise)."""
        return self._counts

    @property
    def low_matrix(self) -> np.ndarray:
        """``(segments, n)`` low corners of the segment MBRs (frozen)."""
        return self._low_matrix

    @property
    def high_matrix(self) -> np.ndarray:
        """``(segments, n)`` high corners of the segment MBRs (frozen)."""
        return self._high_matrix

    @property
    def mbrs(self) -> list[MBR]:
        """The segment MBRs, in order."""
        return [s.mbr for s in self._segments]

    @property
    def cost_constant(self) -> float:
        """The MCOST constant the partition was built with."""
        return self._cost_constant

    def mbr_distance_row(self, query_mbr: MBR) -> np.ndarray:
        """``Dmbr(query_mbr, segment t)`` for every segment, vectorised.

        One row per (query MBR, sequence) pair, reused across all ``Dnorm``
        anchors — the single-sequence form of the rows Phase 3 reads off
        its ``Dmbr`` block.
        """
        return query_mbr.min_distance_rows(self._low_matrix, self._high_matrix)

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[SequenceSegment]:
        return iter(self._segments)

    def __getitem__(self, index: int) -> SequenceSegment:
        return self._segments[index]

    def __repr__(self) -> str:
        return (
            f"PartitionedSequence(length={len(self._sequence)}, "
            f"segments={len(self._segments)})"
        )

    def segment_points(self, index: int) -> np.ndarray:
        """The ``(count, n)`` point block of segment ``index``."""
        segment = self._segments[index]
        return self._sequence.points[segment.start : segment.stop]

    def segment_of_point(self, offset: int) -> SequenceSegment:
        """The segment containing the sequence point at ``offset``."""
        if not 0 <= offset < len(self._sequence):
            raise IndexError(
                f"offset {offset} outside [0, {len(self._sequence)})"
            )
        # _stops[i] is one past segment i's last point.
        return self._segments[
            int(np.searchsorted(self._stops, offset, side="right"))
        ]

    def total_cost(self) -> float:
        """Sum of per-segment MCOST·count — the estimated total access count."""
        return float(
            sum(
                marginal_cost(s.mbr.sides, s.count, self._cost_constant) * s.count
                for s in self._segments
            )
        )


def _runs(
    points: np.ndarray, counts: np.ndarray, *, first_start: int, first_index: int
) -> tuple[list[SequenceSegment], np.ndarray, np.ndarray]:
    """The segments of consecutive runs of ``counts`` points, the first
    run starting at point ``first_start`` of ``points`` and numbered
    ``first_index``, with their ``(segments, n)`` low and high corners.
    Each run's MBR is taken from its points; the corners equal the scalar
    pass's to the bit.
    """
    points = points[first_start:]
    starts = np.cumsum(counts) - counts
    lows = np.minimum.reduceat(points, starts)
    highs = np.maximum.reduceat(points, starts)
    if (np.signbit(points) & (points >= 0.0)).any():
        # A -0.0 (sign bit set, yet not below zero).  Of two equal values
        # NumPy keeps the later, the scalar pass (Python's min / max) the
        # earlier: the corners differ only in the sign of a zero, so a
        # sequence holding -0.0 takes the Python path for every segment.
        for segment, (start, count) in enumerate(
            zip(starts.tolist(), counts.tolist())
        ):
            columns = list(zip(*points[start : start + count].tolist()))
            lows[segment] = [min(column) for column in columns]
            highs[segment] = [max(column) for column in columns]
    # The corners are finite floats taken by min / max from validated
    # points, so the MBRs skip validation.
    segments = [
        SequenceSegment(index, start, count, MBR._trusted(tuple(low), tuple(high)))
        for index, (start, count, low, high) in enumerate(
            zip(
                (starts + first_start).tolist(),
                counts.tolist(),
                lows.tolist(),
                highs.tolist(),
            ),
            first_index,
        )
    ]
    return segments, lows, highs


def _partition_rows(
    points: np.ndarray, cost_constant: float, max_points: int | None
) -> list[int]:
    """The greedy MCOST pass over a non-empty ``(m, n)`` point block: the
    point count of each segment, in order.

    Whether a segment is a single point is decided for every possible
    start at once (:func:`_one_point_segments`); a segment of two or more
    points is decided by :func:`_window_count`.
    """
    length = len(points)
    # Both corners of every prefix from one running maximum: rows 0..n-1
    # hold the points' coordinates, rows n..2n-1 their negations.
    columns = np.concatenate([points.T, -points.T])
    alone = _one_point_segments(columns, cost_constant)
    capacity = length if max_points is None else max_points
    counts: list[int] = []
    start = 0
    while start < length:
        limit = min(capacity, length - start)
        if limit == 1 or alone[start]:
            count = 1
        elif limit == 2:
            count = 2
        else:
            count = _window_count(columns, start, limit, cost_constant)
        counts.append(count)
        start += count
    return counts


def _one_point_segments(columns: np.ndarray, cost_constant: float) -> list[bool]:
    """For every start ``i`` but the last: whether a segment that starts
    at point ``i`` is that point alone — point ``i + 1`` raises its MCOST
    above a single point's.

    One set of NumPy calls for the whole sequence, so a one-point segment
    costs a list lookup, not a window pass.  Without it, jumpy input (all
    one-point segments, as uniform random points give) runs 5.5x slower
    than the scalar pass; checking further points this way only adds
    NumPy calls to every sequence (the measured table is in
    ``docs/algorithms.md``, §3.4.3).
    """
    dimension = len(columns) // 2
    # MCOST of a one-point segment: every side is 0, so prod(0 + c) / 1.
    single_cost = 1.0
    for _ in range(dimension):
        single_cost *= cost_constant
    corners = np.maximum(columns[:, :-1], columns[:, 1:])
    sides = corners[:dimension] + corners[dimension:]
    sides += cost_constant
    costs = np.multiply.reduce(sides, axis=0)
    costs /= 2
    return (costs > single_cost).tolist()


def _window_count(
    columns: np.ndarray, start: int, limit: int, cost_constant: float
) -> int:
    """The population of the segment from point ``start``, given that its
    first two points join it and it takes at most ``limit`` (above 2).

    One NumPy pass per window of up to :data:`_WINDOW` points: the running
    corners, the MCOST of every prefix, and the first prefix whose cost
    rises above its predecessor's — that prefix's last point starts the
    next segment.  A segment longer than the window carries its corners
    and last cost into the next one.  Each cost is the scalar pass's
    expression evaluated elementwise: ``h - l`` as ``h + (-l)`` (the same
    IEEE operation), plus ``c``, multiplied over the dimensions first to
    last, divided by the population.
    """
    dimension = len(columns) // 2
    done = 0  # points of the segment before this window
    while True:
        stop = min(limit, done + _WINDOW)
        corners = np.maximum.accumulate(
            columns[:, start + done : start + stop], axis=1
        )
        if done:
            np.maximum(corners, carried, out=corners)
        sides = corners[:dimension] + corners[dimension:]
        sides += cost_constant
        # costs[i] is the MCOST of the segment's first done + i + 1 points.
        costs = np.multiply.reduce(sides, axis=0)
        costs /= (
            _POPULATIONS[:stop]
            if not done
            else np.arange(done + 1, stop + 1, dtype=np.float64)
        )
        if done and costs[0] > cost:
            return done
        # In the first window, the second point is known to join.
        rise = (
            np.greater(costs[1:], costs[:-1]).tobytes().find(1, 0 if done else 1)
        )
        if rise >= 0:
            return done + rise + 1
        if stop == limit:
            return limit
        carried = corners[:, -1:]
        cost = costs[-1]
        done = stop


def _scalar_pass(
    rows: list[list[float]], cost_constant: float, max_points: int | None
) -> tuple[list[int], list[list[float]], list[list[float]]]:
    """The greedy MCOST pass one point at a time, on Python floats: each
    segment's count, low corner and high corner.

    The reference the ``contracts`` check holds every partition to
    (:func:`_hold_to_scalar_pass`); :func:`_partition_rows` is the pass
    that runs.
    """
    counts: list[int] = []
    lows: list[list[float]] = []
    highs: list[list[float]] = []
    capacity = math.inf if max_points is None else max_points
    # MCOST of a one-point segment: every side is 0, so prod(0 + c) / 1.
    single_cost = 1.0
    for _ in rows[0]:
        single_cost *= cost_constant

    low = high = rows[0]
    count = 1
    current_cost = single_cost
    for point in rows[1:]:
        new_low = list(map(min, low, point))
        new_high = list(map(max, high, point))
        volume = 1.0
        for low_k, high_k in zip(new_low, new_high):
            volume *= (high_k - low_k) + cost_constant
        new_cost = volume / (count + 1)
        if new_cost > current_cost or count >= capacity:
            counts.append(count)
            lows.append(low)
            highs.append(high)
            low = high = point
            count = 1
            current_cost = single_cost
        else:
            low = new_low
            high = new_high
            count += 1
            current_cost = new_cost
    counts.append(count)
    lows.append(low)
    highs.append(high)
    return counts, lows, highs


def _hold_to_scalar_pass(
    partition: PartitionedSequence, max_points: int | None, what: str
) -> None:
    """The ``contracts`` check of a partition: raise
    :class:`~repro.core.contracts.ContractViolation` unless its counts and
    corners are, bit for bit, what the scalar pass gives its points.
    ``what`` names the partition in the message."""
    counts, lows, highs = _scalar_pass(
        partition.sequence.points.tolist(), partition.cost_constant, max_points
    )
    for field, expected in (
        ("counts", np.array(counts, dtype=np.int64)),
        ("low_matrix", np.array(lows, dtype=np.float64)),
        ("high_matrix", np.array(highs, dtype=np.float64)),
    ):
        actual = getattr(partition, field)
        if actual.shape != expected.shape or actual.tobytes() != expected.tobytes():
            raise ContractViolation(
                f"{what} is not the partition the scalar MCOST pass gives "
                f"its points ({field} differ)"
            )


def partition_sequence(
    sequence: MultidimensionalSequence | npt.ArrayLike,
    *,
    cost_constant: float = DEFAULT_COST_CONSTANT,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> PartitionedSequence:
    """Greedy MCOST partitioning (the paper's PARTITIONING_SEQUENCE).

    Parameters
    ----------
    sequence:
        A :class:`~repro.core.sequence.MultidimensionalSequence` (or raw
        point array) to partition.
    cost_constant:
        The ``Q_k + eps`` constant of the MCOST formula (paper default
        0.3); a finite number above zero.
    max_points:
        Maximum points per MBR; ``None`` disables the cap.

    Returns
    -------
    PartitionedSequence
        An exact ordered tiling of the sequence into MBR-bounded segments.
    """
    if not isinstance(sequence, MultidimensionalSequence):
        sequence = MultidimensionalSequence(sequence)
    cost_constant = _checked_cost_constant(cost_constant)
    if max_points is not None and max_points < 1:
        raise ValueError(f"max_points must be >= 1 or None, got {max_points}")
    partition = PartitionedSequence._of_counts(
        sequence,
        _partition_rows(sequence.points, cost_constant, max_points),
        cost_constant,
    )
    if CONTRACTS.on:
        _hold_to_scalar_pass(partition, max_points, "partition_sequence's result")
    return partition
