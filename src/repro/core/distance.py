"""Distance metrics of the paper (Definitions 2-5).

Four levels of distance are defined over the normalised space ``[0,1]^n``:

``point_distance``
    Euclidean distance ``d`` between two n-dimensional points.
``mean_distance`` (``Dmean``, Definition 2)
    The distance between two *equal-length* sequences: the arithmetic mean of
    the pointwise Euclidean distances.  A mean (not a sum) is used so that a
    long pair of nearby sequences is not judged farther apart than a short
    pair of distant ones (the paper's Figure 1 / Example 1).
``sequence_distance`` (``D``, Definition 3)
    For different-length sequences the shorter one is slid along the longer
    one and the minimum ``Dmean`` over all alignments is taken.
``mbr_min_distance`` (``Dmbr``, Definition 4)
    The minimum Euclidean distance between two hyper-rectangles.  Lemma 1:
    the minimum ``Dmbr`` over all (query MBR, data MBR) pairs lower-bounds
    ``D(Q, S)``, so ``Dmbr``-pruning has no false dismissals.
``normalized_distance`` (``Dnorm``, Definition 5)
    A point-count-aware refinement of ``Dmbr``: when the target data MBR
    holds fewer points than the query MBR, neighbouring data MBRs join the
    computation (a contiguous window with one partially-weighted *marginal*
    MBR at either end — the paper's ``LD``/``RD`` forms) and the per-MBR
    ``Dmbr`` values are averaged weighted by point counts.  Lemmas 2-3:
    ``min Dmbr <= min Dnorm <= D(Q, S)`` — a tighter lower bound that still
    never causes a false dismissal when selecting sequences.
    :func:`dnorm_instances` is the same definition for every anchor of many
    (sequence, probe MBR) pairs at once — the one body Phase 3 runs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.contracts import BOUND_TOLERANCE, ContractViolation, lower_bounds
from repro.core.mbr import (
    BROADCAST_CELLS,
    MBR,
    _numpy_order_sum,
    dmbr_columns,
    min_dmbr_columns,
)
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import IntervalSet
from repro.util.budget import checkpoint
from repro.util.checks import CONTRACTS

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.core.partitioning import PartitionedSequence

    SequenceLike = MultidimensionalSequence | npt.ArrayLike
    MbrsLike = Sequence[MBR]
    CountsLike = "Sequence[int] | npt.NDArray[np.int64]"

INFINITY = float("inf")

__all__ = [
    "INFINITY",
    "NormalizedDistance",
    "Phase3Grid",
    "Phase3Windows",
    "SegmentRuns",
    "dnorm_between",
    "dnorm_instances",
    "dnorm_pairs",
    "mbr_min_distance",
    "mean_distance",
    "min_dmbr_runs",
    "min_normalized_distance",
    "normalized_distance",
    "point_distance",
    "run_entries",
    "segment_mean_bounds",
    "sequence_distance",
    "sliding_mean_distances",
    "union_spans",
]


def _as_points(seq: SequenceLike) -> np.ndarray:
    """Accept an MDS or a raw array and return the ``(m, n)`` point matrix."""
    if isinstance(seq, MultidimensionalSequence):
        return seq.points
    arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a non-empty (m, n) point array, got {arr.shape}")
    return arr


def point_distance(p: npt.ArrayLike, q: npt.ArrayLike) -> float:
    """Euclidean distance ``d(p, q)`` between two n-dimensional points."""
    a = np.asarray(p, dtype=np.float64).reshape(-1)
    b = np.asarray(q, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"point dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def mean_distance(s1: SequenceLike, s2: SequenceLike) -> float:
    """``Dmean`` (Definition 2): mean pointwise distance of equal-length sequences.

    Parameters
    ----------
    s1, s2:
        Two sequences (or raw point arrays) of the same length and dimension.

    Raises
    ------
    ValueError
        If the lengths or dimensions differ.
    """
    a = _as_points(s1)
    b = _as_points(s2)
    if a.shape != b.shape:
        raise ValueError(
            f"Dmean requires equal-length sequences of equal dimension; got "
            f"shapes {a.shape} and {b.shape}"
        )
    return float(np.mean(np.sqrt(np.sum((a - b) ** 2, axis=1))))


def sliding_mean_distances(short: SequenceLike, long: SequenceLike) -> np.ndarray:
    """``Dmean`` of ``short`` against every alignment inside ``long``.

    Returns an array of length ``len(long) - len(short) + 1`` whose entry
    ``j`` is ``Dmean(short, long[j : j + len(short)])`` (zero-based ``j``).
    This enumerates the alignments minimised over in Definition 3 and is the
    kernel of every exact ``D``: k-NN refinement, ``explain``, the contract
    validators and the sequential-scan baseline.

    Row ``j`` of the point-distance matrix ``d(long[j + t], short[t])`` is
    alignment ``j``.  Each dimension is one contiguous pass, the squared
    gaps are added in ``np.sum``'s order and the rows are contiguous, so
    every entry is, to the bit, the :func:`mean_distance` of its alignment.
    """
    a = _as_points(short)
    b = _as_points(long)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    k, m = a.shape[0], b.shape[0]
    if k > m:
        raise ValueError(
            f"short sequence (length {k}) is longer than long sequence "
            f"(length {m})"
        )
    n = a.shape[1]
    columns = np.ascontiguousarray(b.T)
    cell = columns.itemsize
    # windows[c, j, t] = long[j + t, c]: alignment j + 1 starts one point
    # after alignment j, so the rows overlap in memory and nothing is copied.
    windows = np.lib.stride_tricks.as_strided(
        columns, (n, m - k + 1, k), (m * cell, cell, cell), writeable=False
    )
    short_columns = a.T[:, None, :]
    means = np.empty(m - k + 1)
    step = max(1, BROADCAST_CELLS // (n * k))  # alignments per block
    for start in range(0, m - k + 1, step):
        checkpoint("distance.sliding")
        # C order: np.mean adds a contiguous row pairwise, as it does a vector.
        gaps = np.subtract(windows[:, start : start + step], short_columns, order="C")
        np.multiply(gaps, gaps, out=gaps)
        distances = _numpy_order_sum(list(gaps))
        np.sqrt(distances, out=distances)
        means[start : start + step] = np.mean(distances, axis=1)
    return means


def sequence_distance(s1: SequenceLike, s2: SequenceLike) -> float:
    """``D`` (Definitions 2-3): the sliding minimum mean distance.

    Equal-length sequences compare point by point (Definition 2); otherwise
    the shorter is slid along the longer and the minimum ``Dmean`` over all
    alignments is returned (Definition 3).  The operation is symmetric.
    """
    a = _as_points(s1)
    b = _as_points(s2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    return float(np.min(sliding_mean_distances(a, b)))


def _validate_segment_mean_bounds(
    result: np.ndarray,
    short: np.ndarray,
    counts: np.ndarray,
    longs: Sequence[np.ndarray],
) -> None:
    """Every alignment's bound is within ``Dmean`` of that alignment."""
    for index, long in enumerate(longs):
        exact = sliding_mean_distances(short, long)
        bounds = result[index, : len(exact)]
        over = np.flatnonzero(bounds > exact + BOUND_TOLERANCE)
        if len(over):
            raise ContractViolation(
                f"segment-mean bound {float(bounds[over[0]])!r} exceeds Dmean "
                f"{float(exact[over[0]])!r} at alignment {int(over[0])} of "
                f"sequence {index} of the batch: a neighbour may go unrefined"
            )


@lower_bounds(_validate_segment_mean_bounds, label="segment mean <= Dmean")
def segment_mean_bounds(
    short: np.ndarray, counts: np.ndarray, longs: Sequence[np.ndarray]
) -> np.ndarray:
    """A lower bound of ``Dmean`` at every alignment of ``short`` inside
    each of ``longs`` (none shorter than it).

    ``counts`` cuts ``short`` into consecutive blocks ``B_b`` (its MCOST
    segments, in practice).  By the triangle inequality per block, the
    bound at alignment ``o`` of a long sequence ``S`` is

        (1 / |short|) · Σ_b ‖Σ_{i ∈ B_b} (short_i − S_{o+i})‖ ≤ Dmean(o)

    and each block sum of ``S`` is a difference of its running sums, so an
    alignment costs one term per block, whatever the blocks' lengths.  The
    running sums are one ``cumsum`` over a zero-padded block holding every
    long sequence, each in its own row, so that round-off grows with the
    length of one sequence only.  That round-off is still absolute, and
    grows with the coordinates' size: each row's bound is lowered by a
    worst-case allowance for it (about 1e-10 in the unit cube), so that it
    holds at any scale.  Row ``r`` of the result bounds
    ``sliding_mean_distances(short, longs[r])`` entry by entry, and is
    padded with ``inf``.
    """
    if not longs:
        return np.full((0, 1), np.inf)
    lengths = np.array([len(points) for points in longs])
    width = lengths.max() + 1
    sums = np.zeros((short.shape[1], len(longs), width))
    for row, points in enumerate(longs):
        sums[:, row, 1 : len(points) + 1] = points.T
    # A running sum of n terms is off by at most n·eps·Σ|terms|, a block sum
    # by twice that; the steps after it add relative errors of a few eps.
    magnitudes = np.abs(sums).sum(axis=(0, 2)) + np.abs(short).sum()
    slack = magnitudes * (lengths + short.shape[0] + short.shape[1])
    slack *= 3 * len(counts) * np.finfo(np.float64).eps
    np.cumsum(sums, axis=2, out=sums)
    sums = sums.reshape(short.shape[1], -1)
    # The flat column of sums at which each alignment of each row starts.
    sizes = lengths - len(short) + 1
    heads = np.cumsum(sizes) - sizes
    starts = np.arange(sizes.sum()) + np.repeat(
        np.arange(len(longs)) * width - heads, sizes
    )
    edges = np.cumsum(np.r_[0, counts])
    totals = np.add.reduceat(short, edges[:-1], axis=0).T
    bounds = np.zeros(len(starts))
    step = max(1, BROADCAST_CELLS // (len(sums) * len(starts)))  # blocks a pass
    for first in range(0, len(counts), step):
        checkpoint("distance.segment_mean")
        # gaps[c, b, a]: block b's sum of long minus short, alignment a.
        cut = edges[first : first + step + 1]
        gaps = np.diff(sums.take(cut[:, None] + starts, axis=1), axis=1)
        gaps -= totals[:, first : first + step, None]
        gaps *= gaps
        bounds += np.sqrt(gaps.sum(axis=0)).sum(axis=0)
    bounds -= np.repeat(slack, sizes)
    bounds /= len(short)
    padded = np.full((len(longs), sizes.max()), np.inf)
    padded[np.arange(sizes.max()) < sizes[:, None]] = bounds
    return padded


def mbr_min_distance(a: MBR, b: MBR) -> float:
    """``Dmbr`` (Definition 4): minimum distance between two hyper-rectangles."""
    return a.min_distance(b)


# ----------------------------------------------------------------------
# Dnorm (Definition 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NormalizedDistance:
    """The value of one ``Dnorm`` computation plus its participating window.

    The window is what Section 3.3 turns into an approximate solution
    interval: every point of the fully-weighted MBRs plus the
    ``marginal_count`` points of the partially-weighted marginal MBR taken
    from the side adjacent to the window.

    Attributes
    ----------
    value:
        The ``Dnorm`` distance.
    target_index:
        Zero-based index of the data MBR the computation was anchored at.
    window:
        Inclusive zero-based ``(first, last)`` data-MBR index range involved.
    marginal_index:
        Index of the single partially-weighted MBR, or ``None`` when every
        involved MBR was fully weighted (target alone, or whole-sequence
        fallback).
    marginal_count:
        Number of points used from the marginal MBR (0 when none).
    marginal_side:
        ``"right"`` for an ``LD`` window (marginal at the right end, its
        *first* points used), ``"left"`` for ``RD`` (marginal at the left
        end, its *last* points used), ``"none"`` otherwise.
    """

    value: float
    target_index: int
    window: tuple[int, int]
    marginal_index: int | None
    marginal_count: int
    marginal_side: str

    def involved_points(self, counts: CountsLike) -> list[tuple[int, int, int]]:
        """Expand the window into per-MBR point spans.

        Parameters
        ----------
        counts:
            Point count of every data MBR of the sequence (same array the
            distance was computed with).

        Returns
        -------
        list of (mbr_index, first_point, last_point)
            Zero-based point offsets *within each MBR*, inclusive on both
            ends, for every MBR contributing points.
        """
        spans = []
        first, last = self.window
        for t in range(first, last + 1):
            if t == self.marginal_index:
                if self.marginal_count == 0:
                    continue
                if self.marginal_side == "right":
                    spans.append((t, 0, self.marginal_count - 1))
                else:
                    spans.append((t, counts[t] - self.marginal_count, counts[t] - 1))
            else:
                spans.append((t, 0, counts[t] - 1))
        return spans


def _weighted_window_value(
    dmbr: np.ndarray,
    counts: np.ndarray,
    first: int,
    last: int,
    marginal_index: int,
    marginal_count: int,
    query_count: int,
) -> float:
    """Weighted mean of ``dmbr`` over window ``[first, last]`` / ``query_count``."""
    total = 0.0
    for t in range(first, last + 1):
        weight = marginal_count if t == marginal_index else int(counts[t])
        total += dmbr[t] * weight
    return total / query_count


def _validate_normalized_distance(
    result: NormalizedDistance,
    query_mbr: MBR,
    query_count: int,
    data_mbrs: MbrsLike,
    data_counts: CountsLike,
    target_index: int,
    *,
    dmbr_row: np.ndarray | None = None,
) -> None:
    """Lemma 2 at one anchor: ``Dnorm`` is a convex combination of the
    window's ``Dmbr`` values, so it can never fall below their minimum —
    recomputed from the MBRs themselves, ignoring any caller-supplied
    ``dmbr_row``, so that a corrupted precomputed row is caught too."""
    first, last = result.window
    bound = min(
        query_mbr.min_distance(mbr) for mbr in list(data_mbrs)[first : last + 1]
    )
    if result.value < bound - BOUND_TOLERANCE:
        raise ContractViolation(
            f"Dnorm contract violated: value {result.value!r} falls below "
            f"the window's minimum Dmbr {bound!r} (anchor "
            f"{result.target_index}, window {result.window}) — Lemma 2 no "
            f"longer holds"
        )


def _validate_min_normalized_distance(
    result: float,
    query_partition: PartitionedSequence,
    data_partition: PartitionedSequence,
) -> None:
    """The full Lemma 2-3 chain: ``min Dmbr <= min Dnorm <= D(Q, S)``."""
    min_dmbr = min(
        float(data_partition.mbr_distance_row(segment.mbr).min())
        for segment in query_partition
    )
    if result < min_dmbr - BOUND_TOLERANCE:
        raise ContractViolation(
            f"min Dnorm {result!r} falls below min Dmbr {min_dmbr!r} — "
            f"Lemma 2 violated"
        )
    exact = sequence_distance(
        query_partition.sequence, data_partition.sequence
    )
    if result > exact + BOUND_TOLERANCE:
        raise ContractViolation(
            f"min Dnorm {result!r} exceeds the exact distance {exact!r} — "
            f"Lemma 3 violated (false dismissals possible)"
        )


@lower_bounds(_validate_normalized_distance, label="Dnorm >= window min Dmbr")
def normalized_distance(
    query_mbr: MBR,
    query_count: int,
    data_mbrs: MbrsLike,
    data_counts: CountsLike,
    target_index: int,
    *,
    dmbr_row: np.ndarray | None = None,
) -> NormalizedDistance:
    """``Dnorm`` (Definition 5) between a query MBR and one data MBR.

    Parameters
    ----------
    query_mbr:
        The MBR of the query subsequence (the paper's ``mbr_i(Q)``).
    query_count:
        Number of query points inside ``query_mbr`` (``|q_i|``).
    data_mbrs:
        The ordered MBRs of the data sequence (``mbr_1(S) .. mbr_r(S)``).
    data_counts:
        Point count of each data MBR (``|m_j|``), same order.
    target_index:
        Zero-based index ``j`` of the anchor data MBR.
    dmbr_row:
        Optional precomputed array of ``Dmbr(query_mbr, data_mbrs[t])`` for
        every ``t`` — one row serves every anchor of a (query MBR, sequence)
        pair (:meth:`PartitionedSequence.mbr_distance_row` computes it).

    Returns
    -------
    NormalizedDistance
        Value plus the participating window (for solution intervals).

    Notes
    -----
    Three regimes, following Definition 5 and the Lemma 3 proof:

    * ``|m_j| >= |q_i|``: the target MBR alone suffices and
      ``Dnorm = Dmbr(mbr_i(Q), mbr_j(S))``.
    * Otherwise all valid ``LD`` windows (fully weighted MBRs ``k..l-1``,
      marginal ``l`` strictly right of ``j``) and ``RD`` windows (marginal
      ``p`` strictly left of ``j``) are enumerated and the minimum weighted
      mean is returned.
    * When the whole data sequence holds fewer points than ``|q_i|`` no
      window satisfies the count constraint; we then weight every MBR fully
      and normalise by the participating point total.  Each ``Dmbr`` term
      lower-bounds every point-pair distance, so this fallback preserves the
      lower-bounding property of Lemma 3.
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
    if not 0 <= target_index < r:
        raise IndexError(f"target_index {target_index} outside [0, {r})")

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

    j = target_index
    if counts[j] >= query_count:
        return NormalizedDistance(
            value=float(dmbr_row[j]),
            target_index=j,
            window=(j, j),
            marginal_index=None,
            marginal_count=0,
            marginal_side="none",
        )

    prefix = np.concatenate([[0], np.cumsum(counts)])  # prefix[i] = sum counts[:i]

    def window_sum(first: int, last: int) -> int:
        return int(prefix[last + 1] - prefix[first])

    best: NormalizedDistance | None = None

    # LD windows: fully weighted k..l-1, marginal l with l > j, k <= j.
    # For a fixed k the marginal index l is unique (counts are positive, so
    # prefix sums are strictly increasing): the smallest l with
    # sum(counts[k..l]) >= query_count.  Binary-search it on the prefix sums.
    for k in range(j, -1, -1):
        # Smallest l such that prefix[l + 1] >= prefix[k] + query_count.
        l = int(np.searchsorted(prefix, prefix[k] + query_count, side="left")) - 1
        if l >= r:
            continue  # not enough points to the right of k
        if l <= j:
            # The count constraint is met at or before the anchor, so the
            # marginal cannot lie strictly right of j; shrinking k further
            # only moves l left, so no smaller k is valid either.
            break
        marginal_count = query_count - window_sum(k, l - 1)
        value = _weighted_window_value(
            dmbr_row, counts, k, l, l, marginal_count, query_count
        )
        candidate = NormalizedDistance(
            value=value,
            target_index=j,
            window=(k, l),
            marginal_index=l,
            marginal_count=marginal_count,
            marginal_side="right",
        )
        if best is None or candidate.value < best.value:
            best = candidate

    # RD windows: marginal p with p < j, fully weighted p+1..q_end, q_end >= j.
    # For a fixed q_end the marginal index p is unique: the largest p with
    # sum(counts[p..q_end]) >= query_count, i.e. the largest p whose prefix
    # satisfies prefix[p] <= prefix[q_end + 1] - query_count.
    for q_end in range(j, r):
        threshold = prefix[q_end + 1] - query_count
        if threshold < 0:
            continue  # not enough points to the left of q_end
        p = int(np.searchsorted(prefix, threshold, side="right")) - 1
        if p >= j:
            # Marginal would sit at or right of the anchor; growing q_end
            # only moves p further right, so stop.
            break
        marginal_count = query_count - window_sum(p + 1, q_end)
        value = _weighted_window_value(
            dmbr_row, counts, p, q_end, p, marginal_count, query_count
        )
        candidate = NormalizedDistance(
            value=value,
            target_index=j,
            window=(p, q_end),
            marginal_index=p,
            marginal_count=marginal_count,
            marginal_side="left",
        )
        if best is None or candidate.value < best.value:
            best = candidate

    if best is not None:
        return best

    # Fallback: the whole sequence holds fewer points than the query MBR.
    total = window_sum(0, r - 1)
    value = float(np.sum(dmbr_row * counts) / total)
    return NormalizedDistance(
        value=value,
        target_index=j,
        window=(0, r - 1),
        marginal_index=None,
        marginal_count=0,
        marginal_side="none",
    )


# ----------------------------------------------------------------------
# Dnorm for many (target run, probe) instances at once — Phase 3's body
# ----------------------------------------------------------------------
def run_entries(
    offsets: np.ndarray, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of some runs sit in flat arrays cut by ``offsets``.

    Returns ``(take, gathered)``: the flat positions of the entries of
    ``runs`` (any order, repeats allowed), run after run, and the offsets
    that cut *those* — entry ``i`` of ``runs`` owns
    ``take[gathered[i]:gathered[i + 1]]``.
    """
    first = offsets[runs]
    sizes = offsets[runs + 1] - first
    gathered = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=gathered[1:])
    take = np.arange(gathered[-1]) + np.repeat(first - gathered[:-1], sizes)
    return take, gathered


def min_dmbr_runs(
    probe_lows: np.ndarray,
    probe_highs: np.ndarray,
    low_columns: np.ndarray,
    high_columns: np.ndarray,
    offsets: np.ndarray,
    *,
    site: str,
) -> np.ndarray:
    """Lemma 1's bound for many sequences: per run ``offsets[i]:offsets[i + 1]``
    of the column-major corners (a whole segment table's, or rows gathered
    from one), the least ``Dmbr`` between any probe and any of its segments.
    """
    if len(offsets) == 1:
        return np.zeros(0)
    nearest = min_dmbr_columns(
        probe_lows, probe_highs, low_columns, high_columns, axis=0, site=site
    )
    return np.minimum.reduceat(nearest, offsets[:-1])


class SegmentRuns(NamedTuple):
    """Runs of consecutive segment MBRs in flat arrays.

    Run ``t`` — one partitioned sequence — owns the entries
    ``offsets[t]:offsets[t + 1]`` of the ``(S, n)`` corner matrices ``lows``
    / ``highs``, of their ``(n, S)`` column-major forms ``low_columns`` /
    ``high_columns`` and of ``counts`` (points per segment), ``lengths[t]``
    points in all.  A database's segment table has this shape, and so do
    stacked partitions (:meth:`of`).
    """

    lows: np.ndarray
    highs: np.ndarray
    low_columns: np.ndarray
    high_columns: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, partitions: Sequence[PartitionedSequence]) -> "SegmentRuns":
        """The given partitions, one run each, in order (the columns are
        views of the stacked corners)."""
        lows = np.concatenate([p.low_matrix for p in partitions])
        highs = np.concatenate([p.high_matrix for p in partitions])
        return cls(
            lows,
            highs,
            lows.T,
            highs.T,
            np.concatenate([p.counts for p in partitions]),
            np.cumsum([0, *(len(p) for p in partitions)]),
            np.array([len(p.sequence) for p in partitions], dtype=np.int64),
        )


def union_spans(
    keys: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> dict[int, IntervalSet]:
    """Union the half-open spans ``start:stop`` of each key (§3.3).

    One sort by (key, start) and a running maximum of the stops merge
    every key's overlapping or touching spans at once: a span starts a
    new run where it begins past every stop before it.
    """
    if len(keys) == 0:
        return {}
    stride = int(stop.max()) + 1  # keeps the keys apart on one axis
    low = keys * stride + start
    # Spans come mostly in runs of ascending keys, which a merge sort
    # takes whole; how equal lows are ordered does not change the union.
    order = np.argsort(low, kind="stable")
    low = low[order]
    high = (keys * stride + stop)[order]
    heads = np.ones(len(low), dtype=bool)
    np.greater(low[1:], np.maximum.accumulate(high)[:-1], out=heads[1:])
    heads = np.flatnonzero(heads)
    lows = low[heads]
    owners = lows // stride
    base = owners * stride
    spans: dict[int, list[tuple[int, int]]] = {}
    for key, first, last in zip(
        owners.tolist(),
        (lows - base).tolist(),
        (np.maximum.reduceat(high, heads) - base).tolist(),
    ):
        spans.setdefault(key, []).append((first, last))
    return {key: IntervalSet._of_canonical(merged) for key, merged in spans.items()}


@dataclass(frozen=True)
class Phase3Windows:
    """The ``Dnorm`` windows one :func:`dnorm_instances` pass settled on.

    One entry per window that some anchor with ``Dnorm <= eps`` took its
    value from: the anchor's own segment when that holds ``|q_i|`` points,
    its winning ``LD`` / ``RD`` window otherwise, the whole run in the
    short-sequence fallback.  ``start:stop`` is the range of the run's
    points the window covers — exactly ``|q_i|`` consecutive points for an
    ``LD`` / ``RD`` window — which is what §3.3 unions into the solution
    interval.  Segment and point positions are local to the target run.
    """

    #: The instance, and the first anchor that took its value from the window.
    instance: np.ndarray
    anchor: np.ndarray
    #: First and last segment taking part, and the window's ``Dnorm``.
    first: np.ndarray
    last: np.ndarray
    value: np.ndarray
    #: The half-open point range covered.
    start: np.ndarray
    stop: np.ndarray


#: Field by field, what :class:`Phase3Windows` holds when nothing matched.
_NO_WINDOWS: tuple[np.ndarray, ...] = (
    *[np.zeros(0, dtype=np.int64)] * 4,
    np.zeros(0),
    *[np.zeros(0, dtype=np.int64)] * 2,
)


class Phase3Grid(NamedTuple):
    """One reading of a :func:`dnorm_pairs` block: instance ``(p, g)`` is
    probe ``p`` against target run ``g``, where the run ``p`` belongs to
    and run ``g`` are a pair this reading takes.

    ``probe_runs`` cuts the probe axis into those runs (a query's MBRs, or
    a stored sequence's segments), and ``pairs[r, g]`` says whether probe
    run ``r`` and target run ``g`` are such a pair.
    """

    #: Per cell: the least ``Dmbr`` between probe and run; whether the
    #: instance was built (a pair's cell within its threshold); and
    #: whether some anchor has ``Dnorm <= eps``.
    nearest: np.ndarray
    built: np.ndarray
    found: np.ndarray
    #: The windows behind those anchors, instance ``p * runs + g``.
    windows: Phase3Windows
    probe_runs: np.ndarray
    pairs: np.ndarray
    #: ``Dnorm`` rows evaluated: the built instances' target segments.
    evaluated: int


def _validate_phase3_windows(
    result: tuple[Phase3Grid | None, Phase3Grid | None],
    queries: SegmentRuns,
    stored: SegmentRuns,
    rows: np.ndarray,
    epsilons: np.ndarray,
    *,
    windows: bool = True,
) -> None:
    """Lemma 2 for every window emitted: ``Dnorm`` is a convex combination
    of the window's ``Dmbr`` values, so it cannot fall below their minimum
    — recomputed here between MBR objects, one pair at a time, not from the
    ``Dmbr`` block the pass read."""
    take, _ = run_entries(stored.offsets, rows)
    straight, swapped = result
    for grid, flipped in ((straight, False), (swapped, True)):
        if grid is None:
            continue
        emitted = grid.windows
        for instance, first, last, value in zip(
            emitted.instance.tolist(),
            emitted.first.tolist(),
            emitted.last.tolist(),
            emitted.value.tolist(),
        ):
            probe, run = divmod(instance, grid.nearest.shape[1])
            if flipped:
                probe, targets, target_run = int(take[probe]), queries, run
                probe_mbr = MBR(stored.lows[probe], stored.highs[probe])
            else:
                probe_mbr = MBR(queries.lows[probe], queries.highs[probe])
                targets, target_run = stored, int(rows[run])
            base = int(targets.offsets[target_run])
            bound = min(
                probe_mbr.min_distance(MBR(targets.lows[t], targets.highs[t]))
                for t in range(base + first, base + last + 1)
            )
            if value < bound - BOUND_TOLERANCE:
                raise ContractViolation(
                    f"Dnorm contract violated in Phase 3: value {value!r} falls "
                    f"below the window's minimum Dmbr {bound!r} (instance "
                    f"{instance}, target run {target_run}, window "
                    f"({first}, {last})) — Lemma 2 no longer holds"
                )


@lower_bounds(
    _validate_phase3_windows, label="Phase-3 windows >= window min Dmbr"
)
def dnorm_pairs(
    queries: SegmentRuns,
    stored: SegmentRuns,
    rows: np.ndarray,
    epsilons: np.ndarray,
    *,
    windows: bool = True,
) -> tuple[Phase3Grid | None, Phase3Grid | None]:
    """``Dnorm`` for every pair of a query run and a stored run: all the
    Phase-3 instances they hold.

    Query run ``a`` is measured at threshold ``epsilons[a]`` against each
    stored run ``rows[c]`` (distinct).  A pair's instances are the query's
    segments probing the stored run — or, where the query holds more
    points (the long-query case, see :func:`min_normalized_distance`), the
    stored segments probing the query's run.

    One :func:`~repro.core.mbr.dmbr_columns` block holds ``Dmbr`` between
    every query segment (a row) and every segment of the stored runs (a
    column, run after run).  Read as it is, it is the *straight* grid of
    (query segment, stored run) instances; read transposed — ``Dmbr`` is
    symmetric — the *swapped* grid of (stored segment, query run) ones.
    One ``np.minimum.reduceat`` per reading gives every instance's least
    ``Dmbr``.  ``Dnorm``, a weighted mean of ``Dmbr`` values, cannot fall
    below it (Lemma 2), so only the instances whose least ``Dmbr`` is
    within their threshold are built: each gets its row of the block and
    its target run's counts, and :func:`dnorm_instances` evaluates them.
    Returns the two grids, ``None`` for a reading no pair takes.

    The block, and what the body builds from it, grow with the query
    segments times the stored segments of ``rows``: a caller bounds them
    by the pairs it passes (``phase3_kernel`` passes tiles).  One
    cancellation checkpoint (``search.phase3``) precedes the block.

    ``windows`` is as for :func:`dnorm_instances` (while contracts are
    checked the windows are reported anyway, so that the validator sees
    what every verdict rests on).
    """
    windows = windows or CONTRACTS.on
    take, cuts = run_entries(stored.offsets, rows)
    checkpoint("search.phase3")
    block = dmbr_columns(
        queries.lows,
        queries.highs,
        stored.low_columns.take(take, axis=1),
        stored.high_columns.take(take, axis=1),
    )
    flipped = queries.lengths[:, None] > stored.lengths[rows]
    target_counts = stored.counts.take(take)
    straight = swapped = None
    if not flipped.all():
        straight = _dnorm_grid(
            block,
            cuts,
            queries.counts,
            target_counts,
            queries.offsets,
            ~flipped,
            np.where(flipped, -np.inf, epsilons[:, None]),
            windows,
        )
    if flipped.any():
        swapped = _dnorm_grid(
            block.T,
            queries.offsets,
            target_counts,
            queries.counts,
            cuts,
            flipped.T,
            np.where(flipped, epsilons[:, None], -np.inf).T,
            windows,
        )
    return straight, swapped


def _dnorm_grid(
    view: np.ndarray,
    runs: np.ndarray,
    probe_counts: np.ndarray,
    target_counts: np.ndarray,
    probe_runs: np.ndarray,
    pairs: np.ndarray,
    thresholds: np.ndarray,
    windows: bool,
) -> Phase3Grid:
    """One reading of the block: ``view[p, t]`` is ``Dmbr`` between probe
    ``p`` and target segment ``t``; ``probe_runs`` and ``runs`` cut the
    two axes into runs, and ``thresholds`` holds each pair of runs' ε,
    ``-inf`` where they are no pair."""
    nearest = np.minimum.reduceat(view, runs[:-1], axis=1)
    thresholds = np.repeat(thresholds, probe_runs[1:] - probe_runs[:-1], axis=0)
    built = nearest <= thresholds
    cells = np.flatnonzero(built)
    sizes = runs[1:] - runs[:-1]
    # A built instance's row of the view, and its run's counts, in order.
    taken = np.repeat(built, sizes, axis=1)
    offsets = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(sizes[cells % len(sizes)], out=offsets[1:])
    found = np.zeros(built.shape, dtype=bool)
    hit, emitted = dnorm_instances(
        view[taken],
        np.broadcast_to(target_counts, view.shape)[taken],
        offsets,
        probe_counts[cells // len(sizes)],
        thresholds.reshape(-1)[cells],
        windows=windows,
    )
    found.reshape(-1)[cells] = hit
    return Phase3Grid(
        nearest,
        built,
        found,
        dataclasses.replace(emitted, instance=cells[emitted.instance]),
        probe_runs,
        pairs,
        int(offsets[-1]),
    )


def dnorm_instances(
    dmbr: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    probe_counts: np.ndarray,
    epsilons: np.ndarray,
    *,
    windows: bool = True,
) -> tuple[np.ndarray, Phase3Windows]:
    """``Dnorm`` of many *instances* at once: the one body of Phase 3.

    An instance is a probe rectangle holding ``|q_i|`` points, the run of
    target segments it is measured against, and a threshold; the body sees
    it as the ``Dmbr`` row between the two.  A range search asks for
    (query MBR, stored sequence) instances; a long query swaps the roles —
    each data segment probes the query's partition; the ε-cache asks for
    one stored sequence under the query MBRs of many cached queries, each
    at its own threshold; ``explain`` and :func:`min_normalized_distance`
    ask at ``eps = inf``.  :func:`dnorm_pairs` builds them all.

    Parameters
    ----------
    dmbr, counts, offsets:
        Instance ``i`` owns the entries ``offsets[i]:offsets[i + 1]``: per
        segment of its target run, in order, the ``Dmbr`` from its probe
        and the segment's point count.
    probe_counts, epsilons:
        Per instance: the probe's point count ``|q_i|`` and the threshold.
    windows:
        When false only the verdicts are wanted and no windows are
        reported.

    Returns
    -------
    (found, windows)
        Per instance whether some anchor has ``Dnorm <= eps``, and the
        windows behind those anchors.

    Notes
    -----
    For a probe of ``|q_i|`` points and a run whose segments start at
    points ``P[0] < P[1] < ...``, Definition 5's windows are runs of
    exactly ``|q_i|`` consecutive points: the ``LD`` window starting at
    segment ``k`` covers ``[P[k], P[k] + |q_i|)``, the ``RD`` window ending
    at segment ``e`` covers ``[P[e + 1] - |q_i|, P[e + 1])``.  A binary
    search on ``P`` finds the marginal segment, prefix sums of
    ``Dmbr * count`` give the value, and a window exists only if it stays
    inside its own run.  Every instance has its own row of values and its
    own prefix sums (one padded matrix row each), so a value is the
    floating-point number a running sum over that one run produces,
    whatever else shares the pass.  The caller builds only instances whose
    least ``Dmbr`` is within their threshold; any other has no window
    within it either, since every value is floored there.
    """
    sizes = offsets[1:] - offsets[:-1]
    owner = np.repeat(np.arange(len(sizes)), sizes)  # instance of each segment
    local = np.arange(len(counts)) - offsets[:-1][owner]  # its index in the run
    nearest = np.minimum.reduceat(dmbr, offsets[:-1])
    found = np.zeros(len(sizes), dtype=bool)
    points = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=points[1:])
    origin = points[offsets[:-1]]  # first point of each instance's run
    ends = points[offsets[1:]]
    lengths = ends - origin
    begin = origin[owner]
    end = ends[owner]
    size = probe_counts[owner]
    epsilon = epsilons[owner]
    # Per-instance running sums of Dmbr * count live in one padded matrix,
    # a dmbr per instance: slot[s] holds the sum *before* segment s and
    # slot[s] + 1 the sum including it; column 0 stays 0.
    width = int(sizes.max(initial=0)) + 1
    weighted = np.zeros((len(sizes), width))
    prefix = weighted.reshape(-1)
    slot = owner * width + local
    prefix[slot + 1] = dmbr * counts
    np.cumsum(weighted, axis=1, out=weighted)

    small = counts < size
    # Anchors holding >= |q_i| points: Dnorm is their own Dmbr.
    solo = np.flatnonzero(~small & (dmbr <= epsilon))
    # LD windows, one per first segment: the |q_i| points from its first
    # point on; the marginal segment holds the last of them.  RD windows,
    # one per last segment: the |q_i| points up to its last point; the
    # marginal segment holds the first of them.  The points are integers,
    # so "right of x" is "left of x + 1": one binary search finds both.
    reach = points[:-1] + size
    floor = points[1:] - size
    ld = np.flatnonzero(small & (reach <= end))
    rd = np.flatnonzero(small & (floor >= begin))
    marginal = np.searchsorted(points, np.concatenate([reach[ld], floor[rd] + 1])) - 1
    first = np.concatenate([ld, marginal[len(ld) :]])
    last = np.concatenate([marginal[: len(ld)], rd])
    # The fully weighted segments of an LD window are first..last-1, of an
    # RD window first+1..last: their sum is a difference of running sums.
    shift = np.arange(len(first)) >= len(ld)
    weight = np.concatenate(
        [
            reach[ld] - points[marginal[: len(ld)]],
            points[marginal[len(ld) :] + 1] - floor[rd],
        ]
    )
    value = (
        prefix[slot[last] + shift]
        - prefix[slot[first] + shift]
        + dmbr[marginal] * weight
    ) / size[first]
    # A difference of running sums can round below the run's least Dmbr,
    # which Dnorm, a weighted mean of Dmbr values, never is (Lemma 2): the
    # floor keeps each value where the caller's "nearest <= eps" cut assumes.
    value = np.maximum(value, nearest[owner[first]])
    keep = value <= epsilon[first]
    first, last, value, shift = first[keep], last[keep], value[keep], shift[keep]
    found[owner[np.concatenate([solo, first])]] = True
    # A run shorter than |q_i| has no window: every MBR counts in full,
    # normalised by the run's length (Definition 5's fallback).  No search
    # asks for it: the probing side is never the longer sequence.
    short = np.flatnonzero(lengths < probe_counts)
    whole = prefix[short * width + sizes[short]] / lengths[short]
    whole = np.maximum(whole, nearest[short])
    keep = whole <= epsilons[short]
    short, whole = short[keep], whole[keep]
    found[short] = True
    if not windows:
        return found, Phase3Windows(*_NO_WINDOWS)

    # The windows in the reference's order: LD by first segment, then RD by
    # last.  An LD window serves every segment but its last as anchor, an
    # RD window every segment but its first.
    won, anchor = _winning_windows(first + shift, last - first, value)
    first, last, shift = first[won], last[won], shift[won]
    # Per window: first and last segment, first anchor, Dnorm, first point
    # and points covered — solo anchors, then LD / RD, then fallbacks.
    head = offsets[:-1][short]
    sources = [
        (solo, solo, solo, dmbr[solo], points[solo], counts[solo]),
        (
            first,
            last,
            anchor,
            value[won],
            np.where(shift, floor[last], points[first]),
            size[first],
        ),
        (head, offsets[1:][short] - 1, head, whole, origin[short], lengths[short]),
    ]
    first, last, anchor, value, start, span = map(np.concatenate, zip(*sources))
    instance = owner[first]
    start -= origin[instance]
    return found, Phase3Windows(
        instance,
        local[anchor],
        local[first],
        local[last],
        value,
        start,
        start + span,
    )


def _winning_windows(
    first_anchor: np.ndarray, anchors: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The windows that give some anchor its ``Dnorm`` (indices, ascending),
    and the first anchor each of them gives it to.

    Window ``w`` covers the ``anchors[w]`` anchors from ``first_anchor[w]``
    on.  Each anchor takes the smallest value among the windows covering
    it and, between equal values, the earliest window — Definition 5's
    minimum read with a strict ``<`` over LD windows by start, then RD
    windows by end, which is the order the caller passes them in.  Only
    windows within the threshold are passed: a larger one cannot win an
    anchor that ends up within it.
    """
    if len(value) == 0:
        return first_anchor, first_anchor
    window = np.repeat(np.arange(len(anchors)), anchors)
    anchor = np.arange(len(window)) + np.repeat(
        first_anchor - np.cumsum(anchors) + anchors, anchors
    )
    # lexsort is stable, so equal (anchor, value) pairs keep window order.
    order = np.lexsort((value[window], anchor))
    ranked = anchor[order]
    heads = np.ones(len(window), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=heads[1:])
    wins = np.zeros(len(window), dtype=bool)
    wins[order[heads]] = True
    # (window, anchor) pairs are listed by window, anchors ascending: a
    # window's first winning pair is where the window changes.
    pairs = np.flatnonzero(wins)
    won = window[pairs]
    heads = np.ones(len(pairs), dtype=bool)
    np.not_equal(won[1:], won[:-1], out=heads[1:])
    return won[heads], anchor[pairs[heads]]


def dnorm_between(
    query_partition: PartitionedSequence, data_partition: PartitionedSequence
) -> tuple[np.ndarray, Phase3Windows]:
    """Every anchor's ``Dnorm``, no threshold, between two partitions:
    ``(nearest, windows)`` of :func:`dnorm_pairs` for the one pair, one
    instance per MBR of the partition holding fewer points, in order,
    measured against the other's segments (so the query probes unless it
    is the longer of the two — see :func:`min_normalized_distance`)."""
    straight, swapped = dnorm_pairs(
        SegmentRuns.of([query_partition]),
        SegmentRuns.of([data_partition]),
        np.zeros(1, dtype=np.int64),
        np.full(1, np.inf),
    )
    grid = swapped if straight is None else straight
    return grid.nearest.reshape(-1), grid.windows


@lower_bounds(
    _validate_min_normalized_distance, label="min Dmbr <= min Dnorm <= D(Q,S)"
)
def min_normalized_distance(
    query_partition: PartitionedSequence, data_partition: PartitionedSequence
) -> float:
    """The pruning bound of Phase 3: ``min Dnorm`` over all MBR pairs.

    Lemmas 2-3 prove ``min Dnorm <= D(Q, S)`` when the query is no longer
    than the data sequence (Definition 3 slides the shorter sequence).  In
    the paper's *long query* case the roles reverse — the data sequence
    slides inside the query — and applying ``Dnorm`` naively can exceed
    ``D(Q, S)`` (the query-side point weights then overcount points that a
    best alignment never matches).  The two partitions are therefore
    swapped whenever the query holds more points, which restores the
    lemma with ``Q`` and ``S`` exchanged; the result is a sound lower bound
    of ``D(Q, S)`` in *both* directions.

    Parameters
    ----------
    query_partition, data_partition:
        :class:`~repro.core.partitioning.PartitionedSequence` instances.

    Returns
    -------
    float
        ``min over (i, j) of Dnorm(mbr_i(shorter), mbr_j(longer))``.
    """
    return float(dnorm_between(query_partition, data_partition)[1].value.min())
