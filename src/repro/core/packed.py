"""The database's segment index: an immutable packed base plus a flat delta.

The paper stores the segment MBRs "by using the R-tree or its variants"
(§3.4.1); :mod:`repro.index` keeps that family for the benches.  A tree
stores one Python object per node and per leaf entry and answers the
Phase-2 probe (§3.4.2: every segment MBR with ``Dmbr <= eps`` to a query
MBR) by a Python descent per query MBR.  This module is the same index as
a handful of arrays, probed for *all* of a query's MBRs in one batched
descent, and derived from the database's segment table instead of
maintained entry by entry:

* The **base** (:class:`PackedBase`) holds the segments of one table in
  Sort-Tile-Recursive order (the tiling :mod:`repro.index.bulk` describes,
  computed with ``lexsort``), packed :data:`FANOUT` to a node, level upon
  level: node ``j`` of a level is the bounding rectangle of entries
  ``j * FANOUT : (j + 1) * FANOUT`` of the level below, so there are no
  child pointers.  Each level's corners are stored one contiguous column
  per dimension, all levels in one frozen anonymous mapping, and each leaf
  entry carries the table row of its sequence.  A base is never changed.
* The **delta** is the set of table rows written since the base was packed
  — rows added, and rows whose tail an ``append_points`` re-partitioned.
  The base's entries of those rows are masked out of every probe and the
  rows' *current* segments are scanned flat by the same column kernel.

A :class:`PackedIndex` is one ``(base, delta)`` pair.  A write makes a new
pair over the *same* base (:func:`index_table`), so snapshots share the
base by reference and a write costs what the delta costs; the base is
packed anew only once the delta has grown past
:data:`MERGE_DELTA_SEGMENTS`.  Removing a row renumbers the rows after it,
so the database drops the index on ``remove`` and the next use packs a new
base.

Why the probe returns exactly the tree's candidates: a sequence is a
candidate iff one of its current segments is within ``eps`` of one of the
query's MBRs.  Every current segment is either a base entry of an
unwritten row or a delta entry, never both.  The descent drops a node
only when its rectangle — which contains every entry below it — is
farther than ``eps``, and ``Dmbr`` to a containing rectangle is never
larger in floating point either (every step of
:func:`~repro.core.mbr.dmbr_columns` is monotone), so no base entry within
``eps`` is missed; the leaf test and the delta scan are the flat test
itself.
"""

from __future__ import annotations

import mmap
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.distance import run_entries
from repro.core.mbr import BROADCAST_CELLS, MBR, dmbr_columns, min_dmbr_columns
from repro.util.budget import checkpoint
from repro.util.freeze import freeze
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from repro.core.database import SegmentTable

__all__ = [
    "FANOUT",
    "MERGE_DELTA_SEGMENTS",
    "IndexStats",
    "PackedBase",
    "PackedIndex",
    "index_table",
    "mapped_blocks",
]

#: Entries per node.  Measured on the ``core_range`` corpus at N = 500 and
#: 5 000 (docs/benchmarks.md): probe time is flat from 16 to 64 — narrower
#: nodes add levels (a fixed dozen NumPy calls each), wider ones test more
#: entries per surviving node — and 32 is the middle of the flat part.
FANOUT = 32

#: Delta segments beyond which the next index packs a new base instead of
#: growing the delta.  Measured at N = 500 (docs/benchmarks.md): a delta
#: this large adds 0.08 ms to a 0.12 ms probe and 0.06 ms to a write, and
#: at a 13-segment sequence per write it spaces the packs (0.45 µs per
#: segment of the whole corpus) some 150 writes apart.
MERGE_DELTA_SEGMENTS = 2048


@dataclass
class IndexStats:
    """Mutable access counters an index carries across operations (the
    R-tree family of :mod:`repro.index` keeps the same ones)."""

    node_accesses: int = 0
    leaf_accesses: int = 0
    splits: int = 0
    reinserts: int = 0

    def reset_query_counters(self) -> None:
        """Zero the per-query counters (accesses), keeping build counters."""
        self.node_accesses = 0
        self.leaf_accesses = 0


def mapped_blocks(sizes: Sequence[int]) -> list[np.ndarray]:
    """Zeroed ``int64`` blocks of the given sizes, cut from one fresh
    anonymous memory mapping (see :class:`~repro.core.database.SegmentTable`
    for why not the heap); the mapping lives as long as any view of a
    block does."""
    words = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=np.int64)
    return np.split(words[: sum(sizes)], np.cumsum(sizes)[:-1])


@dataclass(frozen=True)
class PackedBase:
    """The segments of one table, STR-packed level upon level.

    Attributes
    ----------
    levels:
        Per level, leaves first, the ``(n, c)`` low and high corner columns
        of its ``c`` entries.  Every level but the top one is padded to a
        multiple of :data:`FANOUT` with NaN corners, which bound nothing
        and are within no threshold (not even an infinite one); the top
        level holds at most :data:`FANOUT` entries.
    entry_row, entry_segment:
        Per leaf entry: the table row of its sequence and its index among
        that sequence's segments (``0`` for padding).
    row_entries:
        Per table row the base was packed from: how many entries it owns.
    size:
        Leaf entries, padding aside.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    entry_row: np.ndarray
    entry_segment: np.ndarray
    row_entries: np.ndarray
    size: int

    @classmethod
    def pack(
        cls,
        low_columns: np.ndarray,
        high_columns: np.ndarray,
        sequence_offsets: np.ndarray,
    ) -> "PackedBase":
        """Pack a table given by its corner columns and sequence offsets."""
        dimension, size = low_columns.shape
        counts = [size]
        while counts[-1] > FANOUT:
            counts.append(-(-counts[-1] // FANOUT))
        # Every level but the top is padded to whole nodes.
        widths = [-(-c // FANOUT) * FANOUT for c in counts[:-1]] + [counts[-1]]
        *corners, entry_row, entry_segment = mapped_blocks(
            [dimension * w for w in widths for _ in ("lows", "highs")]
            + [widths[0], widths[0]]
        )
        levels = [
            (
                level_lows.view(np.float64).reshape(dimension, width),
                level_highs.view(np.float64).reshape(dimension, width),
            )
            for level_lows, level_highs, width in zip(
                corners[::2], corners[1::2], widths
            )
        ]
        order = _str_order((low_columns + high_columns) / 2.0)
        lows, highs = levels[0]
        low_columns.take(order, axis=1, out=lows[:, :size])
        high_columns.take(order, axis=1, out=highs[:, :size])
        row_entries = np.diff(sequence_offsets)
        entry_row[:size] = np.repeat(np.arange(len(row_entries)), row_entries)[order]
        entry_segment[:size] = order - sequence_offsets[entry_row[:size]]
        for (lows, highs), (above_lows, above_highs), count in zip(
            levels, levels[1:], counts
        ):
            lows[:, count:] = highs[:, count:] = np.nan
            # fmin / fmax skip the padding; a node of nothing else stays NaN.
            nodes = lows.shape[1] // FANOUT
            np.fmin.reduce(
                lows.reshape(dimension, nodes, FANOUT),
                axis=2,
                out=above_lows[:, :nodes],
            )
            np.fmax.reduce(
                highs.reshape(dimension, nodes, FANOUT),
                axis=2,
                out=above_highs[:, :nodes],
            )
        return cls(
            levels=tuple((freeze(lows), freeze(highs)) for lows, highs in levels),
            entry_row=freeze(entry_row),
            entry_segment=freeze(entry_segment),
            row_entries=freeze(row_entries),
            size=size,
        )


def _descend(
    base: PackedBase, lows: np.ndarray, highs: np.ndarray, epsilon: float
) -> tuple[np.ndarray, int]:
    """Descend a base with all probes ``(lows[i], highs[i])`` at once.

    Returns the leaf entry of every (probe, entry) pair with ``Dmbr <=
    epsilon`` — an entry once per probe that reaches it — and the nodes
    visited: one per (probe, node) pair whose entries were tested, the
    implicit root (the top level) included.  The pairs go down level by
    level as two index arrays; a level is one column-wise ``Dmbr`` over
    the children of the surviving pairs, taken in blocks of
    ``BROADCAST_CELLS`` cells with a cancellation checkpoint each.
    """
    checkpoint("search.phase2")
    probe, node = np.nonzero(dmbr_columns(lows, highs, *base.levels[-1]) <= epsilon)
    accesses = len(lows)
    dimension = lows.shape[1]
    step = max(1, BROADCAST_CELLS // FANOUT)
    for level_lows, level_highs in base.levels[-2::-1]:
        accesses += len(node)
        child_lows = level_lows.reshape(dimension, -1, FANOUT)
        child_highs = level_highs.reshape(dimension, -1, FANOUT)
        probes, children = [probe[:0]], [node[:0]]
        for start in range(0, len(node), step):
            checkpoint("search.phase2")
            probe_block = probe[start : start + step]
            node_block = node[start : start + step]
            pair, child = np.nonzero(
                dmbr_columns(
                    lows.take(probe_block, axis=0),
                    highs.take(probe_block, axis=0),
                    child_lows.take(node_block, axis=1),
                    child_highs.take(node_block, axis=1),
                )
                <= epsilon
            )
            probes.append(probe_block[pair])
            children.append(node_block[pair] * FANOUT + child)
        probe, node = np.concatenate(probes), np.concatenate(children)
    return node, accesses


def _str_order(centers: np.ndarray) -> np.ndarray:
    """Sort-Tile-Recursive order of ``(n, S)`` rectangle centres.

    Sort by the first coordinate and cut into slabs, sort each slab by the
    next coordinate and cut again, and so on; runs of :data:`FANOUT`
    consecutive positions of the result are the leaves.  As in
    :mod:`repro.index.bulk` a group of ``P`` leaf pages with ``a`` axes to
    go is cut into ``ceil(P ** (1 / a))`` slabs — here of a whole number of
    pages each, so that no leaf straddles two slabs.
    """
    dimension, count = centers.shape
    order = np.argsort(centers[0], kind="stable")
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.array([count], dtype=np.int64)
    for axis in range(1, dimension):
        pages = np.maximum(1, -(-sizes // FANOUT))
        slabs = np.ceil(pages ** (1.0 / (dimension - axis + 1))).astype(np.int64)
        slab_pages = -(-pages // slabs)
        position = np.arange(count) - np.repeat(starts, sizes)
        slab = np.repeat(starts, sizes) + position // np.repeat(
            slab_pages * FANOUT, sizes
        )
        # Slab ids ascend along the positions, so sorting by (slab, centre)
        # reorders within slabs only.
        order = order[np.lexsort((centers[axis][order], slab))]
        starts = np.flatnonzero(np.append(True, slab[1:] != slab[:-1]))
        sizes = np.diff(np.append(starts, count))
    return order


class PackedIndex:
    """One ``(base, delta)`` pair: the index of one segment table.

    Immutable but for the access counters in :attr:`stats`; built by
    :func:`index_table`, never directly.

    Attributes
    ----------
    base:
        The packed base, shared with the indexes it was advanced from.
    delta_rows:
        Ascending table rows written since the base was packed.  Their
        base entries (if any) are masked; their current segments are the
        delta entries.
    stats:
        Access counters; only ``node_accesses`` moves.
    """

    def __init__(
        self,
        base: PackedBase,
        low_columns: np.ndarray,
        high_columns: np.ndarray,
        sequence_offsets: np.ndarray,
        delta_rows: np.ndarray,
    ) -> None:
        self.base = base
        self.delta_rows = freeze(delta_rows)
        take, offsets = run_entries(sequence_offsets, delta_rows)
        self._delta_lows = freeze(low_columns.take(take, axis=1))
        self._delta_highs = freeze(high_columns.take(take, axis=1))
        self._delta_row = freeze(np.repeat(delta_rows, np.diff(offsets)))
        self._delta_segment = freeze(take - sequence_offsets[self._delta_row])
        self._sequences = len(sequence_offsets) - 1
        rewritten = delta_rows[delta_rows < len(base.row_entries)]
        self._size = (
            base.size - int(base.row_entries[rewritten].sum()) + len(take)
        )
        self.stats = IndexStats()

    def __len__(self) -> int:
        return self._size

    @property
    def delta_segments(self) -> int:
        """Segments the flat scan covers."""
        return len(self._delta_row)

    def _probe(
        self, lows: np.ndarray, highs: np.ndarray, epsilon: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe both halves: the base entries (stale ones included, and
        one repeated per probe that reaches it) and the delta entries
        within ``epsilon`` of some probe, and the nodes visited."""
        entry, accesses = _descend(self.base, lows, highs, epsilon)
        self.stats.node_accesses += accesses
        if not len(self.delta_rows):
            return entry, self.delta_rows, accesses
        nearest = min_dmbr_columns(
            lows, highs, self._delta_lows, self._delta_highs,
            axis=0, site="search.phase2",
        )  # fmt: skip
        return entry, np.flatnonzero(nearest <= epsilon), accesses

    def candidate_rows(
        self, lows: np.ndarray, highs: np.ndarray, epsilon: float
    ) -> tuple[np.ndarray, int]:
        """Phase 2 for all probes ``(lows[i], highs[i])`` at once: the
        ascending table rows of the sequences owning an entry within
        ``epsilon`` of some probe, and the node accesses spent."""
        entry, delta_entry, accesses = self._probe(
            lows, highs, check_threshold(epsilon)
        )
        found = np.zeros(self._sequences, dtype=bool)
        found[self.base.entry_row[entry]] = True
        found[self.delta_rows] = False  # what the base holds of them is stale
        found[self._delta_row[delta_entry]] = True
        return np.flatnonzero(found), accesses

    def search_within(self, query_mbr: MBR, epsilon: float) -> np.ndarray:
        """The entries with ``Dmbr <= epsilon`` to one rectangle, as an
        ``(h, 2)`` array of ``(sequence row, segment index)`` pairs."""
        if not isinstance(query_mbr, MBR):
            raise TypeError(
                f"query must be an MBR, got {type(query_mbr).__name__}"
            )
        if query_mbr.dimension != self._delta_lows.shape[0]:
            raise ValueError(
                f"query dimension {query_mbr.dimension} != index dimension "
                f"{self._delta_lows.shape[0]}"
            )
        entry, delta_entry, _ = self._probe(
            query_mbr.low[None, :], query_mbr.high[None, :], check_threshold(epsilon)
        )
        base = self.base
        entry = entry[~np.isin(base.entry_row[entry], self.delta_rows)]
        return np.stack(
            [
                np.append(base.entry_row[entry], self._delta_row[delta_entry]),
                np.append(
                    base.entry_segment[entry], self._delta_segment[delta_entry]
                ),
            ],
            axis=1,
        )


def index_table(
    table: SegmentTable,
    previous: PackedIndex | None,
    written: Sequence[object],
) -> PackedIndex:
    """The index of a segment table.

    With ``previous`` — the index of the table this one was written from,
    rows only added at the end or rewritten in place since, ``written``
    naming their sequences — the result shares ``previous.base`` and takes
    the written rows into its delta; a new base is packed when there is no
    previous index or the delta would pass :data:`MERGE_DELTA_SEGMENTS`
    segments.  ``previous`` may be shared with other snapshots, so it is
    read and never changed.
    """
    low_columns, high_columns = table.low_columns, table.high_columns
    sequence_offsets = table.sequence_offsets
    if previous is not None:
        in_delta = np.zeros(len(sequence_offsets) - 1, dtype=bool)
        in_delta[previous.delta_rows] = True
        in_delta[
            np.array([table.rows[sid] for sid in written], dtype=np.int64)
        ] = True
        delta_rows = np.flatnonzero(in_delta)
        delta_segments = int(
            (sequence_offsets[delta_rows + 1] - sequence_offsets[delta_rows]).sum()
        )
        if delta_segments <= MERGE_DELTA_SEGMENTS:
            return PackedIndex(
                previous.base, low_columns, high_columns, sequence_offsets, delta_rows
            )
    return PackedIndex(
        PackedBase.pack(low_columns, high_columns, sequence_offsets),
        low_columns,
        high_columns,
        sequence_offsets,
        np.zeros(0, dtype=np.int64),
    )
