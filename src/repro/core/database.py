"""The sequence database: partitioned sequences plus their MBR index.

Index construction (§3.4.1 of the paper) is pre-processing: each
multidimensional sequence is partitioned into subsequences with the MCOST
algorithm, each subsequence's MBR becomes one leaf entry of an R-tree (or a
variant), keyed by ``(sequence id, segment index)``.  The database owns both
halves — the partitions (needed by ``Dnorm`` and solution intervals, which
require point counts and offsets) and the spatial index (needed by the
Phase-2 ``Dmbr`` probe).

It also owns the **segment table** (:class:`SegmentTable`): every
partition's MBR matrices and point counts concatenated, in insertion
order, into a handful of flat frozen arrays.  Phase 3 and the k-NN bounds
read it instead of visiting one partition object per sequence, so one
NumPy call covers all candidates at once.  The table is derived state: it
is built on first use, dropped by every mutation, and shared by
:meth:`SequenceDatabase.clone` until the twin mutates.
"""

from __future__ import annotations

import mmap
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.backends import (
    IndexBackend,
    bulk_build_index,
    create_index,
    deserialize_index,
    get_backend,
    serialize_index,
)
from repro.core.partitioning import (
    DEFAULT_COST_CONSTANT,
    DEFAULT_MAX_POINTS,
    PartitionedSequence,
    partition_sequence,
)
from repro.core.sequence import MultidimensionalSequence
from repro.util.freeze import FrozenDict, freeze

if TYPE_CHECKING:
    import os

    import numpy.typing as npt

    SequenceLike = MultidimensionalSequence | npt.ArrayLike
    PathLike = "str | os.PathLike[str]"

__all__ = ["SegmentKey", "SegmentTable", "SequenceDatabase"]


@dataclass(frozen=True)
class SegmentKey:
    """Payload of one index leaf entry: which segment of which sequence."""

    sequence_id: object
    segment_index: int


@dataclass(frozen=True)
class SegmentTable:
    """Every stored segment in flat arrays (structure of arrays).

    Row ``r`` is the ``r``-th sequence in insertion order (``ids[r]``);
    its segments are the table entries
    ``sequence_offsets[r]:sequence_offsets[r + 1]``.  With ``S`` segments
    and ``N`` sequences of dimension ``n``:

    Attributes
    ----------
    ids, rows:
        Sequence id per row, and the inverse mapping.
    lows, highs:
        ``(S, n)`` low / high corners of the segment MBRs.
    counts:
        ``(S,)`` points per segment.
    point_offsets:
        ``(S + 1,)`` running point total: segment ``s`` covers the flat
        point range ``point_offsets[s]:point_offsets[s + 1]``, and the
        points of one sequence are consecutive in it.
    sequence_offsets:
        ``(N + 1,)`` first segment of each sequence.
    lengths:
        ``(N,)`` points per sequence.

    Every array is frozen; the table is replaced, never patched.
    """

    ids: tuple[object, ...]
    rows: FrozenDict
    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray
    point_offsets: np.ndarray
    sequence_offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(
        cls, dimension: int, partitions: dict[object, PartitionedSequence]
    ) -> "SegmentTable":
        """Concatenate the partitions' matrices in insertion order.

        All six arrays are views of one anonymous memory mapping rather
        than ``malloc`` blocks.  A serving engine builds a table on every
        write, each a little larger than the last and freed only when the
        previous snapshot dies; on the heap of the writing thread those
        quarter-megabyte blocks left holes that no later table fitted
        (measured: 3 MB of resident memory after 300 writes to 300
        sequences).  A mapping goes back to the system when the table does.
        """
        parts = list(partitions.values())
        total = sum(len(p) for p in parts)
        corners = total * dimension
        words = np.frombuffer(
            mmap.mmap(-1, 8 * (2 * corners + 2 * total + 2 * len(parts) + 2)),
            dtype=np.int64,
        )
        low_words, high_words, counts, point_offsets, sequence_offsets, lengths = (
            np.split(
                words,
                np.cumsum([corners, corners, total, total + 1, len(parts) + 1]),
            )
        )
        lows = low_words.view(np.float64).reshape(total, dimension)
        highs = high_words.view(np.float64).reshape(total, dimension)
        if parts:
            np.concatenate([p.low_matrix for p in parts], out=lows)
            np.concatenate([p.high_matrix for p in parts], out=highs)
            np.concatenate([p.counts for p in parts], out=counts)
        np.cumsum([len(p) for p in parts], out=sequence_offsets[1:])
        np.cumsum(counts, out=point_offsets[1:])
        lengths[:] = np.diff(point_offsets[sequence_offsets])
        return cls(
            ids=tuple(partitions),
            rows=FrozenDict(
                {sid: row for row, sid in enumerate(partitions)},
                role="database.table",
                site="SegmentTable.build",
            ),
            lows=freeze(lows),
            highs=freeze(highs),
            counts=freeze(counts),
            point_offsets=freeze(point_offsets),
            sequence_offsets=freeze(sequence_offsets),
            lengths=freeze(lengths),
        )


class SequenceDatabase:
    """A collection of partitioned, indexed multidimensional sequences.

    Parameters
    ----------
    dimension:
        Dimensionality ``n`` of every stored sequence.
    cost_constant:
        MCOST constant ``Q_k + eps`` used when partitioning (paper: 0.3).
    max_points:
        Cap on points per segment MBR (``None`` disables).
    index_kind:
        ``"rtree"`` (Guttman, default), ``"rstar"`` (R*-tree) or ``"str"``
        (STR bulk loading — the index is packed lazily on first use and
        repacked after later insertions).
    max_entries:
        R-tree node capacity.

    Examples
    --------
    >>> import numpy as np
    >>> db = SequenceDatabase(dimension=2)
    >>> db.add(np.random.default_rng(0).random((50, 2)), sequence_id="clip-0")
    'clip-0'
    >>> len(db), db.segment_count > 0
    (1, True)
    """

    def __init__(
        self,
        dimension: int,
        *,
        cost_constant: float = DEFAULT_COST_CONSTANT,
        max_points: int | None = DEFAULT_MAX_POINTS,
        index_kind: str = "rtree",
        max_entries: int = 16,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        backend = get_backend(index_kind)  # raises ValueError for unknown kinds
        self.dimension = dimension
        self.cost_constant = cost_constant
        self.max_points = max_points
        self.index_kind = index_kind
        self.max_entries = max_entries
        self._incremental = backend.incremental
        self._partitions: dict[object, PartitionedSequence] = {}
        self._index: IndexBackend | None = (
            self._new_dynamic_index() if backend.incremental else None
        )
        self._index_dirty = False
        self._table: SegmentTable | None = None

    def _new_dynamic_index(self) -> IndexBackend:
        return create_index(
            self.index_kind, self.dimension, max_entries=self.max_entries
        )

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(
        self, sequence: SequenceLike, sequence_id: object = None
    ) -> object:
        """Partition, store and index one sequence; returns its id.

        Parameters
        ----------
        sequence:
            A :class:`~repro.core.sequence.MultidimensionalSequence` or raw
            point array of the database's dimensionality.
        sequence_id:
            Explicit id; defaults to the sequence's own id, falling back to
            the insertion ordinal.  Duplicate ids are rejected.
        """
        if not isinstance(sequence, MultidimensionalSequence):
            sequence = MultidimensionalSequence(sequence)
        if sequence.dimension != self.dimension:
            raise ValueError(
                f"sequence dimension {sequence.dimension} != database "
                f"dimension {self.dimension}"
            )
        if sequence_id is None:
            sequence_id = sequence.sequence_id
        if sequence_id is None:
            sequence_id = len(self._partitions)
        if sequence_id in self._partitions:
            raise KeyError(f"sequence id {sequence_id!r} already stored")

        partition = partition_sequence(
            sequence,
            cost_constant=self.cost_constant,
            max_points=self.max_points,
        )
        self._partitions[sequence_id] = partition
        self._table = None
        if not self._incremental:
            # Packed backends (STR) have no insertion order: repack lazily.
            self._index_dirty = True
        else:
            index = self._live_index()
            for segment in partition:
                index.insert(
                    segment.mbr, SegmentKey(sequence_id, segment.index)
                )
        return sequence_id

    def add_all(self, sequences: Iterable[SequenceLike]) -> list[object]:
        """Add many sequences; returns their ids in order."""
        return [self.add(sequence) for sequence in sequences]

    def append_points(
        self, sequence_id: object, points: npt.ArrayLike
    ) -> None:
        """Extend a stored sequence with new points (streaming ingestion).

        A growing video stream keeps its already-closed segments; only the
        *last* segment can change (the greedy MCOST partitioner never
        revisits earlier ones), so that segment is re-partitioned together
        with the new points (:meth:`PartitionedSequence.extended_to`) and only
        it is swapped in the index: the work grows with the points
        appended, not with the stream's length.
        """
        old_partition = self.partition(sequence_id)  # raises on unknown id
        new_block = np.asarray(points, dtype=np.float64)
        if new_block.ndim == 1:
            new_block = new_block.reshape(-1, 1)
        if new_block.shape[0] == 0:
            return
        if new_block.shape[1] != self.dimension:
            raise ValueError(
                f"points dimension {new_block.shape[1]} != database "
                f"dimension {self.dimension}"
            )

        extended = MultidimensionalSequence(
            np.concatenate([old_partition.sequence.points, new_block]),
            sequence_id=sequence_id,
        )
        new_partition = old_partition.extended_to(
            extended, max_points=self.max_points
        )
        self._table = None
        if not self._incremental:
            self._partitions[sequence_id] = new_partition
            self._index_dirty = True
            return

        # Patch the index: the closed segments are the same objects in both
        # partitions, so only the re-partitioned tail is swapped.
        index = self._live_index()
        old_segments = old_partition.segments
        new_segments = new_partition.segments
        stable = len(old_segments) - 1
        if new_segments[stable] is old_segments[stable]:
            stable += 1
        for segment in old_segments[stable:]:
            removed = index.delete(
                segment.mbr, SegmentKey(sequence_id, segment.index)
            )
            if not removed:
                raise RuntimeError(
                    f"index entry for {sequence_id!r} segment "
                    f"{segment.index} was missing during append"
                )
        for segment in new_segments[stable:]:
            index.insert(
                segment.mbr, SegmentKey(sequence_id, segment.index)
            )
        self._partitions[sequence_id] = new_partition

    def empty_twin(self) -> "SequenceDatabase":
        """An empty database with this one's configuration."""
        return SequenceDatabase(
            dimension=self.dimension,
            cost_constant=self.cost_constant,
            max_points=self.max_points,
            index_kind=self.index_kind,
            max_entries=self.max_entries,
        )

    def clone(self) -> "SequenceDatabase":
        """A copy-on-write snapshot copy: mutations never cross over.

        The partition objects (immutable) are shared between the original
        and the copy; the index is structurally cloned when the backend
        supports it (the R-tree family does, via ``clone()``), otherwise
        the copy rebuilds its index lazily on first use.  This is the
        primitive :class:`repro.service.engine.QueryEngine` uses to give
        writers a private tree while in-flight readers finish on the old
        snapshot.
        """
        twin = self.empty_twin()
        twin._partitions = dict(self._partitions)
        twin._table = self._table  # frozen; the twin drops it on mutation
        if self._index is not None and not self._index_dirty:
            cloner = getattr(self._index, "clone", None)
            if callable(cloner):
                twin._index = cloner()
                twin._index_dirty = False
                return twin
        twin._index_dirty = len(twin._partitions) > 0
        return twin

    def remove(self, sequence_id: object) -> None:
        """Remove a sequence and its index entries.

        Raises ``KeyError`` for unknown ids.  Packed (non-incremental)
        backends simply mark the tree stale and repack it on next use.
        """
        partition = self.partition(sequence_id)  # raises on unknown id
        self._table = None
        if not self._incremental:
            self._index_dirty = True
        else:
            index = self._live_index()
            for segment in partition:
                removed = index.delete(
                    segment.mbr, SegmentKey(sequence_id, segment.index)
                )
                if not removed:
                    raise RuntimeError(
                        f"index entry for {sequence_id!r} segment "
                        f"{segment.index} was missing"
                    )
        del self._partitions[sequence_id]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._partitions)

    def __contains__(self, sequence_id: object) -> bool:
        return sequence_id in self._partitions

    def __iter__(self) -> Iterator[object]:
        return iter(self._partitions)

    def ids(self) -> list[object]:
        """All stored sequence ids, in insertion order."""
        return list(self._partitions)

    def partition(self, sequence_id: object) -> PartitionedSequence:
        """The stored partition of one sequence."""
        try:
            return self._partitions[sequence_id]
        except KeyError:
            raise KeyError(f"unknown sequence id {sequence_id!r}") from None

    def sequence(self, sequence_id: object) -> MultidimensionalSequence:
        """The stored sequence itself."""
        return self.partition(sequence_id).sequence

    def partitions(self) -> Iterator[tuple[object, PartitionedSequence]]:
        """Iterate over ``(sequence_id, partition)`` pairs."""
        return iter(self._partitions.items())

    @property
    def segment_table(self) -> SegmentTable:
        """The flat segment arrays, (re)built on first use after a mutation.

        Building is not thread-safe; :class:`repro.service.engine.QueryEngine`
        forces it before publishing a snapshot so readers only ever find it
        ready.
        """
        if self._table is None:
            self._table = SegmentTable.build(self.dimension, self._partitions)
        return self._table

    @property
    def segment_count(self) -> int:
        """Total number of segment MBRs across all sequences."""
        return int(self.segment_table.counts.shape[0])

    @property
    def point_count(self) -> int:
        """Total number of stored points across all sequences."""
        return int(self.segment_table.point_offsets[-1])

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    @property
    def index(self) -> IndexBackend:
        """The MBR index, (re)built lazily for packed backends."""
        return self._live_index()

    def _live_index(self) -> IndexBackend:
        if self._index is None or self._index_dirty:
            self._rebuild_index()
        index = self._index
        if index is None:
            raise RuntimeError("index rebuild produced no index")
        return index

    def _rebuild_index(self) -> None:
        items = [
            (segment.mbr, SegmentKey(sequence_id, segment.index))
            for sequence_id, partition in self._partitions.items()
            for segment in partition
        ]
        self._index = bulk_build_index(
            self.index_kind, items, self.dimension, max_entries=self.max_entries
        )
        self._index_dirty = False

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(dimension={self.dimension}, "
            f"sequences={len(self)}, segments={self.segment_count}, "
            f"index_kind={self.index_kind!r})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike, *, include_index: bool = True) -> None:
        """Persist the database to an ``.npz`` archive, crash-safely.

        Stored: the configuration and every sequence's points and id, and —
        when the backend supports flat serialisation and ``include_index``
        is true — the index tree itself (via the
        :func:`repro.core.backends.serialize_index` seam).  :meth:`load`
        then restores the tree instead of re-running index construction,
        which is the startup-latency path ``repro serve`` depends on.
        Archives without the embedded tree remain loadable (the index is
        rebuilt from the sequences).  Sequence ids are stored via ``repr``
        round-tripping for the common id types (str, int); exotic id
        objects are rejected.

        The archive is written to a temporary file in the target
        directory, fsynced, and atomically renamed into place
        (``os.replace``) — a crash at any point during a save leaves
        either the old archive or the new one, never a torn file.  This
        is what lets the serving layer's checkpoint overwrite its
        snapshot in place (:mod:`repro.service.wal`).
        """
        import json

        ids = list(self._partitions)
        for sequence_id in ids:
            if not isinstance(sequence_id, (str, int)):
                raise TypeError(
                    f"only str/int sequence ids can be persisted, got "
                    f"{type(sequence_id).__name__}"
                )
        meta = {
            "dimension": self.dimension,
            "cost_constant": self.cost_constant,
            "max_points": self.max_points,
            "index_kind": self.index_kind,
            "max_entries": self.max_entries,
            "ids": [[type(i).__name__, str(i)] for i in ids],
        }
        arrays = {
            f"sequence_{ordinal}": self._partitions[sequence_id].sequence.points
            for ordinal, sequence_id in enumerate(ids)
        }
        if include_index:
            blob = serialize_index(self.index_kind, self._live_index())
            if blob is not None:
                arrays["_index"] = np.frombuffer(blob, dtype=np.uint8)
        arrays["_meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        self._write_archive_atomically(path, arrays)

    @staticmethod
    def _write_archive_atomically(
        path: PathLike, arrays: dict[str, Any]
    ) -> None:
        """Write ``arrays`` as an npz at ``path`` via temp file + replace."""
        import os
        from pathlib import Path as _Path

        from repro.util.faults import inject

        target = _Path(os.fspath(path))
        if target.suffix != ".npz":
            # np.savez appends the suffix itself; mirror that so the
            # temp-file rename lands on the name load() will be given.
            target = target.with_name(target.name + ".npz")
        temp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
        try:
            with open(temp, "wb") as handle:
                np.savez_compressed(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            inject("database.save.replace")
            os.replace(temp, target)
        except BaseException:
            try:
                temp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - cleanup best effort
                pass
            raise
        try:
            directory_fd = os.open(target.parent, os.O_RDONLY)
            try:
                os.fsync(directory_fd)
            finally:
                os.close(directory_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass

    @classmethod
    def load(cls, path: PathLike) -> "SequenceDatabase":
        """Rebuild a database saved with :meth:`save`.

        When the archive embeds the flat index tree, the tree is restored
        directly (identical node layout, hence identical query results and
        node-access counts) and only the partitions — which ``Dnorm`` and
        solution intervals need — are recomputed.  Older archives without
        the tree fall back to full reconstruction.
        """
        import json

        with np.load(path) as archive:
            meta = json.loads(bytes(archive["_meta"]).decode())
            database = cls(
                dimension=int(meta["dimension"]),
                cost_constant=float(meta["cost_constant"]),
                max_points=(
                    None if meta["max_points"] is None else int(meta["max_points"])
                ),
                index_kind=meta["index_kind"],
                max_entries=int(meta["max_entries"]),
            )
            index_blob = (
                archive["_index"].tobytes()
                if "_index" in archive.files
                else None
            )
            if index_blob is None:
                for ordinal, (type_name, raw) in enumerate(meta["ids"]):
                    sequence_id = int(raw) if type_name == "int" else raw
                    database.add(
                        archive[f"sequence_{ordinal}"], sequence_id=sequence_id
                    )
                return database
            for ordinal, (type_name, raw) in enumerate(meta["ids"]):
                sequence_id = int(raw) if type_name == "int" else raw
                sequence = MultidimensionalSequence(
                    archive[f"sequence_{ordinal}"], sequence_id=sequence_id
                )
                database._partitions[sequence_id] = partition_sequence(
                    sequence,
                    cost_constant=database.cost_constant,
                    max_points=database.max_points,
                )
            index = deserialize_index(database.index_kind, index_blob)
            if len(index) != database.segment_count:
                raise ValueError(
                    f"corrupt archive: embedded index holds {len(index)} "
                    f"entries but the partitions produce "
                    f"{database.segment_count} segments"
                )
            database._index = index
            database._index_dirty = False
        return database
