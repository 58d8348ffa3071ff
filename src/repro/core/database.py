"""The sequence database: partitioned sequences plus their MBR index.

Index construction (§3.4.1 of the paper) is pre-processing: each
multidimensional sequence is partitioned into subsequences with the MCOST
algorithm and each subsequence's MBR is indexed.  The database owns both
halves — the partitions (needed by ``Dnorm`` and solution intervals, which
require point counts and offsets) and the spatial index (needed by the
Phase-2 ``Dmbr`` probe, :meth:`SequenceDatabase.candidate_rows`): the
packed index of :mod:`repro.core.packed`, the only one it keeps.

It also owns the **segment table** (:class:`SegmentTable`): every
partition's MBR matrices and point counts concatenated, in insertion
order, into a handful of flat frozen arrays.  Phase 3 and the k-NN bounds
read it instead of visiting one partition object per sequence, so one
NumPy call covers all candidates at once.

Table and index are **derived state** under one rule: a write records the
id it touched and changes neither; the next use derives both from the
partitions as they are then — the table spliced from its predecessor when
one write separates the two and rebuilt otherwise, the index advanced
from its predecessor (:func:`~repro.core.packed.index_table`), so a write
costs what it changes; and :meth:`SequenceDatabase.clone` shares them by
reference, since nothing ever patches them in place.  The paper's R-tree
family is built beside a database, not in it
(:func:`repro.index.build_tree`).
"""

from __future__ import annotations

import itertools
import json
import os
import zipfile
import zlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from repro.core.contracts import ContractViolation, lower_bounds
from repro.core.distance import min_dmbr_runs
from repro.core.packed import PackedIndex, index_table, mapped_blocks
from repro.core.partitioning import (
    DEFAULT_COST_CONSTANT,
    DEFAULT_MAX_POINTS,
    PartitionedSequence,
    _checked_cost_constant,
    _hold_to_scalar_pass,
    partition_sequence,
)
from repro.core.sequence import MultidimensionalSequence
from repro.util.checks import CONTRACTS
from repro.util.freeze import FrozenDict, freeze
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy.typing as npt

    SequenceLike = MultidimensionalSequence | npt.ArrayLike
    PathLike = "str | os.PathLike[str]"

__all__ = ["SegmentKey", "SegmentTable", "SequenceDatabase"]


@dataclass(frozen=True)
class SegmentKey:
    """Which segment of which sequence: the payload of a leaf entry of
    the trees :func:`repro.index.build_tree` builds beside a database."""

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
        ``(S, n)`` low / high corners of the segment MBRs, a segment per
        row: what the contract validators read rectangles from.
    low_columns, high_columns:
        The same corners as ``(n, S)``, a contiguous column per dimension:
        what Phase 2, Phase 3's ``Dmbr`` block, the k-NN bounds and the
        index scan (:func:`repro.core.mbr.dmbr_columns`).
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

    All the arrays are views of one anonymous memory mapping rather than
    ``malloc`` blocks (:func:`~repro.core.packed.mapped_blocks`).  A
    serving engine makes a table on every write, each a little larger
    than the last and freed only when the previous snapshot dies; on the
    heap of the writing thread those quarter-megabyte blocks left holes
    that no later table fitted (measured: 3 MB of resident memory after
    300 writes to 300 sequences).  A mapping goes back to the system when
    the table does.
    """

    ids: tuple[object, ...]
    rows: FrozenDict
    lows: np.ndarray
    highs: np.ndarray
    low_columns: np.ndarray
    high_columns: np.ndarray
    counts: np.ndarray
    point_offsets: np.ndarray
    sequence_offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(
        cls, dimension: int, partitions: dict[object, PartitionedSequence]
    ) -> "SegmentTable":
        """Concatenate the partitions' matrices in insertion order: the
        cold-start path, and the reference :meth:`spliced` must equal."""
        parts = list(partitions.values())
        blank = _blank_arrays(dimension, sum(len(p) for p in parts), len(parts))
        if parts:
            np.concatenate([p.low_matrix for p in parts], out=blank["lows"])
            np.concatenate([p.high_matrix for p in parts], out=blank["highs"])
            np.concatenate([p.counts for p in parts], out=blank["counts"])
            blank["low_columns"][:] = blank["lows"].T
            blank["high_columns"][:] = blank["highs"].T
        return cls._sealed(
            tuple(partitions),
            FrozenDict(
                {sid: row for row, sid in enumerate(partitions)},
                role="database.table",
                site="SegmentTable.build",
            ),
            [len(p) for p in parts],
            blank,
        )

    def spliced(
        self, sequence_id: object, partition: PartitionedSequence | None
    ) -> "SegmentTable":
        """The table one write after this one.

        ``partition`` is what the database now stores under
        ``sequence_id`` (``None``: it was removed).  An unknown id appends
        a run at the end, a known one has its run replaced — or cut — and
        everything around the run is copied block-wise, so the cost is a
        ``memcpy`` of the table, not a concatenation of ``N`` matrices.
        """
        sequences, dimension = len(self.ids), self.lows.shape[1]
        row = self.rows.get(sequence_id, sequences)
        start, stop = self.sequence_offsets[[row, min(row + 1, sequences)]].tolist()
        sizes = np.diff(self.sequence_offsets)
        ids, rows = self.ids, self.rows
        if partition is None:  # cut the run
            low_run = high_run = np.empty((dimension, 0))
            count_run = np.empty(0, dtype=np.int64)
            sizes, ids = np.delete(sizes, row), ids[:row] + ids[row + 1 :]
        else:
            low_run, high_run = partition.low_matrix.T, partition.high_matrix.T
            count_run = partition.counts
            if row == sequences:  # append a run
                sizes, ids = np.append(sizes, len(count_run)), (*ids, sequence_id)
            else:  # replace the run
                sizes = sizes.copy()
                sizes[row] = len(count_run)
        if ids is not self.ids:
            rows = FrozenDict(
                {sid: at for at, sid in enumerate(ids)},
                role="database.table",
                site="SegmentTable.spliced",
            )
        blank = _blank_arrays(dimension, int(sizes.sum()), len(ids))
        end = start + len(count_run)
        # With the segment axis last, one loop splices every array.
        for new, old, run in (
            (blank["lows"].T, self.lows.T, low_run),
            (blank["highs"].T, self.highs.T, high_run),
            (blank["low_columns"], self.low_columns, low_run),
            (blank["high_columns"], self.high_columns, high_run),
            (blank["counts"], self.counts, count_run),
        ):
            new[..., :start] = old[..., :start]
            new[..., start:end] = run
            new[..., end:] = old[..., stop:]
        return self._sealed(ids, rows, sizes, blank)

    @classmethod
    def _sealed(
        cls,
        ids: tuple[object, ...],
        rows: FrozenDict,
        sizes: "npt.ArrayLike",
        blank: dict[str, np.ndarray],
    ) -> "SegmentTable":
        """The table over ``blank`` arrays whose corners and counts are
        filled in: derive the offsets (``sizes``: segments per sequence)
        and freeze the lot."""
        np.cumsum(sizes, out=blank["sequence_offsets"][1:])
        np.cumsum(blank["counts"], out=blank["point_offsets"][1:])
        blank["lengths"][:] = np.diff(
            blank["point_offsets"][blank["sequence_offsets"]]
        )
        return cls(
            ids=ids,
            rows=rows,
            **{name: freeze(array) for name, array in blank.items()},
        )


def _blank_arrays(
    dimension: int, segments: int, sequences: int
) -> dict[str, np.ndarray]:
    """The arrays of a :class:`SegmentTable` in the making, by field name:
    writable and zeroed, in one mapping."""
    corners = segments * dimension
    lows, highs, low_columns, high_columns, *rest = mapped_blocks(
        [*[corners] * 4, segments, segments + 1, sequences + 1, sequences]
    )
    return {
        "lows": lows.view(np.float64).reshape(segments, dimension),
        "highs": highs.view(np.float64).reshape(segments, dimension),
        "low_columns": low_columns.view(np.float64).reshape(dimension, segments),
        "high_columns": high_columns.view(np.float64).reshape(dimension, segments),
        **dict(
            zip(("counts", "point_offsets", "sequence_offsets", "lengths"), rest)
        ),
    }


def _validate_candidate_rows(
    result: tuple[np.ndarray, int],
    database: "SequenceDatabase",
    query_partition: PartitionedSequence,
    epsilon: float,
) -> None:
    """Phase 2 against its definition: the rows an index probe returns are
    those whose least ``Dmbr`` to the query's MBRs, scanned flat over the
    whole segment table, is within the threshold — no more (a stale entry
    survived a write) and no fewer (a node rectangle does not cover what is
    below it, a written row never reached the index).  Exact: the index
    adds the squared gaps in the flat scan's order."""
    table = database.segment_table
    bounds = min_dmbr_runs(
        query_partition.low_matrix,
        query_partition.high_matrix,
        table.low_columns,
        table.high_columns,
        table.sequence_offsets,
        site="search.phase2",
    )
    expected = np.flatnonzero(bounds <= epsilon)
    if not np.array_equal(result[0], expected):
        wrong = np.setxor1d(result[0], expected)
        raise ContractViolation(
            f"Phase 2 disagrees with a flat scan of the segment table at "
            f"epsilon {epsilon!r}: the index "
            f"{'missed' if wrong[0] in expected else 'invented'} sequence "
            f"{table.ids[wrong[0]]!r} (min Dmbr {bounds[wrong[0]]!r}); "
            f"{len(wrong)} rows differ"
        )


class SequenceDatabase:
    """A collection of partitioned, indexed multidimensional sequences.

    Parameters
    ----------
    dimension:
        Dimensionality ``n`` of every stored sequence.
    cost_constant:
        MCOST constant ``Q_k + eps`` used when partitioning (paper: 0.3);
        a finite number above zero.
    max_points:
        Cap on points per segment MBR (``None`` disables).

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
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.cost_constant = _checked_cost_constant(cost_constant)
        self.max_points = max_points
        self._partitions: dict[object, PartitionedSequence] = {}
        #: Derived state as of one moment — the table, and the index once
        #: something has asked for it — and the ids written since, oldest
        #: first.  The next use of either brings both up to the partitions.
        self._table: SegmentTable | None = None
        self._index: PackedIndex | None = None
        self._stale: tuple[object, ...] = ()

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
            the insertion ordinal — or, once a removal has left that taken,
            the first integer after it that is free.  Duplicate ids are
            rejected.
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
            sequence_id = next(
                ordinal
                for ordinal in itertools.count(len(self._partitions))
                if ordinal not in self._partitions
            )
        elif sequence_id in self._partitions:
            raise KeyError(f"sequence id {sequence_id!r} already stored")

        partition = partition_sequence(
            sequence,
            cost_constant=self.cost_constant,
            max_points=self.max_points,
        )
        self._store(sequence_id, partition)
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
        with the new points (:meth:`PartitionedSequence.extended_to`): the
        work grows with the points appended, not with the stream's length.
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
        self._store(sequence_id, new_partition)

    def _store(self, sequence_id: object, partition: PartitionedSequence) -> None:
        """Store ``partition`` under ``sequence_id`` and record the write:
        the one step :meth:`add`, :meth:`append_points` and :meth:`load`
        share."""
        self._partitions[sequence_id] = partition
        self._written(sequence_id)

    def _written(self, sequence_id: object) -> None:
        """Record one write; table and index stay as they are, stale, until
        the next use derives them anew.  A new tuple each time: the old
        one may be a clone's.  While nothing has been derived (a corpus
        being populated) there is nothing to go stale and nothing to record.
        """
        if self._table is not None:
            self._stale = (*self._stale, sequence_id)

    def empty_twin(self) -> "SequenceDatabase":
        """An empty database with this one's configuration."""
        return SequenceDatabase(
            dimension=self.dimension,
            cost_constant=self.cost_constant,
            max_points=self.max_points,
        )

    def clone(self) -> "SequenceDatabase":
        """A copy-on-write snapshot copy: mutations never cross over.

        The partition objects, the segment table and the index are shared
        between the original and the copy — nothing is copied but the
        id-to-partition ``dict`` — and stay shared until one side writes
        and derives its own.  This is the primitive
        :class:`repro.service.engine.QueryEngine` uses to give writers a
        private database while in-flight readers finish on the old
        snapshot.
        """
        twin = self.empty_twin()
        twin._partitions = dict(self._partitions)
        twin._table, twin._index = self._table, self._index
        twin._stale = self._stale
        return twin

    def remove(self, sequence_id: object) -> None:
        """Remove a sequence; raises ``KeyError`` for unknown ids."""
        self.partition(sequence_id)  # raises on unknown id
        del self._partitions[sequence_id]
        # The rows behind it are renumbered, which the index cannot
        # follow: the next one packs a new base.
        self._index = None
        self._written(sequence_id)

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
        """The flat segment arrays, derived on first use after a mutation.

        Deriving is not thread-safe; :class:`repro.service.engine.QueryEngine`
        forces it before publishing a snapshot so readers only ever find it
        ready.
        """
        if self._table is None or self._stale:
            return self._derive()
        return self._table

    def _derive(self) -> SegmentTable:
        """Bring the derived state up to the partitions; returns the table.

        The table is spliced from its predecessor if one write separates
        the two and rebuilt otherwise; an index that was derived for the
        predecessor is advanced to this table.
        """
        table, previous, written = self._table, self._index, self._stale
        # Forgotten first: a build that fails leaves nothing stale behind
        # to be trusted, only more to derive next time.
        self._table, self._index, self._stale = None, None, ()
        if table is not None and len(written) == 1:
            table = table.spliced(written[0], self._partitions.get(written[0]))
        else:
            table = SegmentTable.build(self.dimension, self._partitions)
        self._table = table
        if previous is not None:
            self._index = index_table(table, previous, written)
        return table

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
    def index(self) -> PackedIndex:
        """The MBR index, derived on first use and advanced after a
        mutation (:func:`~repro.core.packed.index_table`).  Like
        :attr:`segment_table`, deriving is not thread-safe, and
        :class:`~repro.service.engine.QueryEngine` forces it on the writer
        — packing a new base included — before a snapshot is published."""
        table = self.segment_table  # the table first: an existing index follows it
        if self._index is None:
            self._index = index_table(table, None, ())
        return self._index

    @lower_bounds(_validate_candidate_rows, label="Phase 2 == flat min Dmbr scan")
    def candidate_rows(
        self, query_partition: PartitionedSequence, epsilon: float
    ) -> tuple[np.ndarray, int]:
        """Phase 2 (§3.4.2): probe the index with every query MBR.

        Returns the ascending :attr:`segment_table` rows of the sequences
        owning a segment with ``Dmbr <= epsilon`` to some MBR of
        ``query_partition`` — the paper's ``AS_mbr`` — and the index node
        accesses the probe cost: one batched descent for all the MBRs.
        """
        return self.index.candidate_rows(
            query_partition.low_matrix,
            query_partition.high_matrix,
            check_threshold(epsilon),
        )

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(dimension={self.dimension}, "
            f"sequences={len(self)}, segments={self.segment_count})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Persist the database to an ``.npz`` archive, crash-safely.

        Stored, as uncompressed members: every sequence's points as one
        row-major ``points`` block with ``point_offsets``, every segment's
        point count as one ``segment_counts`` column with
        ``segment_offsets`` (first segment of each sequence), and ``_meta``
        — the configuration and the ids.  The MBR corners are not stored:
        :meth:`load` takes them from the points, which is cheaper than
        reading them and leaves nothing on disk that could disagree with
        the points.  The index is not stored either; it is derived on
        first use.  Sequence ids are stored via ``repr`` round-tripping for
        the common id types (str, int); exotic id objects — ``bool`` among
        them, which would come back as a string — are rejected.

        The point block is streamed into its member one sequence at a
        time, never concatenated in memory.  The archive is written to a
        temporary file in the target directory, fsynced, and atomically
        renamed into place (``os.replace``) — a crash at any point during a
        save leaves either the old archive or the new one, never a torn
        file.  This is what lets the serving layer's checkpoint overwrite
        its snapshot in place (:mod:`repro.service.wal`).
        """
        ids = list(self._partitions)
        for sequence_id in ids:
            if not isinstance(sequence_id, (str, int)) or isinstance(
                sequence_id, bool
            ):
                raise TypeError(
                    f"only str/int sequence ids can be persisted, got "
                    f"{type(sequence_id).__name__}"
                )
        meta = {
            "dimension": self.dimension,
            "cost_constant": self.cost_constant,
            "max_points": self.max_points,
            "ids": [[type(i).__name__, str(i)] for i in ids],
        }
        parts = list(self._partitions.values())
        arrays = {
            "_meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            "point_offsets": _offsets([len(part.sequence) for part in parts]),
            "segment_counts": np.concatenate(
                [np.empty(0, dtype=np.int64), *(part.counts for part in parts)]
            ),
            "segment_offsets": _offsets([len(part) for part in parts]),
        }
        blocks = [part.sequence.points for part in parts]
        self._write_archive_atomically(
            path, lambda handle: _write_npz(handle, arrays, blocks, self.dimension)
        )

    @staticmethod
    def _write_archive_atomically(
        path: PathLike, write: Callable[[BinaryIO], None]
    ) -> None:
        """Run ``write`` on a temp file, then replace ``path`` with it."""
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
                write(handle)
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

        Each partition is rebuilt from its stored counts, its MBR corners
        from its points (:meth:`PartitionedSequence._of_counts`); MCOST
        does not run.  Sequences come back in the saved order, so every
        derived structure — the index, hence its node-access counts, and a
        tree built beside it — comes out as in the database that was saved.

        The stored counts are trusted only after their structure is
        checked: every count at least 1 and at most ``max_points``, each
        sequence's counts summing to its length, the offsets increasing
        and in range; the stored parameters are held to the constructor's
        rules (a ``cost_constant`` that is NaN, infinite or not above zero
        is refused).  A violation, like an archive whose CRC-32 check
        fails, is a ``ValueError`` naming the file.  Under the
        ``contracts`` check (:mod:`repro.util.checks`) every partition is
        also compared with the scalar MCOST pass, and a difference raises
        :class:`~repro.core.contracts.ContractViolation`.

        Archives in the older per-sequence layout (one ``sequence_<i>``
        member each, compressed) load by partitioning every sequence
        again; the ``_index`` member of archives written before the index
        was derived state is not read, nor are the ``index_kind`` and
        ``max_entries`` of archives written while the database kept more
        than one kind of index.
        """
        name = os.fspath(path)
        try:
            with zipfile.ZipFile(name) as archive:
                damaged = archive.testzip()
            if damaged is not None:
                raise zipfile.BadZipFile(f"member {damaged!r} fails its CRC-32 check")
            with np.load(name, allow_pickle=False) as archive:
                meta = json.loads(bytes(archive["_meta"]).decode())
                per_sequence = "points" not in archive.files
                members = (
                    [f"sequence_{ordinal}" for ordinal in range(len(meta["ids"]))]
                    if per_sequence
                    else ["points", "point_offsets", "segment_counts", "segment_offsets"]
                )
                stored = [archive[member] for member in members]
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError, zlib.error) as error:
            raise ValueError(f"{name}: unreadable database archive: {error}") from error

        try:
            database = cls(
                dimension=int(meta["dimension"]),
                cost_constant=float(meta["cost_constant"]),
                max_points=(
                    None if meta["max_points"] is None else int(meta["max_points"])
                ),
            )
        except ValueError as error:
            raise ValueError(f"{name}: corrupt database archive: {error}") from error
        ids = [int(raw) if kind == "int" else raw for kind, raw in meta["ids"]]
        if per_sequence:
            for sequence_id, points in zip(ids, stored):
                database.add(points, sequence_id=sequence_id)
            return database
        for sequence_id, partition in zip(
            ids, _stored_partitions(name, database, ids, *stored)
        ):
            database._store(sequence_id, partition)
        if CONTRACTS.on:
            _check_against_mcost(name, database)
        return database


def _offsets(sizes: list[int]) -> np.ndarray:
    """``[0, s0, s0 + s1, ...]``: where each of the runs of ``sizes`` starts,
    and one past the last."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _write_npz(
    handle: BinaryIO,
    arrays: dict[str, np.ndarray],
    blocks: list[np.ndarray],
    dimension: int,
) -> None:
    """An uncompressed ``.npz`` on ``handle``: each of ``arrays`` as a
    member, and a ``points`` member holding the float64 ``(m, dimension)``
    ``blocks`` stacked row-wise — written block by block, so the stack is
    never in memory."""
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False,
        "shape": (sum(len(block) for block in blocks), dimension),
    }
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for member, array in arrays.items():
            with archive.open(f"{member}.npy", "w", force_zip64=True) as stream:
                np.lib.format.write_array(stream, array, allow_pickle=False)
        with archive.open("points.npy", "w", force_zip64=True) as stream:
            np.lib.format.write_array_header_1_0(stream, header)
            for block in blocks:
                stream.write(block)  # C-contiguous: no copy


def _stored_partitions(
    name: str,
    database: SequenceDatabase,
    ids: list[object],
    points: np.ndarray,
    point_offsets: np.ndarray,
    counts: np.ndarray,
    segment_offsets: np.ndarray,
) -> list[PartitionedSequence]:
    """The partitions an archive stores, after checking that its members
    fit together; a mismatch is a ``ValueError`` naming the file ``name``."""

    def require(holds: object, what: str) -> None:
        if not holds:
            raise ValueError(f"{name}: corrupt database archive: {what}")

    sequences = len(ids)
    require(len(set(ids)) == sequences, "duplicate sequence ids")
    require(
        points.dtype == np.float64
        and points.ndim == 2
        and points.shape[1] == database.dimension,
        f"points are {points.dtype} {points.shape}, expected float64 "
        f"(m, {database.dimension})",
    )
    for label, offsets, total in (
        ("point_offsets", point_offsets, len(points)),
        ("segment_offsets", segment_offsets, len(counts)),
    ):
        require(
            offsets.dtype == np.int64
            and offsets.shape == (sequences + 1,)
            and offsets[0] == 0
            and offsets[-1] == total
            and (np.diff(offsets) >= 1).all(),
            f"{label} are not {sequences + 1} increasing offsets from 0 to "
            f"{total}",
        )
    require(
        counts.dtype == np.int64 and counts.ndim == 1 and (counts >= 1).all(),
        "segment_counts are not all positive int64 counts",
    )
    require(
        database.max_points is None or (counts <= database.max_points).all(),
        f"a segment count exceeds max_points {database.max_points}",
    )
    require(
        sequences == 0
        or np.array_equal(
            np.add.reduceat(counts, segment_offsets[:-1]), np.diff(point_offsets)
        ),
        "segment_counts do not sum to the sequence lengths",
    )
    point_at, segment_at = point_offsets.tolist(), segment_offsets.tolist()
    return [
        PartitionedSequence._of_counts(
            MultidimensionalSequence(points[point_at[row] : point_at[row + 1]]),
            counts[segment_at[row] : segment_at[row + 1]],
            database.cost_constant,
        )
        for row in range(sequences)
    ]


def _check_against_mcost(name: str, database: SequenceDatabase) -> None:
    """The ``contracts`` check of a loaded archive: every stored partition
    is the one the scalar MCOST pass gives its points.  Structure alone is
    not enough — ``Dnorm`` and the solution intervals read the tiling
    itself, so a valid but different one is a silently different answer."""
    for sequence_id, stored in database.partitions():
        _hold_to_scalar_pass(
            stored,
            database.max_points,
            f"{name}: the stored partition of sequence {sequence_id!r}",
        )
