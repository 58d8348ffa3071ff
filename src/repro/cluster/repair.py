"""The coordinator's repair journal: a write log each lagging backend tails.

Every write a replica misses is logged as the coordinator's
:class:`~repro.service.wal.WalRecord` (an append with an acking replica's
``length``), addressed to that replica and stamped with a journal seq.
A backend catches up as a log-shipping follower does: a
:class:`~repro.service.follower.WalFollower` tails its
:class:`JournalView` and applies each batch through the backend's
``apply_records``; the follower's cursor is the backend's acked position.
Below a backend's **horizon** the view raises
:class:`~repro.service.errors.SnapshotRequired` and the follower resyncs
from the view's peer export.  The horizon moves when a backlog reaches
``max_ops`` (:class:`~repro.service.errors.RepairOverflow`) and when a
record is queued with ``resync=True``.

With a ``directory`` the records go to a
:class:`~repro.service.wal.WriteAheadLog` (``repairs.log``), the cursors
to ``cursor-<i>.json`` and the horizons to ``horizons.json`` (both
fsynced), so a reopened journal rebuilds every backlog; the log is reset
once no backend lags.  Without one, all of it lives in memory.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.service.errors import RepairOverflow, SnapshotRequired
from repro.service.follower import load_cursor, save_json
from repro.service.wal import WalRecord, WriteAheadLog, encode_frames
from repro.util.sync import TracedLock

__all__ = ["DEFAULT_MAX_REPAIR_OPS", "JournalView", "RepairJournal"]

#: Per-backend backlog bound before overflow forces a snapshot resync.
DEFAULT_MAX_REPAIR_OPS = 10_000

_LOG_FILE = "repairs.log"
_HORIZONS_FILE = "horizons.json"


class RepairJournal:
    """Per-backend backlogs of missed writes, optionally crash-durable.

    Parameters
    ----------
    num_backends:
        Backends addressed, indexed ``0 .. num_backends - 1``.
    directory:
        Where the log, the cursors and the horizons live; ``None`` keeps
        the journal in memory.
    max_ops:
        Per-backend backlog bound; reaching it moves the horizon.
    """

    def __init__(
        self,
        num_backends: int,
        *,
        directory: str | Path | None = None,
        max_ops: int = DEFAULT_MAX_REPAIR_OPS,
    ) -> None:
        if max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {max_ops}")
        self.max_ops = max_ops
        self.directory = None if directory is None else Path(directory)
        self._lock = TracedLock("repair.journal")
        #: Per backend: its records past its cursor and horizon, by seq.
        self._backlogs: list[list[WalRecord]] = [[] for _ in range(num_backends)]
        #: Per backend: the cursor its follower last presented (or saved).
        self._cursors = [0] * num_backends
        self._horizons = [0] * num_backends
        self._last_seq = 0
        self._wal: WriteAheadLog | None = None
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        for index in range(num_backends):
            self._cursors[index] = load_cursor(self.cursor_path(index))[0]
        path = self.directory / _HORIZONS_FILE
        if path.exists():
            saved = json.loads(path.read_text("utf-8"))["horizons"][:num_backends]
            self._horizons[: len(saved)] = saved
        self._wal = WriteAheadLog(self.directory / _LOG_FILE)
        self._last_seq = self._wal.last_seq
        for record in self._wal.recovered_records:
            backend = record.replica
            if backend is not None and 0 <= backend < num_backends:
                self._keep_locked(backend, record)

    def cursor_path(self, backend: int) -> Path | None:
        """Where ``backend``'s follower keeps its cursor (``None`` in memory)."""
        if self.directory is None:
            return None
        return self.directory / f"cursor-{backend}.json"

    def _keep_locked(self, backend: int, record: WalRecord) -> None:
        floor = max(self._cursors[backend], self._horizons[backend])
        if (record.seq or 0) > floor:
            self._backlogs[backend].append(replace(record, replica=None))

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def queue(self, record: WalRecord, *, resync: bool = False) -> None:
        """Log one missed write for the backend ``record.replica`` names.

        ``resync=True`` says the backend's state after this write is
        unknown, so its horizon moves past the record.  Raises
        :class:`RepairOverflow` instead of logging when the backlog is at
        ``max_ops``: the backlog is dropped and the horizon moved.
        """
        backend = record.replica
        if backend is None:
            raise ValueError("a repair record must name its replica")
        with self._lock:
            backlog = self._backlogs[backend]
            if len(backlog) >= self.max_ops:
                dropped = len(backlog)
                self._move_horizon_locked(backend)
                raise RepairOverflow(
                    f"repair backlog for backend {backend} overflowed "
                    f"({dropped} ops >= capacity {self.max_ops}); backend "
                    "needs a snapshot resync",
                    backend=backend,
                    pending=dropped,
                    capacity=self.max_ops,
                )
            if self._wal is not None:
                self._wal.append(record)
                self._last_seq = self._wal.last_seq
            else:
                self._last_seq += 1
            self._keep_locked(backend, replace(record, seq=self._last_seq))
            if resync:
                self._move_horizon_locked(backend)

    def _move_horizon_locked(self, backend: int) -> None:
        self._horizons[backend] = self._last_seq
        self._backlogs[backend].clear()
        if self.directory is not None:
            save_json(self.directory / _HORIZONS_FILE, {"horizons": self._horizons})

    # ------------------------------------------------------------------
    # Consuming (through a JournalView)
    # ------------------------------------------------------------------
    def _tail(self, backend: int, after_seq: int, limit: int) -> dict:
        with self._lock:
            horizon, last_seq = self._horizons[backend], self._last_seq
            if not horizon <= after_seq <= last_seq:
                raise SnapshotRequired(
                    f"backend {backend}'s cursor {after_seq} is outside the "
                    f"journal's range [{horizon}, {last_seq}]; a snapshot "
                    "resync is required",
                    horizon=horizon,
                    after_seq=after_seq,
                )
            # The presented cursor is applied durably: trim up to it.
            cursor = max(self._cursors[backend], after_seq)
            self._cursors[backend] = cursor
            backlog = self._backlogs[backend]
            applied = sum(1 for record in backlog if (record.seq or 0) <= cursor)
            del backlog[:applied]
            batch = backlog[:limit]
            self._compact_locked()
        return {
            "frames": base64.b64encode(encode_frames(batch)).decode("ascii"),
            "count": len(batch),
            "batch_last_seq": batch[-1].seq if batch else after_seq,
            "last_seq": last_seq,
            "horizon": horizon,
            "snapshot_version": last_seq,
        }

    def _compact_locked(self) -> None:
        """Reset the log (seqs stay monotonic) once no backend needs it."""
        if self._wal is None or len(self._wal) == 0:
            return
        if any(self._backlogs) or self._resync_pending_locked():
            return
        self._wal.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """The seq of the newest logged record (0 when none ever)."""
        with self._lock:
            return self._last_seq

    def lagging(self, backend: int) -> bool:
        """Whether ``backend`` has missed writes to catch up on."""
        with self._lock:
            behind = self._cursors[backend] < self._horizons[backend]
            return behind or bool(self._backlogs[backend])

    def pending(self) -> dict[int, int]:
        """Backlogged records per backend (non-empty backlogs only)."""
        with self._lock:
            return self._pending_locked()

    def _pending_locked(self) -> dict[int, int]:
        return {i: len(log) for i, log in enumerate(self._backlogs) if log}

    def resync_pending(self) -> list[int]:
        """Backends whose cursor is behind their horizon (snapshot due)."""
        with self._lock:
            return self._resync_pending_locked()

    def _resync_pending_locked(self) -> list[int]:
        pairs = enumerate(zip(self._cursors, self._horizons))
        return [i for i, (cursor, horizon) in pairs if cursor < horizon]

    def describe(self) -> dict[str, Any]:
        """The journal block reported under the coordinator's stats."""
        with self._lock:
            return {
                "durable": self._wal is not None,
                "directory": self.directory and str(self.directory),
                "max_ops": self.max_ops,
                "pending": self._pending_locked(),
                "resync_pending": self._resync_pending_locked(),
                "journal_records": 0 if self._wal is None else len(self._wal),
                "journal_last_seq": self._last_seq,
            }

    def close(self) -> None:
        """Close the journal log's file handle (durable mode)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()


@dataclass(frozen=True)
class JournalView:
    """One backend's view of the journal: the leader its follower tails.

    A :class:`~repro.service.follower.ReplicationLeader`; ``export``
    returns the sequences the backend should hold, from its peers.
    """

    journal: RepairJournal
    backend: int
    export: Callable[[], list[dict]]

    def wal_tail(
        self,
        after_seq: int,
        *,
        snapshot_version: int | None = None,
        limit: int = 512,
    ) -> dict:
        """The backend's records after ``after_seq``, as ``/wal/tail``
        ships them; :class:`SnapshotRequired` below its horizon."""
        return self.journal._tail(self.backend, after_seq, limit)

    def export_sequences(self, *, include_points: bool = True) -> dict:
        """The peers' copy of the backend, at the journal seq read first:
        every record up to it reached the live replicas before it was
        logged, and the records after it replay idempotently."""
        version = self.journal.last_seq
        return {"snapshot_version": version, "sequences": self.export()}
