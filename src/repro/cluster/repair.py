"""The durable read-repair journal behind the cluster coordinator.

Every write a replica misses is queued as the same
:class:`~repro.service.wal.WalRecord` the coordinator built for the live
fan-out, addressed to that replica (``WalRecord.replica``) and replayed —
in order, idempotently — once the replica is reachable again.  The
journal has two modes:

* **In-memory** (``directory=None``, the default): per-backend queues
  that live and die with the coordinator, matching the pre-journal
  behaviour exactly.
* **Durable** (``directory=...``): records are appended to a
  :class:`~repro.service.wal.WriteAheadLog` (``repairs.log``) before they
  are queued — the queued copy carries the journal ``seq`` the log
  stamped, ``None`` in memory — and a ``repair_state.json`` sidecar
  records the per-backend **acked cursor** — the greatest journal seq
  each backend has replayed.
  Reopening the journal after a coordinator crash rebuilds every queue
  from the records past each cursor, so queued repair state survives a
  kill -9 of the coordinator.

The sidecar is rewritten atomically (temp file + ``os.replace``) but not
fsynced: losing the last cursor advance merely re-replays an op whose
replay is idempotent, which is the cheap side of that trade.

Queues are **bounded** (``max_ops`` per backend).  At the overflow
transition the backend's queue is dropped wholesale, the backend is
flagged as needing a full snapshot **resync** (tail-repair can no longer
converge cheaply), and :class:`~repro.service.errors.RepairOverflow` is
raised so the coordinator can count it.  While the flag is set further
:meth:`queue` calls are absorbed silently — the eventual resync copies
the *final* state from a healthy peer, which already reflects them.  The
flag itself persists in the sidecar, so the obligation survives a
coordinator restart too.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.service.errors import RepairOverflow
from repro.service.wal import WalRecord, WriteAheadLog
from repro.util.sync import TracedLock

__all__ = ["DEFAULT_MAX_REPAIR_OPS", "RepairJournal"]

#: Per-backend queue bound before overflow forces a snapshot resync.
DEFAULT_MAX_REPAIR_OPS = 10_000

_STATE_FILE = "repair_state.json"
_LOG_FILE = "repairs.log"


class RepairJournal:
    """Bounded per-backend repair queues, optionally crash-durable.

    Parameters
    ----------
    num_backends:
        Backends addressed, indexed ``0 .. num_backends - 1``.
    directory:
        Where ``repairs.log`` and the cursor sidecar live; ``None`` keeps
        the journal in memory only.
    max_ops:
        Per-backend queue bound; hitting it drops the queue and flags the
        backend for snapshot resync (see module docstring).
    """

    def __init__(
        self,
        num_backends: int,
        *,
        directory: str | Path | None = None,
        max_ops: int = DEFAULT_MAX_REPAIR_OPS,
    ) -> None:
        if num_backends < 1:
            raise ValueError(f"num_backends must be >= 1, got {num_backends}")
        if max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {max_ops}")
        self.num_backends = num_backends
        self.max_ops = max_ops
        self.directory = None if directory is None else Path(directory)
        self._lock = TracedLock("repair.journal")
        self._queues: dict[int, list[WalRecord]] = {
            index: [] for index in range(num_backends)
        }
        self._cursors: dict[int, int] = {
            index: 0 for index in range(num_backends)
        }
        self._resync: set[int] = set()
        self._wal: WriteAheadLog | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_state()
            self._wal = WriteAheadLog(self.directory / _LOG_FILE)
            for record in self._wal.recovered_records:
                backend = record.replica
                if backend is None or not 0 <= backend < num_backends:
                    continue
                if backend in self._resync:
                    continue  # the pending resync supersedes the queue
                if (record.seq or 0) <= self._cursors[backend]:
                    continue  # already replayed before the crash
                self._queues[backend].append(record)

    # ------------------------------------------------------------------
    # Persistence (durable mode)
    # ------------------------------------------------------------------
    def _load_state(self) -> None:
        if self.directory is None:
            return
        path = self.directory / _STATE_FILE
        if not path.exists():
            return
        body = json.loads(path.read_text(encoding="utf-8"))
        for key, value in dict(body.get("cursors", {})).items():
            index = int(key)
            if 0 <= index < self.num_backends:
                self._cursors[index] = max(0, int(value))
        for index in body.get("resync", []):
            if 0 <= int(index) < self.num_backends:
                self._resync.add(int(index))

    def _save_state_locked(self) -> None:
        if self.directory is None:
            return
        payload = json.dumps(
            {
                "cursors": {
                    str(index): seq for index, seq in self._cursors.items()
                },
                "resync": sorted(self._resync),
            },
            separators=(",", ":"),
        )
        path = self.directory / _STATE_FILE
        tmp = path.with_suffix(".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)

    def _check_backend(self, backend: int) -> None:
        if not 0 <= backend < self.num_backends:
            raise ValueError(
                f"backend must be in [0, {self.num_backends}), got {backend}"
            )

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def queue(self, record: WalRecord) -> bool:
        """Queue one missed write for the backend ``record.replica`` names.

        Returns ``True`` when the record was queued, ``False`` when a
        pending resync absorbed it (the resync will copy the final
        state).  Raises :class:`RepairOverflow` exactly at the overflow
        transition: the queue is dropped, the backend flagged for
        resync, and the durable cursor advanced past the dropped tail so
        a restart does not resurrect it.
        """
        if record.replica is None:
            raise ValueError("a repair record must name its replica")
        backend = record.replica
        self._check_backend(backend)
        with self._lock:
            if backend in self._resync:
                return False
            if len(self._queues[backend]) >= self.max_ops:
                dropped = len(self._queues[backend])
                self._queues[backend].clear()
                self._resync.add(backend)
                if self._wal is not None:
                    self._cursors[backend] = self._wal.last_seq
                self._save_state_locked()
                raise RepairOverflow(
                    f"repair queue for backend {backend} overflowed "
                    f"({dropped} ops >= capacity {self.max_ops}); queue "
                    "dropped, backend flagged for snapshot resync",
                    backend=backend,
                    pending=dropped,
                    capacity=self.max_ops,
                )
            if self._wal is not None:
                self._wal.append(record)
                record = replace(record, seq=self._wal.last_seq)
            self._queues[backend].append(record)
            return True

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def peek(self, backend: int) -> WalRecord | None:
        """The oldest queued record for ``backend`` (without removing it)."""
        self._check_backend(backend)
        with self._lock:
            queue = self._queues[backend]
            return queue[0] if queue else None

    def ack(self, backend: int, record: WalRecord) -> None:
        """``record`` was replayed (or dead-lettered): pop it, advance the
        cursor, and compact the log once every queue runs dry."""
        self._check_backend(backend)
        with self._lock:
            queue = self._queues[backend]
            if queue and queue[0] is record:
                queue.pop(0)
            if self._wal is not None and record.seq:
                self._cursors[backend] = max(
                    self._cursors[backend], record.seq
                )
                self._save_state_locked()
                self._compact_locked()

    def _compact_locked(self) -> None:
        """Reset the log when nothing references it any more.

        The reset leaves a checkpoint marker, so journal seqs stay
        monotonic across compactions and cursors never have to rewind.
        """
        if self._wal is None or len(self._wal) == 0:
            return
        if self._resync or any(self._queues.values()):
            return
        self._wal.reset()

    # ------------------------------------------------------------------
    # Resync bookkeeping
    # ------------------------------------------------------------------
    def needs_resync(self, backend: int) -> bool:
        """Whether ``backend``'s queue overflowed and awaits a resync."""
        self._check_backend(backend)
        with self._lock:
            return backend in self._resync

    def resync_pending(self) -> list[int]:
        """Backends flagged for snapshot resync."""
        with self._lock:
            return sorted(self._resync)

    def mark_resynced(self, backend: int) -> None:
        """Clear ``backend``'s resync flag after a successful restore."""
        self._check_backend(backend)
        with self._lock:
            self._resync.discard(backend)
            if self._wal is not None:
                self._cursors[backend] = max(
                    self._cursors[backend], self._wal.last_seq
                )
            self._save_state_locked()
            self._compact_locked()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> dict[int, int]:
        """Queued records per backend (non-empty queues only)."""
        with self._lock:
            return {
                index: len(queue)
                for index, queue in self._queues.items()
                if queue
            }

    def describe(self) -> dict[str, Any]:
        """The journal block reported under the coordinator's stats."""
        with self._lock:
            return {
                "durable": self._wal is not None,
                "directory": (
                    None if self.directory is None else str(self.directory)
                ),
                "max_ops": self.max_ops,
                "pending": {
                    index: len(queue)
                    for index, queue in self._queues.items()
                    if queue
                },
                "resync_pending": sorted(self._resync),
                "journal_records": 0 if self._wal is None else len(self._wal),
                "journal_last_seq": (
                    0 if self._wal is None else self._wal.last_seq
                ),
            }

    def close(self) -> None:
        """Close the journal log's file handle (durable mode)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()
