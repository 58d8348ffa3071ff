"""The replica side of WAL log-shipping: tail, verify, apply, persist.

A follower drives a :class:`ReplicationTarget` (an engine, or a cluster
backend) that never takes direct writes; its state advances only by
tailing a leader's WAL through the ``/wal/tail`` contract — an engine, a
:class:`~repro.service.client.ServiceClient`, or one backend's view of
the cluster's repair journal (:class:`~repro.cluster.repair.JournalView`).
Each poll:

1. presents the follower's **cursor** — ``(applied_seq,
   leader_snapshot_version)`` — as the replication handshake;
2. decodes the shipped batch with
   :func:`~repro.service.wal.decode_frames`, which re-verifies every
   record's CRC, so a batch damaged in transit is dropped whole;
3. replays it through the target's ``apply_records`` (the same
   idempotent replay as crash recovery — duplicate delivery converges);
4. advances the cursor and, if it moved, persists it **after** the apply.

Apply-then-persist is the crash-safety choice: a kill -9 between the two
leaves the cursor *behind* the applied state, never ahead, so the worst
restart outcome is re-fetching records whose replay is a no-op.  The
cursor file is one JSON object written atomically (temp file + fsync +
``os.replace``) next to the follower's data (``cursor_path=None``: none)::

    {"applied_seq": 1482, "leader_snapshot_version": 1482,
     "leader": "http://leader:8080"}

When the leader answers :class:`~repro.service.errors.SnapshotRequired`
(the follower's cursor fell behind the leader's WAL horizon — the tail
was checkpointed away) the follower falls back to a full
:meth:`resync`: it restores the leader's exported snapshot and resumes
tailing from the export's ``snapshot_version``, which on a durable
leader *is* the WAL seq covering that state.
:class:`~repro.service.errors.ReplicaDiverged` is surfaced to the
caller (and flagged in :meth:`status`); :meth:`run` self-heals it with
a resync, but a one-shot :meth:`poll` lets a coordinator decide.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.service.errors import ReplicaDiverged, SnapshotRequired
from repro.service.wal import WalRecord, decode_frames
from repro.util.errtrace import record_swallowed
from repro.util.faults import inject
from repro.util.sync import TracedLock

__all__ = ["ReplicationLeader", "ReplicationTarget", "WalFollower"]


def load_cursor(path: Path | None) -> tuple[int, int]:
    """``(applied_seq, leader_snapshot_version)``; ``(0, 0)`` when absent."""
    if path is None or not path.exists():
        return 0, 0
    body = json.loads(path.read_text(encoding="utf-8"))
    applied = int(body.get("applied_seq", 0))
    version = int(body.get("leader_snapshot_version", 0))
    if applied < 0 or version < 0:
        raise ValueError(
            f"{path} carries a negative cursor — refusing to tail from a "
            "corrupt position"
        )
    return applied, version


def save_json(path: Path, body: dict) -> None:
    """Atomically replace ``path`` with ``body`` (temp + fsync + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(body, separators=(",", ":")))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@runtime_checkable
class ReplicationLeader(Protocol):
    """What a follower needs from its leader: a tail and an export.

    Satisfied by :class:`~repro.service.engine.QueryEngine` itself (in-
    process replication, as the tests and benchmarks use) and by
    :class:`~repro.service.client.ServiceClient` (replication over HTTP).
    """

    def wal_tail(
        self,
        after_seq: int,
        *,
        snapshot_version: int | None = None,
        limit: int = 512,
    ) -> dict: ...

    def export_sequences(self, *, include_points: bool = True) -> dict: ...


@runtime_checkable
class ReplicationTarget(Protocol):
    """What a follower applies to: a ``QueryEngine``, or a cluster backend."""

    def apply_records(self, records: list[WalRecord]) -> int: ...

    def restore(self, sequences: list[dict]) -> Any: ...


class WalFollower:
    """Tails a leader's WAL into a target, durably tracking its cursor.

    Parameters
    ----------
    engine:
        The :class:`ReplicationTarget` to apply shipped records to.  Make
        it durable (same ``DurabilityConfig`` machinery as a leader) if
        the follower itself must survive kill -9: applied records land in
        the follower's own WAL before the cursor advances.
    leader:
        Anything satisfying :class:`ReplicationLeader`.
    cursor_path:
        Where the applied cursor persists.  A missing file means a fresh
        follower (cursor 0 — tail from the beginning, or resync if the
        leader's horizon has moved); ``None`` keeps the cursor in memory.
    batch_limit:
        Max records requested per poll.
    leader_url:
        Purely informational (recorded in the cursor file and
        :meth:`status`) — the address shown to operators.
    """

    def __init__(
        self,
        engine: ReplicationTarget,
        leader: ReplicationLeader,
        *,
        cursor_path: str | Path | None,
        batch_limit: int = 512,
        leader_url: str | None = None,
    ) -> None:
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self._engine = engine
        self._leader = leader
        self._batch_limit = batch_limit
        self._leader_url = leader_url
        self.cursor_path = None if cursor_path is None else Path(cursor_path)
        applied_seq, leader_version = load_cursor(self.cursor_path)
        self._lock = TracedLock("follower.state")
        self._applied_seq = applied_seq
        self._leader_version = leader_version
        self._leader_seq = applied_seq  # refined by the first handshake
        self._diverged = False
        self._last_error: str | None = None
        self._polls = 0
        self._batches = 0
        self._applied_records = 0
        self._resyncs = 0
        self._last_poll_at: float | None = None

    # ------------------------------------------------------------------
    # Cursor persistence
    # ------------------------------------------------------------------
    def _persist_cursor(self, applied_seq: int, leader_version: int) -> None:
        """Atomically rewrite the cursor file (temp + fsync + replace).

        Called *after* the records up to ``applied_seq`` are applied (and,
        on a durable engine, in its own WAL), so a crash at any point
        leaves a cursor at or behind the applied state — re-fetching is
        idempotent, skipping ahead is impossible.
        """
        if self.cursor_path is not None:
            save_json(
                self.cursor_path,
                {
                    "applied_seq": applied_seq,
                    "leader_snapshot_version": leader_version,
                    "leader": self._leader_url,
                },
            )

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self) -> dict:
        """One tail-and-apply round trip; returns a summary dict.

        The summary carries ``applied`` (records newly reflected in the
        engine), ``count`` (records shipped — duplicates ship but apply
        as no-ops), ``lag`` (leader ``last_seq`` minus our cursor after
        this batch) and ``resync`` (whether this poll fell back to a full
        snapshot resync).  Raises :class:`ReplicaDiverged` if the leader
        rejects our handshake — :meth:`resync` recovers, and
        :meth:`status` reports ``diverged`` until it runs.
        """
        with self._lock:
            after_seq = self._applied_seq
            version = self._leader_version
            self._polls += 1
        try:
            reply = self._leader.wal_tail(
                after_seq,
                snapshot_version=version if version > 0 else None,
                limit=self._batch_limit,
            )
        except SnapshotRequired:
            return self.resync()
        except ReplicaDiverged as error:
            with self._lock:
                self._diverged = True
                self._last_error = str(error)
            raise
        frames = base64.b64decode(reply["frames"])
        records = decode_frames(frames)  # verifies every frame's CRC
        inject("follower.apply")
        applied = self._engine.apply_records(records) if records else 0
        inject("follower.persist")
        batch_last_seq = int(reply["batch_last_seq"])
        leader_seq = int(reply["last_seq"])
        leader_version = int(reply["snapshot_version"])
        with self._lock:
            before = (self._applied_seq, self._leader_version)
            self._applied_seq = max(self._applied_seq, batch_last_seq)
            self._leader_version = leader_version
            self._leader_seq = leader_seq
            self._batches += 1 if records else 0
            self._applied_records += applied
            self._last_error = None
            self._last_poll_at = time.time()
            applied_seq = self._applied_seq
            lag = max(0, leader_seq - applied_seq)
        if (applied_seq, leader_version) != before:
            self._persist_cursor(applied_seq, leader_version)
        return {
            "applied": applied,
            "count": len(records),
            "applied_seq": applied_seq,
            "lag": lag,
            "resync": False,
        }

    def resync(self) -> dict:
        """Full snapshot resync: restore the leader's export, reset cursor.

        Used when tailing cannot catch up — the cursor fell behind the
        leader's WAL horizon, or the histories diverged.  After the
        restore, the cursor jumps to the export's ``snapshot_version``:
        on a durable leader that equals the WAL seq covering the exported
        state, so the very next poll tails precisely the records the
        export did not contain.
        """
        export = self._leader.export_sequences()
        self._engine.restore(export["sequences"])
        restored = len(export["sequences"])
        cursor = int(export["snapshot_version"])
        with self._lock:
            self._applied_seq = cursor
            self._leader_version = cursor
            self._leader_seq = max(self._leader_seq, cursor)
            self._diverged = False
            self._resyncs += 1
            self._last_error = None
            self._last_poll_at = time.time()
            lag = max(0, self._leader_seq - cursor)
        self._persist_cursor(cursor, cursor)
        return {
            "applied": restored,
            "count": restored,
            "applied_seq": cursor,
            "lag": lag,
            "resync": True,
        }

    def run(
        self,
        stop: threading.Event,
        *,
        interval: float = 0.2,
    ) -> None:
        """Poll until ``stop`` is set (the ``repro serve --follow`` loop).

        A full batch polls again immediately (catch-up mode); a short or
        empty one waits ``interval``.  Divergence self-heals with a
        :meth:`resync`; any other serving/transport error is recorded in
        :meth:`status` and retried next round — a follower outlives its
        leader's restarts.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        while not stop.is_set():
            try:
                try:
                    count = self.poll()["count"]
                except ReplicaDiverged:
                    self.resync()
                    count = 0  # a resync waits a round like a short batch
            except Exception as error:  # error-ok: tail loop outlives leader restarts; recorded in status()
                record_swallowed(
                    error,
                    role="follower.tail",
                    site="WalFollower.run",
                    cancellation_ok=True,
                )
                with self._lock:
                    self._last_error = str(error)
                count = 0
            if count < self._batch_limit:
                stop.wait(interval)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        """Leader records not yet applied here (as of the last handshake)."""
        with self._lock:
            return max(0, self._leader_seq - self._applied_seq)

    @property
    def applied_seq(self) -> int:
        """The durable cursor: the last leader seq applied locally."""
        with self._lock:
            return self._applied_seq

    def status(self) -> dict[str, Any]:
        """The replication block reported under ``/healthz``."""
        with self._lock:
            return {
                "role": "follower",
                "leader": self._leader_url,
                "applied_seq": self._applied_seq,
                "leader_seq": self._leader_seq,
                "leader_snapshot_version": self._leader_version,
                "lag": max(0, self._leader_seq - self._applied_seq),
                "diverged": self._diverged,
                "polls": self._polls,
                "batches": self._batches,
                "applied_records": self._applied_records,
                "resyncs": self._resyncs,
                "last_error": self._last_error,
                "last_poll_at": self._last_poll_at,
            }
