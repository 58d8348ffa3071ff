"""The concurrent query engine: snapshots, worker pool, ε-aware cache.

This is the long-lived serving harness around the paper's three-phase
search.  Three mechanisms make it safe and fast under concurrent traffic:

**Snapshot isolation and the one commit path.**  The engine never
mutates a published :class:`~repro.core.database.SequenceDatabase`.  Every
route that changes the corpus — ``insert`` / ``append`` / ``remove``, a
shipped batch (``apply_records``) and a full ``restore`` — runs the same
sequence in :meth:`QueryEngine._commit`: admission check, the single
writer lock, a private database (a copy-on-write
:meth:`SequenceDatabase.clone` — partitions, segment table and index
shared by reference — or an empty twin when the corpus is replaced), the
mutation, the derivation of the clone's own table and index with a
consistency check, the durability barrier, the cache action, and one
atomic swap of the snapshot reference.  Readers grab the snapshot reference once
per request and run entirely against it: no reader locks on the hot path,
and an in-flight search finishes on the snapshot it started with
(readers-never-block-writers, writers-never-tear-readers).

**Admission control and deadlines.**  Requests execute on a bounded worker
pool behind an :class:`~repro.service.admission.AdaptiveLimiter`: the
admission limit floats between ``workers`` and ``workers + queue_cap``,
shrinking (AIMD) when observed queue wait exceeds the 0.1 s target and
growing back while it holds, with priority headroom so writes and
repair/replication traffic shed before reads do.  An arrival beyond the
current limit fast-fails with :class:`~repro.service.errors.Overloaded`
(carrying a ``retry_after`` hint derived from queue depth) instead of
building an unbounded backlog; while the limit sits below its ceiling
the engine reports itself ``degraded`` (``/healthz``).  A search the
ε-cache answers exactly is a lookup, not work: it runs on the calling
thread, holds no admission slot and is no queue-wait sample, so only
the reads that queue steer the limit.  Each request carries a
:class:`~repro.util.budget.Deadline`; one that expires while queued is
never executed, and one that expires mid-execution is stopped at the next
cooperative cancellation checkpoint inside the Phase 2/3 loops (counted
as ``cancelled``; a request that completes after its deadline anyway is
counted as ``wasted_work``) and returns :class:`~repro.service.errors.
DeadlineExceeded` to the caller.

**ε-aware caching.**  Completed range searches populate an LRU keyed by
query fingerprint (:mod:`repro.service.cache`).  A request at threshold ε
served by an entry computed at ε' >= ε skips Phases 1-2 entirely and
re-runs only Phase 3 over the cached candidate set — exact by the
lower-bound monotonicity of Lemmas 1-3.  A write replaces only the
entries whose result sets the written id changes rather than flushing
the cache.

**Durability (optional).**  With a :class:`~repro.service.wal.
DurabilityConfig`, the commit's durability barrier runs *before* the
snapshot that acknowledges it is published: a write appends one
checksummed, fsynced record per mutation to the write-ahead log, and a
restore checkpoints the replacement corpus.  Startup recovers by
replaying the log over the latest good checkpoint (``snapshot.npz``) — a
torn or corrupt log tail is truncated at the last valid record instead of
refusing to start.  A snapshot's version is read off the log once its
commit has passed the barrier, so ``snapshot_version == wal_last_seq``
after every route and across restarts.  :meth:`checkpoint` persists the
current snapshot crash-safely and resets the log; it runs automatically
every ``checkpoint_every`` records and on clean close.

The only intentional cross-thread mutation on the read path is the index's
access-counter block (``index.stats``), whose increments may race benignly
under concurrent readers; treat per-engine node-access counts as
approximate.  Switch the ``contracts`` check on (``REPRO_CHECK_CONTRACTS``
or ``repro.util.checks.checking("contracts")``) to have every served
result — cached or not, on whichever thread — re-validated against the
no-false-dismissal contract.
"""

from __future__ import annotations

import base64
import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.analysis.tracing import search_record
from repro.core.database import SequenceDatabase
from repro.core.search import SearchResult, SearchStats, SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import IntervalSet
from repro.service.admission import AdaptiveLimiter
from repro.service.cache import (
    CacheEntry,
    EpsilonCache,
    ReplySlot,
    query_fingerprint,
)
from repro.service.errors import (
    DeadlineExceeded,
    EngineClosed,
    Overloaded,
    ReplicaDiverged,
    SnapshotRequired,
)
from repro.service.faults import inject
from repro.service.stats import ServiceStats
from repro.service.wal import (
    DurabilityConfig,
    WalRecord,
    WriteAheadLog,
    decode_points,
    encode_frames,
    encode_points,
    replay_into,
)
from repro.util.budget import (
    Deadline,
    OperationCancelled,
    checkpoint,
    deadline_scope,
)
from repro.util.checks import CONTRACTS
from repro.util.errtrace import error_stats, translated
from repro.util.freeze import verify_frozen
from repro.util.sync import TracedLock
from repro.util.validation import check_threshold
from repro.util.version import REPRO_VERSION

if TYPE_CHECKING:
    import numpy.typing as npt

    SequenceLike = MultidimensionalSequence | npt.ArrayLike

__all__ = ["QueryEngine", "ServiceResponse"]

_T = TypeVar("_T")


def _answers_exactly(
    entry: CacheEntry, epsilon: float, find_intervals: bool
) -> bool:
    """Whether a usable entry is the answer itself (a hit, not a refine).

    A usable entry was stored at ε' >= ε; it is the answer only at its
    own threshold.  Any ε < ε', however close, is a refine (as the cache
    counts it), which is exact.
    """
    return entry.epsilon <= epsilon and (
        entry.find_intervals or not find_intervals
    )


@dataclass(frozen=True)
class _Snapshot:
    """One immutable published state: a database, its engine, a version."""

    database: SequenceDatabase
    search: SimilaritySearch
    version: int


@dataclass(frozen=True)
class ServiceResponse:
    """A search result plus its serving metadata."""

    result: SearchResult
    #: Cache outcome: ``"hit"``, ``"refine"``, ``"miss"`` or ``"off"``.
    cache: str
    #: The snapshot version the request executed against.
    snapshot_version: int
    #: On a ``"hit"``, the entry's :class:`~repro.service.cache.ReplySlot`,
    #: where a transport keeps the reply it encodes for this response.
    reply: ReplySlot | None = field(default=None, compare=False, repr=False)


class QueryEngine:
    """A thread-safe serving engine over a :class:`SequenceDatabase`.

    The engine takes ownership of the database: do not mutate it directly
    after construction — go through :meth:`insert` / :meth:`append` /
    :meth:`remove`, which publish copy-on-write snapshots.

    Parameters
    ----------
    database:
        The corpus to serve.  Its index is materialised eagerly so the
        first request never pays construction cost.
    workers:
        Worker-thread count executing requests.
    queue_cap:
        Requests allowed to wait beyond the running ones; ``workers +
        queue_cap`` is the admission limiter's ceiling, and an arrival
        that finds the current limit's worth of requests admitted is
        rejected with :class:`Overloaded`.  The limit itself adapts
        between ``workers`` and that ceiling on observed queue wait
        (:class:`~repro.service.admission.AdaptiveLimiter`).
    cache_size:
        ε-aware result-cache capacity (entries); ``0`` disables caching.
    default_timeout:
        Deadline (seconds) applied to requests that do not carry their
        own; ``None`` means no deadline.
    trace_path:
        Optional JSON-lines trace file; every completed range search
        appends one record in the :func:`repro.analysis.tracing.
        search_record` schema plus ``op``/``cache``/``snapshot_version``
        fields, readable with :func:`repro.analysis.tracing.read_trace`.
    durability:
        Optional :class:`~repro.service.wal.DurabilityConfig`.  When set,
        startup recovers from the config's data directory (latest
        checkpoint plus WAL replay; the ``database`` argument only seeds
        an empty directory and may then be ``None``), every mutation is
        WAL-appended and fsynced before it is acknowledged, and
        :meth:`checkpoint` / close persist crash-safe snapshots.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.database import SequenceDatabase
    >>> db = SequenceDatabase(dimension=2)
    >>> _ = db.add(np.random.default_rng(0).random((30, 2)), sequence_id="a")
    >>> with QueryEngine(db, workers=2) as engine:
    ...     result = engine.search(np.random.default_rng(1).random((8, 2)), 0.5)
    ...     isinstance(result.answers, list)
    True
    """

    def __init__(
        self,
        database: SequenceDatabase | None,
        *,
        workers: int = 4,
        queue_cap: int = 64,
        cache_size: int = 128,
        default_timeout: float | None = None,
        trace_path: str | Path | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        if database is not None and not isinstance(database, SequenceDatabase):
            raise TypeError(
                f"expected a SequenceDatabase, got {type(database).__name__}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_cap < 0:
            raise ValueError(f"queue_cap must be >= 0, got {queue_cap}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        self.durability = durability
        self._wal: WriteAheadLog | None = None
        self._checkpoints = 0
        self._last_checkpoint_version = 0
        recovered_version = 0
        if durability is not None:
            database, recovered_version = self._recover(database, durability)
        elif database is None:
            raise TypeError(
                "database may be None only with a durability config whose "
                "directory already holds a snapshot"
            )
        self._materialise(database)
        self.workers = workers
        self.queue_cap = queue_cap
        self.default_timeout = default_timeout
        self._snapshot = verify_frozen(
            _Snapshot(database, SimilaritySearch(database), recovered_version),
            role="engine.snapshot",
            site="QueryEngine.__init__",
        )
        self._write_lock = TracedLock("engine.write")
        self._admission = AdaptiveLimiter(
            min_limit=workers, max_limit=workers + queue_cap
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._cache = (
            EpsilonCache(cache_size, version=recovered_version)
            if cache_size
            else None
        )
        self._stats = ServiceStats()
        self._trace_path = None if trace_path is None else Path(trace_path)
        self._trace_lock = TracedLock("engine.trace")
        self._closed = False
        self._started_at = time.time()

    def _recover(
        self, database: SequenceDatabase | None, config: DurabilityConfig
    ) -> tuple[SequenceDatabase, int]:
        """Reload the last checkpoint, replay the WAL, open it for writes.

        The recovered snapshot version equals the WAL's last stamped seq
        (which checkpoint markers preserve across truncation), so two
        recoveries from the same directory publish the same version —
        replay is deterministic and idempotent — and :meth:`_commit`
        keeps ``snapshot_version == wal.last_seq`` from there on.
        Log-shipping leans on that invariant: the ``snapshot_version`` a
        leader reports with an exported snapshot doubles as the WAL
        cursor a freshly-resynced follower should tail from.
        """
        directory = Path(config.directory)
        directory.mkdir(parents=True, exist_ok=True)
        if config.snapshot_path.exists():
            database = SequenceDatabase.load(config.snapshot_path)
        elif database is None:
            raise TypeError(
                f"no snapshot in {directory} and no seed database given"
            )
        else:
            database.save(config.snapshot_path)
        wal = WriteAheadLog(config.wal_path, fsync=config.fsync)
        records = wal.recovered_records
        replay_into(database, records)
        self._wal = wal  # thread-safe: runs inside __init__, pre-publication
        return database, wal.last_seq

    @staticmethod
    def _materialise(database: SequenceDatabase) -> None:
        """Force the index and segment-table builds before publication.

        Both are built lazily and neither build is thread-safe, so readers
        must only ever find them ready.  The table also gives the segment
        total the index is checked against.
        """
        table = database.segment_table
        if len(table.ids) != len(database) or len(database.index) != len(
            table.counts
        ):
            raise RuntimeError(
                f"index holds {len(database.index)} entries and the segment "
                f"table {len(table.counts)} segments of {len(table.ids)} "
                f"sequences for a database of {len(database)} — "
                f"inconsistent database"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        A durable engine checkpoints on clean close (unless its config
        says otherwise), so a restart replays an empty WAL; the log file
        handle is closed either way.
        """
        if self._closed:
            return
        self._closed = True  # thread-safe: monotonic latch, races are benign
        self._pool.shutdown(wait=wait)
        if self._wal is not None:
            try:
                if (
                    self.durability is not None
                    and self.durability.checkpoint_on_close
                ):
                    with self._write_lock:
                        self._checkpoint_locked(self._snapshot)
            finally:
                self._wal.close()

    def checkpoint(self) -> int:
        """Persist the current snapshot and reset the WAL.

        Returns the snapshot version the checkpoint captured.  The save
        is crash-safe (temp file + atomic replace) and the WAL is only
        truncated *after* the snapshot is durably in place; a crash
        between the two leaves records that replay idempotently over the
        fresh snapshot.
        """
        if self._wal is None or self.durability is None:
            raise RuntimeError("engine has no durability configured")
        with self._write_lock:
            return self._checkpoint_locked(self._snapshot)

    def _checkpoint_locked(self, snapshot: _Snapshot) -> int:
        """Save ``snapshot`` and reset the WAL to its version.

        ``snapshot`` is the published one, or — when a restore replaces
        the corpus — the one about to be published: the reset moves the
        log's seq counter up to ``snapshot.version`` (never back — a log
        that ran ahead after a failed batch keeps its seq), so a restore
        lands the counter on the version it publishes at.
        """
        if self._wal is None or self.durability is None:
            raise RuntimeError("engine has no durability configured")
        verify_frozen(
            snapshot,
            role="engine.checkpoint",
            site="QueryEngine._checkpoint_locked",
        )
        inject("checkpoint.before-save")
        snapshot.database.save(self.durability.snapshot_path)
        inject("checkpoint.before-reset")
        self._wal.reset(snapshot.version)
        self._checkpoints += 1
        self._last_checkpoint_version = snapshot.version
        return snapshot.version

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def dimension(self) -> int:
        """Dimensionality of the served corpus."""
        return self._snapshot.database.dimension

    @property
    def snapshot_version(self) -> int:
        """Version counter of the currently published snapshot."""
        return self._snapshot.version

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted (queued plus running)."""
        return self._admission.inflight

    @property
    def admission_limit(self) -> int:
        """The adaptive admission limit currently in force."""
        return self._admission.effective_limit()

    @property
    def degraded(self) -> bool:
        """Whether queue wait has cut the admission limit below its ceiling."""
        return self._admission.effective_limit() < self._admission.max_limit

    @property
    def durable(self) -> bool:
        """Whether the engine writes a WAL (a durability config is set)."""
        return self._wal is not None

    @property
    def wal_records(self) -> int:
        """Records in the WAL since the last checkpoint (0 if not durable)."""
        return 0 if self._wal is None else len(self._wal)

    @property
    def wal_last_seq(self) -> int:
        """The WAL's last stamped record seq (0 if not durable)."""
        return 0 if self._wal is None else self._wal.last_seq

    @property
    def wal_horizon(self) -> int:
        """Oldest-shippable boundary of the WAL (0 if not durable)."""
        return 0 if self._wal is None else self._wal.horizon()

    @property
    def checkpoints(self) -> int:
        """Checkpoints taken since startup (explicit, automatic, on close)."""
        return self._checkpoints

    @property
    def last_checkpoint_version(self) -> int:
        """Snapshot version captured by the most recent checkpoint."""
        return self._last_checkpoint_version

    def sequence_ids(self) -> list[object]:
        """Sequence ids of the current snapshot, in insertion order."""
        return self._snapshot.database.ids()

    def __len__(self) -> int:
        return len(self._snapshot.database)

    # ------------------------------------------------------------------
    # Queries (work on the worker pool, exact cache hits on the caller)
    # ------------------------------------------------------------------
    def search(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
    ) -> SearchResult:
        """Range search (the paper's SIMILARITY_SEARCH).

        Work runs on the pool; an exact ε-cache hit on the calling thread.
        """
        epsilon = check_threshold(epsilon)
        return self.search_detailed(
            query, epsilon, find_intervals=find_intervals, timeout=timeout
        ).result

    def search_detailed(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
        on_caller: bool = False,
    ) -> ServiceResponse:
        """Range search returning serving metadata alongside the result."""
        epsilon = check_threshold(epsilon)
        return self._search(
            "search", query, epsilon, find_intervals, timeout, on_caller
        )

    def range_query(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        timeout: float | None = None,
    ) -> list[object]:
        """The matching sequence ids only (no solution intervals)."""
        epsilon = check_threshold(epsilon)
        response = self._search("range", query, epsilon, False, timeout, False)
        return list(response.result.answers)

    def knn(
        self,
        query: SequenceLike,
        k: int,
        *,
        timeout: float | None = None,
        on_caller: bool = False,
    ) -> list[tuple[float, object]]:
        """The ``k`` nearest stored sequences (exact; Seidl-Kriegel)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self._read(
            "knn", lambda: self._do_knn(query, k), timeout, on_caller=on_caller
        )

    # ------------------------------------------------------------------
    # Writes (serialised; every route publishes through _commit)
    # ------------------------------------------------------------------
    def insert(
        self, points: SequenceLike, sequence_id: object = None
    ) -> object:
        """Add a sequence; readers in flight keep their old snapshot."""
        return self._commit(
            "insert",
            lambda db: db.add(points, sequence_id=sequence_id),
            lambda db, sid: [
                WalRecord("insert", sid, points=db.sequence(sid).points)
            ],
        )

    def append(self, sequence_id: object, points: npt.ArrayLike) -> int:
        """Extend a stored sequence (streaming ingestion); returns the
        length this commit logs, which makes replaying the append idempotent."""
        length = 0

        def mutate(db: SequenceDatabase) -> object:
            nonlocal length
            db.append_points(sequence_id, points)
            length = len(db.sequence(sequence_id))
            return sequence_id

        def log(db: SequenceDatabase, sid: object) -> list[WalRecord]:
            return [
                WalRecord(
                    "append", sid, points=decode_points(points), length=length
                )
            ]

        self._commit("append", mutate, log)
        return length

    def remove(self, sequence_id: object) -> object:
        """Remove a sequence from subsequent snapshots."""

        def mutate(db: SequenceDatabase) -> object:
            db.remove(sequence_id)
            return sequence_id

        return self._commit(
            "remove", mutate, lambda db, sid: [WalRecord("remove", sid)]
        )

    def _commit(
        self,
        op: str,
        mutate: Callable[[SequenceDatabase], _T],
        log: Callable[[SequenceDatabase, _T], list[WalRecord]] | None,
        *,
        repair: bool = False,
        advance: int = 1,
    ) -> _T:
        """The one commit sequence behind every route that changes the corpus.

        ``mutate`` runs against a private database and returns the
        route's result; ``log`` turns that result into the WAL records
        that reproduce it — called only on a durable engine, so ids a
        WAL cannot encode stay legal without one.  ``log=None`` means no
        records can: the commit *replaces* the corpus, so ``mutate``
        starts from an empty twin instead of a clone and the durability
        barrier is a checkpoint of the new state.  ``advance`` is how
        far the version moves when there is no log to read it off (the
        batch size — what the log would have stamped).  ``repair`` marks
        replication/repair traffic: it sheds at ``repair`` priority and
        clears the ε-cache instead of patching the one written id.
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        priority = "repair" if repair else "write"
        # Priority-aware shedding: writes, and replication before them,
        # yield admission headroom to reads well before the hard limit.
        if not self._admission.permits(priority):
            raise self._overloaded_error(op, priority=priority)
        self._stats.record_request(op)
        started = time.monotonic()
        with self._write_lock:
            snapshot = self._snapshot
            database = (
                snapshot.database.empty_twin()
                if log is None
                else snapshot.database.clone()
            )
            try:
                result = mutate(database)
                self._materialise(database)
                # Durability barrier: the commit must be on disk before
                # the snapshot that acknowledges it publishes.
                if self._wal is not None and log is not None:
                    for record in log(database, result):
                        self._wal.append(record)
                        self._stats.record_wal_append()
                # The one place a version is derived.  A durable engine
                # reads it off the log after the barrier (a replace
                # takes the next seq without a record), so
                # snapshot_version == wal.last_seq after every route —
                # also when an earlier commit failed after stamping part
                # of its batch.  Without a log it moves by the same count.
                if self._wal is None:
                    version = snapshot.version + advance
                else:
                    version = self._wal.last_seq + (1 if log is None else 0)
                published = _Snapshot(
                    database, SimilaritySearch(database), version
                )
                if self._wal is not None and log is None:
                    self._checkpoint_locked(published)
            except Exception:
                self._stats.record_failure(op)
                raise
            if self._cache is not None and repair:
                # A batch may touch many ids: start over at its version.
                self._cache.clear(published.version)
            elif self._cache is not None:
                self._stats.record_cache_patches(
                    self._cache.apply_write(
                        result, published.search, published.version
                    )
                )
            self._snapshot = verify_frozen(
                published, role="engine.snapshot", site="QueryEngine._commit"
            )
            self._stats.record_snapshot_published()
            if (
                self._wal is not None
                and self.durability is not None
                and self.durability.checkpoint_every > 0
                and len(self._wal) >= self.durability.checkpoint_every
            ):
                self._checkpoint_locked(published)
        self._stats.record_completed(op, time.monotonic() - started)
        return result

    # ------------------------------------------------------------------
    # Replication (log shipping)
    # ------------------------------------------------------------------
    def wal_tail(
        self,
        after_seq: int,
        *,
        snapshot_version: int | None = None,
        limit: int = 512,
    ) -> dict:
        """Ship the WAL records after ``after_seq`` as CRC-framed batches.

        This is the leader side of log-shipping replication (the
        ``/wal/tail`` endpoint).  The call first runs the handshake: the
        follower presents its applied cursor (``after_seq``) and,
        optionally, the leader ``snapshot_version`` it last synced
        against.  A cursor ahead of this log's ``last_seq`` — or a
        presented version newer than the leader's own — is *divergence*
        (the follower holds history this leader never wrote) and raises
        :class:`ReplicaDiverged`; a cursor behind :meth:`WriteAheadLog.
        horizon` means the tail was checkpointed away and raises
        :class:`SnapshotRequired` (resync via :meth:`export_sequences`).

        Otherwise returns a JSON-ready dict: ``frames`` (base64 of the
        :func:`~repro.service.wal.encode_frames` batch), ``count``,
        ``batch_last_seq`` (the cursor after applying this batch),
        ``last_seq``/``horizon`` (the leader log's live range) and
        ``snapshot_version``.  The read itself is lock-free, so shipping
        never blocks the leader's writer.
        """
        if self._wal is None:
            raise RuntimeError("engine has no durability configured")
        if after_seq < 0:
            raise ValueError(f"after_seq must be >= 0, got {after_seq}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        # Replication traffic sheds first under read pressure: shipping
        # can always resume from the same cursor once the queue drains.
        if not self._admission.permits("repair"):
            raise self._overloaded_error("wal_tail", priority="repair")
        inject("wal.ship.handshake")
        leader_seq = self._wal.last_seq
        leader_version = self.snapshot_version
        if after_seq > leader_seq:
            raise ReplicaDiverged(
                f"follower cursor {after_seq} is ahead of the leader's "
                f"last seq {leader_seq} — histories have diverged",
                leader_seq=leader_seq,
                follower_seq=after_seq,
            )
        if snapshot_version is not None and snapshot_version > leader_version:
            raise ReplicaDiverged(
                f"follower synced against snapshot version "
                f"{snapshot_version} but the leader is at "
                f"{leader_version} — histories have diverged",
                leader_seq=leader_version,
                follower_seq=snapshot_version,
            )
        horizon = self._wal.horizon()
        if after_seq < horizon:
            raise SnapshotRequired(
                f"records after seq {after_seq} were checkpointed away "
                f"(horizon is {horizon}); a snapshot resync is required",
                horizon=horizon,
                after_seq=after_seq,
            )
        inject("wal.ship.batch")
        records = self._wal.read_from(after_seq, limit=limit)
        frames = encode_frames(records)
        batch_last_seq = records[-1].seq if records else after_seq
        return {
            "frames": base64.b64encode(frames).decode("ascii"),
            "count": len(records),
            "batch_last_seq": batch_last_seq,
            "last_seq": leader_seq,
            "horizon": horizon,
            "snapshot_version": leader_version,
        }

    def apply_records(self, records: list[WalRecord]) -> int:
        """Apply a shipped batch of WAL records; returns the applied count.

        The follower side of log shipping: one :meth:`_commit` that
        replays ``records`` through the same idempotent
        :func:`~repro.service.wal.replay_into` that crash recovery uses
        (so a duplicate batch delivery — e.g. after a crash between
        applying and persisting the cursor — converges instead of
        double-applying) and logs every delivered record to this
        engine's own WAL when durable (each is re-stamped into this
        log's seq space), publishing one snapshot whose version advances
        by the batch size.
        """
        if not records and not self._closed:
            return 0  # nothing to publish (a closed engine still refuses)
        return self._commit(
            "apply",
            lambda db: replay_into(db, records),
            lambda db, applied: records,
            repair=True,
            advance=len(records),
        )

    def export_sequences(self, *, include_points: bool = True) -> dict:
        """A JSON-ready dump of stored sequences, for snapshot resync.

        Reads one snapshot reference, so the export is internally
        consistent and never blocks writers.  Returns
        ``{"snapshot_version", "dimension", "sequences": [...]}`` where
        each sequence carries ``id``, ``length`` and (with
        ``include_points``) its points, encoded by
        :func:`~repro.service.wal.encode_points`.  On a durable leader the
        returned ``snapshot_version`` equals the WAL seq covering this
        state, so a follower that restores the export can resume tailing
        from exactly that cursor.  ``include_points=False`` gives a cheap
        manifest for diffing.  Ids must be JSON-safe (str/int).
        """
        snapshot = self._snapshot
        sequences: list[dict] = []
        for sid in snapshot.database.ids():
            if not isinstance(sid, (str, int)) or isinstance(sid, bool):
                raise TypeError(
                    "only str/int sequence ids can be exported, got "
                    f"{type(sid).__name__}"
                )
            sequence = snapshot.database.sequence(sid)
            entry: dict[str, Any]
            if include_points:
                entry = {
                    "id": sid,
                    "length": len(sequence),
                    "points": encode_points(sequence.points),
                }
            else:
                entry = {"id": sid, "length": len(sequence)}
            sequences.append(entry)
        return {
            "snapshot_version": snapshot.version,
            "dimension": snapshot.database.dimension,
            "sequences": sequences,
        }

    def restore(self, sequences: list[dict]) -> int:
        """Replace the whole corpus with an exported snapshot (resync).

        The follower side of a full snapshot resync, taken when tailing
        cannot catch up (cursor behind the leader's horizon, or
        divergence).  One replacing :meth:`_commit`: a fresh database is
        built from ``sequences`` (each ``{"id", "points"}`` as produced
        by :meth:`export_sequences`; nested-list ``points`` still read)
        and, on a durable engine,
        checkpointed *before* publication — the old WAL is reset to the
        new version — so a crash right after the resync recovers the
        restored state.  Returns the number of sequences restored.
        """

        def mutate(db: SequenceDatabase) -> int:
            for entry in sequences:
                points = entry.get("points")
                if points is None:
                    raise ValueError(
                        f"cannot restore {entry.get('id')!r}: the export "
                        "carries no points (was it taken with "
                        "include_points=False?)"
                    )
                db.add(decode_points(points), sequence_id=entry["id"])
            return len(sequences)

        return self._commit("restore", mutate, None, repair=True)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The :class:`ServiceStats` block plus live engine gauges."""
        snapshot = self._snapshot
        block = self._stats.snapshot()
        block.update(
            {
                "queue_depth": self.queue_depth,
                "workers": self.workers,
                "queue_cap": self.queue_cap,
                "admission": self._admission.snapshot(),
                "snapshot_version": snapshot.version,
                "sequences": len(snapshot.database),
                "segments": snapshot.database.segment_count,
                "cache_entries": 0 if self._cache is None else len(self._cache),
                "cache_capacity": 0 if self._cache is None else self._cache.capacity,
                # The LRU's own lock-guarded counters; the "cache" block
                # above it tracks request *outcomes* as the engine saw
                # them, this one tracks the cache's internal traffic
                # (store races, evictions, write-through patches).
                "cache_lru": {} if self._cache is None else self._cache.stats(),
                "uptime_s": time.time() - self._started_at,
                "repro_version": REPRO_VERSION,
                "degraded": self.degraded,
                # Per-site swallow/translate/propagate counters from the
                # errtrace sanitizer; empty until the "errors" check has
                # been on somewhere in-process.
                "errors": error_stats(),
                "durability": {
                    "enabled": self.durable,
                    "wal_records": self.wal_records,
                    "wal_last_seq": self.wal_last_seq,
                    "wal_horizon": self.wal_horizon,
                    "checkpoints": self._checkpoints,
                    "last_checkpoint_version": self._last_checkpoint_version,
                },
            }
        )
        return block

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _search(
        self,
        op: str,
        query: SequenceLike,
        epsilon: float,
        find_intervals: bool,
        timeout: float | None,
        on_caller: bool,
    ) -> ServiceResponse:
        """Route one range search: an exact ε-cache hit stays on the caller.

        The snapshot is pinned and the query coerced and fingerprinted
        here, once; the body gets all three.  A side-effect-free peek at
        the cache picks the thread: an entry that answers exactly (the
        body's ``"hit"``) is a lookup, which runs on the calling thread
        and holds no admission slot — a hand-off would cost more than
        the hit.  Misses and refines are work and queue for the pool
        (unless ``on_caller`` forces the caller).  A write that lands
        between peek and body leaves the body on the pinned snapshot,
        where it simply misses, on the caller.
        """
        snapshot = self._snapshot
        try:
            sequence = snapshot.search._coerce(query)
        except (TypeError, ValueError) as error:
            # A malformed query fails inside the read, counted as a failure.
            def malformed() -> ServiceResponse:
                raise error

            return self._read(op, malformed, timeout, on_caller=on_caller)
        key = None
        lookup = False
        if self._cache is not None:
            key = query_fingerprint(sequence.points)
            entry = self._cache.peek(key, epsilon, snapshot.version)
            lookup = entry is not None and _answers_exactly(
                entry, epsilon, find_intervals
            )
        return self._read(
            op,
            lambda: self._do_search(
                snapshot, sequence, key, epsilon, find_intervals
            ),
            timeout,
            on_caller=on_caller,
            lookup=lookup,
        )

    def _read(
        self,
        op: str,
        body: Callable[[], _T],
        timeout: float | None,
        *,
        on_caller: bool = False,
        lookup: bool = False,
    ) -> _T:
        """The one path of a read: admit, run ``body``, wait, account.

        The body runs on a pool worker, or on the calling thread, into an
        already completed future: for ``on_caller`` (a caller that is a
        thread of this interpreter, ``LocalBackend``, where a hand-off
        only adds wake-ups under one GIL) and for a ``lookup`` (an exact
        cache hit, see :meth:`_search`).  Either way the same fault
        sites, deadline scope and counts apply, and the caller waits on
        the future the same way.  Admission guards the pool's queue, so
        a lookup, which never joins it, holds no slot and is never shed;
        every other read holds one.  Only a pooled run is a queue-wait
        sample: a run on the caller waited for nothing, and its 0 s
        would outvote the congestion signal of the reads that queue.  A
        thread cannot abandon itself at expiry: the checkpoints bound an
        on-caller body, and one that returns late raises what the pooled
        caller saw at expiry (wasted work counted).
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        if timeout is None:
            timeout = self.default_timeout
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        # The budget starts ticking before admission: a fault-injected
        # admission stall (or a real one) debits the caller's deadline
        # exactly like queue wait does.
        deadline = Deadline.after(timeout)

        def expired(how: str) -> DeadlineExceeded:
            return DeadlineExceeded(
                f"{op} {how}",
                timeout=float(timeout if timeout is not None else 0.0),
            )

        inject("engine.admission.delay")
        if not lookup and self._admission.acquire("read") is None:
            self._stats.record_overloaded()
            raise self._overloaded_error(op)
        self._stats.record_request(op)
        pooled = not (on_caller or lookup)
        admitted_at = time.monotonic()

        def run() -> _T:
            if pooled:
                # The wait between admission and this start is the
                # signal the adaptive limit regulates.
                self._admission.observe(time.monotonic() - admitted_at)
            if deadline.done():
                # Expired (or abandoned) while queued: never start it.
                raise expired(f"spent its whole {timeout}s deadline queued")
            started = time.monotonic()
            try:
                inject("engine.worker")
                with deadline_scope(deadline):
                    result = body()
            except OperationCancelled as error:
                # A checkpoint inside the Phase 2/3 loops stopped the
                # scan: budget spent, but no CPU burned into the void.
                self._stats.record_cancelled()
                raise translated(
                    error,
                    expired(f"stopped at a cancellation checkpoint ({error})"),
                    role="engine.worker",
                    site="QueryEngine._read",
                ) from error
            except DeadlineExceeded:
                raise
            except Exception:
                self._stats.record_failure(op)
                raise
            if deadline.done():
                # Completed anyway — the caller already gave up.  Work
                # that lands here is what more checkpoints would save.
                self._stats.record_wasted_work()
            self._stats.record_completed(op, time.monotonic() - started)
            return result

        future: Future[_T]
        if pooled:
            try:
                future = self._pool.submit(run)
            except RuntimeError as error:  # pool already shut down
                self._admission.release()
                raise EngineClosed("engine is closed") from error
        else:
            future = Future()
            try:
                future.set_result(run())
            except Exception as error:  # error-ok: the future carries it; result() below re-raises
                future.set_exception(error)
        if not lookup:
            future.add_done_callback(lambda _: self._admission.release())
        try:
            remaining = deadline.remaining()
            try:
                result = future.result(
                    timeout=None if remaining is None else max(0.0, remaining)
                )
            except FutureTimeoutError:
                # Not started: drop it from the queue.  Started: flip the
                # cancel latch so the next checkpoint inside the scan
                # stops the worker instead of letting it run into the void.
                future.cancel()
                deadline.cancel()
            if deadline.done():
                raise expired(f"did not finish within its {timeout}s deadline")
            return result
        except DeadlineExceeded:
            self._stats.record_deadline_exceeded()
            raise

    # ------------------------------------------------------------------
    # Overload accounting
    # ------------------------------------------------------------------
    def _overloaded_error(
        self, op: str, *, priority: str | None = None
    ) -> Overloaded:
        depth = self.queue_depth
        limit = self._admission.effective_limit()
        if priority is not None:
            message = (
                f"{op} shed: {priority}-priority traffic yields its "
                f"admission headroom under load ({depth} of limit "
                f"{limit} admitted)"
            )
        else:
            message = (
                f"{op} rejected: admission limit {limit} reached "
                f"(ceiling {self.workers} workers + {self.queue_cap} "
                f"queue slots)"
            )
        return Overloaded(
            message,
            queue_depth=depth,
            capacity=limit,
            retry_after=self._retry_after_hint(depth),
        )

    def _retry_after_hint(self, depth: int) -> float:
        """Suggested client backoff (seconds), derived from queue depth."""
        hint = 0.05 * (1.0 + depth / max(1, self.workers))
        return round(min(5.0, max(0.05, hint)), 3)

    # ------------------------------------------------------------------
    # Request bodies (each runs against one snapshot)
    # ------------------------------------------------------------------
    def _do_knn(self, query: SequenceLike, k: int) -> list[tuple[float, object]]:
        snapshot = self._snapshot
        return snapshot.search.knn(query, k)

    def _do_search(
        self,
        snapshot: _Snapshot,
        sequence: MultidimensionalSequence,
        key: str | None,
        epsilon: float,
        find_intervals: bool,
    ) -> ServiceResponse:
        reply = None
        if key is None:
            result = snapshot.search.search(
                sequence, epsilon, find_intervals=find_intervals
            )
            outcome = "off"
        else:
            result, outcome, reply = self._search_cached(
                snapshot, sequence, key, epsilon, find_intervals
            )
        self._stats.record_cache(outcome)
        self._trace(result, outcome, snapshot.version)
        return ServiceResponse(
            result=result,
            cache=outcome,
            snapshot_version=snapshot.version,
            reply=reply,
        )

    def _search_cached(
        self,
        snapshot: _Snapshot,
        sequence: MultidimensionalSequence,
        key: str,
        epsilon: float,
        find_intervals: bool,
    ) -> tuple[SearchResult, str, ReplySlot | None]:
        if self._cache is None:
            raise RuntimeError("_search_cached called with caching disabled")
        entry = self._cache.lookup(key, epsilon, snapshot.version)
        if entry is not None:
            if _answers_exactly(entry, epsilon, find_intervals):
                result = self._result_from_entry(
                    entry, snapshot, epsilon, find_intervals
                )
                self._check_served(snapshot, result, sequence, epsilon)
                return result, "hit", entry.reply
            result = self._refine_entry(
                entry, snapshot, epsilon, find_intervals
            )
            self._check_served(snapshot, result, sequence, epsilon)
            return result, "refine", None
        result = snapshot.search.search(
            sequence, epsilon, find_intervals=find_intervals
        )
        self._cache.store(
            key,
            CacheEntry(
                query_partition=result.query_partition,
                epsilon=epsilon,
                find_intervals=find_intervals,
                candidates=set(result.candidates),
                answers=set(result.answers),
                intervals=dict(result.solution_intervals),
            ),
            snapshot.version,
        )
        return result, "miss", None

    @staticmethod
    def _result_from_entry(
        entry: CacheEntry,
        snapshot: _Snapshot,
        epsilon: float,
        find_intervals: bool,
    ) -> SearchResult:
        """Materialise a cached entry as a fresh, caller-owned result.

        The database-order walk over every stored id runs once per entry:
        its outcome is kept in the entry's reply slot.  It stays right for
        as long as the entry is in the cache: a write that leaves the
        entry in place touched no id in its sets, so their database order
        did not change.
        """
        slot = entry.reply
        if slot.order is None:
            ordered = tuple(
                sid for sid in snapshot.database.ids() if sid in entry.candidates
            )
            slot.order = (
                ordered,
                tuple(sid for sid in ordered if sid in entry.answers),
            )
        candidates, answers = slot.order
        intervals: dict[object, IntervalSet] = {}
        if find_intervals:
            intervals = {sid: entry.intervals[sid] for sid in answers}
        return SearchResult(
            epsilon=epsilon,
            query_partition=entry.query_partition,
            candidates=list(candidates),
            answers=list(answers),
            solution_intervals=intervals,
            stats=SearchStats(query_segments=len(entry.query_partition)),
        )

    @staticmethod
    def _refine_entry(
        entry: CacheEntry,
        snapshot: _Snapshot,
        epsilon: float,
        find_intervals: bool,
    ) -> SearchResult:
        """Phase 3 at a tighter ε over the cached candidate set.

        Exact by monotonicity: every Phase-2 candidate at ε is one at
        ε' >= ε, so filtering the cached candidates by their ``min Dmbr``
        reproduces the index probe — without touching the index or
        Phase 1.  ``Dnorm`` (Phase 3) is re-run only for cached *answers*:
        the answer set also shrinks with ε, so a sequence that failed
        Phase 3 at ε' can never pass it at ε <= ε' and keeps its cached
        verdict for free.
        """
        search = snapshot.search
        database = snapshot.database
        stats = SearchStats(query_segments=len(entry.query_partition))
        checkpoint("engine.refine")
        candidates = search.candidates_within(
            entry.query_partition,
            [sid for sid in entry.candidates if sid in database],
            epsilon,
        )
        examined = [sid for sid in candidates if sid in entry.answers]
        stats.dnorm_evaluations = sum(
            len(database.partition(sid)) for sid in examined
        )
        intervals = search.match_candidates(
            entry.query_partition,
            examined,
            epsilon,
            find_intervals=find_intervals,
        )
        answers = list(intervals)
        stats.candidates_after_dmbr = len(candidates)
        stats.answers_after_dnorm = len(answers)
        return SearchResult(
            epsilon=epsilon,
            query_partition=entry.query_partition,
            candidates=candidates,
            answers=answers,
            solution_intervals=intervals if find_intervals else {},
            stats=stats,
        )

    @staticmethod
    def _check_served(
        snapshot: _Snapshot,
        result: SearchResult,
        sequence: MultidimensionalSequence,
        epsilon: float,
    ) -> None:
        """Run the search contract validator on a cache-served result.

        Results produced by ``SimilaritySearch.search`` are validated by
        its own ``lower_bounds`` decorator; results assembled from the
        cache re-use the same validator here, so ``REPRO_CHECK_CONTRACTS``
        covers every serving path.
        """
        if not CONTRACTS.on:
            return
        validator: Any = getattr(
            SimilaritySearch.search, "__contract_validator__", None
        )
        if validator is not None:
            validator(result, snapshot.search, sequence, epsilon)

    def _trace(
        self, result: SearchResult, outcome: str, version: int
    ) -> None:
        if self._trace_path is None:
            return
        record = search_record(result, timestamp=time.time())
        record.update(
            {"op": "search", "cache": outcome, "snapshot_version": version}
        )
        line = json.dumps(record) + "\n"
        with self._trace_lock:
            with open(self._trace_path, "a", encoding="utf-8") as handle:
                handle.write(line)
