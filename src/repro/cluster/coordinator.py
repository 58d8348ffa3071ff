"""The cluster coordinator: scatter-gather with failover and hedging.

One :class:`ClusterCoordinator` fronts N backends (local engines or
remote ``repro serve`` processes behind :class:`ServiceClient`), shards
the corpus across them by deterministic hash placement
(:mod:`repro.cluster.router`), replicates every shard R ways, and makes
the paper's operations cluster-wide:

* **Reads** (``search`` / ``knn`` / ``range_query``) scatter one request
  per shard to the healthiest replica, failing over replica-by-replica,
  and merge exactly (:mod:`repro.cluster.merge`) — a complete scatter is
  bit-identical to a single node over the union corpus, preserving the
  no-false-dismissal guarantee of Lemmas 1-3 across the distribution
  seams.
* **One loop, one pool**: a read is one event loop on the *calling*
  thread (``_scatter_read``), and every attempt — a write's replica calls
  too — starts in ``_dispatch``.  A backend declaring ``in_process =
  True`` (``LocalBackend``) is called right there: replicas inside one
  interpreter share its GIL, so a thread hand-off buys wake-ups, not
  parallelism (7-8 ms a query with them, 3 ms without; the measured
  table is in ``docs/cluster.md``).  Anything else goes to the one pool.
* **Hedging** cuts tail latency: when a shard's first attempt exceeds the
  recent latency quantile (:class:`HedgePolicy`), a second replica is
  asked concurrently and the first answer wins.  Losing hedges and
  stragglers are cancelled where possible (queued sub-calls are dropped;
  running ones at least stop being waited on).  A hedge races two
  *nodes*: an in-process attempt is over before the loop waits, so its
  timer never arms and such a cluster is a plain loop over its shards.
* **Request budgets**: a read's ``timeout`` is a whole-request budget
  (:class:`~repro.util.budget.Deadline`), not a per-hop constant.  Every
  sub-call is dispatched with the budget *remaining at dispatch time* —
  failover attempts and hedges inherit what their predecessors left, the
  hedge delay is capped by it, no sub-call is dispatched below
  ``min_subcall_budget``, and the loop's own waits are capped too: a
  backend that ignores its ``timeout`` ends the read as
  ``DeadlineExceeded``, never a hang or a silent partial.  (An in-process
  attempt cannot be abandoned by its own thread: the engine's Phase 2/3
  checkpoints, then its late-completion rule, bound it.)
* **Partial-result degradation** is typed, not exceptional: when *every*
  replica of a shard is unavailable, ``search`` returns
  ``complete=False`` plus the missing shard list — sound answers, no
  false positives, possibly missing matches from the dead shards.
  ``knn`` fails closed by default (:class:`~repro.service.errors.
  ShardUnavailable`) because "the global k nearest" is unverifiable with
  a shard missing; pass ``fail_closed=False`` to take the typed partial
  result instead.
* **Writes** (``insert`` / ``append`` / ``remove``) go to all replicas of
  the owning shard with best-effort quorum (majority acks).  A replica
  that misses one, or lags and cannot catch up first, gets it in the
  **repair journal** (:mod:`repro.cluster.repair`), an append stamped
  with an acking replica's ``length``; its
  :class:`~repro.service.follower.WalFollower` replays the journal by
  sequence through its ``apply_records``, never re-sending a call.
  Overflow (``max_repair_ops``) and divergence end in a **snapshot
  resync** from caught-up peers; ``journal_dir`` makes it crash-durable.
* **Bounded-staleness reads**: WAL-shipping followers
  (:class:`~repro.service.follower.WalFollower` replicas registered via
  ``followers=[(backend, leader_index), ...]``) serve as extra read
  capacity for their leader's shards — but only while their last probed
  replication lag is within ``max_lag_records``, so a stale follower can
  never silently answer a read that demands fresher data.

Health is tracked per backend (:mod:`repro.cluster.health`) from request
outcomes and explicit :meth:`ClusterCoordinator.probe` sweeps of
``/healthz`` — which also surface each backend's durability lag
(``wal_records`` since its last checkpoint) and, for followers, the
replication lag that gates their read eligibility.
"""

from __future__ import annotations

import math
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.backends import Backend
from repro.cluster.health import HealthTracker
from repro.cluster.merge import MergedSearch, merge_knn, merge_search_payloads
from repro.cluster.repair import DEFAULT_MAX_REPAIR_OPS, JournalView, RepairJournal
from repro.cluster.router import ShardRouter, canonical_id
from repro.service.client import TRANSPORT_ERRORS
from repro.service.errors import (
    DeadlineExceeded,
    EngineClosed,
    RepairOverflow,
    ServiceError,
    ShardUnavailable,
    WriteQuorumFailed,
)
from repro.service.faults import inject
from repro.service.follower import WalFollower
from repro.service.stats import LatencyWindow
from repro.service.wal import WalRecord, decode_points
from repro.util.budget import Deadline
from repro.util.faults import FaultInjected
from repro.util.sync import TracedLock
from repro.util.validation import check_threshold
from repro.util.version import REPRO_VERSION

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = [
    "ClusterCoordinator",
    "ClusterKnnResult",
    "ClusterSearchResult",
    "HedgePolicy",
]

#: Failures worth trying the next replica for.  Deterministic caller
#: errors (ValueError/KeyError/TypeError) are *not* here: every replica
#: would answer them identically, so they propagate immediately.
_FAILOVER_ERRORS = (*TRANSPORT_ERRORS, ServiceError, FaultInjected)

#: Failures that count against a backend's health.  ``Overloaded`` and
#: ``DeadlineExceeded`` prove the backend reachable and are excluded.
_HEALTH_FAILURES = (*TRANSPORT_ERRORS, EngineClosed, FaultInjected)

#: Sort rank for ids the coordinator never saw an insert for.
_UNKNOWN_ORDER = 1 << 62


@dataclass(frozen=True)
class HedgePolicy:
    """When to send a backup request for a slow shard.

    The hedge delay is the ``quantile`` of recent backend-call latencies,
    clamped to ``[min_delay, max_delay]``.  ``hedge=None`` on the
    coordinator turns hedging off.
    """

    quantile: float = 0.95
    min_delay: float = 0.02
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {self.quantile}"
            )
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError(
                "delays must satisfy 0 <= min_delay <= max_delay, got "
                f"[{self.min_delay}, {self.max_delay}]"
            )

    def delay(
        self, window: LatencyWindow, *, remaining: float | None = None
    ) -> float:
        """The seconds to wait before hedging one shard's request.

        ``remaining`` is the request's remaining budget: the delay is
        clamped so a hedge can never be scheduled to fire after the
        budget is already spent (it would hedge into the void).
        """
        base = window.quantile(self.quantile) if len(window) else 0.0
        base = min(self.max_delay, max(self.min_delay, base))
        if remaining is not None:
            base = min(base, max(0.0, remaining))
        return base


@dataclass(frozen=True)
class ClusterSearchResult:
    """A merged range-search answer plus its completeness contract.

    With ``complete=True`` the result is exactly what a single node over
    the union corpus returns — no false dismissals (Lemmas 1-3) and no
    false positives.  With ``complete=False`` the shards listed in
    ``missing_shards`` contributed nothing: every reported answer is
    still exact (no false positives), but matches stored on the missing
    shards may be absent, so the no-false-dismissal guarantee holds only
    for the shards that responded.
    """

    epsilon: float
    answers: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    #: Solution intervals keyed by ``str(sequence_id)`` (transport form).
    intervals: dict = field(default_factory=dict)
    complete: bool = True
    missing_shards: tuple[int, ...] = ()
    stats: dict = field(default_factory=dict)
    snapshot_versions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClusterKnnResult:
    """A merged kNN answer plus its completeness contract."""

    neighbors: list[tuple[float, object]] = field(default_factory=list)
    complete: bool = True
    missing_shards: tuple[int, ...] = ()


@dataclass
class _ShardRead:
    """One shard's progress through a scatter (calling thread only)."""

    shard: int
    order: list[int]  # node indices to try: replicas, then fresh followers
    launched: int = 0
    inflight: int = 0
    hedged: bool = False  # at most one hedge per shard
    hedge_due: float = math.inf  # monotonic; inf while no timer is armed


class ClusterCoordinator:
    """Scatter-gather serving over sharded, replicated backends.

    Parameters
    ----------
    backends:
        The backend pool, in a fixed order (placement is positional).
        Anything satisfying :class:`~repro.cluster.backends.Backend`:
        :class:`~repro.service.client.ServiceClient` instances for a real
        cluster, :class:`~repro.cluster.backends.LocalBackend` in tests.
    num_shards:
        Corpus shards; defaults to the backend count.
    replication:
        Replicas per shard (distinct backends).
    health:
        Injectable :class:`HealthTracker` (deterministic clocks in tests).
    hedge:
        The :class:`HedgePolicy`; ``None`` disables hedging.
    write_quorum:
        Acks required before a write is reported written; defaults to a
        majority of ``replication``.  Failed replicas are queued for
        read-repair either way.
    probe_interval:
        Seconds between automatic recovery probes of a down backend
        (also the default for an injected ``health`` tracker).
    journal_dir:
        Directory for the durable repair journal and the catch-up
        cursors; ``None`` (the default) keeps both in memory.
    max_repair_ops:
        Per-backend repair backlog bound; overflow drops the backlog and
        moves the backend to a snapshot resync.
    followers:
        ``(backend, leader_index)`` pairs: WAL-shipping follower replicas
        of ``backends[leader_index]``.  Followers take no writes and own
        no shards; they are extra read capacity for their leader's
        shards, gated by ``max_lag_records``.
    max_lag_records:
        Staleness bound for follower reads: a follower is read-eligible
        only while its last probed replication lag is at most this many
        records.  ``None`` (the default) keeps followers probe-only —
        tracked but never routed to.
    min_subcall_budget:
        Dispatch floor (seconds): a failover or hedge sub-call whose
        remaining request budget is below this is never sent — its
        answer could only arrive after the caller's deadline.
    """

    def __init__(
        self,
        backends: list[Backend],
        *,
        num_shards: int | None = None,
        replication: int = 1,
        health: HealthTracker | None = None,
        hedge: HedgePolicy | None = HedgePolicy(),
        write_quorum: int | None = None,
        probe_interval: float = 5.0,
        journal_dir: str | Path | None = None,
        max_repair_ops: int = DEFAULT_MAX_REPAIR_OPS,
        followers: list[tuple[Backend, int]] | None = None,
        max_lag_records: int | None = None,
        min_subcall_budget: float = 0.005,
    ) -> None:
        if not backends:
            raise ValueError("a cluster needs at least one backend")
        self.backends = list(backends)
        self.followers = list(followers or [])
        for position, (_, leader_index) in enumerate(self.followers):
            if not 0 <= leader_index < len(self.backends):
                raise ValueError(
                    f"follower {position} names leader {leader_index}, "
                    f"backends are [0, {len(self.backends)})"
                )
        if max_lag_records is not None and max_lag_records < 0:
            raise ValueError(
                f"max_lag_records must be >= 0 or None, got {max_lag_records}"
            )
        self.max_lag_records = max_lag_records
        if min_subcall_budget < 0:
            raise ValueError(
                f"min_subcall_budget must be >= 0, got {min_subcall_budget}"
            )
        self.min_subcall_budget = min_subcall_budget
        # The node space routed by health / _call_backend: writable shard
        # backends first, then read-only followers.
        self._nodes: list[Backend] = [
            *self.backends,
            *(backend for backend, _ in self.followers),
        ]
        self.router = ShardRouter(
            num_backends=len(self.backends),
            num_shards=num_shards,
            replication=replication,
        )
        self.health = health or HealthTracker(
            len(self._nodes), probe_interval=probe_interval
        )
        if self.health.num_backends != len(self._nodes):
            raise ValueError(
                f"health tracker covers {self.health.num_backends} backends, "
                f"cluster has {len(self._nodes)} "
                "(shard backends plus followers)"
            )
        self.hedge = hedge
        if write_quorum is None:
            write_quorum = replication // 2 + 1
        if not 1 <= write_quorum <= replication:
            raise ValueError(
                f"write_quorum must be in [1, {replication}] (the "
                f"replication factor), got {write_quorum}"
            )
        self.write_quorum = write_quorum
        self._latency = LatencyWindow(1024)
        # Guards the latency window only.
        self._latency_lock = TracedLock("coordinator.latency")
        # The one pool: attempts on remote backends and repair drains.
        # In-process attempts never touch it (see ``_dispatch``).
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._nodes)),
            thread_name_prefix="repro-cluster-io",
        )
        self._order: dict[str, int] = {}
        self._order_lock = TracedLock("coordinator.order")
        # Auto-assigned ids carry a per-coordinator random token so they
        # cannot collide with ids minted by a previous (or concurrent)
        # coordinator over the same backends, nor with user ids.
        self._auto_token = uuid.uuid4().hex[:8]
        self._auto_id = 0
        self.journal = RepairJournal(
            len(self.backends), directory=journal_dir, max_ops=max_repair_ops
        )
        # One follower per backend: the only way a backend catches up.
        self._followers = [
            WalFollower(
                backend,
                JournalView(self.journal, i, lambda i=i: self._peer_export(i)),
                cursor_path=self.journal.cursor_path(i),
            )
            for i, backend in enumerate(self.backends)
        ]
        #: Last probed replication lag per follower *node* index; a
        #: follower missing here has never probed healthy and is
        #: read-ineligible regardless of ``max_lag_records``.
        self._follower_lag: dict[int, int] = {}
        self._lag_lock = TracedLock("coordinator.lag")
        # One drain may run per backend at a time: probe() drains
        # synchronously while _call_backend submits drains to the pool
        # on down -> up transitions, and two polls of one follower would
        # race on its cursor.
        self._drain_locks = [
            TracedLock(f"coordinator.drain.{index}")
            for index in range(len(self.backends))
        ]
        self._counters_lock = TracedLock("coordinator.counters")
        self._counters: dict[str, int] = {
            "requests": 0,
            "backend_calls": 0,
            "backend_failures": 0,
            "failovers": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "shard_misses": 0,
            "partial_results": 0,
            "repairs_queued": 0,
            "repairs_replayed": 0,
            "repairs_overflowed": 0,
            "resyncs": 0,
            "follower_reads": 0,
            "divergent_writes": 0,
            "quorum_failures": 0,
            "probes": 0,
            "stragglers_cancelled": 0,
            "budget_floor_skips": 0,
        }
        self._started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (backends stay up; not owned)."""
        if self._closed:
            return
        self._closed = True  # thread-safe: monotonic latch, races are benign
        self._pool.shutdown(wait=False)
        self.journal.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Corpus order (reproduces single-node insertion order on merge)
    # ------------------------------------------------------------------
    def seed_order(self, sequence_ids: list[object]) -> None:
        """Register pre-loaded corpus ids in their single-node order."""
        for sequence_id in sequence_ids:
            self._note_order(sequence_id)

    def _note_order(self, sequence_id: object) -> None:
        key = canonical_id(sequence_id)
        with self._order_lock:
            if key not in self._order:
                self._order[key] = len(self._order)

    def _order_key(self, sequence_id: object) -> tuple[int, str]:
        key = canonical_id(sequence_id)
        with self._order_lock:
            return (self._order.get(key, _UNKNOWN_ORDER), key)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def search(
        self,
        points: "npt.ArrayLike",
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
        fail_closed: bool = False,
    ) -> ClusterSearchResult:
        """Cluster-wide range search with typed partial degradation.

        ``timeout`` is the *whole-request* budget: every shard sub-call
        (first attempt, failover, hedge) is dispatched with whatever of
        it remains at that moment.
        """
        epsilon = check_threshold(epsilon)
        query = np.asarray(points, dtype=np.float64)
        payloads, missing = self._scatter_read(
            "search",
            lambda backend, budget: backend.search(
                query, epsilon, find_intervals=find_intervals, timeout=budget
            ),
            timeout,
            fail_closed,
        )
        merged: MergedSearch = merge_search_payloads(
            payloads, order=self._order_key
        )
        return ClusterSearchResult(
            epsilon=epsilon,
            answers=merged.answers,
            candidates=merged.candidates,
            intervals=merged.intervals,
            complete=not missing,
            missing_shards=tuple(missing),
            stats=merged.stats,
            snapshot_versions=merged.snapshot_versions,
        )

    def range_query(
        self,
        points: "npt.ArrayLike",
        epsilon: float,
        *,
        timeout: float | None = None,
        fail_closed: bool = False,
    ) -> ClusterSearchResult:
        """Matching ids only (no solution intervals)."""
        epsilon = check_threshold(epsilon)
        return self.search(
            points,
            epsilon,
            find_intervals=False,
            timeout=timeout,
            fail_closed=fail_closed,
        )

    def knn(
        self,
        points: "npt.ArrayLike",
        k: int,
        *,
        timeout: float | None = None,
        fail_closed: bool = True,
    ) -> ClusterKnnResult:
        """The global ``k`` nearest sequences (exact heap merge).

        Fails closed by default: a missing shard could hold a nearer
        neighbor than any reported one, so the global contract cannot be
        certified and :class:`ShardUnavailable` is raised.  With
        ``fail_closed=False`` the merged partial answer is returned with
        ``complete=False`` — every reported distance is exact, but the
        ranking is only over the shards that responded.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(points, dtype=np.float64)
        payloads, missing = self._scatter_read(
            "knn",
            lambda backend, budget: backend.knn(query, k, timeout=budget),
            timeout,
            fail_closed,
        )
        neighbors = merge_knn(
            list(payloads.values()), k, order=self._order_key
        )
        return ClusterKnnResult(
            neighbors=neighbors,
            complete=not missing,
            missing_shards=tuple(missing),
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(
        self, points: "npt.ArrayLike", sequence_id: object = None
    ) -> object:
        """Insert a sequence on every replica of its shard.

        The coordinator assigns an id when none is given — placement is a
        function of the id, so it must exist before routing.  Assigned
        ids are coordinator-scoped: they embed a per-coordinator random
        token (``auto-<token>-<n>``), so restarting the coordinator or
        running two coordinators over the same backends never reissues
        an id already stored.
        """
        if sequence_id is None:
            with self._order_lock:
                sequence_id = f"auto-{self._auto_token}-{self._auto_id}"
                self._auto_id += 1
        self._replicated_write(
            WalRecord("insert", sequence_id, points=decode_points(points))
        )
        return sequence_id

    def append(self, sequence_id: object, points: "npt.ArrayLike") -> object:
        """Extend a stored sequence on every replica of its shard."""
        self._replicated_write(
            WalRecord("append", sequence_id, points=decode_points(points))
        )
        return sequence_id

    def remove(self, sequence_id: object) -> object:
        """Remove a sequence from every replica of its shard."""
        self._replicated_write(WalRecord("remove", sequence_id))
        return sequence_id

    @staticmethod
    def _send_write(backend: Backend, record: WalRecord) -> Any:
        """The live fan-out's one record -> backend call (catch-up replays
        by sequence instead).  The record holds the caller's rows as a
        read-only float64 array: a ``LocalBackend`` takes it as is, a
        ``ServiceClient`` encodes it once per replica.
        """
        if record.op == "insert":
            return backend.insert(record.points, sequence_id=record.sequence_id)
        if record.op == "append":
            return backend.append(record.sequence_id, record.points)
        return backend.remove(record.sequence_id)

    def _replicated_write(self, record: WalRecord) -> None:
        op, sequence_id = record.op, record.sequence_id
        self._count("requests")
        placement = self.router.placement(sequence_id)
        self._note_order(sequence_id)
        futures: dict[Future, int] = {}
        skipped: list[int] = []
        usable, lagging = self.health.usable, self.journal.lagging
        for backend_index in sorted(placement.replicas, key=self._in_process):
            # Sent live ahead of a backlog, the write could land before an
            # earlier one: catch the replica up first, or queue it behind.
            if usable(backend_index) and lagging(backend_index):
                self._drain_repairs(backend_index)
            if usable(backend_index) and not lagging(backend_index):
                future = self._dispatch(
                    backend_index, lambda b, _budget: self._send_write(b, record)
                )
                futures[future] = backend_index
            else:
                skipped.append(backend_index)
        replies: dict[int, Any] = {}
        caller_error: Exception | None = None
        missed: list[int] = []
        rejected: list[int] = []
        for future, backend_index in futures.items():
            try:
                replies[backend_index] = future.result()
            except _FAILOVER_ERRORS:
                missed.append(backend_index)
            except (KeyError, TypeError, ValueError) as error:
                # Deterministic rejection (duplicate id, unknown id, bad
                # payload).  Whether this is the caller's fault depends
                # on the other replicas: see below.
                rejected.append(backend_index)
                if caller_error is None:
                    caller_error = error
        # At least one replica applied the write, so one that rejected
        # it — or reports another length — has diverged: replica damage,
        # not a caller error.  It resyncs.
        diverged = list(rejected) if replies else []
        if op == "append" and replies:
            lengths = {i: int(reply["length"]) for i, reply in replies.items()}
            record = replace(record, length=next(iter(lengths.values())))
            diverged += [i for i, n in lengths.items() if n != record.length]
        if diverged:
            self._count("divergent_writes", len(diverged))
        if op == "append" and not replies:
            # No acked length, so no idempotent replay: a replica the
            # append may have reached resyncs, one never sent it needs
            # nothing.  (Inserts and removes replay idempotently by id.)
            queued, resync = [], missed
        else:
            queued, resync = [*skipped, *missed], diverged
        for backend_index in queued:
            self._queue_repair(backend_index, record)
        for backend_index in resync:
            self._queue_repair(backend_index, record, resync=True)
        if not replies and caller_error is not None:
            # The replicas that answered agree the request is bad.
            raise caller_error
        if len(replies) < self.write_quorum:
            self._count("quorum_failures")
            raise WriteQuorumFailed(
                f"{op} of {sequence_id!r} reached {len(replies)} of "
                f"{len(placement.replicas)} replicas "
                f"(quorum {self.write_quorum}); missed replicas queued "
                "for read-repair",
                shard=placement.shard,
                acks=len(replies),
                required=self.write_quorum,
            )

    # ------------------------------------------------------------------
    # Read-repair
    # ------------------------------------------------------------------
    def _queue_repair(
        self, index: int, record: WalRecord, *, resync: bool = False
    ) -> None:
        try:
            self.journal.queue(replace(record, replica=index), resync=resync)
        except RepairOverflow:
            # The journal dropped the backlog and moved the horizon: the
            # backend resyncs.  The write already reached its quorum, so
            # overflow is counted, not raised to the caller.
            self._count("repairs_overflowed")
            return
        self._count("repairs_queued")

    def repair_pending(self) -> dict[int, int]:
        """Backlogged repair records per backend (non-empty only)."""
        return self.journal.pending()

    def _drain_repairs(self, backend_index: int) -> int:
        """Poll a backend's follower until a batch comes back empty.

        Returns the records replayed.  At most one drain runs per backend
        at a time: a concurrent one (a probe sweep racing a down -> up
        transition seen by a regular request) returns 0 at once.
        """
        lock = self._drain_locks[backend_index]
        if not lock.acquire(blocking=False):
            return 0
        follower = self._followers[backend_index]
        replayed = 0
        try:
            while True:
                try:
                    inject("cluster.read-repair")
                    try:
                        summary = follower.poll()
                    except (KeyError, TypeError, ValueError):
                        # The backend refused a replay (an append whose
                        # target it lacks): it diverged, so only a
                        # snapshot converges it.
                        summary = follower.resync()
                except ShardUnavailable:
                    return replayed  # no caught-up donor yet; retried next probe
                except _FAILOVER_ERRORS:
                    self.health.record_failure(backend_index)
                    return replayed
                if summary["resync"]:
                    self._count("resyncs")
                elif summary["count"] == 0:
                    return replayed
                else:
                    replayed += summary["count"]
                    self._count("repairs_replayed", summary["count"])
        finally:
            lock.release()

    def _peer_export(self, backend_index: int) -> list[dict]:
        """The sequences a resyncing backend should hold, from its peers.

        Each shard it hosts comes from a usable peer with nothing to
        catch up on, or — when every peer awaits a snapshot too, as with
        ``replication=1`` — from the backend itself.  Raises
        :class:`ShardUnavailable` while no such peer is reachable.
        """
        donors: dict[int, int] = {}
        resync = self.journal.resync_pending()
        for shard in range(self.router.num_shards):
            replicas = self.router.replicas_of(shard)
            if backend_index not in replicas:
                continue
            peers = [i for i in replicas if i != backend_index and i not in resync]
            ready = (
                i
                for i in peers
                if self.health.usable(i) and not self.journal.lagging(i)
            )
            donor = next(ready, None if peers else backend_index)
            if donor is None:
                raise ShardUnavailable(
                    f"no caught-up replica of shard {shard} can donate a "
                    f"snapshot to backend {backend_index}",
                    missing_shards=[shard],
                )
            donors[shard] = donor
        sequences: dict[str, dict] = {}
        for donor in sorted(set(donors.values())):
            try:
                export = self.backends[donor].export_sequences()
            except _FAILOVER_ERRORS as error:
                self.health.record_failure(donor)
                raise ShardUnavailable(
                    f"snapshot donor {donor} failed: {error}",
                    missing_shards=[s for s, d in donors.items() if d == donor],
                ) from error
            for entry in export["sequences"]:
                if donors.get(self.router.placement(entry["id"]).shard) == donor:
                    sequences[canonical_id(entry["id"])] = entry
        return list(sequences.values())

    def probe(self) -> dict[int, bool]:
        """Probe every node's ``/healthz``; drain repairs on recovery.

        Returns ``node index -> probe succeeded`` (shard backends first,
        then followers).  A follower probe also refreshes the replication
        lag that gates its read eligibility.  Run this on a timer in a
        long-lived deployment (``repro cluster-serve`` does) or
        explicitly in tests.
        """
        outcomes: dict[int, bool] = {}
        for index, backend in enumerate(self._nodes):
            self._count("probes")
            inject("cluster.health.probe")
            inject(f"cluster.backend.{index}.probe")
            try:
                info = backend.healthz()
            except (*_FAILOVER_ERRORS, KeyError, TypeError, ValueError):
                self.health.record_probe(index, None)
                outcomes[index] = False
                if index >= len(self.backends):
                    with self._lag_lock:
                        self._follower_lag.pop(index, None)
            else:
                self.health.record_probe(index, info)
                outcomes[index] = True
                if index >= len(self.backends):
                    self._note_follower_lag(index, info)
        # Catch up every reachable backend with missed writes — covering
        # fresh down -> up recoveries, backlogs left behind by an earlier
        # drain that failed halfway, and pending snapshot resyncs (last,
        # so the backlogs their donors replay come first).
        resync = self.journal.resync_pending()
        lagging = [
            index
            for index in range(len(self.backends))
            if outcomes.get(index) and self.journal.lagging(index)
        ]
        for index in sorted(lagging, key=resync.__contains__):
            self._drain_repairs(index)
        return outcomes

    def _note_follower_lag(self, node_index: int, info: dict) -> None:
        """Record a follower's probed replication lag (or forget it)."""
        replication = info.get("replication")
        lag = (
            replication.get("lag")
            if isinstance(replication, dict)
            else None
        )
        with self._lag_lock:
            if (
                isinstance(lag, int)
                and not isinstance(lag, bool)
                and lag >= 0
            ):
                self._follower_lag[node_index] = lag
            else:
                self._follower_lag.pop(node_index, None)

    # ------------------------------------------------------------------
    # Scatter plumbing
    # ------------------------------------------------------------------
    def _scatter_read(
        self,
        op: str,
        call: Callable[[Backend, float | None], Any],
        timeout: float | None,
        fail_closed: bool,
    ) -> tuple[dict[int, Any], list[int]]:
        """One read over every shard: the event loop, on this thread.

        ``owed`` holds the shards owed an attempt — their first, a
        failover, a hedge — which exists only once its predecessor failed
        or its timer fired: nothing parks per shard.  When the budget
        runs out the loop first makes the attempts it owes (tripping the
        dispatch floor), then drops what is pending and raises.
        """
        self._count("requests")
        deadline = Deadline.after(timeout)
        expiry = math.inf if deadline.expires_at is None else deadline.expires_at
        floor = self.min_subcall_budget
        hedge = self.hedge
        hedge_delay: float | None = None
        shards = range(self.router.num_shards)
        payloads: dict[int, Any] = {}
        pending: dict[Future, tuple[_ShardRead, int]] = {}
        stranded = False  # a shard with nothing in flight fell to the floor
        owed: list[_ShardRead] = []
        health = self.health
        for shard in shards:
            replicas = self.router.replicas_of(shard)
            order = [i for i in replicas if health.usable(i) or health.probe_due(i)]
            # Fresh-enough followers ride at the end: extra failover / hedge
            # capacity, never preferred over a writable replica.
            order.extend(self._follower_candidates(replicas))
            if order:
                owed.append(_ShardRead(shard, order))
        # Remote first attempts go out before any in-process one runs,
        # so wire time overlaps local compute.
        owed.sort(key=lambda read: self._in_process(read.order[0]))
        try:
            while True:
                while owed:
                    read = owed.pop(0)
                    if read.launched == len(read.order):
                        continue  # every candidate tried
                    remaining = deadline.remaining()
                    if remaining is not None and remaining < floor:
                        # The dispatch floor: a sub-call with this little
                        # budget could only answer after the deadline.
                        self._count("budget_floor_skips")
                        stranded = stranded or not read.inflight
                        continue
                    if read.launched and not read.inflight:
                        self._count("failovers")
                    node = read.order[read.launched]
                    read.launched += 1
                    read.inflight += 1
                    future = self._dispatch(node, call, deadline)
                    pending[future] = (read, node)
                    read.hedge_due = math.inf
                    if (
                        hedge is not None
                        and not read.hedged
                        and read.launched < len(read.order)
                        and not future.done()
                    ):
                        if hedge_delay is None:  # once per scatter: it sorts
                            with self._latency_lock:
                                hedge_delay = hedge.delay(self._latency)
                        # Clamped: never fires after the budget is spent.
                        read.hedge_due = min(time.monotonic() + hedge_delay, expiry)
                if stranded or (pending and deadline.expired()):
                    raise DeadlineExceeded(
                        f"{op}: remaining budget fell below the {floor}s "
                        f"dispatch floor with {len(pending)} attempt(s) unanswered",
                        timeout=float(timeout or 0.0),
                    )
                if not pending:
                    break
                due = min(expiry, *(read.hedge_due for read, _ in pending.values()))
                patience = None if due == math.inf else due - time.monotonic()
                done, _ = wait(pending, patience, return_when=FIRST_COMPLETED)
                for future in done:
                    if future not in pending:
                        continue  # a loser dropped this turn
                    read, node = pending.pop(future)
                    read.inflight -= 1
                    try:
                        payload = future.result()
                    except _FAILOVER_ERRORS:
                        # A hedge in flight is the failover, else the next
                        # replica is; any other error propagates.
                        if read.inflight:
                            self._count("failovers")
                        else:
                            owed.append(read)
                        continue
                    payloads[read.shard] = payload
                    if read.hedged and node != read.order[0]:
                        self._count("hedge_wins")
                    if node >= len(self.backends):
                        self._count("follower_reads")
                    for loser in [f for f, (r, _) in pending.items() if r is read]:
                        del pending[loser]
                        if loser.cancel():  # queued: it never runs
                            self._count("stragglers_cancelled")
                now = time.monotonic()
                for read, _ in pending.values():
                    if read.hedge_due <= now:
                        # The hedge timer fired before the primary answered.
                        read.hedged, read.hedge_due = True, math.inf
                        self._count("hedges")
                        owed.append(read)
        finally:
            # Left by a raise; running stragglers finish in the background.
            for future in pending:
                if future.cancel():
                    self._count("stragglers_cancelled")
        missing = [shard for shard in shards if shard not in payloads]
        if missing:
            # Every candidate of these shards failed (or none was usable).
            self._count("shard_misses", len(missing))
            if fail_closed:
                raise ShardUnavailable(
                    f"{op} lost shard(s) {missing}: every replica unavailable",
                    missing_shards=missing,
                )
            self._count("partial_results")
        return payloads, missing

    def _follower_candidates(self, replicas: tuple[int, ...]) -> list[int]:
        """Follower node indices read-eligible for a shard's replicas.

        A follower qualifies when its leader hosts the shard, its last
        probe answered with a replication lag within ``max_lag_records``,
        and its health state allows routing.  With ``max_lag_records``
        unset no follower ever qualifies.
        """
        if self.max_lag_records is None or not self.followers:
            return []
        with self._lag_lock:
            lags = dict(self._follower_lag)
        candidates: list[int] = []
        for position, (_, leader_index) in enumerate(self.followers):
            node_index = len(self.backends) + position
            if leader_index not in replicas:
                continue
            lag = lags.get(node_index)
            if lag is None or lag > self.max_lag_records:
                continue
            if self.health.usable(node_index):
                candidates.append(node_index)
        return candidates

    def _in_process(self, node: int) -> bool:
        """Whether ``node`` declared its calls CPU work in this interpreter."""
        return bool(getattr(self._nodes[node], "in_process", False))

    def _dispatch(
        self,
        node: int,
        call: Callable[[Backend, float | None], Any],
        deadline: Deadline | None = None,
    ) -> Future:
        """Start one attempt on ``node``; the future carries its outcome.

        The only place an attempt (read or write) meets a thread: an
        in-process backend is called *now*, on this one, and the future
        comes back complete; everything else goes to the pool.
        """
        if not self._in_process(node):
            return self._pool.submit(self._call_backend, node, call, deadline)
        future: Future = Future()
        try:
            future.set_result(self._call_backend(node, call, deadline))
        except Exception as error:  # error-ok: the future carries it; callers read result()
            future.set_exception(error)
        return future

    def _call_backend(
        self,
        backend_index: int,
        call: Callable[[Backend, float | None], Any],
        deadline: Deadline | None = None,
    ) -> Any:
        """One backend attempt: fault sites, latency, health accounting.

        The sub-call's budget is whatever the request deadline has left
        *after* the fault sites run — a fault-injected stall
        (``cluster.backend.slow``) debits the budget exactly like real
        network or queue time would.
        """
        self._count("backend_calls")
        inject("cluster.backend.request")
        inject("cluster.backend.slow")
        inject(f"cluster.backend.{backend_index}.request")
        budget = None if deadline is None else deadline.remaining()
        if budget is not None and budget <= 0.0:
            raise DeadlineExceeded(
                f"backend {backend_index}: request budget spent before "
                "dispatch",
                timeout=0.0,
            )
        started = time.monotonic()
        try:
            payload = call(self._nodes[backend_index], budget)
        except _HEALTH_FAILURES:
            self._count("backend_failures")
            self.health.record_failure(backend_index)
            raise
        except ServiceError:
            # Overloaded / DeadlineExceeded: the backend answered, so it
            # is alive — the request still failed over to a replica.
            self.health.record_success(backend_index)
            raise
        with self._latency_lock:
            self._latency.record(time.monotonic() - started)
        if (
            self.health.record_success(backend_index)
            and backend_index < len(self.backends)
        ):
            # A regular request just proved a down backend recovered:
            # catch its replicas up without blocking this request.
            # (Followers take no writes, so they have nothing to drain.)
            self._pool.submit(self._drain_repairs, backend_index)
        return payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += amount

    def unavailable_shards(self) -> list[int]:
        """Shards whose every replica is currently marked down."""
        return [
            shard
            for shard in range(self.router.num_shards)
            if not any(
                self.health.usable(index)
                for index in self.router.replicas_of(shard)
            )
        ]

    def healthz(self) -> dict:
        """Cluster liveness: ok / degraded (a backend down) / partial."""
        all_down = self.health.down_backends()
        down = [index for index in all_down if index < len(self.backends)]
        followers_down = [
            index - len(self.backends)
            for index in all_down
            if index >= len(self.backends)
        ]
        unavailable = self.unavailable_shards()
        if unavailable:
            status = "partial"
        elif down:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded": bool(down),
            "backends": len(self.backends),
            "backends_down": down,
            "followers": len(self.followers),
            "followers_down": followers_down,
            "unavailable_shards": unavailable,
            "repair_pending": sum(self.repair_pending().values()),
            "resync_pending": self.journal.resync_pending(),
            **self.router.describe(),
        }

    def stats(self) -> dict:
        """Coordinator counters, router config, per-backend health."""
        with self._counters_lock:
            counters = dict(self._counters)
        with self._latency_lock:
            p50 = self._latency.quantile(0.50)
            p95 = self._latency.quantile(0.95)
        health = self.health.snapshot()
        # Per-backend snapshot versions, as last probed; the cluster-wide
        # "snapshot_version" is the newest of them, so benchmark runs can
        # stamp results against the serving state they actually hit.
        # Followers are reported in their own block — their versions
        # trail the leaders' by construction and would skew the max.
        versions = [
            int(block["probe"].get("snapshot_version", 0) or 0)
            for block in health[: len(self.backends)]
        ]
        with self._lag_lock:
            lags = dict(self._follower_lag)
        follower_blocks = [
            {
                "leader": leader_index,
                "lag": lags.get(len(self.backends) + position),
                **health[len(self.backends) + position],
            }
            for position, (_, leader_index) in enumerate(self.followers)
        ]
        return {
            **counters,
            "router": self.router.describe(),
            "write_quorum": self.write_quorum,
            "max_lag_records": self.max_lag_records,
            "backend_latency_p50_s": p50,
            "backend_latency_p95_s": p95,
            "repair_pending": self.repair_pending(),
            "repair_journal": self.journal.describe(),
            "backends": health[: len(self.backends)],
            "followers": follower_blocks,
            "uptime_s": time.time() - self._started_at,
            "repro_version": REPRO_VERSION,
            "snapshot_version": max(versions, default=0),
            "snapshot_versions": versions,
        }
