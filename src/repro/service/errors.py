"""Typed errors of the query-serving subsystem.

Admission control and deadlines need errors a caller (or the HTTP layer)
can dispatch on without string matching: an overloaded engine fast-fails
with :class:`Overloaded` (HTTP 429, carrying a ``retry_after`` hint), an
expired request raises :class:`DeadlineExceeded` (HTTP 504), and
operations against a closed engine raise :class:`EngineClosed` (HTTP
503).  All inherit :class:`ServiceError`, so ``except ServiceError``
catches exactly the serving-layer failure modes and nothing from the
search itself.

Replication adds its own failure vocabulary: a follower whose history no
longer matches its leader raises :class:`ReplicaDiverged` (HTTP 409), one
whose cursor fell behind the leader's WAL horizon gets
:class:`SnapshotRequired` (HTTP 410 — the tail is *gone*, not merely
busy), a repair journal at capacity raises :class:`RepairOverflow`
(HTTP 503) and a follower-mode server rejects direct writes with
:class:`FollowerReadOnly` (HTTP 403).
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "DeadlineExceeded",
    "EngineClosed",
    "FollowerReadOnly",
    "Overloaded",
    "RepairOverflow",
    "ReplicaDiverged",
    "ServiceError",
    "ShardUnavailable",
    "SnapshotRequired",
    "WriteQuorumFailed",
]


class ServiceError(RuntimeError):
    """Base class of all serving-layer failures."""


class Overloaded(ServiceError):
    """The request was rejected by admission control (queue at capacity).

    Raised *before* any work is queued, so the caller can retry with
    backoff knowing the request consumed (almost) no server resources.
    Also raised for writes and repair traffic shed by the limiter's
    priority headroom before the limit itself is reached.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int,
        capacity: int,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        #: Requests queued or running when the rejection happened.
        self.queue_depth = queue_depth
        #: The admission limit in force (at most workers + queue slots).
        self.capacity = capacity
        #: Server-suggested backoff in seconds (the 429 Retry-After header).
        self.retry_after = retry_after


class DeadlineExceeded(ServiceError):
    """The request's deadline expired while queued or executing."""

    def __init__(self, message: str, *, timeout: float) -> None:
        super().__init__(message)
        #: The deadline the request carried, in seconds.
        self.timeout = timeout


class EngineClosed(ServiceError):
    """The engine has been shut down; no further requests are accepted."""


class ShardUnavailable(ServiceError):
    """Every replica of at least one shard refused or failed the request.

    Raised by cluster operations that *fail closed* (``knn`` by default:
    its contract — "the global k nearest" — cannot be met with a shard
    missing).  Range ``search`` degrades instead, returning a typed
    partial result with ``complete=False`` and the same shard list.
    """

    def __init__(
        self, message: str, *, missing_shards: Iterable[int]
    ) -> None:
        super().__init__(message)
        #: The shards whose every replica was unavailable, ascending.
        self.missing_shards: tuple[int, ...] = tuple(sorted(missing_shards))


class WriteQuorumFailed(ServiceError):
    """A cluster write reached fewer replicas than its quorum.

    Replicas that did acknowledge keep the write and the missed replicas
    are queued for read-repair, so a quorum failure means "not yet
    durable on a majority", not "rolled back" — the caller may retry
    idempotently or wait for repair to converge.
    """

    def __init__(
        self, message: str, *, shard: int, acks: int, required: int
    ) -> None:
        super().__init__(message)
        #: The shard whose replica set was written.
        self.shard = shard
        #: Replicas that acknowledged the write.
        self.acks = acks
        #: The quorum (majority of the replication factor).
        self.required = required


class ReplicaDiverged(ServiceError):
    """A follower's replication handshake no longer matches its leader.

    Raised when the ``(snapshot_version, applied_seq)`` pair a follower
    presents is impossible against the leader's WAL — a cursor *ahead* of
    the leader's ``last_seq``, or a snapshot version newer than the
    leader's own.  Divergence means the follower applied history the
    leader never wrote (or the leader lost history), so tailing further
    would compound the split; the only safe recovery is a full snapshot
    resync.
    """

    def __init__(
        self,
        message: str,
        *,
        leader_seq: int,
        follower_seq: int,
    ) -> None:
        super().__init__(message)
        #: The leader's last stamped WAL seq at handshake time.
        self.leader_seq = leader_seq
        #: The applied seq the follower presented.
        self.follower_seq = follower_seq


class SnapshotRequired(ServiceError):
    """The requested WAL tail was truncated away by a checkpoint.

    A follower asking for records after ``after_seq`` when the leader's
    :meth:`~repro.service.wal.WriteAheadLog.horizon` has moved past it
    cannot catch up by tailing — the records are gone.  The follower must
    fall back to a full snapshot resync, then resume tailing from the
    leader's reported position.
    """

    def __init__(
        self,
        message: str,
        *,
        horizon: int,
        after_seq: int,
    ) -> None:
        super().__init__(message)
        #: The oldest seq still shippable from the leader's WAL.
        self.horizon = horizon
        #: The cursor the follower asked to tail from.
        self.after_seq = after_seq


class RepairOverflow(ServiceError):
    """A backend's repair queue hit ``max_repair_ops``.

    Queuing more per-op repairs for a long-dead replica only grows the
    journal without bound; past the cap the queue is discarded and the
    replica is marked for a full snapshot resync instead — the overflow
    converts "replay every missed write" into "copy the state once".
    """

    def __init__(
        self,
        message: str,
        *,
        backend: int,
        pending: int,
        capacity: int,
    ) -> None:
        super().__init__(message)
        #: The backend whose queue overflowed.
        self.backend = backend
        #: Ops queued when the overflow happened.
        self.pending = pending
        #: The ``max_repair_ops`` bound.
        self.capacity = capacity


class FollowerReadOnly(ServiceError):
    """A write was sent to a server running in follower mode.

    Followers apply mutations only through log shipping; accepting a
    direct write would fork their history from the leader's WAL and
    surface later as :class:`ReplicaDiverged`.  The client should write
    to the leader instead.
    """

    def __init__(self, message: str, *, leader: str | None = None) -> None:
        super().__init__(message)
        #: The leader URL this follower tails, when known.
        self.leader = leader
