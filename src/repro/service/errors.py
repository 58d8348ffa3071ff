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

The HTTP transport types its own framing refusals: a header block past
the limits is :class:`HeadersTooLarge` (HTTP 431), a method with no
route table :class:`UnsupportedMethod` (HTTP 501); any other malformed
request head is a ``ValueError`` (HTTP 400).

**The wire format** lives beside the classes: each declares its
``http_status`` and ``wire_fields``; :func:`encode_error` (called by the
HTTP boundary) and :func:`decode_error` (called by the client) are its
two directions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any, ClassVar

__all__ = [
    "DeadlineExceeded",
    "EngineClosed",
    "FollowerReadOnly",
    "HeadersTooLarge",
    "Overloaded",
    "RepairOverflow",
    "ReplicaDiverged",
    "ServiceError",
    "ShardUnavailable",
    "SnapshotRequired",
    "UnsupportedMethod",
    "WriteQuorumFailed",
    "decode_error",
    "encode_error",
]


class ServiceError(RuntimeError):
    """Base class of all serving-layer failures."""

    #: The HTTP status the error is served with.
    http_status: ClassVar[int] = 500
    #: The attributes its error body carries, each mapped to the value a
    #: body without it decodes to (a present value is cast to that
    #: default's type; a ``None`` attribute is left out of the body).
    wire_fields: ClassVar[dict[str, Any]] = {}


class Overloaded(ServiceError):
    """The request was rejected by admission control (queue at capacity).

    Raised *before* any work is queued, so the caller can retry with
    backoff knowing the request consumed (almost) no server resources.
    Also raised for writes and repair traffic shed by the limiter's
    priority headroom before the limit itself is reached.
    """

    http_status = 429
    wire_fields = {"queue_depth": 0, "capacity": 0, "retry_after": None}

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
        self.retry_after = None if retry_after is None else float(retry_after)


class DeadlineExceeded(ServiceError):
    """The request's deadline expired while queued or executing."""

    # 504 Gateway Timeout: the server spent the request's budget (408
    # would blame the client for sending slowly).
    http_status = 504
    wire_fields = {"timeout": 0.0}

    def __init__(self, message: str, *, timeout: float) -> None:
        super().__init__(message)
        #: The deadline the request carried, in seconds.
        self.timeout = timeout


class EngineClosed(ServiceError):
    """The engine has been shut down; no further requests are accepted."""

    http_status = 503


class ShardUnavailable(ServiceError):
    """Every replica of at least one shard refused or failed the request.

    Raised by cluster operations that *fail closed* (``knn`` by default:
    its contract — "the global k nearest" — cannot be met with a shard
    missing).  Range ``search`` degrades instead, returning a typed
    partial result with ``complete=False`` and the same shard list.
    """

    http_status = 503
    wire_fields = {"missing_shards": ()}

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

    http_status = 503
    wire_fields = {"shard": -1, "acks": 0, "required": 0}

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

    http_status = 409
    wire_fields = {"leader_seq": 0, "follower_seq": 0}

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

    # 410 Gone: the tail will never come back — retrying the same cursor
    # is pointless.
    http_status = 410
    wire_fields = {"horizon": 0, "after_seq": 0}

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

    http_status = 503
    wire_fields = {"backend": -1, "pending": 0, "capacity": 0}

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

    http_status = 403
    wire_fields = {"leader": None}

    def __init__(self, message: str, *, leader: str | None = None) -> None:
        super().__init__(message)
        #: The leader URL this follower tails, when known.
        self.leader = leader



class HeadersTooLarge(ServiceError):
    """A header block past the transport's limits.

    A header line over 65 536 bytes, or more than 100 lines
    (:func:`repro.service.headers.read_headers`).  The server answers it
    and hangs up; sending the same block again cannot succeed.
    """

    # 431 Request Header Fields Too Large (RFC 6585 §5).
    http_status = 431


class UnsupportedMethod(ServiceError):
    """A request method the server has no route table for.

    The endpoints answer ``GET`` and ``POST`` only; anything else is
    refused before its body is read, so the connection is closed.
    """

    # 501 Not Implemented: the method, not the resource, is unknown.
    http_status = 501

#: Every error type a body can name, by name.
_WIRE_TYPES: dict[str, type[ServiceError]] = {
    cls.__name__: cls for cls in ServiceError.__subclasses__()
}

#: What a status decodes to when its body names no type declared here
#: with that status (a proxy's HTML page, say); any other status decodes
#: to a :class:`ServiceError` whose message names it.
_BY_STATUS: dict[int, type[Exception]] = {
    429: Overloaded,
    504: DeadlineExceeded,
    503: EngineClosed,
    410: SnapshotRequired,
    403: FollowerReadOnly,
    400: ValueError,
    404: KeyError,
    409: KeyError,
}


def encode_error(
    error: BaseException, op: str
) -> tuple[int, dict[str, Any], dict[str, str]]:
    """The HTTP reply to a request ``op`` that raised: status, body, headers.

    A :class:`ServiceError` is served with its declared status and wire
    fields.  Builtins keep their embedded-engine meaning: ``KeyError`` is
    409 on ``insert`` (duplicate id) and 404 elsewhere (unknown id),
    ``TypeError`` / ``ValueError`` are 400 and anything else is 500.
    """
    detail: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error.args[0]) if error.args else str(error),
    }
    headers: dict[str, str] = {}
    if isinstance(error, ServiceError):
        status = error.http_status
        for name in error.wire_fields:
            value = getattr(error, name)
            if value is not None:
                detail[name] = value
        if isinstance(error, Overloaded) and error.retry_after is not None:
            # RFC 9110 Retry-After is integral delay-seconds; round up so
            # the header never tells a client to come back sooner.
            headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
    elif isinstance(error, KeyError):
        status = 409 if op == "insert" else 404
    elif isinstance(error, (TypeError, ValueError)):
        status = 400
    else:
        status = 500
    return status, {"error": detail}, headers


def decode_error(status: int, detail: dict[str, Any]) -> Exception:
    """The exception an error reply's status and ``detail`` body describe.

    The body's ``type`` picks the class when it names one declared here
    with that status; otherwise the status alone does.
    """
    message = str(detail.get("message", f"HTTP {status}"))
    named = _WIRE_TYPES.get(str(detail.get("type")))
    cls = (
        named
        if named is not None and named.http_status == status
        else _BY_STATUS.get(status)
    )
    if cls is None:
        return ServiceError(f"HTTP {status}: {message}")
    if not issubclass(cls, ServiceError):
        return cls(message)
    fields: dict[str, Any] = {}
    for name, default in cls.wire_fields.items():
        value = detail.get(name)
        if value is not None and isinstance(default, (int, float)):
            value = type(default)(value)
        fields[name] = default if value is None else value
    return cls(message, **fields)
