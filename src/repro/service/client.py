"""A fault-tolerant keep-alive client for the ``repro serve`` HTTP endpoint.

Mirrors the :class:`~repro.service.engine.QueryEngine` surface over JSON
and rebuilds the typed serving errors from the server's error payloads,
so ``except Overloaded`` works the same whether the engine is embedded or
behind HTTP.  stdlib-only (:mod:`http.client`), like the server.

Requests ride **pooled keep-alive connections**: a connection is parked
only once its reply was read in full and did not say ``close``, and a
parked socket found readable (EOF, stray bytes) is discarded.  A *read*
that dies on a reused connection before a status line arrives is sent once
more on a fresh one (``reconnects``); a *write* is never sent twice.
A request goes out in one send, its header block and body together, and
a reply's header block is read by
:func:`~repro.service.headers.read_headers`, not the e-mail parser.
Thread-safe; :meth:`ServiceClient.close` (or ``with``) closes what is parked.

A ``search``/``knn`` call given a ``timeout`` treats it as an
**end-to-end budget**: the client stamps a :class:`~repro.util.budget.
Deadline` when the request starts, and every hop debits it — the socket
timeout is clamped to the remaining budget, each (re)send rewrites the
body ``timeout`` to what is left and mirrors it in an ``X-Repro-Budget``
header, and retry backoff sleeps spend from the same budget.  A request
whose budget runs out between attempts raises :class:`DeadlineExceeded`
locally instead of dispatching work nobody waits for.

An optional :class:`RetryPolicy` retries *idempotent reads* only
(``healthz``, ``stats``, ``search``, ``knn``), on :class:`Overloaded` (shed
before any work) and transport errors, with full-jitter backoff floored at
the server's ``Retry-After``.  Writes are never retried: an ``insert``
whose reply was dropped may have been applied.  Whether a peer is *down*
is :class:`~repro.cluster.health.HealthTracker`'s call, not the client's.

Counters surface through :meth:`ServiceClient.transport_stats`.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import random
import select
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypedDict, cast
from urllib.parse import urlsplit

from repro.service.errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceError,
    decode_error,
)
from repro.service.headers import read_headers
from repro.service.wal import WalRecord, encode_frames, encode_points
from repro.util.budget import Deadline
from repro.util.errtrace import translated
from repro.util.rng import ensure_rng
from repro.util.sync import TracedLock
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

    #: Anything with a ``uniform(low, high) -> float``-like method; in
    #: production this is a :class:`numpy.random.Generator` from
    #: :func:`repro.util.rng.ensure_rng`, but a seeded
    #: :class:`random.Random` works too (handy in tests).
    UniformRng = np.random.Generator | random.Random

__all__ = [
    "TRANSPORT_ERRORS",
    "EngineStatsPayload",
    "RetryPolicy",
    "ServiceClient",
]


class EngineStatsPayload(TypedDict, total=False):
    """The shape of ``GET /stats`` (``QueryEngine.stats()`` over JSON).

    ``total=False`` because the block grows additively across versions —
    an old client reading a new server (or vice versa) sees a subset,
    never a type error.  Fields used to stamp benchmark trajectory
    records — ``uptime_s``, ``repro_version``, ``snapshot_version`` —
    are part of the stable surface.
    """

    requests: dict[str, int]
    requests_total: int
    completed: int
    failures: dict[str, int]
    rejected_overload: int
    deadline_exceeded: int
    wasted_work: int
    cancelled: int
    admission: dict[str, Any]
    latency_ms: dict[str, float]
    cache: dict[str, Any]
    cache_lru: dict[str, Any]
    snapshots_published: int
    wal_appends: int
    queue_depth: int
    workers: int
    queue_cap: int
    snapshot_version: int
    sequences: int
    segments: int
    cache_entries: int
    cache_capacity: int
    uptime_s: float
    repro_version: str
    degraded: bool
    errors: dict[str, Any]
    durability: dict[str, Any]

#: Transport-level failures a retry may safely cover for idempotent reads
#: (and the cluster coordinator treats as grounds for replica failover).
TRANSPORT_ERRORS = (
    ConnectionError,
    TimeoutError,
    http.client.HTTPException,
)

#: Slack added to the budget when clamping the *socket* timeout: when a
#: request's budget expires server-side, the server's typed 504 response
#: needs a network round trip to arrive — without slack the socket gives
#: up at the same instant and a clean ``DeadlineExceeded`` degrades into
#: a raw ``TimeoutError``.
_BUDGET_SOCKET_SLACK = 0.25


def _idempotent(method: str, path: str) -> bool:
    """Whether a call only reads: safe to retry, or to resend once reconnected."""
    return method == "GET" or path in ("/search", "/knn", "/wal/tail")


def _raise_typed(
    status: int, detail: dict, cause: BaseException | None = None
) -> None:
    """Raise the typed rebuild of an error payload, chaining ``cause``.

    ``cause`` is a local exception the payload was recovered from, if
    any (a status reply is the server's own statement and has none);
    chaining it keeps the real fault visible under the typed costume (the
    REP402 invariant, enforced at runtime by
    :func:`repro.util.errtrace.translated`).
    """
    error = decode_error(status, detail)
    if cause is not None:
        raise translated(
            cause, error, role="client.translate", site="client._raise_typed"
        ) from cause
    raise error


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for idempotent reads.

    The delay before retry ``i`` (zero-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * multiplier**i)]``; when the failed
    attempt carried a server ``Retry-After`` hint (an :class:`Overloaded`
    with ``retry_after``), the delay is at least that hint.

    Parameters
    ----------
    max_attempts:
        Total tries, the first included; ``1`` disables retrying.
    base_delay / multiplier / max_delay:
        The backoff schedule's cap sequence, in seconds.
    seed:
        Seed for the jitter RNG (threaded through
        :func:`repro.util.rng.ensure_rng`) — set it in tests so backoff
        schedules are reproducible instead of sleeping on real jitter.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delay(
        self,
        retry_index: int,
        rng: UniformRng,
        *,
        retry_after: float | None = None,
    ) -> float:
        """The sleep (seconds) before zero-based retry ``retry_index``."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        cap = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        chosen = float(rng.uniform(0.0, cap))
        return chosen if retry_after is None else max(chosen, retry_after)


class _Response(http.client.HTTPResponse):
    """A reply whose header block is read by :func:`read_headers`.

    :meth:`begin` is the stdlib's, except that the headers are not handed
    to :mod:`email.parser`: the framing rules (``100`` interim replies
    skipped, ``Content-Length``, chunked bodies, when the connection
    closes) are the same, and ``getheader`` works as before.
    """

    def begin(self) -> None:
        version, status, reason = self._read_status()  # type: ignore[attr-defined]
        while status == http.client.CONTINUE:
            read_headers(self.fp)
            version, status, reason = self._read_status()  # type: ignore[attr-defined]
        if not version.startswith("HTTP/1."):
            raise http.client.UnknownProtocol(version)  # error-ok: the stdlib begin's transport error, one of TRANSPORT_ERRORS
        self.code = self.status = status
        self.reason = reason.strip()
        self.version = 10 if version == "HTTP/1.0" else 11
        self.headers = self.msg = read_headers(self.fp)  # type: ignore[assignment]
        encoding = self.headers.get("Transfer-Encoding") or ""
        self.chunked = encoding.lower() == "chunked"
        self.chunk_left = None
        self.will_close = self._check_close()  # type: ignore[attr-defined]
        self.length = None
        length = self.headers.get("Content-Length")
        if length and not self.chunked and length.isdecimal():
            self.length = int(length)
        head_only = self._method == "HEAD"  # type: ignore[attr-defined]
        if status in (204, 304) or status < 200 or head_only:
            self.length = 0
        if not (self.will_close or self.chunked) and self.length is None:
            self.will_close = True


class _Connection(http.client.HTTPConnection):
    """A pooled connection that puts a request on the wire in one send.

    :mod:`http.client` sends the header block, then the body: two
    segments per ``POST``.  Here a ``bytes`` body joins the header
    buffer first; any other body takes the stdlib path.  Replies are
    read as :class:`_Response`.
    """

    response_class = _Response

    def _send_output(
        self, message_body: Any = None, encode_chunked: bool = False
    ) -> None:
        if not isinstance(message_body, bytes) or encode_chunked:
            super()._send_output(message_body, encode_chunked)  # type: ignore[misc]
            return
        buffer: list[bytes] = self.__dict__["_buffer"]
        buffer.extend((b"", message_body))
        message = b"\r\n".join(buffer)
        del buffer[:]
        self.send(message)


class _SecureConnection(_Connection, http.client.HTTPSConnection):
    """The same one-send request over TLS."""


class ServiceClient:
    """Talks JSON to a running ``repro serve`` endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8765"`` (trailing slash optional; a
        path prefix is kept; ``http`` or ``https`` only).
    timeout:
        Socket-level timeout (seconds) for each HTTP call — distinct from
        the per-request serving deadline, which travels in the body.
    retry:
        Optional :class:`RetryPolicy`; ``None`` (default) fails fast.
        Only idempotent reads are retried; the jitter RNG is seeded from
        ``retry.seed``, so a seeded policy makes backoff deterministic.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be http(s)://host..., got {base_url!r}")
        https = url.scheme == "https"
        connect = _SecureConnection if https else _Connection
        self._dial = functools.partial(connect, url.hostname, url.port)
        self._path_prefix = url.path
        #: Idle connections, most recently used last; the lock is a leaf,
        #: held only to pop/push — never across a socket call (REP202).
        self._pool: list[http.client.HTTPConnection] = []
        self._pool_lock = TracedLock("client.pool")
        self.timeout = timeout
        self.retry = retry
        self._rng = ensure_rng(None if retry is None else retry.seed)
        self._sleep = time.sleep  # monkeypatchable seam for tests
        self._counters_lock = TracedLock("client.counters")
        self._counters: dict[str, float] = {
            "requests": 0,
            "attempts": 0,
            "retries": 0,
            "transport_errors": 0,
            "overloaded": 0,
            "deadline_exhausted": 0,
            "retry_wait_s": 0.0,
            "connections_opened": 0,
            "reconnects": 0,
        }

    def close(self) -> None:
        """Close the parked connections; a later call dials a new one."""
        with self._pool_lock:
            parked, self._pool = self._pool, []
        for connection in parked:
            connection.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness probe: status, degraded flag, counts, snapshot version."""
        return dict(self._request("GET", "/healthz"))

    def stats(self) -> EngineStatsPayload:
        """The engine's full metrics block (see :class:`EngineStatsPayload`)."""
        return cast(EngineStatsPayload, dict(self._request("GET", "/stats")))

    def search(
        self,
        points: npt.ArrayLike,
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
    ) -> dict:
        """Range search; returns the JSON payload (answers, candidates,
        cache outcome, per-id intervals keyed by ``str(sequence_id)``)."""
        epsilon = check_threshold(epsilon)
        body: dict[str, Any] = {
            "points": encode_points(points),
            "epsilon": epsilon,
            "find_intervals": find_intervals,
        }
        if timeout is not None:
            body["timeout"] = timeout
        return dict(self._request("POST", "/search", body))

    def knn(
        self,
        points: npt.ArrayLike,
        k: int,
        *,
        timeout: float | None = None,
    ) -> list[tuple[float, object]]:
        """The ``k`` nearest sequences as ``(distance, sequence_id)``."""
        body: dict[str, Any] = {"points": encode_points(points), "k": k}
        if timeout is not None:
            body["timeout"] = timeout
        payload = self._request("POST", "/knn", body)
        return [
            (float(entry["distance"]), entry["sequence_id"])
            for entry in payload["neighbors"]
        ]

    def insert(
        self, points: npt.ArrayLike, sequence_id: object = None
    ) -> object:
        """Insert a sequence; returns its id as assigned by the server.

        Never retried: a dropped response does not prove the insert was
        not applied, and replaying it could raise a spurious 409 or —
        with a server-assigned id — store the sequence twice.
        """
        body: dict[str, Any] = {"points": encode_points(points)}
        if sequence_id is not None:
            body["sequence_id"] = sequence_id
        return self._request("POST", "/insert", body)["sequence_id"]

    def append(self, sequence_id: object, points: npt.ArrayLike) -> dict:
        """Extend a stored sequence (never retried); the reply has its ``length``."""
        body = {"sequence_id": sequence_id, "points": encode_points(points)}
        return dict(self._request("POST", "/append", body))

    def remove(self, sequence_id: object) -> dict:
        """Remove a sequence from subsequent snapshots (never retried)."""
        return dict(self._request("POST", "/remove", {"sequence_id": sequence_id}))

    # ------------------------------------------------------------------
    # Replication (the follower's view of a leader)
    # ------------------------------------------------------------------
    def wal_tail(
        self,
        after_seq: int,
        *,
        snapshot_version: int | None = None,
        limit: int = 512,
    ) -> dict:
        """Tail the server's WAL after ``after_seq`` (``POST /wal/tail``).

        The handshake and batch shape mirror
        :meth:`~repro.service.engine.QueryEngine.wal_tail`; typed
        rejections come back as :class:`ReplicaDiverged` (409) and
        :class:`SnapshotRequired` (410).  Idempotent: tailing reads the
        log without moving any server-side cursor, so retrying a dropped
        response re-ships the same records.
        """
        body: dict[str, Any] = {"after_seq": after_seq, "limit": limit}
        if snapshot_version is not None:
            body["snapshot_version"] = snapshot_version
        return dict(self._request("POST", "/wal/tail", body))

    def apply_records(self, records: list[WalRecord]) -> int:
        """Replay seq-stamped records (``POST /wal/apply``, the ``/wal/tail``
        batch encoding); the count applied.  Never retried."""
        frames = base64.b64encode(encode_frames(records)).decode("ascii")
        return int(self._request("POST", "/wal/apply", {"frames": frames})["applied"])

    def export_sequences(self, *, include_points: bool = True) -> dict:
        """The server's full corpus export (``GET /sequences``), for resync.

        The endpoint always ships points; ``include_points`` (from the
        :class:`~repro.service.follower.ReplicationLeader` protocol) is
        applied client-side.
        """
        reply = dict(self._request("GET", "/sequences"))
        sequences = list(reply.get("sequences", []))
        if not include_points:
            sequences = [
                {key: value for key, value in entry.items() if key != "points"}
                for entry in sequences
            ]
        reply["sequences"] = sequences
        return reply

    def restore(self, sequences: list[dict]) -> dict:
        """Replace the server's corpus with an export (``POST /restore``).

        The snapshot-resync write path: ``sequences`` is the
        ``"sequences"`` list of an :meth:`export_sequences` reply.  Not
        idempotent in the retry sense (each call republishes a snapshot
        version), so it is never auto-retried; a follower-mode server
        rejects it with :class:`FollowerReadOnly` like any other write.
        """
        return dict(self._request("POST", "/restore", {"sequences": sequences}))

    # ------------------------------------------------------------------
    # Resilience metrics
    # ------------------------------------------------------------------
    def transport_stats(self) -> dict:
        """Client-side counters: attempts, retries, waits, connections."""
        with self._counters_lock:
            return dict(self._counters)

    def _count(self, key: str, amount: float = 1) -> None:
        with self._counters_lock:
            self._counters[key] += amount

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> Any:
        self._count("requests")
        budget = None if body is None else body.get("timeout")
        # One deadline for the whole call: every attempt and every
        # backoff sleep debits it, so retries shrink the budget the
        # server sees instead of granting each attempt a fresh one.
        deadline = Deadline.after(None if budget is None else float(budget))
        attempts = (
            self.retry.max_attempts
            if (self.retry is not None and _idempotent(method, path))
            else 1
        )
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self._count("retries")
                retry_after = getattr(last_error, "retry_after", None)
                wait = self.retry.delay(  # type: ignore[union-attr]
                    attempt - 1,
                    self._rng,
                    retry_after=retry_after,
                )
                remaining = deadline.remaining()
                if remaining is not None:
                    wait = min(wait, max(0.0, remaining))
                self._count("retry_wait_s", wait)
                self._sleep(wait)
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0.0:
                self._count("deadline_exhausted")
                raise DeadlineExceeded(
                    f"{method} {path}: request budget spent after "
                    f"{attempt} attempt(s); not dispatching another",
                    timeout=float(budget),
                ) from last_error
            try:
                return self._request_once(method, path, body, deadline)
            except Overloaded as error:
                self._count("overloaded")
                last_error = error
                if attempt == attempts - 1:
                    raise
            except TRANSPORT_ERRORS as error:
                last_error = error
                if attempt == attempts - 1:
                    raise
        raise ServiceError(  # pragma: no cover - loop always returns/raises
            f"retry loop exhausted for {method} {path}"
        )

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict | None,
        deadline: Deadline | None = None,
    ) -> Any:
        self._count("attempts")
        headers = {"Content-Type": "application/json"}
        socket_timeout = self.timeout
        remaining = None if deadline is None else deadline.remaining()
        if remaining is not None:
            # This attempt gets what is left of the end-to-end budget:
            # rewrite the body timeout (the server's serving deadline),
            # mirror it in the budget header, and never let the socket
            # outlive the budget.
            remaining = max(remaining, 1e-3)
            body = {**(body or {}), "timeout": remaining}
            headers["X-Repro-Budget"] = f"{remaining:.6f}"
            socket_timeout = min(
                socket_timeout, remaining + _BUDGET_SOCKET_SLACK
            )
        data = None if body is None else json.dumps(body).encode("utf-8")
        try:
            reply, raw = self._exchange(method, path, data, headers, socket_timeout)
        except TRANSPORT_ERRORS:
            self._count("transport_errors")
            raise
        if not 200 <= reply.status < 300:
            cause = None
            try:
                detail = json.loads(raw).get("error", {})
            except (json.JSONDecodeError, AttributeError) as error:
                detail, cause = {"message": raw.decode("utf-8", "replace")}, error
            if "retry_after" not in detail:
                header = reply.getheader("Retry-After")
                if header is not None:
                    detail["retry_after"] = header
            _raise_typed(reply.status, detail, cause=cause)
        return json.loads(raw)

    def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: dict[str, str],
        timeout: float,
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request and its fully read reply over a pooled connection."""
        connection = self._checkout()
        while True:
            reused, reply = connection.sock is not None, None
            try:
                if reused:
                    connection.sock.settimeout(timeout)
                else:
                    connection.timeout = timeout
                    try:
                        connection.connect()
                    except OSError as error:
                        if isinstance(error, TRANSPORT_ERRORS):
                            raise
                        # ``gaierror``, ``EHOSTUNREACH``: transport errors too.
                        raise ConnectionError(f"{self.base_url}: {error}") from error
                    self._count("connections_opened")
                connection.request(method, self._path_prefix + path, data, headers)
                reply = connection.getresponse()
                raw = reply.read()
            except ConnectionError:
                connection.close()
                if reply is not None or not (reused and _idempotent(method, path)):
                    raise
                # No status line on a reused connection: the peer had closed
                # it and its FIN lost the race with the idle check.  Nothing
                # proves the request went unseen, so only an idempotent call
                # is sent again — once, at once, on a connection of its own.
                self._count("reconnects")
                connection = self._dial()
            except BaseException:
                connection.close()
                raise
            else:
                if not reply.will_close:
                    with self._pool_lock:
                        self._pool.append(connection)
                return reply, raw

    def _checkout(self) -> http.client.HTTPConnection:
        """A parked connection that is still quiet, else an undialled one."""
        while True:
            with self._pool_lock:
                if not self._pool:
                    return self._dial()
                connection = self._pool.pop()
            # Readable while idle is EOF (the peer closed) or stray bytes
            # (a desynchronised stream): unusable either way.  poll, not
            # select: select rejects a descriptor numbered 1024 or more.
            probe = select.poll()
            probe.register(connection.sock, select.POLLIN)
            if not probe.poll(0):
                return connection
            connection.close()
