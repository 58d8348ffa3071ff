"""A stdlib-only HTTP/JSON front end for :class:`QueryEngine`.

One small :class:`~http.server.ThreadingHTTPServer` exposing the engine's
operations as JSON endpoints — no web framework, no third-party
dependency, suitable for experiments and smoke tests rather than the open
internet.  The routes are :class:`ServiceHandler`'s ``get_routes`` /
``post_routes``, their bodies tabled in ``docs/service.md``: the reads
(``/search``, ``/knn``, ``/healthz``, ``/stats``), the writes
(``/insert``, ``/append``, ``/remove``) and the replication routes
(``GET /sequences``, ``/restore``, ``/wal/tail``, ``/wal/apply``).  Every
``"points"`` field is read by :func:`~repro.service.wal.decode_points`.

A failed request is answered by
:func:`~repro.service.errors.encode_error`: each typed serving error
declares its status (``Overloaded`` → 429 with a ``Retry-After`` header,
``DeadlineExceeded`` → 504, ``SnapshotRequired`` → 410, ...; the table is
in ``docs/errors.md``), bad input is 400, a duplicate insert id 409, an
unknown id 404 — and every error body is ``{"error": {"type",
"message", ...}}``, which :func:`~repro.service.errors.decode_error`
turns back into the typed exception on the client.

A server given a :class:`~repro.service.follower.WalFollower` runs in
**follower mode**: every write route is rejected with
:class:`FollowerReadOnly` (a direct write would fork its history from the
leader's WAL), reads keep serving, and ``/healthz`` gains the follower's
replication status, so the cluster layer can route reads by lag.

The handler/server split is reusable: :class:`JsonRequestHandler` carries
the JSON plumbing (body parsing, typed error mapping, drain-aware
dispatch) and :class:`DrainingHTTPServer` the in-flight tracking, so the
cluster coordinator's endpoint (:mod:`repro.cluster.http`) serves the
same wire protocol from the same base classes.

Connections are persistent (HTTP/1.1), one handler thread each: a reply
leaves in **one send**; the body is read **before** the reply is chosen (a
reply that leaves it unread — a bad or doubled ``Content-Length``, the
draining 503 — says ``Connection: close``); a socket idle, or stalled
mid-body (``dropped_responses``), for ``JsonRequestHandler.timeout`` s is
hung up on.  Header blocks are read by
:func:`~repro.service.headers.read_headers`, not the stdlib's e-mail
parser, and a request the transport cannot frame (bad request line,
header limits, unknown method) is refused in the same JSON envelope.  An
exact cache hit's ``/search`` body is encoded once and then sent as
stored bytes (:func:`search_reply`).

Shutdown is graceful (:func:`shutdown_gracefully`, ``repro serve
--drain-timeout``): a request racing SIGTERM gets a real response — a
result, a typed 503 or ``EngineClosed`` — never a connection reset, and
no client stays parked on a handler of a closed engine.

Sequence ids survive the JSON round trip when they are strings, numbers,
booleans or null; solution-interval maps are keyed by ``str(sequence_id)``
because JSON object keys must be strings.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.service.engine import QueryEngine, ServiceResponse
from repro.service.errors import (
    EngineClosed,
    FollowerReadOnly,
    HeadersTooLarge,
    UnsupportedMethod,
    encode_error,
)
from repro.service.faults import inject
from repro.service.headers import read_headers
from repro.service.wal import decode_frames, decode_points
from repro.util.errtrace import record_propagated
from repro.util.sync import TracedLock
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from repro.service.follower import WalFollower

__all__ = [
    "DrainingHTTPServer",
    "JsonRequestHandler",
    "ServiceHandler",
    "ServiceServer",
    "healthz_payload",
    "knn_payload",
    "read_points",
    "request_budget",
    "required_field",
    "search_payload",
    "search_reply",
    "serve",
    "shutdown_gracefully",
    "write_payload",
]


def required_field(body: dict, name: str) -> Any:
    """A required JSON field; missing fields are a 400, not a 404/409."""
    if name not in body:
        raise ValueError(f"missing required field {name!r}")
    return body[name]


def read_points(body: dict) -> np.ndarray:
    """The request's ``points``, via :func:`decode_points`."""
    return decode_points(required_field(body, "points"))


def request_budget(headers: Any, body: dict | None) -> float | None:
    """The effective serving deadline of one read request, in seconds.

    The smaller of the body ``timeout`` and the ``X-Repro-Budget``
    header (whichever are present; ``None`` when neither is).  The
    header is what a budget-aware client re-stamps on every attempt, so
    when both disagree the header is the *fresher* number — but taking
    the min keeps the server honest against either field lying large.
    Either must be a finite positive number of seconds; anything else
    (NaN, ±inf, ≤ 0) is a ``ValueError``, hence a 400.
    """
    candidates = []
    for source, raw in (
        ("body timeout", None if body is None else body.get("timeout")),
        ("X-Repro-Budget", headers.get("X-Repro-Budget")),
    ):
        if raw is None:
            continue
        budget = float(raw)
        if not math.isfinite(budget) or budget <= 0:
            raise ValueError(
                f"{source} must be a finite positive number of seconds, "
                f"got {raw!r}"
            )
        candidates.append(budget)
    return min(candidates) if candidates else None


def healthz_payload(
    engine: QueryEngine, follower: "WalFollower | None" = None
) -> dict:
    """The ``/healthz`` body: liveness plus durability lag.

    ``degraded`` (status ``"degraded"``) is true while observed queue
    wait holds the engine's admission limit below its ceiling.
    ``wal_records`` is the number of acknowledged writes not yet folded
    into a checkpoint — the durability lag an operator (or the cluster
    health tracker) watches; ``last_checkpoint_version`` /
    ``checkpoints`` date the most recent checkpoint.  A follower-mode
    server adds a ``replication`` block (:meth:`WalFollower.status`) so
    the cluster layer can route bounded-staleness reads by ``lag``.
    """
    degraded = engine.degraded
    payload = {
        "status": "closed" if engine.closed else "degraded" if degraded else "ok",
        "degraded": degraded,
        "sequences": len(engine),
        "dimension": engine.dimension,
        "snapshot_version": engine.snapshot_version,
        "queue_depth": engine.queue_depth,
        "durable": engine.durable,
        "wal_records": engine.wal_records,
        "checkpoints": engine.checkpoints,
        "last_checkpoint_version": engine.last_checkpoint_version,
    }
    if follower is not None:
        payload["replication"] = follower.status()
    return payload


def search_payload(
    response: ServiceResponse, *, find_intervals: bool
) -> dict:
    """The ``/search`` body for one engine response (transport shape)."""
    result = response.result
    payload = {
        "answers": list(result.answers),
        "candidates": list(result.candidates),
        "cache": response.cache,
        "snapshot_version": response.snapshot_version,
        "stats": {
            "query_segments": result.stats.query_segments,
            "node_accesses": result.stats.node_accesses,
            "dnorm_evaluations": result.stats.dnorm_evaluations,
        },
    }
    if find_intervals:
        payload["intervals"] = {
            str(sid): [[start, stop] for start, stop in interval.intervals]
            for sid, interval in result.solution_intervals.items()
        }
    return payload


def _encode_reply(payload: dict) -> bytes:
    """A reply body's bytes: the one JSON encoding every route uses."""
    return json.dumps(payload, default=str).encode("utf-8")


def search_reply(response: ServiceResponse, *, find_intervals: bool) -> bytes:
    """The encoded ``/search`` body for one engine response.

    An exact cache hit's body is a pure function of its entry, the
    snapshot version and ``find_intervals``: it is encoded on the first
    hit at a version and kept in the entry's reply slot
    (``response.reply``), which later hits on that entry at that version
    send as they are.
    """
    slot = response.reply
    version = response.snapshot_version
    body = None if slot is None else slot.bodies.get((version, find_intervals))
    if body is None:
        body = _encode_reply(search_payload(response, find_intervals=find_intervals))
        if slot is not None:
            body = slot.keep(version, find_intervals, body)
    return body


def write_payload(engine: QueryEngine, **head: Any) -> dict:
    """A write route's body: ``head`` plus the published corpus state.

    ``snapshot_version`` is the version published when the reply is
    built — this write's, or a later one under concurrent writers; never
    an earlier one, so a client may use it for read-your-writes.
    """
    return {
        **head,
        "sequences": len(engine),
        "snapshot_version": engine.snapshot_version,
    }


def knn_payload(neighbors: list[tuple[float, object]]) -> dict:
    """The ``/knn`` body for one neighbor list (transport shape)."""
    return {
        "neighbors": [
            {"distance": distance, "sequence_id": sid}
            for distance, sid in neighbors
        ]
    }


#: The version word of a request line this server frames: HTTP/1.x.
_VERSION = re.compile(r"HTTP/1\.(\d{1,10})")


class _BodyStalled(ConnectionError):
    """A request body that never arrived: hang up, send no reply."""


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON route dispatch with typed error mapping and drain awareness.

    Subclasses declare ``get_routes`` / ``post_routes`` mapping paths to
    handler-method *names*; each handler takes the parsed JSON body and
    returns the response payload, or its encoded bytes.  Exceptions become
    replies via :func:`~repro.service.errors.encode_error`, and so do the
    transport's own refusals of a request it cannot frame.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Seconds a handler waits on its socket — for the next request of an
    #: idle kept-alive connection, or for a stalled body — before hanging up.
    timeout = 30.0
    # One send per reply: headers and body collect in a buffered ``wfile``
    # flushed once.  As two small segments the second waits ~40 ms on Nagle +
    # the client's delayed ACK; ``TCP_NODELAY`` covers bodies past the buffer.
    wbufsize = -1
    disable_nagle_algorithm = True

    #: path -> bound-method name, filled in by subclasses.
    get_routes: dict[str, str] = {}
    post_routes: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Request framing
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Read the request line and its header block (:func:`read_headers`).

        The stdlib's rules, without its e-mail parser: an HTTP/1.1
        connection stays open unless the request says ``Connection:
        close``, an HTTP/1.0 one closes unless it says ``keep-alive``, and
        ``Expect: 100-continue`` on HTTP/1.1 is answered before the body is
        read.  A request line that is not ``METHOD target HTTP/1.x`` is a
        400 and a header block past the limits a 431, each refused with
        the JSON error envelope.
        """
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        version = _VERSION.fullmatch(words[-1])
        if len(words) != 3 or version is None:
            self._refuse(ValueError(f"bad request line {self.requestline!r}"))
            return False
        self.command, self.path, self.request_version = words
        if self.path.startswith("//"):
            # gh-87389: ``//host/path`` reads as a scheme-relative URL.
            self.path = "/" + self.path.lstrip("/")
        try:
            self.headers = read_headers(self.rfile)  # type: ignore[assignment]
        except (HeadersTooLarge, ValueError) as error:
            self._refuse(error)
            return False
        http_11 = int(version[1]) >= 1
        connection = self.headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            not http_11 and connection != "keep-alive"
        )
        expect = self.headers.get("Expect", "").lower()
        if expect == "100-continue" and http_11:
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        """Send the interim ``100 Continue`` at once.

        Left in the write buffer it would leave with the final reply, and
        a client that waits for it before sending the body (``curl``)
        would stall.
        """
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.wfile.flush()
        return True

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """The stdlib's own refusals, in the JSON error envelope.

        :meth:`handle_one_request` calls this for a method with no
        ``do_*`` handler (501) and for a request line over 65 536 bytes,
        which is a bad request line like any other (400).
        """
        text = message or self.responses.get(code, ("",))[0]
        self._refuse(UnsupportedMethod(text) if code == 501 else ValueError(text))

    def _refuse(self, error: Exception) -> None:
        """Answer a request the transport cannot frame, then hang up."""
        self.close_connection = True
        status, payload, headers = encode_error(error, "http")
        self._send_json(status, payload, headers)

    # ------------------------------------------------------------------
    # HTTP verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming convention)
        self._dispatch("GET", self.get_routes)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming convention)
        self._dispatch("POST", self.post_routes)

    def _dispatch(self, verb: str, routes: dict[str, str]) -> None:
        server = cast("DrainingHTTPServer", self.server)
        op = self.path.lstrip("/")
        headers: dict[str, str] = {}
        server.request_started(self.connection)
        try:
            try:
                if server.draining:
                    # Kept-alive connections can deliver requests after the
                    # accept loop stopped; answer with a typed 503 instead
                    # of racing the engine teardown.
                    raise EngineClosed("server is draining for shutdown")
                # The body is read before a reply is chosen: left on the
                # socket, it would be parsed as the connection's next request.
                body = self._read_body()
                name = routes.get(self.path)
                if name is None:
                    message = f"no such route: {verb} {self.path}"
                    status = 404
                    payload = {"error": {"type": "NotFound", "message": message}}
                else:
                    status, payload = 200, getattr(self, name)(body)
            except _BodyStalled:
                raise  # no reply; the server counts it in ``dropped_responses``
            except Exception as error:  # error-ok: reporting boundary — every error maps to a typed status payload
                record_propagated(
                    error, role="http.boundary", site=f"http.{op}"
                )
                status, payload, headers = encode_error(error, op)
            self._send_json(status, payload, headers)
        finally:
            server.request_finished(self.connection)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> dict:
        lengths = self.headers.get_all("Content-Length") or ["0"]
        header = lengths[0]
        # Two different lengths leave the body's end unknown: reading either
        # would let the rest be parsed as the next request (RFC 9112 §6.3).
        if not header.isdecimal() or any(other != header for other in lengths):
            self.close_connection = True  # whatever follows stays unread
            raise ValueError(
                f"Content-Length {', '.join(lengths)!r} is not one byte count"
            )
        try:
            body = json.loads(self.rfile.read(int(header)) or b"{}")
        except TimeoutError as error:
            raise _BodyStalled(f"{header}-byte body stalled") from error
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _send_json(
        self, status: int, payload: dict | bytes, headers: dict[str, str]
    ) -> None:
        """Write one reply, head and body, in one send.

        ``payload`` is a JSON-ready dict or bytes :func:`_encode_reply`
        made.  The head always has the same fields in the same order:
        status line, ``Server``, ``Date``, ``Content-Type``,
        ``Content-Length``, ``Connection: close`` when closing, then
        ``headers``.
        """
        inject("http.response")
        data = payload if isinstance(payload, bytes) else _encode_reply(payload)
        if cast("DrainingHTTPServer", self.server).draining:
            self.close_connection = True  # also covers the unread body of a 503
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} "
            f"{self.responses.get(status, ('',))[0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + data)
        self.wfile.flush()  # on the wire before the request counts as finished

    def log_message(self, format: str, *args: Any) -> None:
        """Suppress per-request stderr noise unless the server is verbose."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class ServiceHandler(JsonRequestHandler):
    """Dispatches the engine route table against ``self.server.engine``."""

    get_routes = {
        "/healthz": "_healthz",
        "/stats": "_stats",
        "/sequences": "_export",
    }
    post_routes = {
        "/search": "_search",
        "/knn": "_knn",
        "/insert": "_insert",
        "/append": "_append",
        "/remove": "_remove",
        "/restore": "_restore",
        "/wal/tail": "_wal_tail",
        "/wal/apply": "_wal_apply",
    }

    @property
    def engine(self) -> QueryEngine:
        """The engine owned by the enclosing :class:`ServiceServer`."""
        return cast("ServiceServer", self.server).engine

    @property
    def follower(self) -> "WalFollower | None":
        """The follower attachment, when serving in follower mode."""
        return cast("ServiceServer", self.server).follower

    def _check_writable(self, op: str) -> None:
        follower = self.follower
        if follower is not None:
            status = follower.status()
            raise FollowerReadOnly(
                f"{op} rejected: this server is a follower (state advances "
                "only through log shipping; write to the leader instead)",
                leader=status.get("leader"),
            )

    # ------------------------------------------------------------------
    # Route bodies
    # ------------------------------------------------------------------
    def _healthz(self, body: dict) -> dict:
        return healthz_payload(self.engine, self.follower)

    def _stats(self, body: dict) -> dict:
        return self.engine.stats()

    def _search(self, body: dict) -> bytes:
        epsilon = check_threshold(float(required_field(body, "epsilon")))
        find_intervals = bool(body.get("find_intervals", True))
        response = self.engine.search_detailed(
            read_points(body),
            epsilon,
            find_intervals=find_intervals,
            timeout=request_budget(self.headers, body),
        )
        return search_reply(response, find_intervals=find_intervals)

    def _knn(self, body: dict) -> dict:
        neighbors = self.engine.knn(
            read_points(body),
            int(required_field(body, "k")),
            timeout=request_budget(self.headers, body),
        )
        return knn_payload(neighbors)

    def _export(self, body: dict) -> dict:
        return self.engine.export_sequences()

    def _wal_tail(self, body: dict) -> dict:
        after_seq = int(required_field(body, "after_seq"))
        version = body.get("snapshot_version")
        limit = int(body.get("limit", 512))
        return self.engine.wal_tail(
            after_seq,
            snapshot_version=None if version is None else int(version),
            limit=limit,
        )

    def _wal_apply(self, body: dict) -> dict:
        self._check_writable("wal/apply")
        # Every CRC is re-checked: a damaged batch is a 400, none of it applied.
        records = decode_frames(base64.b64decode(required_field(body, "frames")))
        return write_payload(self.engine, applied=self.engine.apply_records(records))

    def _insert(self, body: dict) -> dict:
        self._check_writable("insert")
        sequence_id = self.engine.insert(
            read_points(body), sequence_id=body.get("sequence_id")
        )
        return write_payload(self.engine, sequence_id=sequence_id)

    def _append(self, body: dict) -> dict:
        self._check_writable("append")
        sequence_id = required_field(body, "sequence_id")
        length = self.engine.append(sequence_id, read_points(body))
        return write_payload(self.engine, sequence_id=sequence_id, length=length)

    def _remove(self, body: dict) -> dict:
        self._check_writable("remove")
        sequence_id = required_field(body, "sequence_id")
        self.engine.remove(sequence_id)
        return write_payload(self.engine, sequence_id=sequence_id)

    def _restore(self, body: dict) -> dict:
        self._check_writable("restore")
        sequences = required_field(body, "sequences")
        if not isinstance(sequences, list):
            raise ValueError("sequences must be a list of export entries")
        return write_payload(
            self.engine, restored=self.engine.restore(sequences)
        )


class DrainingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server with in-flight tracking and graceful drain."""

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog; the stdlib's 5 turns a connection burst into SYN retransmits.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, handler)
        self.verbose = verbose
        self.draining = False
        self.dropped_responses = 0
        self._inflight = 0
        self._parked: set[socket.socket] = set()  # kept alive, between requests
        self._inflight_lock = TracedLock("http.inflight")
        self._idle = threading.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # In-flight request tracking (drives graceful drain)
    # ------------------------------------------------------------------
    def shutdown_request(self, request: Any) -> None:
        """Forget a socket its handler is done with, then close it."""
        with self._inflight_lock:
            self._parked.discard(request)
        super().shutdown_request(request)

    def request_started(self, connection: socket.socket) -> None:
        """Count one request entering a handler."""
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()
            self._parked.discard(connection)

    def request_finished(self, connection: socket.socket) -> None:
        """Count one request leaving its handler."""
        with self._inflight_lock:
            self._parked.add(connection)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    @property
    def inflight(self) -> int:
        """Requests currently inside a handler."""
        with self._inflight_lock:
            return self._inflight

    def drain(self, timeout: float = 10.0) -> bool:
        """Refuse new requests and wait for in-flight ones to finish.

        Returns ``True`` once no request is in a handler, ``False`` if
        some were still running when ``timeout`` expired (they keep
        running; closing the engine afterwards turns them into typed
        ``EngineClosed`` responses, not connection resets).  Then the idle
        kept-alive connections are shut down — their clients see EOF and
        reconnect to whatever listens next; a straggler closes its own.
        """
        with self._inflight_lock:
            self.draining = True
        drained = self._idle.wait(timeout)
        with self._inflight_lock:
            parked = list(self._parked)
        for connection in parked:
            with contextlib.suppress(OSError):  # its handler closed it first
                connection.shutdown(socket.SHUT_RDWR)
        return drained

    def handle_error(
        self, request: Any, client_address: Any
    ) -> None:
        """Count dropped connections instead of spamming stderr.

        A handler thread that dies mid-response (fault injection, client
        hangup) closes the connection without a reply; that is the
        failure mode the retrying client exists for, not a server bug
        worth a traceback — unless the server is verbose.
        """
        with self._inflight_lock:
            self.dropped_responses += 1
        if self.verbose:
            super().handle_error(request, client_address)


class ServiceServer(DrainingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryEngine`.

    The server does *not* own the engine's lifecycle: closing the server
    stops accepting connections, but the caller decides when to
    ``engine.close()``.  Use :func:`shutdown_gracefully` (or the CLI,
    which wraps it) to tear both down in the order that lets in-flight
    requests drain.
    """

    def __init__(
        self,
        address: tuple[str, int],
        engine: QueryEngine,
        *,
        verbose: bool = False,
        follower: "WalFollower | None" = None,
    ) -> None:
        super().__init__(address, ServiceHandler, verbose=verbose)
        self.engine = engine
        #: When set, the server runs in follower mode: direct writes are
        #: rejected (``FollowerReadOnly``) and ``/healthz`` reports the
        #: follower's replication cursor and lag.
        self.follower = follower


def serve(
    engine: QueryEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    follower: "WalFollower | None" = None,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (``port=0`` picks a free port).

    Returns the bound server without starting its accept loop; call
    ``serve_forever()`` (typically on a thread) and ``shutdown()`` /
    ``server_close()`` yourself, or use the ``repro serve`` CLI which
    wires signal handling around exactly this function.
    """
    return ServiceServer(
        (host, port), engine, verbose=verbose, follower=follower
    )


def shutdown_gracefully(
    server: ServiceServer,
    engine: QueryEngine,
    *,
    drain_timeout: float = 10.0,
) -> bool:
    """Tear down a served engine without dropping in-flight requests.

    The ordering is the contract: (1) stop the accept loop, (2) drain —
    in-flight requests finish, late arrivals on kept-alive connections
    get a typed 503, (3) close the engine (a drain stragglers' requests
    turn into ``EngineClosed``, and a durable engine checkpoints), then
    (4) close the listening socket.  Returns whether the drain completed
    within ``drain_timeout``.
    """
    server.shutdown()
    drained = server.drain(drain_timeout)
    engine.close()
    server.server_close()
    return drained
