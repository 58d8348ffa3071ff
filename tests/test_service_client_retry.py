"""Unit tests for the client's retry policy and pooled transport.

Backoff schedules are asserted with a seeded RNG and a recorded sleep
seam (no real sleeping).  The end-to-end dropped-response
retry lives in ``test_service_faults.py``.  The pooled transport is driven
against scripted loopback peers here (a peer that hangs up exactly when
the test says so) and against the real server in ``test_service_http.py``.
"""

import contextlib
import http.client
import json
import os
import random
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.service import (
    Overloaded,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    errors,
)
from repro.service.client import TRANSPORT_ERRORS
from repro.service.errors import decode_error, encode_error


def make_client(**kwargs) -> ServiceClient:
    """A client whose base_url is never dialled by these tests."""
    return ServiceClient("http://127.0.0.1:1", timeout=1.0, **kwargs)


@contextlib.contextmanager
def plain_http_server(status, payload, headers=()):
    """The URL of a stdlib HTTP/1.0 peer answering every GET the same way.

    ``http.server`` as it comes: one reply per connection, then it closes.
    """

    class FixedReply(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), FixedReply)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class CapRng:
    """A jitter RNG stub whose draw is always the top of the range."""

    def uniform(self, low: float, high: float) -> float:
        return high


class TestRetryPolicy:
    def test_deterministic_caps_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        rng = CapRng()
        delays = [policy.delay(i, rng) for i in range(4)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.5),  # capped
        ]

    def test_full_jitter_stays_within_the_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0)
        rng = random.Random(42)
        for retry_index in range(5):
            cap = min(1.0, 0.1 * 2.0**retry_index)
            for _ in range(50):
                delay = policy.delay(retry_index, rng)
                assert 0.0 <= delay <= cap

    def test_seeded_jitter_is_reproducible(self):
        policy = RetryPolicy(seed=7)
        a = [policy.delay(i, random.Random(policy.seed)) for i in range(3)]
        b = [policy.delay(i, random.Random(policy.seed)) for i in range(3)]
        assert a == b

    def test_retry_after_is_a_lower_bound(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.02)
        rng = random.Random(0)
        assert policy.delay(0, rng, retry_after=0.75) >= 0.75

    def test_retry_after_below_the_draw_leaves_it(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.02)
        assert policy.delay(0, CapRng(), retry_after=0.001) == pytest.approx(
            0.01
        )

    def test_delay_accepts_a_seeded_numpy_generator(self):
        from repro.util.rng import ensure_rng

        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0)
        a = [policy.delay(i, ensure_rng(5)) for i in range(4)]
        b = [policy.delay(i, ensure_rng(5)) for i in range(4)]
        assert a == b
        for retry_index, delay in enumerate(a):
            assert 0.0 <= delay <= min(1.0, 0.1 * 2.0**retry_index)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="retry_index"):
            RetryPolicy().delay(-1, random.Random(0))


class TestRetryLoop:
    def _stubbed(self, client, outcomes):
        """Replace the transport with a scripted outcome sequence."""
        calls = []

        def fake_request_once(method, path, body, deadline=None):
            calls.append((method, path))
            outcome = outcomes[min(len(calls), len(outcomes)) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = fake_request_once
        return calls

    def test_retries_overloaded_reads_honoring_retry_after(self):
        client = make_client(
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.01, max_delay=0.02, seed=3
            )
        )
        slept = []
        client._sleep = slept.append
        overloaded = Overloaded(
            "busy", queue_depth=4, capacity=4, retry_after=0.5
        )
        calls = self._stubbed(
            client, [overloaded, overloaded, {"status": "ok"}]
        )
        assert client.healthz() == {"status": "ok"}
        assert len(calls) == 3
        # Retry-After (0.5s) dominates the tiny backoff caps.
        assert len(slept) == 2
        assert all(wait >= 0.5 for wait in slept)
        stats = client.transport_stats()
        assert stats["retries"] == 2
        assert stats["overloaded"] == 2
        assert stats["retry_wait_s"] >= 1.0

    def test_raises_after_exhausting_attempts(self):
        client = make_client(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        client._sleep = lambda _: None
        overloaded = Overloaded("busy", queue_depth=1, capacity=1)
        calls = self._stubbed(client, [overloaded, overloaded])
        with pytest.raises(Overloaded):
            client.stats()
        assert len(calls) == 2

    def test_retries_transport_errors(self):
        client = make_client(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        client._sleep = lambda _: None
        calls = self._stubbed(
            client, [ConnectionResetError("reset"), {"status": "ok"}]
        )
        assert client.healthz() == {"status": "ok"}
        assert len(calls) == 2

    def test_non_retryable_errors_pass_straight_through(self):
        client = make_client(retry=RetryPolicy(max_attempts=5))
        client._sleep = lambda _: None
        calls = self._stubbed(client, [KeyError("missing")])
        with pytest.raises(KeyError):
            client.healthz()
        assert len(calls) == 1

    def test_writes_are_never_retried(self):
        client = make_client(
            retry=RetryPolicy(max_attempts=5, base_delay=0.0)
        )
        client._sleep = lambda _: None
        overloaded = Overloaded("busy", queue_depth=1, capacity=1)
        calls = self._stubbed(client, [overloaded])
        with pytest.raises(Overloaded):
            client.insert([[0.1, 0.2]], sequence_id="w")
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(Overloaded):
            client.remove("w")
        assert len(calls) == 1

    def test_no_policy_means_no_retry(self):
        client = make_client()
        overloaded = Overloaded("busy", queue_depth=1, capacity=1)
        calls = self._stubbed(client, [overloaded, {"status": "ok"}])
        with pytest.raises(Overloaded):
            client.healthz()
        assert len(calls) == 1

    def test_transport_stats_key_set(self):
        # Flat counters only: no per-layer blocks ride along.
        assert set(make_client().transport_stats()) == {
            "requests",
            "attempts",
            "retries",
            "transport_errors",
            "overloaded",
            "deadline_exhausted",
            "retry_wait_s",
            "connections_opened",
            "reconnects",
        }


class TestTypedErrorProvenance:
    """Every typed rebuild of a server payload chains its transport cause."""

    @pytest.mark.parametrize(
        "status,detail",
        [
            (429, {"message": "busy", "queue_depth": 3, "capacity": 4}),
            (504, {"message": "late", "timeout": 0.25}),
            (503, {"message": "gone", "type": "ShardUnavailable"}),
            (500, {"message": "boom"}),
            (400, {"message": "bad epsilon"}),
        ],
    )
    def test_raise_typed_chains_the_transport_cause(self, status, detail):
        from repro.service.client import _raise_typed

        cause = OSError("connection reset under the payload")
        with pytest.raises(Exception) as info:  # noqa: B017 - type varies by status
            _raise_typed(status, detail, cause=cause)
        assert info.value.__cause__ is cause

    def test_raise_typed_without_cause_stays_unchained(self):
        from repro.service.client import _raise_typed

        with pytest.raises(Overloaded) as info:
            _raise_typed(429, {"message": "busy"})
        assert info.value.__cause__ is None

    def test_http_error_rebuild_chains_end_to_end(self):
        """A served error status arrives typed, fields and header intact.

        A status reply is a reply, not a local exception (``urllib`` made
        it one): the rebuild has nothing to chain, so ``__cause__`` is
        ``None`` — the server's payload *is* the provenance.
        """
        payload = json.dumps(
            {"error": {"message": "busy", "queue_depth": 9, "capacity": 4}}
        ).encode()
        with plain_http_server(429, payload, [("Retry-After", "3")]) as url:
            with pytest.raises(Overloaded) as info:
                ServiceClient(url, timeout=2.0).healthz()
        assert type(info.value) is Overloaded
        assert info.value.args[0] == "busy"
        assert info.value.queue_depth == 9
        assert info.value.capacity == 4
        # Not in the body: the Retry-After header is the fallback.
        assert info.value.retry_after == 3.0
        assert info.value.__cause__ is None

    def test_non_json_error_body_chains_the_decode_failure(self):
        """A reply outside the protocol keeps its text and says why."""
        with plain_http_server(502, b"<html>bad gateway</html>") as url:
            with pytest.raises(ServiceError, match="HTTP 502.*bad gateway") as info:
                ServiceClient(url, timeout=2.0).healthz()
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


#: One instance of every error class, each wire field off its default.
ERROR_SAMPLES = [
    errors.ServiceError("boom"),
    errors.Overloaded("busy", queue_depth=3, capacity=4, retry_after=1.5),
    errors.DeadlineExceeded("late", timeout=0.25),
    errors.EngineClosed("closed"),
    errors.ShardUnavailable("gone", missing_shards=[2, 0]),
    errors.WriteQuorumFailed("short", shard=1, acks=1, required=2),
    errors.ReplicaDiverged("split", leader_seq=5, follower_seq=9),
    errors.SnapshotRequired("truncated", horizon=12, after_seq=3),
    errors.RepairOverflow("full", backend=2, pending=7, capacity=6),
    errors.FollowerReadOnly("read-only", leader="http://leader:1"),
    errors.HeadersTooLarge("header line longer than 65536 bytes"),
    errors.UnsupportedMethod("Unsupported method ('PUT')"),
]


class TestErrorWireFormat:
    """``encode_error`` and ``decode_error`` are inverse over the wire."""

    def test_every_error_class_has_a_sample(self):
        declared = {
            name
            for name in errors.__all__
            if isinstance(getattr(errors, name), type)
        }
        assert {type(error).__name__ for error in ERROR_SAMPLES} == declared

    @pytest.mark.parametrize(
        "error", ERROR_SAMPLES, ids=lambda error: type(error).__name__
    )
    def test_round_trip_keeps_type_and_fields(self, error):
        status, body, _ = encode_error(error, "search")
        detail = json.loads(json.dumps(body))["error"]
        decoded = decode_error(status, detail)
        assert type(decoded) is type(error)
        for name in type(error).wire_fields:
            assert getattr(decoded, name) == getattr(error, name), name

    @pytest.mark.parametrize(
        "status,expected",
        [
            (429, errors.Overloaded),
            (504, errors.DeadlineExceeded),
            (503, errors.EngineClosed),
            (410, errors.SnapshotRequired),
            (403, errors.FollowerReadOnly),
            (400, ValueError),
            (404, KeyError),
            (409, KeyError),
            (500, ServiceError),
            (502, ServiceError),
        ],
    )
    def test_a_non_json_body_falls_back_on_the_status(self, status, expected):
        with plain_http_server(status, b"<html>proxy page</html>") as url:
            with pytest.raises(Exception) as info:  # noqa: B017 - varies
                ServiceClient(url, timeout=2.0).healthz()
        assert type(info.value) is expected
        assert "proxy page" in str(info.value)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


class ScriptedPeer:
    """A loopback HTTP/1.1 peer that hangs up exactly when told to.

    ``script(connection, ordinal, method, path)`` — both counted from 1 —
    returns ``"reply"`` (a 200 keep-alive JSON reply naming the connection
    and path), ``"close"`` (hang up *without* replying: what a handler
    that died, or a parked connection whose FIN is still in flight, looks
    like to the client) or raw bytes to send verbatim.  Every request
    that arrived is in ``seen`` as ``(connection, method, path)``; the
    accepted sockets are in ``sockets`` so a test can hang up, or talk
    out of turn, on a connection the client has parked.
    """

    def __init__(self, script=lambda connection, ordinal, method, path: "reply"):
        peer = self
        self.seen: list[tuple[int, str, str]] = []
        self.sockets: dict[int, socket.socket] = {}

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                connection, ordinal = len(peer.sockets) + 1, 0
                peer.sockets[connection] = self.request
                while line := self.rfile.readline():
                    method, path, _ = line.decode().split()
                    length = 0
                    while (header := self.rfile.readline()) not in (b"\r\n", b""):
                        name, _, value = header.decode().partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    self.rfile.read(length)
                    peer.seen.append((connection, method, path))
                    ordinal += 1
                    action = script(connection, ordinal, method, path)
                    if action == "close":
                        return
                    if action == "reply":
                        payload = json.dumps(
                            {"connection": connection, "path": path}
                        ).encode()
                        head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(payload)}"
                        action = head.encode() + b"\r\n\r\n" + payload
                    self.wfile.write(action)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self.server = Server(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown()
        self.thread.join(timeout=5.0)
        self.server.server_close()


def hang_up_on_second_request(connection, ordinal, method, path):
    """Connection 1 answers once, then dies on its next request."""
    return "close" if (connection, ordinal) == (1, 2) else "reply"


class TestPooledTransport:
    def test_keep_alive_peer_is_dialled_once(self):
        with ScriptedPeer() as peer, ServiceClient(peer.url, timeout=2.0) as client:
            for _ in range(6):
                assert client.healthz()["connection"] == 1
            assert client.remove("x")["connection"] == 1
            assert len(peer.sockets) == 1
            assert client.transport_stats()["connections_opened"] == 1
            assert len(client._pool) == 1

    def test_http_10_peer_is_never_pooled(self):
        """A plain ``http.server`` closes after every reply: still works."""
        with plain_http_server(200, b'{"status": "ok"}') as url:
            client = ServiceClient(url, timeout=2.0)
            for _ in range(4):
                assert client.healthz() == {"status": "ok"}
                assert client._pool == []
            stats = client.transport_stats()
            assert stats["connections_opened"] == 4
            assert stats["reconnects"] == 0

    def test_reply_that_says_close_is_not_pooled(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        with ScriptedPeer(lambda *request: reply) as peer:
            client = ServiceClient(peer.url, timeout=2.0)
            assert client.healthz() == {}
            assert client.healthz() == {}
            assert client._pool == []
            assert len(peer.sockets) == 2

    @pytest.mark.parametrize(
        "stray", [b"", b"HTTP/1.1 408 Request Timeout\r\n\r\n"]
    )
    def test_parked_socket_readable_at_checkout_is_discarded(self, stray):
        """The idle check: after EOF or stray bytes the socket is not used."""
        with ScriptedPeer() as peer, ServiceClient(peer.url, timeout=2.0) as client:
            client.healthz()
            (parked,) = client._pool
            if stray:  # the peer talks out of turn: desynchronised
                peer.sockets[1].sendall(stray)
            else:  # the peer hangs up on the idle connection
                peer.sockets[1].shutdown(socket.SHUT_RDWR)
            parked.sock.settimeout(2.0)
            assert parked.sock.recv(1, socket.MSG_PEEK) == stray[:1]  # arrived
            # Exact, so a write is as safe on the pool as a read.
            assert client.remove("x")["connection"] == 2
            assert peer.seen == [(1, "GET", "/healthz"), (2, "POST", "/remove")]
            stats = client.transport_stats()
            assert stats["connections_opened"] == 2
            assert stats["reconnects"] == 0
            assert stats["transport_errors"] == 0
            assert parked.sock is None

    def test_idle_check_works_past_descriptor_1024(self):
        """``select.select`` rejects a descriptor numbered 1024 or more:
        the second call, the first that checks a parked socket, raised an
        untyped ``ValueError`` in a process with that many files open."""
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if hard != resource.RLIM_INFINITY and hard < 2048:
            pytest.skip(f"hard RLIMIT_NOFILE {hard} < 2048")
        resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 2048), hard))
        filler: list[int] = []
        try:
            while not filler or filler[-1] < 1100:
                filler.append(os.open(os.devnull, os.O_RDONLY))
            with ScriptedPeer() as peer, ServiceClient(
                peer.url, timeout=2.0
            ) as client:
                assert client.healthz()["connection"] == 1
                (parked,) = client._pool
                assert parked.sock.fileno() >= 1024
                assert client.healthz()["connection"] == 1
                assert client.transport_stats()["connections_opened"] == 1
        finally:
            for descriptor in filler:
                os.close(descriptor)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def test_read_on_a_dead_reused_connection_is_resent_once(self):
        """The race the idle check cannot close: the FIN is in flight."""
        with ScriptedPeer(hang_up_on_second_request) as peer:
            client = ServiceClient(peer.url, timeout=2.0)
            assert client.healthz()["connection"] == 1
            assert client.search([[0.1, 0.2]], 0.5)["connection"] == 2
            assert peer.seen == [
                (1, "GET", "/healthz"),
                (1, "POST", "/search"),
                (2, "POST", "/search"),
            ]
            stats = client.transport_stats()
            # At once: no backoff, no retry-budget token, one attempt.
            assert stats["reconnects"] == 1
            assert stats["connections_opened"] == 2
            assert stats["attempts"] == 2
            assert stats["retries"] == 0
            assert stats["transport_errors"] == 0

    def test_write_on_a_dead_reused_connection_is_never_resent(self):
        with ScriptedPeer(hang_up_on_second_request) as peer:
            client = ServiceClient(
                peer.url,
                timeout=2.0,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            )
            assert client.healthz()["connection"] == 1
            with pytest.raises(TRANSPORT_ERRORS):
                client.insert([[0.1, 0.2]], sequence_id="once")
            # The peer may have applied it: it was sent exactly once.
            assert peer.seen == [(1, "GET", "/healthz"), (1, "POST", "/insert")]
            stats = client.transport_stats()
            assert stats["reconnects"] == 0
            assert stats["retries"] == 0
            assert stats["transport_errors"] == 1
            assert client._pool == []
            assert client.healthz()["connection"] == 2

    def test_resend_is_one_send_not_a_loop(self):
        def script(connection, ordinal, method, path):
            return "close" if path == "/stats" else "reply"

        with ScriptedPeer(script) as peer:
            client = ServiceClient(peer.url, timeout=2.0)
            client.healthz()
            with pytest.raises(TRANSPORT_ERRORS):
                client.stats()
            assert peer.seen[1:] == [(1, "GET", "/stats"), (2, "GET", "/stats")]
            stats = client.transport_stats()
            assert stats["reconnects"] == 1
            assert stats["transport_errors"] == 1

    def test_timeout_on_a_reused_connection_is_not_resent(self):
        """A slow peer is not a stale connection: no second copy is sent."""
        release = threading.Event()

        def script(connection, ordinal, method, path):
            if path == "/stats":
                release.wait(5.0)
                return "close"
            return "reply"

        with ScriptedPeer(script) as peer:
            client = ServiceClient(peer.url, timeout=0.2)
            client.healthz()
            try:
                with pytest.raises(TimeoutError):
                    client.stats()
            finally:
                release.set()
            assert peer.seen == [(1, "GET", "/healthz"), (1, "GET", "/stats")]
            assert client.transport_stats()["reconnects"] == 0
            assert client._pool == []

    def test_base_url_picks_scheme_and_keeps_a_path_prefix(self):
        for bad in ("ftp://127.0.0.1:21", "127.0.0.1:8765", "http://", ""):
            with pytest.raises(ValueError, match="base_url"):
                ServiceClient(bad)
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:notaport")
        secure = ServiceClient("https://127.0.0.1:8443")._dial()
        assert isinstance(secure, http.client.HTTPSConnection)
        assert (secure.host, secure.port) == ("127.0.0.1", 8443)
        with ScriptedPeer() as peer:
            with ServiceClient(peer.url + "/api/v1/", timeout=2.0) as client:
                assert client.healthz()["path"] == "/api/v1/healthz"
                assert client.remove("x")["path"] == "/api/v1/remove"

    def test_connect_phase_oserrors_surface_as_connection_error(self):
        """What ``urllib`` wrapped in ``URLError`` stays a transport error."""

        class Unresolvable(http.client.HTTPConnection):
            def connect(self):
                raise socket.gaierror(-2, "Name or service not known")

        client = make_client()
        client._dial = lambda: Unresolvable("unresolvable.invalid")
        with pytest.raises(ConnectionError, match="127.0.0.1:1.*not known") as info:
            client.healthz()
        assert isinstance(info.value.__cause__, socket.gaierror)
        assert isinstance(info.value, TRANSPORT_ERRORS)
        assert not isinstance(socket.gaierror(), TRANSPORT_ERRORS)
        stats = client.transport_stats()
        assert stats["transport_errors"] == 1
        assert stats["connections_opened"] == 0

    def test_refused_connection_stays_itself(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=1.0)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert client._pool == []
