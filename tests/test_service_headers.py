"""The transport's header reader and the request framing rules built on it.

:func:`repro.service.headers.read_headers` is compared with the stdlib's
e-mail parse (``http.client.parse_headers``) as an oracle on benign
blocks; the server's framing (limits, ``Expect: 100-continue``,
``Connection``, duplicate ``Content-Length``, protocol errors answered in
the JSON error envelope) is driven over raw loopback sockets, where no
client library tidies the bytes.
"""

import http.client
import io
import json
import re
import socket
import threading

import pytest

from repro.core.database import SequenceDatabase
from repro.service import HeadersTooLarge, QueryEngine
from repro.service.headers import MAX_HEADERS, MAX_LINE, read_headers
from repro.service.http import serve
from repro.service.wal import encode_points


@pytest.fixture
def endpoint(rng):
    database = SequenceDatabase(dimension=2)
    for ordinal in range(6):
        database.add(rng.random((25, 2)), sequence_id=f"s{ordinal}")
    engine = QueryEngine(database, workers=1, cache_size=8)
    server = serve(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    engine.close()


def connect(address):
    return socket.create_connection(address, timeout=10.0)


def read_reply(peer):
    """One reply off ``peer``: status, headers (stdlib parse), body."""
    reply = http.client.HTTPResponse(peer)
    reply.begin()
    return reply.status, reply.headers, reply.read()


def search_request(points, *, headers=""):
    body = json.dumps(
        {"points": encode_points(points), "epsilon": 0.3}
    ).encode()
    head = (
        "POST /search HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n{headers}\r\n"
    )
    return head.encode(), body


BENIGN_BLOCKS = {
    "mixed case": b"Host: a\r\ncontent-TYPE: application/json\r\nX-Repro-Budget: 1.5\r\n\r\n",
    "repeated": b"Accept: a\r\nX-Tag: one\r\naccept: b\r\nx-tag: two\r\nX-TAG: three\r\n\r\n",
    "obs-fold": b"X-Long: first\r\n  second\r\n\tthird\r\nHost: h\r\n\r\n",
    "empty block": b"\r\n",
    "bare LF": b"Host: a\nX-Empty:\n\n",
    "end of stream": b"Host: a\r\nX-B: b\r\n",
}


class TestReaderAgainstTheStdlib:
    @pytest.mark.parametrize("block", BENIGN_BLOCKS.values(), ids=BENIGN_BLOCKS)
    def test_same_fields_as_the_email_parse(self, block):
        oracle = http.client.parse_headers(io.BytesIO(block))
        headers = read_headers(io.BytesIO(block))

        def unfolded(value):
            # RFC 9112 §5.2: a recipient replaces obs-fold with a space.
            return re.sub(r"\r?\n[ \t]+", " ", value).strip(" \t")

        assert headers.items() == [
            (name, unfolded(value)) for name, value in oracle.items()
        ]
        for name in {name.lower() for name, _ in oracle.items()} | {"absent"}:
            for spelling in (name, name.upper(), name.title()):
                expected = oracle.get(spelling)
                assert headers.get(spelling) == (
                    None if expected is None else unfolded(expected)
                )
                assert headers.get_all(spelling) == (
                    None
                    if oracle.get_all(spelling) is None
                    else [unfolded(value) for value in oracle.get_all(spelling)]
                )
                assert (spelling in headers) == (spelling in oracle)

    def test_reads_exactly_one_block(self):
        stream = io.BytesIO(b"Host: a\r\n\r\n{\"body\": 1}")
        assert read_headers(stream).get("host") == "a"
        assert stream.read() == b'{"body": 1}'

    def test_limits_are_the_stdlibs(self):
        longest = b"X: " + b"a" * (MAX_LINE - 5) + b"\r\n"
        assert len(longest) == MAX_LINE
        assert read_headers(io.BytesIO(longest + b"\r\n")).get("x")
        with pytest.raises(HeadersTooLarge):
            read_headers(io.BytesIO(b"X: a" + longest + b"\r\n"))
        for count in (MAX_HEADERS - 1, MAX_HEADERS):
            block = b"".join(b"X-%d: v\r\n" % i for i in range(count)) + b"\r\n"
            try:
                http.client.parse_headers(io.BytesIO(block))
            except http.client.HTTPException:
                with pytest.raises(HeadersTooLarge):
                    read_headers(io.BytesIO(block))
            else:
                assert len(read_headers(io.BytesIO(block)).items()) == count

    @pytest.mark.parametrize(
        "line",
        [b"no colon here", b"Content-Length : 5", b": nameless", b" leading fold"],
    )
    def test_malformed_lines_are_refused(self, line):
        with pytest.raises(ValueError):
            read_headers(io.BytesIO(line + b"\r\n\r\n"))


class TestProtocolErrors:
    """Every refusal is the JSON error envelope, and the server hangs up."""

    @pytest.mark.parametrize(
        "request_bytes,status,error_type",
        [
            (b"NONSENSE\r\n\r\n", 400, "ValueError"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400, "ValueError"),
            (b"GET /healthz\r\n\r\n", 400, "ValueError"),
            (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 400, "ValueError"),
            (
                b"GET /healthz HTTP/1.1\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n",
                431,
                "HeadersTooLarge",
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS))
                + b"\r\n",
                431,
                "HeadersTooLarge",
            ),
            (b"GET /healthz HTTP/1.1\r\nBad Header\r\n\r\n", 400, "ValueError"),
            (b"PUT /insert HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501, "UnsupportedMethod"),
        ],
        ids=[
            "bad-request-line",
            "http-2",
            "http-0.9",
            "request-line-too-long",
            "header-line-too-long",
            "too-many-headers",
            "malformed-header",
            "unknown-method",
        ],
    )
    def test_refusal_is_typed_json_and_closes(
        self, endpoint, request_bytes, status, error_type
    ):
        with connect(endpoint) as peer:
            peer.sendall(request_bytes)
            got, headers, body = read_reply(peer)
            assert got == status
            assert headers["Content-Type"] == "application/json"
            assert headers["Connection"] == "close"
            detail = json.loads(body)["error"]
            assert detail["type"] == error_type
            assert detail["message"]
            assert peer.recv(1) == b""


class TestFraming:
    def test_conflicting_content_lengths_are_refused_and_close(
        self, rng, endpoint
    ):
        """RFC 9112 §6.3: the body's end is unknown, so nothing after the
        first length may be read as the connection's next request."""
        body = json.dumps({"sequence_id": "s1"}).encode()
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
        with connect(endpoint) as peer:
            peer.sendall(
                b"POST /remove HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n"
                b"Content-Length: %d\r\n\r\n" % (len(body) + len(smuggled))
                + body
                + smuggled
            )
            status, headers, reply = read_reply(peer)
            assert status == 400
            assert headers["Connection"] == "close"
            detail = json.loads(reply)["error"]
            assert detail["type"] == "ValueError"
            assert "Content-Length" in detail["message"]
            assert peer.recv(65536) == b""  # the smuggled GET got no answer

    def test_repeated_equal_content_lengths_are_one_length(self, rng, endpoint):
        head, body = search_request(rng.random((6, 2)))
        repeated = head.replace(
            b"\r\n\r\n", b"\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        with connect(endpoint) as peer:
            peer.sendall(repeated + body)
            status, headers, reply = read_reply(peer)
            assert status == 200
            assert headers["Connection"] is None
            assert json.loads(reply)["cache"] == "miss"

    def test_expect_100_continue_is_answered_before_the_body(self, rng, endpoint):
        """As ``curl`` sends a body over 1 KiB: head, wait for 100, body."""
        points = rng.random((80, 2))
        head, body = search_request(
            points, headers="expect: 100-continue\r\ncontent-type: application/json\r\n"
        )
        assert len(body) > 1024
        with connect(endpoint) as peer:
            peer.settimeout(5.0)
            peer.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = peer.recv(1)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            peer.sendall(body)
            status, headers, reply = read_reply(peer)
            assert status == 200
            assert json.loads(reply)["cache"] == "miss"

    @pytest.mark.parametrize(
        "version,connection,closes",
        [
            ("HTTP/1.1", None, False),
            ("HTTP/1.1", "close", True),
            ("HTTP/1.1", "Close", True),
            ("HTTP/1.0", None, True),
            ("HTTP/1.0", "keep-alive", False),
        ],
    )
    def test_connection_rules(self, endpoint, version, connection, closes):
        extra = "" if connection is None else f"Connection: {connection}\r\n"
        request = f"GET /healthz {version}\r\nHost: test\r\n{extra}\r\n".encode()
        with connect(endpoint) as peer:
            peer.sendall(request)
            status, headers, _ = read_reply(peer)
            assert status == 200
            assert (headers["Connection"] == "close") is closes
            if closes:
                assert peer.recv(1) == b""
            else:
                peer.sendall(request)  # the same connection serves another
                assert read_reply(peer)[0] == 200
