"""CI smoke test for the ``repro serve`` endpoint.

Boots the real CLI (``python -m repro serve``) on a tiny generated corpus
and a free port, waits for the banner line, hits ``/healthz``, ``/search``
and ``/stats`` through :class:`repro.service.client.ServiceClient` — every
call over one kept-alive connection — checks that the repeated search was
an exact cache hit that never queued (one queue-wait sample for the pair,
the miss's), that the adaptive admission limit sits at its ceiling with
nothing shed and ``degraded`` false, that a query posted as a nested list
(raw ``http.client``) and again in the point codec's form gets the same
answers and intervals, that a ``curl``-shaped request (raw socket,
lower-case header names, ``Expect: 100-continue`` before a codec body
over 1 KiB) gets its ``100 Continue`` and that its repeat is a hit whose
body bytes equal those of a third identical request, that a cached query
stays a hit with the same answers after an insert far from it and finds
an insert of its own points, then sends SIGINT *with that connection
still parked* and requires a clean exit with the shutdown banner: the
drain must close what it parked.  The whole serve path a user
would touch, end to end, in a few seconds.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

    from repro.service.client import ServiceClient

__all__ = ["main"]

_BANNER = re.compile(r"http://([\d.]+):(\d+)")


def _generate_corpus(path: Path) -> None:
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "generate",
            "--dataset",
            "fractal",
            "--sequences",
            "12",
            "--out",
            str(path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"corpus generation failed:\n{completed.stderr}")


def _check_list_form(
    host: str, port: int, client: ServiceClient, query: npt.NDArray[np.float64]
) -> None:
    """A nested-list body (raw ``http.client``) answers like the codec form.

    The list form is read for one release; the codec form ``ServiceClient``
    sends must decode to the same bits, so the second search is an exact
    cache hit with the same answers and intervals.
    """
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        body = {"points": query.tolist(), "epsilon": 0.5, "find_intervals": True}
        connection.request(
            "POST",
            "/search",
            json.dumps(body).encode(),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        listed = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"list-form /search failed: {listed}")
    finally:
        connection.close()
    encoded = client.search(query, 0.5, find_intervals=True)
    if (
        encoded["answers"] != listed["answers"]
        or encoded["intervals"] != listed["intervals"]
        or encoded["cache"] != "hit"
    ):
        raise RuntimeError(
            f"list and codec forms disagree: {listed} vs {encoded}"
        )


def _curl_search(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    """``POST /search`` shaped as ``curl -d @query.json`` sends it.

    Lower-case header names, and the body held back until the server's
    ``100 Continue`` arrives (``curl`` asks for one past 1 KiB).  Returns
    the final reply's status and its body bytes.
    """
    head = (
        f"POST /search HTTP/1.1\r\nhost: {host}:{port}\r\n"
        "user-agent: curl/8.5.0\r\naccept: */*\r\n"
        "content-type: application/json\r\n"
        f"content-length: {len(body)}\r\nexpect: 100-continue\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=10.0) as peer:
        stream = peer.makefile("rb")
        peer.sendall(head.encode("ascii"))
        interim = stream.readline()
        if not interim.startswith(b"HTTP/1.1 100 ") or stream.readline() != b"\r\n":
            raise RuntimeError(f"no 100 Continue before the body: {interim!r}")
        peer.sendall(body)
        status = int(stream.readline().split()[1])
        length = 0
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, stream.read(length)


def _check_curl_shaped(
    host: str, port: int, query: npt.NDArray[np.float64]
) -> None:
    """Three identical ``curl``-shaped searches: a miss, then two hits
    whose body bytes are the same stored reply."""
    from repro.service.wal import encode_points

    body = json.dumps(
        {"points": encode_points(query), "epsilon": 0.5, "find_intervals": True}
    ).encode()
    if len(body) <= 1024:
        raise RuntimeError(f"curl-shaped body is only {len(body)} bytes")
    replies = [_curl_search(host, port, body) for _ in range(3)]
    for status, reply in replies:
        if status != 200:
            raise RuntimeError(f"curl-shaped /search answered {status}: {reply!r}")
    (_, first), (_, second), (_, third) = replies
    if json.loads(first)["cache"] != "miss" or json.loads(second)["cache"] != "hit":
        raise RuntimeError(f"curl-shaped repeat was not a hit: {second!r}")
    if second != third:
        raise RuntimeError(f"two hits sent different bytes: {second!r} vs {third!r}")


def _post(host: str, port: int, path: str, body: dict) -> dict:
    """One raw ``POST`` on its own connection: the decoded reply."""
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        connection.request(
            "POST", path, json.dumps(body).encode(), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        reply: dict = json.loads(response.read())
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"{path} answered {response.status}: {reply}")
    return reply


def _check_write_through(
    host: str, port: int, client: ServiceClient, dimension: int
) -> None:
    """Writes patch the cached query instead of flushing it.

    The query sits in the low corner of the unit cube.  An insert in the
    high corner cannot change its answers: the next search is still a
    hit, at the insert's snapshot version, with the same answers.  An
    insert of the query's own points is an answer the next search finds.
    """
    import numpy as np

    from repro.service.wal import encode_points

    rng = np.random.default_rng(2001)
    query = 0.1 * rng.random((20, dimension))
    first = client.search(query, 0.3)
    if client.search(query, 0.3)["cache"] != "hit":
        raise RuntimeError("write-through leg: the repeat was not a hit")
    far = _post(
        host,
        port,
        "/insert",
        {"points": encode_points(0.9 + 0.1 * rng.random((10, dimension)))},
    )
    after = client.search(query, 0.3)
    if (
        after["cache"] != "hit"
        or after["snapshot_version"] != far["snapshot_version"]
        or after["answers"] != first["answers"]
    ):
        raise RuntimeError(
            f"a far insert changed the cached query: {first} then {after}"
        )
    near = _post(host, port, "/insert", {"points": encode_points(query)})
    found = client.search(query, 0.3)
    if (
        found["snapshot_version"] != near["snapshot_version"]
        or near["sequence_id"] not in found["answers"]
    ):
        raise RuntimeError(f"the query's own points are no answer: {near} {found}")


def main() -> int:
    """Run the smoke sequence; returns a process exit code."""
    import numpy as np

    from repro.service.client import ServiceClient

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        corpus = Path(tmp) / "corpus.npz"
        _generate_corpus(corpus)

        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--corpus",
                str(corpus),
                "--port",
                "0",
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            if server.stdout is None:
                raise RuntimeError("server stdout was not captured")
            banner = server.stdout.readline()
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"no address banner in: {banner!r}")
            host, port = match.group(1), int(match.group(2))
            client = ServiceClient(f"http://{host}:{port}", timeout=10.0)

            health = client.healthz()
            if health["status"] != "ok" or health["sequences"] != 12:
                raise RuntimeError(f"bad /healthz reply: {health}")

            dimension = int(health["dimension"])
            rng = np.random.default_rng(2000)
            query = rng.random((30, dimension))
            before = client.stats()
            reply = client.search(query, 0.5, find_intervals=True)
            for field in ("answers", "candidates", "cache", "snapshot_version"):
                if field not in reply:
                    raise RuntimeError(f"/search reply missing {field!r}: {reply}")
            again = client.search(query, 0.5)
            if again["cache"] != "hit" or again["answers"] != reply["answers"]:
                raise RuntimeError(f"repeat query not served from cache: {again}")

            stats = client.stats()
            if (
                stats["requests_total"] < 2
                or stats["cache"]["hits"] != before["cache"]["hits"] + 1
            ):
                raise RuntimeError(f"bad /stats reply: {stats}")
            # The miss queued for the pool; the exact hit ran on the handler
            # thread, so only the miss is a queue-wait sample.
            samples = (
                stats["admission"]["queue_wait_ms"]["window"]
                - before["admission"]["queue_wait_ms"]["window"]
            )
            if samples != 1:
                raise RuntimeError(
                    f"expected one queue-wait sample (the pooled miss), "
                    f"got {samples}: {stats['admission']}"
                )
            # Light traffic never queues past the wait target: the adaptive
            # admission limit stays at its ceiling and nothing is shed.
            admission = stats["admission"]
            if (
                admission["limit"] != admission["max_limit"]
                or admission["shed_by_priority"]
                or client.healthz()["degraded"] is not False
            ):
                raise RuntimeError(f"admission cut at smoke load: {admission}")
            _check_list_form(host, port, client, rng.random((20, dimension)))
            _check_curl_shaped(host, port, rng.random((60, dimension)))
            _check_write_through(host, port, client, dimension)
            transport = client.transport_stats()
            if transport["connections_opened"] != 1:
                raise RuntimeError(f"calls did not share a connection: {transport}")

            server.send_signal(signal.SIGINT)
            deadline = time.monotonic() + 15
            while server.poll() is None and time.monotonic() < deadline:
                time.sleep(0.1)
            if server.poll() != 0:
                raise RuntimeError(
                    f"server did not exit cleanly (returncode={server.poll()})"
                )
            tail = server.stdout.read()
            if "shut down cleanly" not in tail:
                raise RuntimeError(f"missing shutdown banner in: {tail!r}")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

    print(
        "serve smoke OK: /healthz, /search (pooled miss, then a hit on the "
        "handler thread), /stats over one connection, admission limit at "
        "its ceiling, list and codec point forms agree, a curl-shaped "
        "repeat is a hit with stored bytes, writes patch a cached query, "
        "clean SIGINT shutdown with it parked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
