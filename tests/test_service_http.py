"""End-to-end tests of the HTTP endpoint and its client.

The server binds port 0 (a free ephemeral port) so tests never collide;
each fixture tears the server and engine down deterministically.  Status
codes are asserted at the raw urllib level; the typed-exception round
trip (429 → Overloaded etc.) through :class:`ServiceClient`.  The pooled
transport and the server's connection lifecycle (one-send replies, body
before reply, idle timeout, drain closing parked connections, backlog)
are driven over real loopback sockets, raw ``http.client`` where the
client would hide the effect.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import (
    DeadlineExceeded,
    EngineClosed,
    FaultRule,
    Overloaded,
    QueryEngine,
    ServiceClient,
    fault_plan,
    query_fingerprint,
)
from repro.service.http import search_payload, serve
from repro.service.wal import encode_points
from repro.util.freeze import FrozenDict


def build_database(rng, count=8):
    database = SequenceDatabase(dimension=2)
    for ordinal in range(count):
        database.add(rng.random((25, 2)), sequence_id=f"s{ordinal}")
    return database


def start_server(engine):
    server = serve(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0
    )
    return server, client


@pytest.fixture
def served(rng):
    engine = QueryEngine(build_database(rng), workers=2, cache_size=8)
    server, client = start_server(engine)
    yield engine, client
    client.close()
    server.shutdown()
    server.server_close()
    engine.close()


def post_status(client, path, body, headers=()):
    """Raw POST returning the HTTP status code."""
    request = urllib.request.Request(
        client.base_url + path,
        data=json.dumps(body).encode(),
        method="POST",
        headers={"Content-Type": "application/json", **dict(headers)},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as reply:
            return reply.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


class TestRoutes:
    def test_healthz(self, served):
        engine, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["sequences"] == 8
        assert health["dimension"] == 2
        assert health["snapshot_version"] == 0

    def test_search_matches_embedded_engine(self, rng, served):
        engine, client = served
        query = rng.random((10, 2))
        reply = client.search(query, 0.5)
        embedded = engine.search(query, 0.5)
        assert reply["answers"] == list(embedded.answers)
        assert reply["candidates"] == list(embedded.candidates)
        assert reply["snapshot_version"] == 0
        for sequence_id, interval in embedded.solution_intervals.items():
            assert reply["intervals"][str(sequence_id)] == [
                [start, stop] for start, stop in interval.intervals
            ]

    def test_repeated_search_is_a_cache_hit(self, rng, served):
        _, client = served
        query = rng.random((10, 2))
        first = client.search(query, 0.5)
        again = client.search(query, 0.5)
        assert first["cache"] == "miss"
        assert again["cache"] == "hit"
        assert again["answers"] == first["answers"]
        tighter = client.search(query, 0.2)
        assert tighter["cache"] == "refine"
        assert set(tighter["answers"]) <= set(first["answers"])

    def test_find_intervals_false_omits_intervals(self, rng, served):
        _, client = served
        reply = client.search(rng.random((10, 2)), 0.5, find_intervals=False)
        assert "intervals" not in reply

    def test_knn(self, rng, served):
        engine, client = served
        query = rng.random((10, 2))
        neighbors = client.knn(query, 3)
        assert neighbors == engine.knn(query, 3)
        distances = [distance for distance, _ in neighbors]
        assert distances == sorted(distances)

    def test_insert_then_search_and_remove(self, rng, served):
        engine, client = served
        points = rng.random((25, 2))
        assert client.insert(points, sequence_id="fresh") == "fresh"
        assert client.healthz()["sequences"] == 9
        assert client.healthz()["snapshot_version"] == 1
        reply = client.search(points, 0.05)
        assert "fresh" in reply["answers"]
        client.remove("fresh")
        assert client.healthz()["sequences"] == 8

    def test_stats_endpoint(self, rng, served):
        engine, client = served
        client.search(rng.random((10, 2)), 0.5)
        stats = client.stats()
        assert stats == engine.stats() or stats["requests_total"] >= 1
        for key in (
            "requests",
            "completed",
            "latency_ms",
            "cache",
            "queue_depth",
            "snapshot_version",
            "uptime_s",
            "repro_version",
        ):
            assert key in stats


def raw_search(connection, query, epsilon, find_intervals=True):
    """``POST /search`` over a raw connection: the reply body's bytes."""
    body = {
        "points": encode_points(query),
        "epsilon": epsilon,
        "find_intervals": find_intervals,
    }
    connection.request("POST", "/search", body=json.dumps(body).encode())
    reply = connection.getresponse()
    assert reply.status == 200
    return reply.read()


class TestStoredReply:
    """An exact hit's body is encoded once, kept in its cache entry's
    reply slot, and sent as stored by every later hit on that entry."""

    def test_hit_body_is_the_encoded_payload(self, rng, served):
        engine, client = served
        query = rng.random((10, 2))
        connection = raw_connection(client)
        try:
            raw_search(connection, query, 0.5)  # the miss stores the entry
            # Both spellings hit the same entry; each gets its own body.
            bodies = {
                find_intervals: [
                    raw_search(connection, query, 0.5, find_intervals)
                    for _ in range(2)
                ]
                for find_intervals in (True, False)
            }
        finally:
            connection.close()
        for find_intervals, (first, stored) in bodies.items():
            response = engine.search_detailed(
                query, 0.5, find_intervals=find_intervals
            )
            assert response.cache == "hit"
            expected = json.dumps(
                search_payload(response, find_intervals=find_intervals)
            ).encode()
            assert first == stored == expected
        assert b'"intervals"' in bodies[True][0]
        assert b'"intervals"' not in bodies[False][0]

    @pytest.mark.parametrize(
        "write,touches",
        [
            ("insert", True),
            ("insert", False),
            ("append", True),
            ("append", False),
            ("remove", True),
            ("remove", False),
        ],
    )
    def test_hit_after_a_write_serves_the_new_snapshot(self, rng, write, touches):
        # Sequences kept apart, so the query answers some of them only.
        corpus = [
            0.4 * rng.random((25, 2)) + 0.6 * (ordinal % 2) for ordinal in range(8)
        ]

        def database():
            built = SequenceDatabase(dimension=2)
            for ordinal, points in enumerate(corpus):
                built.add(points, sequence_id=f"s{ordinal}")
            return built

        engine = QueryEngine(database(), workers=2, cache_size=8)
        uncached = QueryEngine(database(), workers=2, cache_size=0)
        server, client = start_server(engine)
        query, epsilon = corpus[0][5:15], 0.1
        try:
            before = client.search(query, epsilon)
            assert client.search(query, epsilon)["cache"] == "hit"  # slot filled
            answers = before["answers"]
            others = [f"s{i}" for i in range(8) if f"s{i}" not in answers]
            assert answers and others
            points = query if touches else query + 0.6
            for target in (client, uncached):
                if write == "insert":
                    target.insert(points, sequence_id="written")
                elif write == "append":
                    target.append(others[0] if touches else answers[0], points)
                else:
                    target.remove(answers[0] if touches else others[0])
            expected = uncached.search_detailed(query, epsilon)
            for _ in range(2):  # the slot's first fill, then its stored bytes
                reply = client.search(query, epsilon)
                assert reply["cache"] == "hit"
                assert reply["snapshot_version"] == expected.snapshot_version == 1
                assert reply["answers"] == expected.result.answers
                assert reply["candidates"] == expected.result.candidates
                assert reply["intervals"] == {
                    str(sid): [list(pair) for pair in interval.intervals]
                    for sid, interval in expected.result.solution_intervals.items()
                }
            assert (reply["answers"] != answers) is touches
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            engine.close()
            uncached.close()

    def test_an_unchanged_entry_keeps_its_slot_across_writes(self, rng, served):
        """A write that leaves an entry's sets alone leaves the entry in
        place: later hits reuse its database order, encode a body at the
        new version and drop the older version's bodies."""
        engine, client = served
        query, epsilon = 0.1 * rng.random((10, 2)), 0.2
        key = query_fingerprint(query)
        connection = raw_connection(client)
        try:
            raw_search(connection, query, epsilon)  # the miss stores the entry
            raw_search(connection, query, epsilon)  # the first hit fills the slot
            entry = engine._cache.peek(key, epsilon, engine.snapshot_version)
            order = entry.reply.order
            assert order is not None
            for ordinal in range(10):
                far = 0.9 + 0.1 * rng.random((8, 2))
                client.insert(far, sequence_id=f"far{ordinal}")
                version = engine.snapshot_version
                for find_intervals in (True, False):
                    body = raw_search(connection, query, epsilon, find_intervals)
                    response = engine.search_detailed(
                        query, epsilon, find_intervals=find_intervals
                    )
                    assert response.cache == "hit"
                    assert response.snapshot_version == version
                    assert body == json.dumps(
                        search_payload(response, find_intervals=find_intervals)
                    ).encode()
                    assert json.loads(body)["snapshot_version"] == version
                assert engine._cache.peek(key, epsilon, version) is entry
                assert entry.reply.order is order
                assert len(entry.reply.bodies) <= 2
        finally:
            connection.close()
        assert set(entry.reply.bodies) == {(version, True), (version, False)}

    def test_contract_validator_runs_on_a_stored_hit(
        self, rng, served, check_env, monkeypatch
    ):
        check_env(contracts="1")
        engine, client = served
        validate = SimilaritySearch.search.__contract_validator__
        served_answers = []

        def spy(result, *args, **kwargs):
            served_answers.append(list(result.answers))
            validate(result, *args, **kwargs)

        monkeypatch.setattr(SimilaritySearch.search, "__contract_validator__", spy)
        query = rng.random((10, 2))
        client.search(query, 0.5)
        for _ in range(2):  # the slot's first fill, then its stored bytes
            served_answers.clear()
            reply = client.search(query, 0.5)
            assert reply["cache"] == "hit"
            assert served_answers == [reply["answers"]]

    def test_response_fault_fires_on_a_stored_reply(self, rng, served):
        engine, client = served
        query = rng.random((10, 2))
        connection = raw_connection(client)
        try:
            raw_search(connection, query, 0.5)
            stored = raw_search(connection, query, 0.5)
            with fault_plan(FaultRule("http.response", "raise")) as plan:
                with pytest.raises(ConnectionError):
                    raw_search(connection, query, 0.5)
            assert plan.fired("http.response") == 1
        finally:
            connection.close()
        connection = raw_connection(client)
        try:
            assert raw_search(connection, query, 0.5) == stored
        finally:
            connection.close()

    def test_filling_the_slot_under_freeze_checks(self, rng, check_env):
        check_env(freeze="1")
        engine = QueryEngine(build_database(rng), workers=2, cache_size=8)
        server, client = start_server(engine)
        query = rng.random((10, 2))
        try:
            first = client.search(query, 0.5)
            for _ in range(2):
                reply = client.search(query, 0.5)
                assert reply["cache"] == "hit"
                assert reply["answers"] == first["answers"]
                assert reply["intervals"] == first["intervals"]
            entry = engine._cache.peek(query_fingerprint(query), 0.5, 0)
            assert isinstance(entry.intervals, FrozenDict)  # published frozen
            assert entry.reply.order is not None
            assert list(entry.reply.bodies) == [(0, True)]
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            engine.close()


class TestErrorMapping:
    def test_duplicate_insert_is_409(self, rng, served):
        _, client = served
        points = rng.random((20, 2)).tolist()
        assert post_status(client, "/insert", {"points": points, "sequence_id": "dup"}) == 200
        assert post_status(client, "/insert", {"points": points, "sequence_id": "dup"}) == 409
        with pytest.raises(KeyError):
            client.insert(points, sequence_id="dup")

    def test_unknown_remove_is_404(self, served):
        _, client = served
        assert post_status(client, "/remove", {"sequence_id": "ghost"}) == 404
        with pytest.raises(KeyError):
            client.remove("ghost")

    def test_bad_input_is_400(self, rng, served):
        _, client = served
        points = rng.random((10, 2)).tolist()
        assert post_status(client, "/search", {"points": points, "epsilon": -1}) == 400
        assert post_status(client, "/search", {"epsilon": 0.5}) == 400
        assert post_status(client, "/search", {"points": points, "epsilon": 0.5, "timeout": -2}) == 400
        with pytest.raises(ValueError):
            client.search(points, -1.0)

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("where", ["header", "body"])
    def test_a_non_finite_or_non_positive_budget_is_400(self, rng, served, where, budget):
        """At the parent, ``inf`` in the header was a 500 (``OverflowError``),
        ``NaN`` in the body a 504 and ``nan`` in the header a 200 served
        under a deadline that never expires."""
        engine, client = served
        body = {"points": rng.random((10, 2)).tolist(), "epsilon": 0.5}
        headers = {}
        if where == "header":
            headers["X-Repro-Budget"] = budget
        else:
            body["timeout"] = float(budget)  # json writes NaN / Infinity
        completed = engine.stats()["completed"]
        for path in ("/search", "/knn"):
            payload = dict(body, k=2) if path == "/knn" else body
            assert post_status(client, path, payload, headers) == 400
        assert engine.stats()["completed"] == completed

    def test_unknown_route_is_404(self, served):
        _, client = served
        assert post_status(client, "/nope", {}) == 404

    def test_overloaded_is_429_and_typed(self, rng):
        engine = QueryEngine(build_database(rng, count=3), workers=1, queue_cap=0)
        gate = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (gate.wait(5), inner(*args))[1]
        server, client = start_server(engine)
        query = rng.random((8, 2))
        blocker = threading.Thread(
            target=lambda: post_status(
                client, "/search", {"points": query.tolist(), "epsilon": 0.5}
            )
        )
        blocker.start()
        try:
            deadline = time.monotonic() + 5
            while engine.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            with pytest.raises(Overloaded) as caught:
                client.search(query, 0.5)
            assert caught.value.capacity == 1
        finally:
            gate.set()
            blocker.join()
            server.shutdown()
            server.server_close()
            engine.close()

    def test_deadline_is_504_and_typed(self, rng):
        engine = QueryEngine(build_database(rng, count=3), workers=1)
        inner = engine._do_search
        engine._do_search = lambda *args: (time.sleep(0.4), inner(*args))[1]
        server, client = start_server(engine)
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                client.search(rng.random((8, 2)), 0.5, timeout=0.05)
            # The server sees the *remaining* budget, not the original
            # 0.05 — the client debits its own overhead before sending.
            assert 0.0 < caught.value.timeout <= 0.05
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_closed_engine_is_503_and_typed(self, rng):
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        engine.close()
        try:
            assert client.healthz()["status"] == "closed"
            with pytest.raises(EngineClosed):
                client.search(rng.random((8, 2)), 0.5)
        finally:
            server.shutdown()
            server.server_close()


class TestClientValidation:
    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", timeout=0.0)

    def test_base_url_normalised(self):
        client = ServiceClient("http://127.0.0.1:9999/")
        assert client.base_url == "http://127.0.0.1:9999"


class TestRetryAfterAndDegraded:
    def test_429_carries_retry_after_header_and_payload(self, rng):
        engine = QueryEngine(
            build_database(rng, count=3), workers=1, queue_cap=0
        )
        gate = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (gate.wait(5), inner(*args))[1]
        server, client = start_server(engine)
        query = rng.random((8, 2))
        blocker = threading.Thread(
            target=lambda: post_status(
                client, "/search", {"points": query.tolist(), "epsilon": 0.5}
            )
        )
        blocker.start()
        try:
            deadline = time.monotonic() + 5
            while engine.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            request = urllib.request.Request(
                client.base_url + "/search",
                data=json.dumps(
                    {"points": query.tolist(), "epsilon": 0.5}
                ).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10.0)
            error = caught.value
            assert error.code == 429
            # RFC 9110 integral delay-seconds, rounded up from the hint.
            assert int(error.headers["Retry-After"]) >= 1
            detail = json.loads(error.read())["error"]
            assert detail["queue_depth"] == 1
            assert detail["capacity"] == 1
            assert detail["retry_after"] > 0
            # The typed client surfaces the same hint.
            with pytest.raises(Overloaded) as typed:
                client.search(query, 0.5)
            assert typed.value.retry_after is not None
            assert typed.value.queue_depth == 1
        finally:
            gate.set()
            blocker.join()
            server.shutdown()
            server.server_close()
            engine.close()

    def test_healthz_reports_degraded(self, rng):
        """``degraded`` is the limiter's own signal: a read that queued past
        the wait target cuts the limit below its ceiling, and the cut
        limit's write headroom sheds an insert; no option turns it on."""
        engine = QueryEngine(
            build_database(rng, count=2), workers=1, queue_cap=1
        )
        server, client = start_server(engine)
        gates = [threading.Event(), threading.Event()]
        order = iter(gates)
        inner = engine._do_search
        engine._do_search = lambda *args: (next(order).wait(5), inner(*args))[1]
        query = rng.random((8, 2))
        readers = [
            threading.Thread(target=lambda: engine.search(query, 0.5))
            for _ in gates
        ]
        try:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["degraded"] is False
            assert health["queue_depth"] == 0
            assert health["durable"] is False
            # The first read holds the single worker; the second queues
            # behind it for longer than the 0.1 s target.
            for depth, reader in enumerate(readers, start=1):
                reader.start()
                deadline = time.monotonic() + 5
                while engine.queue_depth < depth and time.monotonic() < deadline:
                    time.sleep(0.005)
            time.sleep(0.15)
            gates[0].set()
            deadline = time.monotonic() + 5
            while not engine.degraded and time.monotonic() < deadline:
                time.sleep(0.005)
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            with pytest.raises(Overloaded) as caught:
                engine.insert(rng.random((10, 2)), sequence_id="shed-me")
            assert "write-priority" in str(caught.value)
            assert caught.value.retry_after is not None
            assert "shed-me" not in engine.sequence_ids()
            shed = engine.stats()["admission"]["shed_by_priority"]
            assert shed == {"write": 1}
            gates[1].set()
            for reader in readers:
                reader.join(5)
            engine._do_search = inner
            # An exact cache hit never queues, so it is no wait sample...
            assert engine.search_detailed(query, 0.5).cache == "hit"
            assert client.healthz()["status"] == "degraded"
            # ...while a pooled read that does not wait grows the limit
            # back to its ceiling.
            engine.search(rng.random((8, 2)), 0.5)
            assert client.healthz()["status"] == "ok"
        finally:
            for gate in gates:
                gate.set()
            server.shutdown()
            server.server_close()
            engine.close()

    def test_hits_keep_answering_while_misses_are_shed(self, rng):
        """The limiter still defends the server: with the single worker
        held and the limit cut, a miss over the wire is shed with a typed
        429 while an exact cache hit answers on the handler thread — and
        the hits do not grow the cut limit back."""
        from repro.service.faults import FaultRule, fault_plan

        engine = QueryEngine(
            build_database(rng, count=3), workers=1, queue_cap=1
        )
        server, client = start_server(engine)
        cached = rng.random((8, 2))
        readers = [
            threading.Thread(target=engine.search, args=(rng.random((8, 2)), 0.5))
            for _ in range(2)
        ]
        # The first reader holds the worker for 1 s; the second queues
        # behind it past the 0.1 s target, cuts the limit on dequeue, and
        # then holds the worker for 1 s itself.
        hold = FaultRule("engine.worker", "sleep", times=2, seconds=1.0)
        try:
            assert client.search(cached, 0.5)["cache"] == "miss"
            with fault_plan(hold) as plan:
                for depth, reader in enumerate(readers, start=1):
                    reader.start()
                    assert settle(lambda: engine.queue_depth == depth)
                assert settle(lambda: plan.fired("engine.worker") == 2)
                assert engine.degraded
                assert client.healthz()["status"] == "degraded"
                for _ in range(3):
                    assert client.search(cached, 0.5)["cache"] == "hit"
                    with pytest.raises(Overloaded):
                        client.search(rng.random((8, 2)), 0.5)
                assert client.healthz()["status"] == "degraded"
                for reader in readers:
                    reader.join(5)
            stats = engine.stats()
            assert stats["rejected_overload"] == 3
            assert stats["cache"]["hits"] == 3
            # The samples: the first miss and the two readers.
            assert stats["admission"]["queue_wait_ms"]["window"] == 3
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            engine.close()

    def test_healthz_reports_durable(self, rng, tmp_path):
        from repro.service import DurabilityConfig

        engine = QueryEngine(
            build_database(rng, count=2),
            workers=1,
            durability=DurabilityConfig(tmp_path / "data"),
        )
        server, client = start_server(engine)
        try:
            health = client.healthz()
            assert health["durable"] is True
            # Checkpoint age: acknowledged writes not yet folded into a
            # checkpoint, and which checkpoint the engine would recover to.
            assert health["wal_records"] == 0
            assert health["checkpoints"] == 0
            assert health["last_checkpoint_version"] == 0
            client.insert(rng.random((10, 2)), "lagging")
            health = client.healthz()
            assert health["wal_records"] == 1
            assert health["last_checkpoint_version"] == 0
            engine.checkpoint()
            health = client.healthz()
            assert health["wal_records"] == 0
            assert health["checkpoints"] == 1
            assert health["last_checkpoint_version"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            engine.close()


class TestGracefulShutdown:
    def test_draining_server_answers_typed_503(self, rng):
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        try:
            assert client.healthz()["status"] == "ok"
            server.draining = True
            with pytest.raises(EngineClosed, match="draining"):
                client.healthz()
        finally:
            server.draining = False
            server.shutdown()
            server.server_close()
            engine.close()

    def test_request_racing_shutdown_gets_its_result(self, rng):
        """A search in flight when shutdown starts completes normally."""
        from repro.service.http import shutdown_gracefully

        engine = QueryEngine(build_database(rng), workers=2, cache_size=8)
        release = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (release.wait(5), inner(*args))[1]
        server, client = start_server(engine)
        query = rng.random((10, 2))
        outcome: dict = {}

        def slow_search():
            try:
                outcome["reply"] = client.search(query, 0.5)
            except Exception as error:  # noqa: BLE001 - recorded for assert
                outcome["error"] = error

        racer = threading.Thread(target=slow_search)
        racer.start()
        deadline = time.monotonic() + 5
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        shutdown = threading.Thread(
            target=lambda: shutdown_gracefully(
                server, engine, drain_timeout=10.0
            )
        )
        shutdown.start()
        time.sleep(0.05)  # shutdown is now waiting on the drain
        release.set()
        racer.join(timeout=10.0)
        shutdown.join(timeout=10.0)
        # The racing request got a real JSON response, never a reset.
        assert "error" not in outcome, outcome.get("error")
        assert "answers" in outcome["reply"]
        assert engine.closed

    def test_drain_timeout_reports_false(self, rng):
        from repro.service.http import shutdown_gracefully

        engine = QueryEngine(build_database(rng, count=2), workers=1)
        release = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (release.wait(1.0), inner(*args))[1]
        server, client = start_server(engine)
        query = rng.random((8, 2))
        racer = threading.Thread(
            target=lambda: post_status(
                client, "/search", {"points": query.tolist(), "epsilon": 0.5}
            )
        )
        racer.start()
        deadline = time.monotonic() + 5
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        drained = shutdown_gracefully(server, engine, drain_timeout=0.05)
        assert drained is False
        release.set()
        racer.join(timeout=10.0)

    def test_inflight_counter_balances(self, rng):
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        try:
            assert server.inflight == 0
            client.healthz()
            client.search(rng.random((8, 2)), 0.5)
            # The client sees the response body before the handler
            # thread runs its finally-block decrement, so give the
            # counter a moment to settle instead of racing it.
            deadline = time.monotonic() + 5.0
            while server.inflight != 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.inflight == 0
        finally:
            server.shutdown()
            server.server_close()
            engine.close()


def raw_connection(client):
    """A plain keep-alive ``http.client`` connection to the client's server."""
    connection = client._dial()
    connection.timeout = 10.0
    return connection


def settle(condition, timeout=5.0):
    """Poll ``condition`` until it holds (handler threads finish async)."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


class TestPooledConnections:
    def test_sequential_calls_share_one_connection(self, rng, served):
        _, client = served
        query = rng.random((10, 2))
        for _ in range(5):
            client.healthz()
            client.search(query, 0.5)
        client.insert(rng.random((12, 2)), sequence_id="pooled")
        client.stats()
        stats = client.transport_stats()
        assert stats["connections_opened"] == 1
        assert stats["reconnects"] == 0
        assert stats["requests"] == 12

    @pytest.mark.parametrize("sync_checks", [False, True])
    def test_threads_share_one_client(self, rng, served, sync_checks):
        from contextlib import nullcontext

        from repro.util.checks import checking

        _, client = served
        query = rng.random((10, 2))
        expected = client.search(query, 0.5)["answers"]
        failures: list = []

        def worker():
            try:
                for _ in range(50):
                    if client.search(query, 0.5)["answers"] != expected:
                        failures.append("different answers")
            except Exception as error:  # noqa: BLE001 - recorded for assert
                failures.append(error)

        with checking("sync") if sync_checks else nullcontext():
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = client.transport_stats()
        assert stats["requests"] == 401
        # At most one connection per concurrent caller, however the
        # threads interleave; never one per request.
        assert 1 <= stats["connections_opened"] <= 8
        assert len(client._pool) == stats["connections_opened"]

    def test_each_request_goes_out_in_one_send(self, rng, served, monkeypatch):
        """Header block and body share one ``send``; this pins the private
        ``http.client`` hook the pooled connection overrides."""
        import http.client

        from repro.service.client import _Connection, _SecureConnection

        _, client = served
        sends: list[bytes] = []
        send = _Connection.send
        monkeypatch.setattr(
            _Connection,
            "send",
            lambda self, data: (sends.append(bytes(data)), send(self, data))[1],
        )
        assert client.search(rng.random((10, 2)), 0.5)["cache"] == "miss"
        assert len(sends) == 1
        head, _, body = sends[0].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /search HTTP/1.1\r\n")
        assert json.loads(body)["epsilon"] == 0.5
        client.healthz()
        assert len(sends) == 2
        assert sends[1].startswith(b"GET /healthz HTTP/1.1\r\n")
        assert sends[1].endswith(b"\r\n\r\n")
        assert client.transport_stats()["connections_opened"] == 1
        # A body that is not bytes takes the stdlib path: headers, then
        # each chunk.
        chunk = json.dumps({"points": [[0.5, 0.5]] * 4, "epsilon": 0.5}).encode()
        connection = raw_connection(client)
        try:
            connection.request(
                "POST",
                "/search",
                body=[chunk],
                headers={"Content-Length": str(len(chunk))},
            )
            assert connection.getresponse().status == 200
        finally:
            connection.close()
        assert sends[-1] == chunk and len(sends) == 4
        # HTTPS connections inherit the same override.
        assert issubclass(_SecureConnection, http.client.HTTPSConnection)
        assert _SecureConnection._send_output is _Connection._send_output

    def test_close_and_context_manager_close_parked_connections(self, served):
        _, client = served
        with client as entered:
            assert entered is client
            client.healthz()
            (parked,) = client._pool
        assert client._pool == [] and parked.sock is None
        # A closed client is not a dead one: the next call dials again.
        assert client.healthz()["status"] == "ok"
        assert client.transport_stats()["connections_opened"] == 2
        client.close()

    def test_restart_on_the_same_port_reaches_the_new_engine(self, rng):
        """Drain closes parked connections: no zombie handler answers."""
        from repro.service.http import shutdown_gracefully

        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        port = server.server_address[1]
        assert client.healthz()["sequences"] == 2
        assert shutdown_gracefully(server, engine, drain_timeout=5.0) is True
        successor = QueryEngine(build_database(rng, count=5), workers=1)
        server = serve(successor, port=port)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            # A naive pool reuses the socket parked on the old server's
            # handler thread and gets EngineClosed from the closed engine.
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["sequences"] == 5
            assert client.transport_stats()["connections_opened"] == 2
        finally:
            shutdown_gracefully(server, successor, drain_timeout=5.0)

    def test_drain_closes_idle_connections_but_not_a_straggler(self, rng):
        from repro.service.http import shutdown_gracefully

        engine = QueryEngine(build_database(rng, count=2), workers=1)
        release = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (release.wait(5), inner(*args))[1]
        server, client = start_server(engine)
        idle = raw_connection(client)
        idle.request("GET", "/healthz")
        assert idle.getresponse().read()
        assert settle(lambda: server.inflight == 0)
        outcome: dict = {}
        query = rng.random((8, 2))

        def straggle():
            try:
                outcome["reply"] = client.search(query, 0.5)
            except EngineClosed as error:
                outcome["closed"] = error

        racer = threading.Thread(target=straggle)
        racer.start()
        assert settle(lambda: server.inflight == 1)
        assert shutdown_gracefully(server, engine, drain_timeout=0.05) is False
        # The idle connection saw EOF at once.  The straggler's was left
        # alone: it still gets a reply — its result, or a typed
        # EngineClosed now that its engine closed under it; never a reset
        # — and that reply says close, so nothing is parked.
        assert idle.sock.recv(1) == b""
        idle.close()
        release.set()
        racer.join(timeout=10.0)
        assert not racer.is_alive()
        assert outcome.keys() & {"reply", "closed"}
        assert client._pool == []

    def test_dropped_reply_on_a_reused_connection(self, rng):
        """Reads reconnect, then retry; the dead socket is never reused."""
        from repro.service import RetryPolicy
        from repro.service.faults import FaultRule, fault_plan

        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server = serve(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout=10.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, seed=7),
        )
        try:
            client.healthz()
            (parked,) = client._pool
            with fault_plan(FaultRule("http.response", "raise", times=2)):
                assert client.healthz()["status"] == "ok"
            stats = client.transport_stats()
            # Reply 1 dropped on the reused connection: resent at once on
            # a fresh one.  Reply 2 dropped there: a transport error, which
            # the retry policy covers on a third connection.
            assert stats["reconnects"] == 1
            assert stats["retries"] == 1
            assert stats["transport_errors"] == 1
            assert stats["connections_opened"] == 3
            assert parked.sock is None and client._pool != [parked]
            assert settle(lambda: server.dropped_responses == 2)
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_a_write_is_sent_at_most_once(self, rng, served):
        """An insert whose reply is dropped surfaces; it is not replayed."""
        from repro.service.client import TRANSPORT_ERRORS
        from repro.service.faults import FaultRule, fault_plan

        engine, client = served
        client.healthz()  # the insert below rides a *reused* connection
        before = len(engine)
        with fault_plan(FaultRule("http.response", "raise")):
            with pytest.raises(TRANSPORT_ERRORS):
                client.insert(rng.random((12, 2)), sequence_id="once")
        stats = client.transport_stats()
        assert stats["reconnects"] == 0
        assert stats["transport_errors"] == 1
        # Applied exactly once server-side — a resend would have been a
        # 409 here and a duplicate under a server-assigned id.
        assert len(engine) == before + 1
        assert engine.stats()["requests"]["insert"] == 1


class TestConnectionLifecycle:
    def test_reply_before_body_does_not_poison_the_connection(self, served):
        _, client = served
        connection = raw_connection(client)
        try:
            body = json.dumps({"points": [[0.1, 0.2]] * 40}).encode()
            connection.request("POST", "/nope", body=body)
            reply = connection.getresponse()
            assert reply.status == 404
            assert json.loads(reply.read())["error"]["type"] == "NotFound"
            assert not reply.will_close
            # Same connection: the 404's body must not be parsed as this
            # request (http.server would answer an HTML 400).
            connection.request("GET", "/healthz")
            reply = connection.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == "ok"
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["nonsense", "-5", "1e3"])
    def test_bad_content_length_is_a_typed_400_and_closes(self, served, length):
        _, client = served
        connection = raw_connection(client)
        try:
            connection.putrequest("POST", "/search")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            reply = connection.getresponse()
            assert reply.status == 400
            detail = json.loads(reply.read())["error"]
            assert detail["type"] == "ValueError"
            assert "Content-Length" in detail["message"]
            # Whatever body follows was not consumed: the server hangs up
            # rather than parse it as a request.
            assert reply.will_close
        finally:
            connection.close()

    def test_reply_is_sent_before_the_request_counts_as_finished(self, rng):
        """Drain shuts idle sockets down: a buffered reply must be out first."""
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        replied = threading.Event()
        finished_unsent = []
        finish = server.request_finished

        def finishing(connection):
            finished_unsent.append(not replied.wait(2.0))
            finish(connection)

        server.request_finished = finishing
        try:
            assert client.healthz()["status"] == "ok"
            replied.set()
            assert settle(lambda: finished_unsent == [False])
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_draining_reply_says_close(self, rng):
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        connection = raw_connection(client)
        try:
            server.draining = True
            connection.request("POST", "/search", body=b'{"points": []}')
            reply = connection.getresponse()
            assert reply.status == 503
            assert reply.will_close
            reply.read()
        finally:
            connection.close()
            server.draining = False
            server.shutdown()
            server.server_close()
            engine.close()

    def test_stalled_body_is_dropped_and_frees_the_drain(self, rng, monkeypatch):
        """One stalled peer must not pin a handler or defeat the drain."""
        from repro.service.http import JsonRequestHandler, shutdown_gracefully

        monkeypatch.setattr(JsonRequestHandler, "timeout", 0.2)
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        peer = socket.create_connection(server.server_address, timeout=10.0)
        try:
            peer.sendall(
                b"POST /search HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n0123456789"
            )
            assert settle(lambda: server.inflight == 1)
            # On expiry: no reply, connection closed, counted as dropped.
            assert peer.recv(4096) == b""
            assert settle(lambda: server.inflight == 0)
            assert server.dropped_responses == 1
            started = time.monotonic()
            assert shutdown_gracefully(server, engine, drain_timeout=3.0) is True
            assert time.monotonic() - started < 1.0
        finally:
            peer.close()

    def test_idle_connection_times_out_and_the_client_reconnects(
        self, rng, monkeypatch
    ):
        from repro.service.http import JsonRequestHandler

        monkeypatch.setattr(JsonRequestHandler, "timeout", 0.15)
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        server, client = start_server(engine)
        try:
            assert client.healthz()["status"] == "ok"
            (parked,) = client._pool
            # The server hangs up on the idle connection (EOF, no reply)...
            parked.sock.settimeout(5.0)
            assert parked.sock.recv(1, socket.MSG_PEEK) == b""
            # ...which is not a dropped response, and the pooled client
            # simply dials again on its next call.
            assert client.healthz()["status"] == "ok"
            stats = client.transport_stats()
            assert stats["connections_opened"] == 2
            assert stats["transport_errors"] == 0
            assert server.dropped_responses == 0
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_connection_burst_is_absorbed_by_the_backlog(self, served):
        """48 fresh connections at once: none waits for a SYN retransmit."""
        _, client = served
        barrier = threading.Barrier(48)
        elapsed: list[float] = []
        failures: list = []

        def dial():
            fresh = ServiceClient(client.base_url, timeout=10.0)
            barrier.wait(timeout=10.0)
            started = time.monotonic()
            try:
                fresh.healthz()
                elapsed.append(time.monotonic() - started)
            except Exception as error:  # noqa: BLE001 - recorded for assert
                failures.append(error)
            finally:
                fresh.close()

        threads = [threading.Thread(target=dial) for _ in range(48)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert failures == []
        assert len(elapsed) == 48
        # With the stdlib backlog of 5 the overflow retransmits its SYN
        # after 1 s (then 3 s, 7 s).
        assert max(elapsed) < 1.0

    def test_keep_alive_replies_do_not_stall_on_nagle(self, rng, served):
        """Latency guard: a reply leaves as one segment.

        Sent as header flush + body, the second small segment waits for
        the client's delayed ACK: 38–41 ms per call on a kept-alive
        connection.
        """
        _, client = served
        body = json.dumps(
            {"points": rng.random((10, 2)).tolist(), "epsilon": 0.5}
        ).encode()
        connection = raw_connection(client)
        try:
            timings = []
            for _ in range(30):
                started = time.perf_counter()
                connection.request("POST", "/search", body=body)
                reply = connection.getresponse()
                assert reply.status == 200
                reply.read()
                timings.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert sorted(timings)[len(timings) // 2] < 0.020

    def test_reply_larger_than_the_write_buffer(self, rng):
        """A body past the 8 KiB buffer arrives whole, and promptly."""
        engine = QueryEngine(build_database(rng, count=60), workers=1)
        server, client = start_server(engine)
        try:
            timings = []
            for _ in range(10):
                started = time.perf_counter()
                export = client.export_sequences()
                timings.append(time.perf_counter() - started)
            assert len(export["sequences"]) == 60
            assert len(json.dumps(export)) > 3 * 8192
            assert client.transport_stats()["connections_opened"] == 1
            assert sorted(timings)[len(timings) // 2] < 0.030
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
