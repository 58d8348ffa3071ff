"""The request budget end to end: client debit, propagation, cancellation.

ISSUE 9's acceptance tests for the deadline layer:

* a deadline handed to the coordinator arrives at every
  :class:`LocalBackend` *shrunk* by the time already spent (queue wait,
  injected network stalls) — never the caller's original budget;
* the dispatch floor refuses sub-calls whose remaining budget could only
  answer after the caller stopped caring, with a typed error and counter;
* backoff sleeps debit the budget, so a retry schedule can never outlive
  the request;
* the 504 mapping round-trips;
* cooperative cancellation checkpoints fire inside the Phase 2/3 loops,
  under contracts and through the engine's worker pool alike.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, HedgePolicy, LocalBackend
from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import QueryEngine
from repro.service.client import RetryPolicy, ServiceClient, _raise_typed
from repro.service.errors import DeadlineExceeded, Overloaded, encode_error
from repro.service.faults import FaultRule, fault_plan
from repro.service.http import request_budget
from repro.util.budget import Deadline, OperationCancelled, deadline_scope
from repro.util.checks import checking

DIMENSION = 3


def make_database(count=4, seed=0, length=24):
    rng = np.random.default_rng(seed)
    database = SequenceDatabase(dimension=DIMENSION)
    for i in range(count):
        database.add(rng.random((length, DIMENSION)), sequence_id=f"seq-{i}")
    return database


class RecordingBackend:
    """A backend wrapper that records the ``timeout`` each search carries."""

    def __init__(self, inner):
        self.inner = inner
        self.search_timeouts = []

    def search(self, points, epsilon, *, find_intervals=True, timeout=None):
        self.search_timeouts.append(timeout)
        return self.inner.search(
            points, epsilon, find_intervals=find_intervals, timeout=timeout
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestCoordinatorBudgetPropagation:
    def _cluster(self, **coordinator_options):
        engines = [
            QueryEngine(SequenceDatabase(DIMENSION), workers=2, cache_size=0)
            for _ in range(2)
        ]
        recorders = [
            RecordingBackend(LocalBackend(engine, name=f"backend-{i}"))
            for i, engine in enumerate(engines)
        ]
        coordinator = ClusterCoordinator(
            list(recorders),
            replication=2,
            probe_interval=3600.0,
            **coordinator_options,
        )
        return engines, recorders, coordinator

    def test_backend_sees_budget_shrunk_by_time_already_spent(self):
        engines, recorders, coordinator = self._cluster()
        rng = np.random.default_rng(5)
        try:
            for i in range(6):
                coordinator.insert(
                    rng.random((20, DIMENSION)), sequence_id=f"seq-{i}"
                )
            stall = FaultRule(
                "cluster.backend.slow", "sleep", seconds=0.05, times=None
            )
            with fault_plan(stall):
                result = coordinator.search(
                    rng.random((8, DIMENSION)), 0.5, timeout=0.8
                )
            assert result.complete
            observed = [
                timeout
                for recorder in recorders
                for timeout in recorder.search_timeouts
            ]
            assert observed  # the fan-out really hit the backends
            for timeout in observed:
                # The ISSUE's invariant: what a backend observes is at
                # most the coordinator's remaining budget at dispatch —
                # the injected 50 ms stall (plus real overhead) has
                # already been debited from the caller's 0.8 s.
                assert timeout is not None
                assert 0.0 < timeout <= 0.8 - 0.04
        finally:
            coordinator.close()
            for engine in engines:
                engine.close()

    def test_dispatch_floor_refuses_futile_subcalls(self):
        # The hedge delay is pinned above the budget.  Left to the
        # default policy it is the p95 of the set-up inserts' latency,
        # and whenever that lands under the budget the hedge launches
        # the second replica early, no relaunch is left to refuse, and
        # the shard is reported missing instead.
        engines, recorders, coordinator = self._cluster(
            hedge=HedgePolicy(min_delay=0.5, max_delay=0.5)
        )
        rng = np.random.default_rng(6)
        try:
            for i in range(4):
                coordinator.insert(
                    rng.random((20, DIMENSION)), sequence_id=f"seq-{i}"
                )
            # Each attempt stalls for five times the 50 ms budget (no
            # scheduler jitter lets one finish inside it), so both the
            # hedge timer, clamped to the budget, and the failover
            # relaunch find less than min_subcall_budget left and must
            # refuse to dispatch rather than hedge into the void.
            stall = FaultRule(
                "cluster.backend.slow", "sleep", seconds=0.25, times=None
            )
            with fault_plan(stall):
                with pytest.raises(DeadlineExceeded, match="dispatch floor"):
                    coordinator.search(
                        rng.random((8, DIMENSION)), 0.5, timeout=0.05
                    )
            assert coordinator.stats().get("budget_floor_skips", 0) >= 1
        finally:
            coordinator.close()
            for engine in engines:
                engine.close()


class TestClientDeadlineDebit:
    def test_backoff_sleep_debits_the_budget(self):
        client = ServiceClient(
            "http://127.0.0.1:9",
            retry=RetryPolicy(max_attempts=5, base_delay=1.0),
        )
        calls = []

        def always_busy(method, path, body, deadline=None):
            calls.append(body)
            raise Overloaded(
                "busy", queue_depth=1, capacity=1, retry_after=1.0
            )

        client._request_once = always_busy
        with pytest.raises(DeadlineExceeded) as caught:
            client.search(np.zeros((4, DIMENSION)), 0.5, timeout=0.05)
        # The server asked for a 1 s backoff but only ~50 ms of budget
        # remained: the sleep is clamped to it and the next dispatch is
        # refused locally instead of granting the attempt a fresh budget.
        assert len(calls) == 1
        assert isinstance(caught.value.__cause__, Overloaded)
        assert caught.value.timeout == 0.05
        stats = client.transport_stats()
        assert stats["deadline_exhausted"] == 1
        assert stats["retries"] == 1
        assert stats["retry_wait_s"] <= 0.06

    def test_wire_carries_shrunk_budget(self):
        """Header, body and socket timeout, captured off a real loopback."""
        captured = {}

        class Capture(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers["Content-Length"])
                captured["headers"] = {
                    key.lower(): value for key, value in self.headers.items()
                }
                captured["body"] = self.rfile.read(length)
                self.send_response(200)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Capture)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_port}", timeout=30.0
        )
        try:
            # An unbudgeted call first, so the budgeted one rides a
            # *reused* socket still carrying the 30 s client timeout.
            client._request_once("POST", "/search", {"points": []})
            (parked,) = client._pool
            assert parked.sock.gettimeout() == 30.0
            deadline = Deadline.after(0.5)
            time.sleep(0.02)
            client._request_once(
                "POST",
                "/search",
                {"points": [], "epsilon": 0.1, "timeout": 0.5},
                deadline,
            )
            assert client._pool == [parked]
            captured["socket_timeout"] = parked.sock.gettimeout()
        finally:
            client.close()
            server.shutdown()
            thread.join()
            server.server_close()

        body = json.loads(captured["body"])
        # The body's timeout was rewritten to the *remaining* budget and
        # mirrored into the header for proxies/logs; the socket timeout
        # is clamped near it (plus slack so the typed 504 wins the race).
        assert 0.0 < body["timeout"] <= 0.48
        header = captured["headers"].get("x-repro-budget")
        assert header is not None
        assert 0.0 < float(header) <= 0.48
        assert captured["socket_timeout"] <= body["timeout"] + 0.3


class TestStatusMapping:
    def test_504_parses_as_deadline(self):
        with pytest.raises(DeadlineExceeded) as caught:
            _raise_typed(504, {"message": "late", "timeout": 0.25})
        assert caught.value.timeout == 0.25

    def test_deadline_maps_to_504_on_the_wire(self):
        status, _, _ = encode_error(DeadlineExceeded("late", timeout=0.1), "search")
        assert status == 504

    def test_request_budget_takes_the_tighter_bound(self):
        assert request_budget({}, {}) is None
        assert request_budget({}, None) is None
        assert request_budget({}, {"timeout": 0.5}) == 0.5
        assert request_budget({"X-Repro-Budget": "0.3"}, {}) == 0.3
        assert request_budget({"X-Repro-Budget": "0.2"}, {"timeout": 0.5}) == 0.2
        assert request_budget({"X-Repro-Budget": "0.9"}, {"timeout": 0.5}) == 0.5


class TestCooperativeCancellation:
    def test_core_search_checkpoint_fires_under_contracts(self):
        database = make_database(count=4, seed=0)
        searcher = SimilaritySearch(database)
        query = np.random.default_rng(2).random((12, DIMENSION))
        abandoned = Deadline.after(60.0)
        abandoned.cancel()
        with checking("contracts"):
            with deadline_scope(abandoned):
                with pytest.raises(OperationCancelled) as caught:
                    searcher.search(query, 0.5)
            assert caught.value.cancelled
            # The same search completes once no deadline governs it.
            searcher.search(query, 0.5)

    def test_engine_counts_cancelled_scans(self):
        database = make_database(count=3, seed=1)
        engine = QueryEngine(database, workers=1, cache_size=0)
        query = np.random.default_rng(3).random((8, DIMENSION))
        stall = FaultRule("engine.worker", "sleep", seconds=0.15, times=None)
        try:
            with fault_plan(stall):
                # The worker stalls past the 50 ms budget before the scan
                # starts; the caller times out (cancelling the deadline)
                # and the worker's first checkpoint stops the scan.
                with pytest.raises(DeadlineExceeded):
                    engine.search(query, 0.5, timeout=0.05)
            waited_until = time.monotonic() + 2.0
            while time.monotonic() < waited_until:
                if engine.stats()["cancelled"] >= 1:
                    break
                time.sleep(0.01)
            stats = engine.stats()
            assert stats["deadline_exceeded"] >= 1
            assert stats["cancelled"] >= 1
        finally:
            engine.close()
