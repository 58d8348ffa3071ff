"""Unit and concurrency tests for :class:`repro.service.QueryEngine`.

The serving layer's core promise: for any fixed corpus state it returns
exactly what a single-threaded :class:`SimilaritySearch` returns — any
worker count, cache on or off — and under concurrent writes every reader
observes some *published* snapshot, never a torn intermediate state.
"""

import math
import threading
import time

import pytest

from repro.analysis.tracing import read_trace
from repro.core.contracts import lower_bounds
from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import (
    DeadlineExceeded,
    EngineClosed,
    Overloaded,
    QueryEngine,
)
from repro.service.faults import FaultRule, fault_plan
from repro.util.budget import OperationCancelled
from repro.util.checks import checking
from repro.util.faults import FaultInjected

EPSILONS = (0.6, 0.3, 0.45)


def build_database(rng, count=10, dimension=2):
    database = SequenceDatabase(dimension=dimension)
    for ordinal in range(count):
        length = int(rng.integers(20, 60))
        database.add(rng.random((length, dimension)), sequence_id=f"s{ordinal}")
    return database


class TestParity:
    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_matches_single_threaded_search(self, rng, cache_size):
        """4-worker engine results are identical to SimilaritySearch."""
        database = build_database(rng)
        reference = SimilaritySearch(database.clone())
        queries = [rng.random((12, 2)) for _ in range(3)]
        with QueryEngine(
            database, workers=4, cache_size=cache_size
        ) as engine:
            for query in queries:
                # repeats and tightened thresholds exercise hit/refine
                for epsilon in (0.6, 0.6, 0.3, 0.45, 0.3):
                    expected = reference.search(query, epsilon)
                    got = engine.search(query, epsilon)
                    assert got.answers == expected.answers
                    assert got.candidates == expected.candidates
                    assert got.solution_intervals == expected.solution_intervals

    def test_cache_outcomes(self, rng):
        database = build_database(rng)
        query = rng.random((10, 2))
        with QueryEngine(database, workers=2, cache_size=8) as engine:
            assert engine.search_detailed(query, 0.5).cache == "miss"
            assert engine.search_detailed(query, 0.5).cache == "hit"
            assert engine.search_detailed(query, 0.2).cache == "refine"
            assert engine.search_detailed(rng.random((10, 2)), 0.5).cache == "miss"

    def test_cache_off_outcome(self, rng):
        database = build_database(rng, count=4)
        query = rng.random((10, 2))
        with QueryEngine(database, workers=2, cache_size=0) as engine:
            assert engine.search_detailed(query, 0.5).cache == "off"
            assert engine.search_detailed(query, 0.5).cache == "off"

    def test_knn_parity(self, rng):
        database = build_database(rng)
        reference = SimilaritySearch(database.clone())
        query = rng.random((9, 2))
        with QueryEngine(database, workers=3) as engine:
            assert engine.knn(query, 4) == reference.knn(query, 4)

    def test_range_query_returns_answer_ids(self, rng):
        database = build_database(rng)
        reference = SimilaritySearch(database.clone())
        query = rng.random((9, 2))
        with QueryEngine(database, workers=2) as engine:
            assert engine.range_query(query, 0.4) == reference.search(
                query, 0.4, find_intervals=False
            ).answers


class TestSnapshotIsolation:
    def test_concurrent_readers_never_see_torn_state(self, rng):
        """Every (version, answers) observation matches that exact
        published snapshot — a torn read would match none of them."""
        database = build_database(rng, count=8)
        query = rng.random((10, 2))
        inserts = [rng.random((30, 2)) for _ in range(5)]

        # Reference answer set per published version 0..5.
        expected = {}
        shadow = database.clone()
        expected[0] = tuple(
            SimilaritySearch(shadow).search(query, 0.5, find_intervals=False).answers
        )
        for version, points in enumerate(inserts, start=1):
            shadow.add(points, sequence_id=f"x{version}")
            expected[version] = tuple(
                SimilaritySearch(shadow)
                .search(query, 0.5, find_intervals=False)
                .answers
            )

        engine = QueryEngine(database, workers=4, cache_size=8)
        observed = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                detailed = engine.search_detailed(
                    query, 0.5, find_intervals=False
                )
                with lock:
                    observed.append(
                        (detailed.snapshot_version, tuple(detailed.result.answers))
                    )

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for version, points in enumerate(inserts, start=1):
                engine.insert(points, sequence_id=f"x{version}")
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
            engine.close()

        assert observed, "readers made no observations"
        for version, answers in observed:
            assert answers == expected[version], (
                f"snapshot v{version} served {answers}, expected "
                f"{expected[version]} — torn read"
            )
        assert engine.snapshot_version == len(inserts)

    def test_write_ops_match_fresh_reference(self, rng):
        database = build_database(rng, count=6)
        query = rng.random((11, 2))
        extra = rng.random((28, 2))
        tail = rng.random((9, 2))
        with QueryEngine(database.clone(), workers=2, cache_size=4) as engine:
            engine.search(query, 0.5)  # warm the cache so writes must patch
            engine.insert(extra, sequence_id="fresh")
            engine.append("fresh", tail)
            engine.remove("s1")

            shadow = database.clone()
            shadow.add(extra, sequence_id="fresh")
            shadow.append_points("fresh", tail)
            shadow.remove("s1")
            reference = SimilaritySearch(shadow)

            for epsilon in EPSILONS:
                expected = reference.search(query, epsilon)
                got = engine.search(query, epsilon)
                assert got.answers == expected.answers
                assert got.candidates == expected.candidates
                assert got.solution_intervals == expected.solution_intervals

    def test_insert_duplicate_and_remove_unknown(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            with pytest.raises(KeyError):
                engine.insert(
                    engine._snapshot.database.sequence("s0").points,
                    sequence_id="s0",
                )
            with pytest.raises(KeyError):
                engine.remove("nope")
            # failed writes publish no snapshot
            assert engine.snapshot_version == 0


class TestAdmissionAndDeadlines:
    def test_overloaded_fast_fail(self, rng):
        engine = QueryEngine(
            build_database(rng, count=3), workers=1, queue_cap=0
        )
        gate = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (gate.wait(5), inner(*args))[1]
        query = rng.random((8, 2))
        blocked = threading.Thread(target=lambda: engine.search(query, 0.5))
        blocked.start()
        try:
            deadline = time.monotonic() + 5
            while engine.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            with pytest.raises(Overloaded) as caught:
                engine.search(query, 0.5)
            assert caught.value.capacity == 1
            assert caught.value.queue_depth == 1
        finally:
            gate.set()
            blocked.join()
            engine.close()
        assert engine.stats()["rejected_overload"] == 1

    def test_deadline_exceeded_mid_execution(self, rng):
        engine = QueryEngine(build_database(rng, count=3), workers=1)
        inner = engine._do_search
        engine._do_search = lambda *args: (time.sleep(0.4), inner(*args))[1]
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                engine.search(rng.random((8, 2)), 0.5, timeout=0.05)
            assert caught.value.timeout == pytest.approx(0.05)
        finally:
            engine.close()
        assert engine.stats()["deadline_exceeded"] == 1

    def test_deadline_expired_while_queued(self, rng):
        engine = QueryEngine(
            build_database(rng, count=3), workers=1, queue_cap=4
        )
        gate = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (gate.wait(5), inner(*args))[1]
        query = rng.random((8, 2))
        blocked = threading.Thread(target=lambda: engine.search(query, 0.5))
        blocked.start()
        try:
            time.sleep(0.05)
            with pytest.raises(DeadlineExceeded):
                engine.search(query, 0.5, timeout=0.05)
        finally:
            gate.set()
            blocked.join()
            engine.close()

    def test_default_timeout_applies(self, rng):
        engine = QueryEngine(
            build_database(rng, count=3), workers=1, default_timeout=0.05
        )
        inner = engine._do_search
        engine._do_search = lambda *args: (time.sleep(0.4), inner(*args))[1]
        try:
            with pytest.raises(DeadlineExceeded):
                engine.search(rng.random((8, 2)), 0.5)
        finally:
            engine.close()

    def test_slots_are_released_after_rejections(self, rng):
        engine = QueryEngine(build_database(rng, count=3), workers=2)
        query = rng.random((8, 2))
        try:
            with pytest.raises(DeadlineExceeded):
                inner = engine._do_search
                engine._do_search = lambda *args: (
                    time.sleep(0.3),
                    inner(*args),
                )[1]
                engine.search(query, 0.5, timeout=0.05)
            time.sleep(0.5)  # let the abandoned worker drain
            assert engine.queue_depth == 0
            engine._do_search = inner
            assert engine.search(query, 0.5) is not None
        finally:
            engine.close()


COUNTED = ("requests", "completed", "failures", "deadline_exceeded", "cancelled")


class TestOnCallerEntry:
    """``on_caller=True``: the same request, run on the calling thread."""

    def test_body_runs_on_the_calling_thread(self, rng):
        with QueryEngine(build_database(rng, count=4), workers=2) as engine:
            seen = []
            inner_search, inner_knn = engine._do_search, engine._do_knn
            engine._do_search = lambda *args: (
                seen.append(threading.get_ident()),
                inner_search(*args),
            )[1]
            engine._do_knn = lambda *args: (
                seen.append(threading.get_ident()),
                inner_knn(*args),
            )[1]
            query = rng.random((9, 2))
            engine.search_detailed(query, 0.5, on_caller=True)
            engine.knn(query, 2, on_caller=True)
            assert seen == [threading.get_ident()] * 2
            # A fresh query is a miss: without on_caller it takes the pool.
            engine.search_detailed(rng.random((9, 2)), 0.5)
            assert seen[-1] != threading.get_ident()  # the pool is untouched

    def test_an_exact_hit_runs_on_the_caller_and_a_refine_on_the_pool(
        self, rng
    ):
        with QueryEngine(
            build_database(rng, count=4), workers=2, cache_size=8
        ) as engine:
            seen = []
            inner = engine._do_search
            engine._do_search = lambda *args: (
                seen.append(threading.get_ident()),
                inner(*args),
            )[1]
            query = rng.random((9, 2))
            outcomes = [
                engine.search_detailed(query, epsilon).cache
                for epsilon in (0.5, 0.5, 0.2)
            ]
            assert outcomes == ["miss", "hit", "refine"]
            caller = threading.get_ident()
            assert [ident == caller for ident in seen] == [False, True, False]
            # Only the two pooled runs were queue-wait samples, and the
            # hits held no admission slot.
            admission = engine.stats()["admission"]
            assert admission["queue_wait_ms"]["window"] == 2
            assert engine.queue_depth == 0

    def test_an_entry_without_intervals_does_not_answer_a_request_for_them(
        self, rng
    ):
        with QueryEngine(
            build_database(rng, count=4), workers=2, cache_size=8
        ) as engine:
            query = rng.random((9, 2))
            engine.search_detailed(query, 0.5, find_intervals=False)
            engine.search_detailed(query, 0.5)
            # The second search recomputed with intervals, on the pool.
            admission = engine.stats()["admission"]
            assert admission["queue_wait_ms"]["window"] == 2

    def test_a_cached_query_answers_while_every_worker_is_held(self, rng):
        with QueryEngine(
            build_database(rng, count=4), workers=2, queue_cap=0, cache_size=8
        ) as engine:
            cached = rng.random((9, 2))
            expected = engine.search(cached, 0.5)
            holders = [
                threading.Thread(
                    target=engine.search, args=(rng.random((9, 2)), 0.5)
                )
                for _ in range(2)
            ]
            rule = FaultRule("engine.worker", "sleep", times=2, seconds=1.0)
            with fault_plan(rule) as plan:
                for holder in holders:
                    holder.start()
                deadline = time.monotonic() + 5
                while (
                    plan.fired("engine.worker") < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert plan.fired("engine.worker") == 2
                assert engine.queue_depth == 2
                started = time.monotonic()
                hit = engine.search_detailed(cached, 0.5, timeout=0.5)
                assert time.monotonic() - started < 0.5
                assert hit.cache == "hit"
                assert hit.result.answers == expected.answers
                with pytest.raises(Overloaded):
                    engine.search_detailed(rng.random((9, 2)), 0.5, timeout=0.5)
                for holder in holders:
                    holder.join(5)
            stats = engine.stats()
        admitted = stats["requests"]["search"]
        assert admitted == 4
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == admitted
        assert stats["cache_lru"]["lookups"] == admitted
        assert stats["rejected_overload"] == 1

    def test_counts_match_the_pooled_path(self, rng):
        database = build_database(rng)
        queries = [rng.random((10, 2)) for _ in range(2)]
        blocks, results = [], []
        for on_caller in (False, True):
            with QueryEngine(
                database.clone(), workers=2, cache_size=8
            ) as engine:
                outcomes = []
                for query in queries:
                    for epsilon in (0.5, 0.5, 0.2):
                        detailed = engine.search_detailed(
                            query, epsilon, on_caller=on_caller
                        )
                        outcomes.append(
                            (detailed.cache, detailed.result.answers)
                        )
                outcomes.append(engine.knn(queries[0], 3, on_caller=on_caller))
                with pytest.raises(ValueError):  # wrong dimension: a failure
                    engine.search_detailed(
                        rng.random((5, 3)), 0.5, on_caller=on_caller
                    )
                stats = engine.stats()
                assert stats["queue_depth"] == 0
                # Queue-wait samples are pooled runs only: the misses,
                # refines, knn and the failure — never an on-caller run.
                pooled = 0 if on_caller else 6
                assert stats["admission"]["queue_wait_ms"]["window"] == pooled
                blocks.append(
                    {key: stats[key] for key in COUNTED}
                    | {"cache": stats["cache"]}
                )
                results.append(outcomes)
        assert results[0] == results[1]
        assert blocks[0] == blocks[1]
        assert blocks[1]["cache"]["hits"] == 2
        assert blocks[1]["cache"]["refines"] == 2
        assert blocks[1]["failures"] == {"search": 1}

    def test_ticket_returns_after_success_error_and_cancellation(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            query = rng.random((8, 2))
            engine.search_detailed(query, 0.5, on_caller=True)
            assert engine.queue_depth == 0
            inner = engine._do_search

            def explode(*args):
                raise RuntimeError("boom")

            engine._do_search = explode
            with pytest.raises(RuntimeError, match="boom"):
                engine.search_detailed(query, 0.5, on_caller=True)
            assert engine.queue_depth == 0

            def cancelled(*args):
                raise OperationCancelled("stopped", expired=True)

            engine._do_search = cancelled
            with pytest.raises(DeadlineExceeded, match="checkpoint"):
                engine.search_detailed(query, 0.5, timeout=5, on_caller=True)
            assert engine.queue_depth == 0
            stats = engine.stats()
            assert stats["cancelled"] == 1
            assert stats["deadline_exceeded"] == 1
            engine._do_search = inner
            assert engine.search_detailed(query, 0.5, on_caller=True)

    def test_overloaded_when_callers_hold_every_ticket(self, rng):
        engine = QueryEngine(
            build_database(rng, count=3), workers=1, queue_cap=1
        )
        gate = threading.Event()
        inner = engine._do_search
        engine._do_search = lambda *args: (gate.wait(5), inner(*args))[1]
        query = rng.random((8, 2))
        holders = [
            threading.Thread(
                target=lambda: engine.search_detailed(
                    query, 0.5, on_caller=True
                )
            )
            for _ in range(2)
        ]
        for holder in holders:
            holder.start()
        try:
            deadline = time.monotonic() + 5
            while engine.queue_depth < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            with pytest.raises(Overloaded) as caught:
                engine.search_detailed(query, 0.5, on_caller=True)
            assert caught.value.queue_depth == 2
        finally:
            gate.set()
            for holder in holders:
                holder.join(5)
            engine.close()
        assert not any(holder.is_alive() for holder in holders)
        assert engine.stats()["rejected_overload"] == 1
        assert engine.queue_depth == 0

    def test_expiry_mid_body_stops_at_a_checkpoint(self, rng):
        with QueryEngine(
            build_database(rng, count=40), workers=1, cache_size=0
        ) as engine:
            inner = engine._do_search
            # The budget runs out inside the body, before the scan: the
            # first Phase 2/3 checkpoint must stop it (no sleep-free way
            # to expire mid-scan is deterministic on a loaded box).
            engine._do_search = lambda *args: (time.sleep(0.05), inner(*args))[1]
            with pytest.raises(DeadlineExceeded, match="checkpoint"):
                engine.search_detailed(
                    rng.random((40, 2)), 0.9, timeout=0.02, on_caller=True
                )
            stats = engine.stats()
            assert stats["cancelled"] == 1
            assert stats["deadline_exceeded"] == 1
            assert stats["wasted_work"] == 0
            assert stats["queue_depth"] == 0

    def test_late_body_raises_what_the_pooled_caller_saw(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            inner = engine._do_search
            # Slow *after* the last checkpoint: nothing can stop the body.
            engine._do_search = lambda *args: (inner(*args), time.sleep(0.15))[0]
            with pytest.raises(DeadlineExceeded) as caught:
                engine.search_detailed(
                    rng.random((8, 2)), 0.5, timeout=0.05, on_caller=True
                )
            assert caught.value.timeout == pytest.approx(0.05)
            stats = engine.stats()
            assert stats["deadline_exceeded"] == 1
            assert stats["wasted_work"] == 1
            assert stats["queue_depth"] == 0

    def test_worker_fault_surfaces_as_on_the_pool(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            query = rng.random((8, 2))
            for on_caller in (False, True):
                with fault_plan(FaultRule("engine.worker", "raise", times=1)):
                    with pytest.raises(FaultInjected):
                        engine.search_detailed(
                            query, 0.5, on_caller=on_caller
                        )
            assert engine.stats()["failures"] == {"search": 2}
            assert engine.queue_depth == 0

    def test_closed_engine_refuses(self, rng):
        engine = QueryEngine(build_database(rng, count=3), workers=1)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.search_detailed(rng.random((8, 2)), 0.5, on_caller=True)


class TestContractsUnderConcurrency:
    def test_pooled_reads_are_validated_on_the_workers(self, rng, monkeypatch):
        """A ``checking("contracts")`` scope reaches the engine's pool: the
        search validator runs on a ``repro-serve`` worker for a miss and
        for a cache refine, not only on the thread that opened the scope;
        an exact hit is validated on the caller, where it runs."""
        validate = SimilaritySearch.search.__contract_validator__
        threads = []

        def spy(result, *args, **kwargs):
            threads.append(threading.current_thread().name)
            validate(result, *args, **kwargs)

        monkeypatch.setattr(
            SimilaritySearch,
            "search",
            lower_bounds(spy)(SimilaritySearch.search.__wrapped__),
        )
        query = rng.random((9, 2))
        with QueryEngine(build_database(rng, count=5), workers=2, cache_size=8) as engine:
            with checking("contracts"):
                for epsilon, expected in ((0.5, "miss"), (0.3, "refine")):
                    threads.clear()
                    response = engine.search_detailed(query, epsilon)
                    assert response.cache == expected
                    assert threads, expected
                    assert all(name.startswith("repro-serve") for name in threads)
                threads.clear()
                assert engine.search_detailed(query, 0.5).cache == "hit"
                assert threads == [threading.current_thread().name]

    def test_concurrent_insert_and_search_with_contracts(self, rng, check_env):
        """Sustained mixed read/write traffic under REPRO_CHECK_CONTRACTS=1
        finishes without deadlock and without contract violations on any
        serving path (miss, hit and refine all re-validate)."""
        check_env(contracts="1")
        database = build_database(rng, count=5)
        queries = [rng.random((9, 2)) for _ in range(2)]
        inserts = [rng.random((24, 2)) for _ in range(4)]
        failures = []

        with QueryEngine(database, workers=4, cache_size=8) as engine:
            def reader(query):
                try:
                    for epsilon in EPSILONS * 3:
                        result = engine.search(query, epsilon)
                        assert set(result.answers) <= set(result.candidates)
                except Exception as error:  # noqa: BLE001 — collected below
                    failures.append(error)

            threads = [
                threading.Thread(target=reader, args=(query,))
                for query in queries
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for ordinal, points in enumerate(inserts):
                engine.insert(points, sequence_id=f"w{ordinal}")
            engine.remove("w0")
            for thread in threads:
                thread.join()

        assert not failures, failures[0]


class TestLifecycleAndValidation:
    def test_closed_engine_rejects_requests(self, rng):
        engine = QueryEngine(build_database(rng, count=2), workers=1)
        engine.close()
        query = rng.random((6, 2))
        with pytest.raises(EngineClosed):
            engine.search(query, 0.5)
        with pytest.raises(EngineClosed):
            engine.insert(query)
        engine.close()  # idempotent

    def test_constructor_validation(self, rng):
        database = build_database(rng, count=2)
        with pytest.raises(TypeError):
            QueryEngine(object())
        with pytest.raises(ValueError):
            QueryEngine(database, workers=0)
        with pytest.raises(ValueError):
            QueryEngine(database, queue_cap=-1)
        with pytest.raises(ValueError):
            QueryEngine(database, cache_size=-1)
        with pytest.raises(ValueError):
            QueryEngine(database, default_timeout=0.0)

    def test_request_validation(self, rng):
        with QueryEngine(build_database(rng, count=2), workers=1) as engine:
            with pytest.raises(ValueError):
                engine.search(rng.random((6, 2)), -0.1)
            with pytest.raises(ValueError):
                engine.search(rng.random((6, 2)), 0.1, timeout=-1.0)
            with pytest.raises(ValueError):
                engine.knn(rng.random((6, 2)), 0)
            with pytest.raises(ValueError):
                engine.search(rng.random((6, 3)), 0.1)  # wrong dimension

    def test_a_non_finite_timeout_is_rejected_before_admission(self, rng):
        """A NaN budget used to make a deadline that never expires (and
        ``inf`` one no wait could take)."""
        with QueryEngine(build_database(rng, count=2), workers=1) as engine:
            for budget in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    engine.search(rng.random((6, 2)), 0.1, timeout=budget)
            assert engine.stats()["requests_total"] == 0

    def test_dimension_and_len(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            assert engine.dimension == 2
            assert len(engine) == 3
            assert engine.sequence_ids() == ["s0", "s1", "s2"]


class TestStatsAndTracing:
    def test_stats_block(self, rng):
        with QueryEngine(build_database(rng), workers=2, cache_size=4) as engine:
            query = rng.random((10, 2))
            engine.search(query, 0.5)
            engine.search(query, 0.5)
            engine.insert(rng.random((20, 2)), sequence_id="w")
            stats = engine.stats()
        assert stats["requests"]["search"] == 2
        assert stats["requests"]["insert"] == 1
        assert stats["completed"] == 3
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert 0.0 < stats["cache"]["hit_ratio"] <= 1.0
        assert stats["snapshots_published"] == 1
        assert stats["snapshot_version"] == 1
        assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] >= 0.0
        assert stats["queue_depth"] == 0
        assert stats["workers"] == 2
        assert stats["sequences"] == 11

    def test_stats_identity_fields(self, rng):
        from repro.util.version import REPRO_VERSION

        with QueryEngine(build_database(rng), workers=1) as engine:
            stats = engine.stats()
        assert stats["repro_version"] == REPRO_VERSION
        assert stats["uptime_s"] >= 0.0
        assert isinstance(stats["snapshot_version"], int)

    def test_stats_keys_are_the_documented_payload(self, rng):
        """``/stats`` has one documented schema: the TypedDict the client
        reads is exactly the key set the engine writes."""
        from repro.service.client import EngineStatsPayload

        with QueryEngine(build_database(rng, count=2), workers=1) as engine:
            engine.search(rng.random((6, 2)), 0.5)
            keys = set(engine.stats())
        assert keys == set(EngineStatsPayload.__annotations__)

    def test_trace_records(self, rng, tmp_path):
        trace = tmp_path / "serve_trace.jsonl"
        with QueryEngine(
            build_database(rng, count=4),
            workers=1,
            cache_size=4,
            trace_path=trace,
        ) as engine:
            query = rng.random((10, 2))
            engine.search(query, 0.5)
            engine.search(query, 0.5)
            engine.search(query, 0.25)
        records = read_trace(trace)
        assert [r["cache"] for r in records] == ["miss", "hit", "refine"]
        for record in records:
            assert record["op"] == "search"
            assert record["snapshot_version"] == 0
            assert record["epsilon"] in (0.5, 0.25)
            assert "answers" in record and "candidates" in record
