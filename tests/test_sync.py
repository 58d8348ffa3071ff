"""The runtime lock-order/race sanitizer and its integration stress tests.

Unit tests pin the sanitizer's contract — a plain lock while off,
inversion and self-deadlock detection under ``checking("sync")``,
condition discipline, statistics — and the stress tests run the real concurrent
subsystems (:class:`QueryEngine` insert/search/checkpoint,
:class:`ClusterCoordinator` scatter + read-repair) with checks armed,
asserting that no :class:`LockOrderViolation` fires and that results
match a single-threaded run over the same final corpus.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, LocalBackend, ShardRouter
from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import QueryEngine
from repro.service.wal import DurabilityConfig
from repro.util.checks import checking
from repro.util.sync import (
    LockOrderViolation,
    TracedCondition,
    TracedLock,
    TracedRLock,
    held_locks,
    lock_order_edges,
    sync_stats,
)
from tests.test_checks import assert_env_value, assert_scopes_nest

DIMENSION = 2


@pytest.fixture(autouse=True)
def clean_sync_state(check_env):
    """The order graph is process-global and cumulative: isolate tests.

    Also switches ``REPRO_SYNC_CHECKS`` off: these tests pin the
    disabled path and arm checks explicitly via ``checking("sync")``, so
    they must behave identically under CI's sanitizer job (which exports
    the variable suite-wide).  ``check_env`` resets the checks, and with
    them the order graph, before and after each test.
    """
    check_env(sync=None)


def run_thread(fn):
    """Run ``fn`` in a thread, re-raising anything it raised."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            box["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=10.0)
    if "error" in box:
        raise box["error"]
    return box.get("result")


# ----------------------------------------------------------------------
# Toggling
# ----------------------------------------------------------------------
class TestToggle:
    def test_disabled_by_default(self):
        lock = TracedLock("toggle.a")
        with lock:
            pass  # no bookkeeping when disabled...
        assert sync_stats() == {}  # ...so no stats either

    def test_checking_sync_scope(self):
        assert_scopes_nest("sync")

    def test_env_var_enables(self, check_env):
        assert_env_value("sync", check_env, "1", True)
        assert_env_value("sync", check_env, "0", False)

    def test_disabled_path_is_plain_lock(self):
        lock = TracedLock("toggle.plain")
        assert lock.acquire(blocking=False)
        assert not lock.acquire(blocking=False)  # held: non-blocking fails
        lock.release()
        assert not lock.locked()


# ----------------------------------------------------------------------
# Order-graph detection
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_inversion_raises_with_cycle(self):
        a, b = TracedLock("order.a"), TracedLock("order.b")
        with checking("sync"):
            with a:
                with b:
                    pass  # teaches the graph a -> b
            assert lock_order_edges() == {"order.a": ("order.b",)}

            def invert():
                with b:
                    with a:
                        pass

            with pytest.raises(LockOrderViolation) as caught:
                run_thread(invert)
            assert "order.a" in caught.value.cycle
            assert "order.b" in caught.value.cycle

    def test_consistent_order_never_raises(self):
        a, b, c = (TracedLock(f"chain.{n}") for n in "abc")

        def consistent():
            with a, b, c:
                pass
            with a, c:  # skipping a middle lock is still in order
                pass
            with b, c:
                pass

        with checking("sync"):
            for _ in range(3):
                consistent()
                run_thread(consistent)
            assert lock_order_edges()["chain.a"] == ("chain.b", "chain.c")

    def test_self_deadlock_detected(self):
        lock = TracedLock("self.deadlock")
        with checking("sync"):
            with lock:
                with pytest.raises(LockOrderViolation, match="re-acquired"):
                    lock.acquire()

    def test_self_try_lock_fails_without_raising(self):
        # acquire(blocking=False) on a lock this thread holds is the
        # single-flight idiom, not a deadlock: it must return False.
        lock = TracedLock("self.tryagain")
        with checking("sync"):
            with lock:
                assert lock.acquire(blocking=False) is False
            assert lock.acquire(blocking=False) is True
            lock.release()

    def test_rlock_reentry_allowed(self):
        lock = TracedRLock("self.reentrant")
        with checking("sync"):
            with lock:
                with lock:
                    assert held_locks() == (
                        "self.reentrant",
                        "self.reentrant",
                    )
            assert held_locks() == ()

    def test_same_name_peers_rejected(self):
        first, second = TracedLock("peer.x"), TracedLock("peer.x")
        with checking("sync"):
            with first:
                with pytest.raises(LockOrderViolation, match="same-role"):
                    second.acquire()

    def test_cross_thread_held_stacks_independent(self):
        lock = TracedLock("held.mine")
        with checking("sync"):
            with lock:
                assert held_locks() == ("held.mine",)
                assert run_thread(held_locks) == ()

    def test_stats_recorded(self):
        lock = TracedLock("stats.lock")
        with checking("sync"):
            with lock:
                time.sleep(0.002)
            stats = sync_stats()["stats.lock"]
            assert stats["acquisitions"] == 1
            assert stats["hold_s"] > 0.0
            assert stats["max_hold_s"] >= stats["hold_s"] / 2

    def test_nonblocking_contention_returns_false(self):
        lock = TracedLock("contend.lock")
        with checking("sync"):
            with lock:
                assert run_thread(lambda: lock.acquire(blocking=False)) is False


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
class TestCondition:
    def test_notify_requires_lock(self):
        cond = TracedCondition(name="cond.guarded")
        with checking("sync"):
            with pytest.raises(RuntimeError, match="without holding"):
                cond.notify()
            with pytest.raises(RuntimeError, match="without holding"):
                cond.wait(0.01)

    def test_wait_notify_roundtrip(self):
        cond = TracedCondition(name="cond.roundtrip")
        ready = []

        def waiter():
            with checking("sync"):
                with cond:
                    while not ready:
                        cond.wait(5.0)
                    return ready[0]

        with checking("sync"):
            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.02)
            with cond:
                ready.append("woken")
                cond.notify_all()
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_wait_for_predicate(self):
        cond = TracedCondition(name="cond.predicate")
        flag = []
        with checking("sync"):

            def setter():
                time.sleep(0.02)
                with cond:
                    flag.append(True)
                    cond.notify()

            thread = threading.Thread(target=setter)
            thread.start()
            with cond:
                assert cond.wait_for(lambda: bool(flag), timeout=5.0)
            thread.join(timeout=5.0)

    def test_wait_releases_held_stack(self):
        cond = TracedCondition(name="cond.stack")
        observed = []

        def prober():
            with checking("sync"):
                time.sleep(0.02)
                observed.append(cond.acquire(blocking=False))
                if observed[-1]:
                    cond.release()
                with cond:
                    cond.notify_all()

        with checking("sync"):
            thread = threading.Thread(target=prober)
            thread.start()
            with cond:
                assert held_locks() == ("cond.stack",)
                cond.wait(5.0)
                assert held_locks() == ("cond.stack",)
            thread.join(timeout=5.0)
        # while this thread waited, the prober could take the lock
        assert observed and observed[0] is True


# ----------------------------------------------------------------------
# Engine stress: concurrent insert / search / checkpoint
# ----------------------------------------------------------------------
def build_corpus(rng, count=8):
    return [
        (f"seed-{i}", rng.random((int(rng.integers(16, 40)), DIMENSION)))
        for i in range(count)
    ]


def database_of(corpus):
    database = SequenceDatabase(DIMENSION)
    for sequence_id, points in corpus:
        database.add(points, sequence_id=sequence_id)
    return database


class TestEngineStress:
    def test_concurrent_engine_traffic_is_clean_and_exact(
        self, rng, tmp_path
    ):
        corpus = build_corpus(rng)
        database = database_of(corpus)
        durability = DurabilityConfig(directory=tmp_path / "wal", fsync=False)
        queries = [rng.random((10, DIMENSION)) for _ in range(4)]
        writer_payloads = {
            f"w{worker}-{i}": rng.random((12, DIMENSION))
            for worker in range(2)
            for i in range(6)
        }
        violations = []
        errors = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except LockOrderViolation as error:
                    violations.append(error)
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            return run

        with checking("sync"):
            engine = QueryEngine(
                database,
                workers=4,
                cache_size=32,
                durability=durability,
            )
            try:

                def writer(worker):
                    for sid, points in writer_payloads.items():
                        if sid.startswith(f"w{worker}-"):
                            engine.insert(points, sequence_id=sid)

                def searcher():
                    for _ in range(10):
                        for query in queries:
                            engine.search(query, 0.5)

                def checkpointer():
                    for _ in range(4):
                        engine.checkpoint()
                        time.sleep(0.002)

                threads = [
                    threading.Thread(target=guarded(lambda w=w: writer(w)))
                    for w in range(2)
                ]
                threads += [
                    threading.Thread(target=guarded(searcher))
                    for _ in range(3)
                ]
                threads.append(threading.Thread(target=guarded(checkpointer)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert violations == [], violations
                assert errors == [], errors

                # Parity: the final corpus answers exactly like a fresh
                # single-threaded search over the same sequences.
                union = database_of(
                    corpus + sorted(writer_payloads.items())
                )
                reference = SimilaritySearch(union)
                # Sets, not lists: answer *membership* must be exact,
                # but corpus order depends on writer interleaving.
                for query in queries:
                    got = engine.search(query, 0.5)
                    expected = reference.search(query, 0.5)
                    assert set(got.answers) == set(expected.answers)
                    assert set(got.candidates) == set(expected.candidates)
            finally:
                engine.close()
        # The sanitizer actually watched this run.
        stats = sync_stats()
        assert stats.get("engine.write", {}).get("acquisitions", 0) > 0
        assert "wal.log" in stats


# ----------------------------------------------------------------------
# Cluster stress: scatter/search + failover + read-repair drain
# ----------------------------------------------------------------------
class TestClusterStress:
    def test_concurrent_scatter_and_read_repair_is_clean(self, rng):
        corpus = [
            (f"seq-{i}", rng.random((int(rng.integers(12, 30)), DIMENSION)))
            for i in range(12)
        ]
        router = ShardRouter(num_backends=3, num_shards=6, replication=2)
        databases = [SequenceDatabase(DIMENSION) for _ in range(3)]
        for sequence_id, points in corpus:
            for backend in router.placement(sequence_id).replicas:
                databases[backend].add(points, sequence_id=sequence_id)
        violations = []
        errors = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except LockOrderViolation as error:
                    violations.append(error)
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            return run

        with checking("sync"):
            engines = [
                QueryEngine(database, workers=2, cache_size=16)
                for database in databases
            ]
            backends = [
                LocalBackend(engine, name=f"local-{i}")
                for i, engine in enumerate(engines)
            ]
            coordinator = ClusterCoordinator(
                backends, num_shards=6, replication=2
            )
            coordinator.seed_order([sid for sid, _ in corpus])
            try:
                queries = [rng.random((8, DIMENSION)) for _ in range(3)]
                payloads = {
                    f"new-{worker}-{i}": rng.random((10, DIMENSION))
                    for worker in range(2)
                    for i in range(4)
                }

                def searcher():
                    for _ in range(8):
                        for query in queries:
                            coordinator.search(query, 0.5)

                def writer(worker):
                    for sid, points in payloads.items():
                        if sid.startswith(f"new-{worker}-"):
                            coordinator.insert(points, sequence_id=sid)

                def prober():
                    for _ in range(6):
                        coordinator.probe()
                        time.sleep(0.002)

                threads = [
                    threading.Thread(target=guarded(searcher))
                    for _ in range(3)
                ]
                threads += [
                    threading.Thread(target=guarded(lambda w=w: writer(w)))
                    for w in range(2)
                ]
                threads.append(threading.Thread(target=guarded(prober)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert violations == [], violations
                assert errors == [], errors

                # Parity with a single engine over the union corpus.
                union = SequenceDatabase(DIMENSION)
                for sequence_id, points in corpus:
                    union.add(points, sequence_id=sequence_id)
                for sequence_id, points in payloads.items():
                    union.add(points, sequence_id=sequence_id)
                reference = SimilaritySearch(union)
                for query in queries:
                    merged = coordinator.search(query, 0.5)
                    expected = reference.search(query, 0.5)
                    assert set(merged.answers) == set(expected.answers)
            finally:
                coordinator.close()
                for engine in engines:
                    engine.close()
        stats = sync_stats()
        assert (
            stats.get("coordinator.counters", {}).get("acquisitions", 0) > 0
        )


# ----------------------------------------------------------------------
# Seeded bug: an intentional inversion is caught at runtime
# ----------------------------------------------------------------------
class TestSeededInversion:
    def test_staged_inversion_is_caught(self):
        """The acceptance check: wire a deliberate a->b / b->a inversion
        through two threads and require the sanitizer to name it.

        The order graph is cumulative, so the two acquisitions need not
        overlap in time: the writer records checkpoint -> cache and is
        gone before the evictor takes cache -> checkpoint.  Which thread
        closes the cycle is then fixed, not left to the scheduler.
        """
        checkpoint_lock = TracedLock("seeded.checkpoint")
        cache_lock = TracedLock("seeded.cache")
        caught = []

        def writer():
            with checkpoint_lock:
                with cache_lock:
                    pass

        def evictor():
            try:
                with cache_lock:
                    with checkpoint_lock:
                        pass
            except LockOrderViolation as error:
                caught.append(error)

        with checking("sync"):
            for body in (writer, evictor):
                thread = threading.Thread(target=body)
                thread.start()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        assert len(caught) == 1
        assert set(caught[0].cycle) >= {"seeded.checkpoint", "seeded.cache"}
