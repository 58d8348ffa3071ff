"""The cluster coordinator: parity, failover, degradation, read-repair.

The tests drive a real :class:`ClusterCoordinator` over in-process
:class:`LocalBackend` engines (JSON-round-tripped, so payloads are
byte-identical to the HTTP transport) and compare against a single-node
engine holding the union corpus.  Backend failures are injected either
through a wrapper that raises transport errors (a killed process) or
through the ``cluster.backend.<i>.request`` fault sites (a mid-scatter
crash), with the paper's result contracts armed via
:func:`repro.util.checks.checking` where parity is asserted.
"""

import json
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    HedgePolicy,
    LocalBackend,
    ShardRouter,
)
from repro.cluster.health import HealthTracker
from repro.core.database import SequenceDatabase
from repro.service import QueryEngine
from repro.service.errors import (
    DeadlineExceeded,
    ShardUnavailable,
    WriteQuorumFailed,
)
from repro.service.faults import FaultRule, fault_plan
from repro.service.http import search_payload
from repro.util.checks import checking

DIMENSION = 3


class KillableBackend:
    """A backend whose process can be 'killed' (raises ConnectionError)."""

    def __init__(self, inner):
        self.inner = inner
        self.dead = False
        self.calls = 0

    def _guard(self):
        self.calls += 1
        if self.dead:
            raise ConnectionError("backend killed")

    def healthz(self):
        self._guard()
        return self.inner.healthz()

    def stats(self):
        self._guard()
        return self.inner.stats()

    def search(self, points, epsilon, *, find_intervals=True, timeout=None):
        self._guard()
        return self.inner.search(
            points, epsilon, find_intervals=find_intervals, timeout=timeout
        )

    def knn(self, points, k, *, timeout=None):
        self._guard()
        return self.inner.knn(points, k, timeout=timeout)

    def insert(self, points, sequence_id=None):
        self._guard()
        return self.inner.insert(points, sequence_id=sequence_id)

    def append(self, sequence_id, points):
        self._guard()
        return self.inner.append(sequence_id, points)

    def remove(self, sequence_id):
        self._guard()
        return self.inner.remove(sequence_id)

    def apply_records(self, records):
        self._guard()
        return self.inner.apply_records(records)

    def restore(self, sequences):
        self._guard()
        return self.inner.restore(sequences)

    def export_sequences(self, *, include_points=True):
        self._guard()
        return self.inner.export_sequences(include_points=include_points)


def make_corpus(count=24, seed=11):
    rng = np.random.default_rng(seed)
    return [
        (f"seq-{i}", rng.random((int(rng.integers(15, 45)), DIMENSION)))
        for i in range(count)
    ]


def make_single(corpus):
    database = SequenceDatabase(DIMENSION)
    for sequence_id, points in corpus:
        database.add(points, sequence_id=sequence_id)
    return QueryEngine(database, workers=1, cache_size=0)


def make_cluster(
    corpus,
    *,
    num_backends=3,
    replication=2,
    num_shards=None,
    hedge=None,
    health=None,
    write_quorum=None,
    wrap=KillableBackend,
    backend_class=LocalBackend,
):
    """A cluster over in-process engines.

    ``wrap`` stands in for a remote transport: a wrapper does not forward
    ``in_process``, so the coordinator hands its calls to the pool.
    ``wrap=None`` leaves the backends bare — searched in a plain loop on
    the caller's thread.
    """
    router = ShardRouter(
        num_backends=num_backends,
        num_shards=num_shards,
        replication=replication,
    )
    databases = [SequenceDatabase(DIMENSION) for _ in range(num_backends)]
    for sequence_id, points in corpus:
        for backend in router.placement(sequence_id).replicas:
            databases[backend].add(points, sequence_id=sequence_id)
    engines = [
        QueryEngine(database, workers=1, cache_size=0)
        for database in databases
    ]
    backends = [
        backend_class(engine, name=f"local-{i}")
        for i, engine in enumerate(engines)
    ]
    if wrap is not None:
        backends = [wrap(backend) for backend in backends]
    coordinator = ClusterCoordinator(
        backends,
        num_shards=num_shards,
        replication=replication,
        hedge=hedge,
        health=health,
        write_quorum=write_quorum,
    )
    coordinator.seed_order([sequence_id for sequence_id, _ in corpus])
    return engines, backends, coordinator


def close_all(engines, coordinator, single=None):
    coordinator.close()
    for engine in engines:
        engine.close()
    if single is not None:
        single.close()


def stored(engine):
    """Every stored sequence's points, by id (order-free)."""
    database = engine._snapshot.database
    return {
        sid: database.sequence(sid).points.tobytes() for sid in database.ids()
    }


def single_node_search(single, query, epsilon, *, find_intervals=True):
    """The single-node answer in exact transport shape."""
    response = single.search_detailed(
        query, epsilon, find_intervals=find_intervals
    )
    return json.loads(
        json.dumps(
            search_payload(response, find_intervals=find_intervals),
            default=str,
        )
    )


def single_node_knn(single, query, k):
    neighbors = single.knn(query, k)
    decoded = json.loads(
        json.dumps([[d, sid] for d, sid in neighbors], default=str)
    )
    return [(float(d), sid) for d, sid in decoded]


class TestParity:
    @pytest.mark.parametrize(
        ("num_backends", "replication", "num_shards"),
        [(3, 2, None), (4, 3, None), (2, 1, None), (5, 2, 7)],
    )
    def test_merged_results_match_single_node(
        self, num_backends, replication, num_shards
    ):
        corpus = make_corpus()
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(
            corpus,
            num_backends=num_backends,
            replication=replication,
            num_shards=num_shards,
        )
        rng = np.random.default_rng(5)
        try:
            with checking("contracts"):
                for epsilon in (0.3, 0.6):
                    query = rng.random((20, DIMENSION))
                    expected = single_node_search(single, query, epsilon)
                    result = coordinator.search(query, epsilon)
                    assert result.complete
                    assert result.missing_shards == ()
                    assert result.answers == expected["answers"]
                    assert result.candidates == expected["candidates"]
                    assert result.intervals == expected["intervals"]
                    knn = coordinator.knn(query, 6)
                    assert knn.complete
                    assert knn.neighbors == single_node_knn(single, query, 6)
        finally:
            close_all(engines, coordinator, single)

    def test_range_query_skips_intervals(self):
        corpus = make_corpus(10)
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(corpus)
        query = np.random.default_rng(3).random((12, DIMENSION))
        try:
            expected = single_node_search(
                single, query, 0.5, find_intervals=False
            )
            result = coordinator.range_query(query, 0.5)
            assert result.answers == expected["answers"]
            assert result.intervals == {}
        finally:
            close_all(engines, coordinator, single)

    def test_epsilon_is_validated(self):
        corpus = make_corpus(4)
        engines, _, coordinator = make_cluster(corpus)
        try:
            with pytest.raises(ValueError):
                coordinator.search(np.zeros((3, DIMENSION)), -0.5)
        finally:
            close_all(engines, coordinator)


class TestFailover:
    def test_killed_replica_fails_over_with_full_results(self):
        corpus = make_corpus()
        single = make_single(corpus)
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        backends[0].dead = True
        query = np.random.default_rng(9).random((15, DIMENSION))
        try:
            with checking("contracts"):
                expected = single_node_search(single, query, 0.5)
                result = coordinator.search(query, 0.5)
            assert result.complete
            assert result.answers == expected["answers"]
            assert result.intervals == expected["intervals"]
            assert coordinator.stats()["failovers"] >= 1
        finally:
            close_all(engines, coordinator, single)

    def test_mid_scatter_crash_is_covered_by_the_replica(self):
        # The per-backend fault site fires inside the scatter itself —
        # the request reaches _call_backend and dies there, exactly a
        # process crash racing the fan-out.
        corpus = make_corpus()
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        query = np.random.default_rng(2).random((15, DIMENSION))
        try:
            with checking("contracts"):
                expected = single_node_search(single, query, 0.6)
                with fault_plan(
                    FaultRule(
                        "cluster.backend.1.request", "raise", times=None
                    )
                ):
                    result = coordinator.search(query, 0.6)
            assert result.complete
            assert result.answers == expected["answers"]
            assert result.candidates == expected["candidates"]
            assert result.intervals == expected["intervals"]
        finally:
            close_all(engines, coordinator, single)

    def test_repeated_failures_mark_the_backend_down(self):
        corpus = make_corpus(8)
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        backends[2].dead = True
        query = np.random.default_rng(1).random((10, DIMENSION))
        try:
            for _ in range(4):
                coordinator.search(query, 0.4)
            assert coordinator.health.state(2) == "down"
            calls_when_down = backends[2].calls
            coordinator.search(query, 0.4)
            # Down backends are skipped outright, not retried per request.
            assert backends[2].calls == calls_when_down
        finally:
            close_all(engines, coordinator)

    def test_flapping_backend_keeps_serving_complete_results(self):
        corpus = make_corpus()
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        query = np.random.default_rng(8).random((15, DIMENSION))
        try:
            expected = single_node_search(single, query, 0.5)
            # every=2: backend 0 alternates failure and success forever.
            with fault_plan(
                FaultRule(
                    "cluster.backend.0.request",
                    "raise",
                    times=None,
                    every=2,
                )
            ):
                for _ in range(6):
                    result = coordinator.search(query, 0.5)
                    assert result.complete
                    assert result.answers == expected["answers"]
            # Interleaved successes keep resetting the failure streak, so
            # the flapping backend never trips the down threshold.
            assert coordinator.health.state(0) in ("up", "suspect")
        finally:
            close_all(engines, coordinator, single)


class TestPartialResults:
    def test_whole_shard_down_degrades_search_typed(self):
        corpus = make_corpus()
        engines, backends, coordinator = make_cluster(corpus, replication=1)
        backends[1].dead = True
        lost_shards = coordinator.router.shards_of_backend(1)
        query = np.random.default_rng(4).random((12, DIMENSION))
        try:
            result = coordinator.search(query, 0.7)
            assert not result.complete
            assert result.missing_shards == lost_shards
            # Reported answers are still sound: every one comes from a
            # live shard and passed Phase 3 there.
            live = {
                sid
                for sid, _ in corpus
                if coordinator.router.shard_of(sid) not in lost_shards
            }
            assert set(result.answers) <= live
            assert coordinator.stats()["partial_results"] >= 1
            # A few more failures trip the down threshold; only then does
            # the shard count as unavailable in health reporting.
            for _ in range(3):
                coordinator.search(query, 0.7)
            assert coordinator.unavailable_shards() == sorted(lost_shards)
            assert coordinator.healthz()["status"] == "partial"
        finally:
            close_all(engines, coordinator)

    def test_search_fail_closed_raises_typed(self):
        corpus = make_corpus(8)
        engines, backends, coordinator = make_cluster(corpus, replication=1)
        backends[0].dead = True
        query = np.random.default_rng(4).random((8, DIMENSION))
        try:
            with pytest.raises(ShardUnavailable) as excinfo:
                coordinator.search(query, 0.5, fail_closed=True)
            assert excinfo.value.missing_shards == (
                coordinator.router.shards_of_backend(0)
            )
        finally:
            close_all(engines, coordinator)

    def test_knn_fails_closed_by_default_and_degrades_on_request(self):
        corpus = make_corpus()
        engines, backends, coordinator = make_cluster(corpus, replication=1)
        backends[2].dead = True
        query = np.random.default_rng(6).random((10, DIMENSION))
        try:
            with pytest.raises(ShardUnavailable):
                coordinator.knn(query, 5)
            partial = coordinator.knn(query, 5, fail_closed=False)
            assert not partial.complete
            assert partial.missing_shards == (
                coordinator.router.shards_of_backend(2)
            )
            assert len(partial.neighbors) <= 5
        finally:
            close_all(engines, coordinator)

    def test_replication_covers_a_single_dead_backend_completely(self):
        corpus = make_corpus()
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        backends[1].dead = True
        query = np.random.default_rng(6).random((10, DIMENSION))
        try:
            result = coordinator.search(query, 0.5)
            assert result.complete
            assert coordinator.unavailable_shards() == []
        finally:
            close_all(engines, coordinator)


class TestWrites:
    def test_insert_reaches_every_replica(self):
        corpus = make_corpus(6)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        points = np.random.default_rng(3).random((18, DIMENSION))
        try:
            sequence_id = coordinator.insert(points, sequence_id="fresh")
            placement = coordinator.router.placement(sequence_id)
            for backend in placement.replicas:
                assert "fresh" in engines[backend].sequence_ids()
        finally:
            close_all(engines, coordinator)

    def test_write_quorum_failure_is_typed_and_queues_repair(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        points = np.random.default_rng(3).random((18, DIMENSION))
        try:
            # Find an id placed on backend 0 so killing it loses a replica.
            probe_id = next(
                f"w-{i}"
                for i in range(1000)
                if 0 in coordinator.router.placement(f"w-{i}").replicas
            )
            backends[0].dead = True
            with pytest.raises(WriteQuorumFailed) as excinfo:
                coordinator.insert(points, sequence_id=probe_id)
            assert excinfo.value.acks == 1
            assert excinfo.value.required == 2
            assert coordinator.repair_pending() == {0: 1}
        finally:
            close_all(engines, coordinator)

    def test_duplicate_insert_raises_key_error_not_quorum(self):
        corpus = make_corpus(6)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        points = np.random.default_rng(3).random((10, DIMENSION))
        try:
            coordinator.insert(points, sequence_id="dup")
            with pytest.raises(KeyError):
                coordinator.insert(points, sequence_id="dup")
            assert coordinator.repair_pending() == {}
        finally:
            close_all(engines, coordinator)

    def test_auto_ids_are_assigned_and_routable(self):
        corpus = make_corpus(4)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        points = np.random.default_rng(3).random((10, DIMENSION))
        try:
            first = coordinator.insert(points)
            second = coordinator.insert(points)
            assert first != second
            assert coordinator.router.placement(first).replicas
        finally:
            close_all(engines, coordinator)

    def test_auto_ids_do_not_collide_across_coordinators(self):
        # A restarted (or concurrent) coordinator over the same backends
        # must not reissue an id a previous coordinator already stored.
        corpus = make_corpus(4)
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        points = np.random.default_rng(3).random((10, DIMENSION))
        try:
            first = coordinator.insert(points)
            second = ClusterCoordinator(backends, replication=2)
            try:
                other = second.insert(points)  # would KeyError on collision
            finally:
                second.close()
            assert other != first
        finally:
            close_all(engines, coordinator)

    def test_divergent_replica_rejection_is_repaired_not_raised(self):
        corpus = make_corpus(6)
        engines, _, coordinator = make_cluster(
            corpus, num_backends=3, replication=3
        )
        rng = np.random.default_rng(5)
        try:
            coordinator.insert(rng.random((10, DIMENSION)), sequence_id="div")
            # Replica 1 silently loses the sequence — the state a replica
            # is in after some damage no journal saw.
            engines[1].remove("div")
            coordinator.append("div", rng.random((4, DIMENSION)))
            # The quorum applied the append: the caller sees success and
            # the diverged replica is moved to a snapshot resync, not
            # raised (an append it lacks the target of cannot replay).
            assert len(engines[0]._snapshot.database.sequence("div")) == 14
            assert coordinator.repair_pending() == {}
            assert coordinator.journal.resync_pending() == [1]
            assert coordinator.stats()["divergent_writes"] == 1
            coordinator.probe()
            assert coordinator.journal.resync_pending() == []
            assert coordinator.stats()["resyncs"] == 1
            assert len(engines[1]._snapshot.database.sequence("div")) == 14
            assert stored(engines[1]) == stored(engines[0])
        finally:
            close_all(engines, coordinator)

    def test_caller_error_still_queues_repairs_for_dead_replicas(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(
            corpus, num_backends=3, replication=3, write_quorum=1
        )
        rng = np.random.default_rng(5)
        try:
            backends[0].dead = True
            with pytest.raises(KeyError):
                coordinator.append("no-such-id", rng.random((3, DIMENSION)))
            # The live replicas agreed the request is bad, but the dead
            # replica's state is unknown and an append with no acked
            # length cannot replay: the repair queued for it is a
            # snapshot resync from its peers, not a backlog entry.
            assert coordinator.stats()["repairs_queued"] == 1
            assert coordinator.repair_pending() == {}
            assert coordinator.journal.resync_pending() == [0]
            backends[0].dead = False
            coordinator.probe()
            assert coordinator.journal.resync_pending() == []
            assert stored(engines[0]) == stored(engines[1])
        finally:
            close_all(engines, coordinator)

    def test_rejected_append_needs_nothing_for_a_skipped_replica(self):
        corpus = make_corpus(6)
        engines, _, coordinator = make_cluster(
            corpus, num_backends=3, replication=3, write_quorum=1
        )
        rng = np.random.default_rng(5)
        try:
            for _ in range(3):
                coordinator.health.record_failure(0)
            with pytest.raises(KeyError):
                coordinator.append("no-such-id", rng.random((3, DIMENSION)))
            # Backend 0 was never sent the call: it needs nothing.
            assert coordinator.repair_pending() == {}
            assert coordinator.journal.resync_pending() == []
        finally:
            close_all(engines, coordinator)

    def test_append_and_remove_replicate(self):
        corpus = make_corpus(6)
        engines, _, coordinator = make_cluster(corpus, replication=3)
        rng = np.random.default_rng(7)
        try:
            coordinator.insert(rng.random((12, DIMENSION)), sequence_id="rw")
            coordinator.append("rw", rng.random((5, DIMENSION)))
            for engine in engines:
                assert len(engine._snapshot.database.sequence("rw")) == 17
            coordinator.remove("rw")
            for engine in engines:
                assert "rw" not in engine.sequence_ids()
        finally:
            close_all(engines, coordinator)


class TestReadRepair:
    def test_missed_writes_replay_when_the_backend_recovers(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(
            corpus, num_backends=3, replication=3
        )
        rng = np.random.default_rng(5)
        try:
            backends[1].dead = True
            coordinator.insert(rng.random((14, DIMENSION)), sequence_id="r1")
            coordinator.insert(rng.random((14, DIMENSION)), sequence_id="r2")
            assert coordinator.repair_pending() == {1: 2}
            assert "r1" not in engines[1].sequence_ids()

            backends[1].dead = False
            # Mark it down first so the probe sees a recovery transition.
            for _ in range(3):
                coordinator.health.record_failure(1)
            coordinator.probe()
            assert coordinator.repair_pending() == {}
            assert "r1" in engines[1].sequence_ids()
            assert "r2" in engines[1].sequence_ids()
            assert coordinator.stats()["repairs_replayed"] == 2
        finally:
            close_all(engines, coordinator)

    def test_repair_is_idempotent_when_the_write_already_landed(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(
            corpus, num_backends=3, replication=3
        )
        rng = np.random.default_rng(5)
        try:
            backends[2].dead = True
            coordinator.insert(rng.random((14, DIMENSION)), sequence_id="x1")
            # The write sneaks in through another path before repair runs.
            backends[2].dead = False
            backends[2].inner.insert(
                rng.random((14, DIMENSION)).tolist(), sequence_id="x1"
            )
            for _ in range(3):
                coordinator.health.record_failure(2)
            coordinator.probe()
            assert coordinator.repair_pending() == {}
        finally:
            close_all(engines, coordinator)

    def test_drain_is_single_flight_per_backend(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(
            corpus, num_backends=3, replication=3
        )
        rng = np.random.default_rng(5)
        try:
            backends[1].dead = True
            coordinator.insert(rng.random((8, DIMENSION)), sequence_id="sf")
            assert coordinator.repair_pending() == {1: 1}
            backends[1].dead = False
            # While one thread holds backend 1's drain (a probe racing a
            # down -> up transition), a concurrent drain must skip, not
            # replay the same op a second time.
            assert coordinator._drain_locks[1].acquire(blocking=False)
            try:
                assert coordinator._drain_repairs(1) == 0
                assert coordinator.repair_pending() == {1: 1}
            finally:
                coordinator._drain_locks[1].release()
            assert coordinator._drain_repairs(1) == 1
            assert coordinator.repair_pending() == {}
            assert len(engines[1]._snapshot.database.sequence("sf")) == 8
        finally:
            close_all(engines, coordinator)

    def test_failed_repair_keeps_the_queue(self):
        corpus = make_corpus(6)
        engines, backends, coordinator = make_cluster(
            corpus, num_backends=3, replication=3
        )
        rng = np.random.default_rng(5)
        try:
            backends[0].dead = True
            coordinator.insert(rng.random((10, DIMENSION)), sequence_id="q1")
            assert coordinator.repair_pending() == {0: 1}
            backends[0].dead = False
            for _ in range(3):
                coordinator.health.record_failure(0)
            with fault_plan(
                FaultRule("cluster.read-repair", "raise", times=1)
            ):
                coordinator.probe()
            # The replay failed; the op stays queued for the next probe.
            assert coordinator.repair_pending() == {0: 1}
            coordinator.probe()
            assert coordinator.repair_pending() == {}
        finally:
            close_all(engines, coordinator)


class LostReplyBackend(LocalBackend):
    """Applies the next ``lose`` write, then loses the reply to it."""

    lose = None

    def _maybe_lose(self, op, reply):
        if self.lose == op:
            self.lose = None
            raise ConnectionError(f"reply to {op} lost")
        return reply

    def insert(self, points, sequence_id=None):
        return self._maybe_lose("insert", super().insert(points, sequence_id))

    def append(self, sequence_id, points):
        return self._maybe_lose("append", super().append(sequence_id, points))

    def remove(self, sequence_id):
        return self._maybe_lose("remove", super().remove(sequence_id))


def nearest(engine, query):
    return engine.knn(query, 1)[0]


class TestOneCatchUpProtocol:
    """A replica that missed a write replays it by sequence, idempotently.

    Two replicas, quorum 1; backend 1 applies a write and then its reply
    is lost, so the coordinator journals the write for it.  After the
    probe's drain both replicas hold the same corpus and give the same
    1-NN answer (the sequential scan's), never the write twice.
    """

    def _cluster(self, *, wrap=None):
        base = np.random.default_rng(40).random((20, DIMENSION))
        engines, backends, coordinator = make_cluster(
            [("s", base)],
            num_backends=2,
            replication=2,
            write_quorum=1,
            wrap=wrap,
            backend_class=LostReplyBackend,
        )
        return engines, backends, coordinator

    def test_a_lost_append_reply_is_not_applied_twice(self):
        engines, backends, coordinator = self._cluster()
        extra = np.random.default_rng(41).random((5, DIMENSION))
        try:
            backends[1].lose = "append"
            coordinator.append("s", extra)
            assert coordinator.repair_pending() == {1: 1}
            coordinator.probe()
            assert coordinator.repair_pending() == {}
            # Replayed by sequence (a no-op: the length says it landed),
            # not papered over by a snapshot.
            stats = coordinator.stats()
            assert (stats["repairs_replayed"], stats["resyncs"]) == (1, 0)
            for engine in engines:
                assert len(engine._snapshot.database.sequence("s")) == 25
            query = np.vstack([extra, extra])
            assert nearest(engines[0], query) == nearest(engines[1], query)
            assert stored(engines[0]) == stored(engines[1])
        finally:
            close_all(engines, coordinator)

    def test_a_lost_insert_reply_converges(self):
        engines, backends, coordinator = self._cluster()
        fresh = np.random.default_rng(42).random((12, DIMENSION))
        try:
            backends[1].lose = "insert"
            coordinator.insert(fresh, sequence_id="fresh")
            coordinator.probe()
            assert coordinator.repair_pending() == {}
            assert stored(engines[0]) == stored(engines[1])
            assert nearest(engines[0], fresh) == nearest(engines[1], fresh)
        finally:
            close_all(engines, coordinator)

    def test_a_lost_remove_reply_then_a_reinsert_converges(self):
        engines, backends, coordinator = self._cluster()
        again = np.random.default_rng(43).random((9, DIMENSION))
        try:
            backends[1].lose = "remove"
            coordinator.remove("s")
            # Backend 1 lags, so the re-insert first drains its backlog,
            # then reaches it live: behind the remove, never before it.
            coordinator.insert(again, sequence_id="s")
            assert coordinator.repair_pending() == {}
            for engine in engines:
                assert len(engine._snapshot.database.sequence("s")) == 9
            assert stored(engines[0]) == stored(engines[1])
            assert nearest(engines[0], again) == nearest(engines[1], again)
        finally:
            close_all(engines, coordinator)

    def test_a_write_queues_behind_a_backlog_it_cannot_drain(self):
        engines, backends, coordinator = self._cluster()
        again = np.random.default_rng(43).random((9, DIMENSION))
        try:
            backends[1].lose = "remove"
            coordinator.remove("s")
            # Another drain owns backend 1: the re-insert must not
            # overtake the remove still in its backlog.
            with coordinator._drain_locks[1]:
                coordinator.insert(again, sequence_id="s")
            assert coordinator.repair_pending() == {1: 2}
            coordinator.probe()
            assert coordinator.repair_pending() == {}
            assert stored(engines[0]) == stored(engines[1])
            assert nearest(engines[0], again) == nearest(engines[1], again)
        finally:
            close_all(engines, coordinator)

    def test_an_append_no_replica_acked_resyncs_the_reached_replicas(self):
        engines, backends, coordinator = self._cluster(wrap=KillableBackend)
        extra = np.random.default_rng(44).random((5, DIMENSION))
        try:
            # Backend 0 is unreachable, backend 1 applies and loses the
            # reply: no length is known, so nothing can replay.
            backends[0].dead = True
            backends[1].inner.lose = "append"
            with pytest.raises(WriteQuorumFailed):
                coordinator.append("s", extra)
            assert coordinator.repair_pending() == {}
            assert coordinator.journal.resync_pending() == [0, 1]
            backends[0].dead = False
            coordinator.probe()
            assert coordinator.journal.resync_pending() == []
            # Neither copy is better: one keeps its own, the other takes it.
            assert stored(engines[0]) == stored(engines[1])
            query = np.vstack([extra, extra])
            assert nearest(engines[0], query) == nearest(engines[1], query)
            coordinator.append("s", extra)  # the shard takes writes again
            assert stored(engines[0]) == stored(engines[1])
        finally:
            close_all(engines, coordinator)

    def test_an_acking_replica_with_another_length_resyncs(self):
        engines, _, coordinator = self._cluster()
        rng = np.random.default_rng(45)
        try:
            engines[1].append("s", rng.random((2, DIMENSION)))  # unseen damage
            coordinator.append("s", rng.random((5, DIMENSION)))
            assert coordinator.stats()["divergent_writes"] == 1
            assert coordinator.journal.resync_pending() == [1]
            coordinator.probe()
            assert coordinator.journal.resync_pending() == []
            assert len(engines[1]._snapshot.database.sequence("s")) == 25
            assert stored(engines[0]) == stored(engines[1])
        finally:
            close_all(engines, coordinator)


class ThreadRecordingBackend(LocalBackend):
    """A ``LocalBackend`` (still ``in_process``) noting who calls it."""

    def __init__(self, engine, **options):
        super().__init__(engine, **options)
        self.callers = []

    def search(self, *args, **options):
        self.callers.append(threading.get_ident())
        return super().search(*args, **options)

    def knn(self, *args, **options):
        self.callers.append(threading.get_ident())
        return super().knn(*args, **options)

    def insert(self, *args, **options):
        self.callers.append(threading.get_ident())
        return super().insert(*args, **options)


class DeafBackend(KillableBackend):
    """Remote-looking, and deaf to the ``timeout`` it is handed."""

    def search(self, points, epsilon, *, find_intervals=True, timeout=None):
        time.sleep(1.0)
        return super().search(
            points, epsilon, find_intervals=find_intervals, timeout=timeout
        )


def assert_parity(coordinator, single, query, epsilon, k):
    expected = single_node_search(single, query, epsilon)
    result = coordinator.search(query, epsilon)
    assert result.complete
    assert result.answers == expected["answers"]
    assert result.candidates == expected["candidates"]
    assert result.intervals == expected["intervals"]
    assert coordinator.knn(query, k).neighbors == single_node_knn(
        single, query, k
    )


class TestInProcessScatter:
    """Bare ``LocalBackend``s: a plain loop on the caller's thread."""

    @pytest.mark.parametrize("wrap", [None, KillableBackend])
    def test_backend_calls_stay_on_the_calling_thread_unless_remote(self, wrap):
        # The guard that the thread hand-off does not creep back: every
        # in-process attempt (read or write) runs on the caller's thread;
        # the same backends behind a wrapper are remote, and none does.
        corpus = make_corpus(9)
        engines, backends, coordinator = make_cluster(
            corpus,
            # On, but too slow to fire on a loaded box.
            hedge=HedgePolicy(min_delay=0.5, max_delay=0.5),
            wrap=wrap,
            backend_class=ThreadRecordingBackend,
        )
        rng = np.random.default_rng(4)
        query = rng.random((10, DIMENSION))
        try:
            coordinator.search(query, 0.5)
            coordinator.knn(query, 3)
            coordinator.insert(rng.random((12, DIMENSION)), sequence_id="new")
            callers = [
                ident
                for backend in backends
                for ident in getattr(backend, "inner", backend).callers
            ]
            # 3 shards x (search + knn) + 2 replicas of one insert.
            assert len(callers) == 8
            here = threading.get_ident()
            if wrap is None:
                assert set(callers) == {here}
            else:
                assert here not in callers
            stats = coordinator.stats()
            assert stats["backend_calls"] == 8
            assert stats["hedges"] == 0 and stats["failovers"] == 0
        finally:
            close_all(engines, coordinator)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=4, max_value=10),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_in_process_remote_and_single_node_agree(self, seed, count, k):
        rng = np.random.default_rng(seed)
        corpus = [
            (f"seq-{i}", rng.random((int(rng.integers(5, 14)), DIMENSION)))
            for i in range(count)
        ]
        # A twin under a later id: a kNN tie, broken by insertion order.
        corpus.append(("twin", corpus[0][1].copy()))
        query = rng.random((8, DIMENSION))
        single = make_single(corpus)
        clusters = [make_cluster(corpus, wrap=wrap) for wrap in (None, KillableBackend)]
        try:
            with checking("contracts"):
                for _, _, coordinator in clusters:
                    assert_parity(coordinator, single, query, 0.6, k)
        finally:
            for engines, _, coordinator in clusters:
                close_all(engines, coordinator)
            single.close()

    def test_mixed_cluster_answers_with_parity(self):
        corpus = make_corpus()
        single = make_single(corpus)
        engines, backends, coordinator = make_cluster(
            corpus,
            hedge=HedgePolicy(),
            wrap=lambda backend: (
                backend
                if backend.name == "local-0"
                else KillableBackend(backend)
            ),
        )
        rng = np.random.default_rng(12)
        try:
            assert [
                coordinator._in_process(node) for node in range(3)
            ] == [True, False, False]
            with checking("contracts"):
                for epsilon in (0.3, 0.6):
                    assert_parity(
                        coordinator, single, rng.random((15, DIMENSION)), epsilon, 5
                    )
            points = rng.random((16, DIMENSION))
            coordinator.insert(points, sequence_id="mixed")
            single.insert(points, sequence_id="mixed")
            assert_parity(coordinator, single, points[:9], 0.2, 3)
        finally:
            close_all(engines, coordinator, single)

    def test_closed_engine_fails_over_to_the_replica(self):
        corpus = make_corpus()
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(corpus, wrap=None)
        query = np.random.default_rng(9).random((15, DIMENSION))
        try:
            engines[0].close()
            primaries = [
                shard
                for shard in range(coordinator.router.num_shards)
                if coordinator.router.replicas_of(shard)[0] == 0
            ]
            assert len(primaries) == 1
            assert_parity(coordinator, single, query, 0.5, 4)
            # One failover per read of the one shard engine 0 led.
            assert coordinator.stats()["failovers"] == 2
            assert coordinator.stats()["backend_failures"] == 2
        finally:
            close_all(engines, coordinator, single)

    def test_both_replicas_closed_degrades_typed(self):
        corpus = make_corpus()
        engines, _, coordinator = make_cluster(corpus, wrap=None)
        query = np.random.default_rng(9).random((15, DIMENSION))
        try:
            engines[0].close()
            engines[1].close()
            lost = tuple(
                shard
                for shard in range(coordinator.router.num_shards)
                if set(coordinator.router.replicas_of(shard)) <= {0, 1}
            )
            assert lost
            result = coordinator.search(query, 0.5)
            assert not result.complete
            assert result.missing_shards == lost
            with pytest.raises(ShardUnavailable) as excinfo:
                coordinator.knn(query, 3)
            assert excinfo.value.missing_shards == lost
            stats = coordinator.stats()
            assert stats["shard_misses"] == 2 * len(lost)
            assert stats["partial_results"] == 1
        finally:
            close_all(engines, coordinator)


class TestBudgetBoundsTheScatter:
    def test_a_backend_deaf_to_its_timeout_cannot_hang_the_read(self):
        # Regression: the scatter waited on its futures with no timeout
        # whenever no hedge was armed, so this search took the backend's
        # full second (forever, had it hung) and then *succeeded*.
        corpus = make_corpus(8)
        engines, _, coordinator = make_cluster(
            corpus, hedge=None, wrap=DeafBackend
        )
        query = np.random.default_rng(3).random((8, DIMENSION))
        try:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                coordinator.search(query, 0.5, timeout=0.1)
            assert time.monotonic() - started < 0.5
            assert excinfo.value.timeout == pytest.approx(0.1)
        finally:
            close_all(engines, coordinator)

    def test_hedge_delay_is_taken_once_per_scatter(self):
        corpus = make_corpus(8)
        policy = HedgePolicy(min_delay=0.5, max_delay=0.5)
        engines, _, coordinator = make_cluster(corpus, hedge=policy)
        sorts = []
        window = coordinator._latency
        inner = window.quantile
        window.quantile = lambda q: (sorts.append(q), inner(q))[1]
        query = np.random.default_rng(3).random((8, DIMENSION))
        # Each attempt outlives its dispatch, so every shard arms a timer.
        stall = FaultRule("cluster.backend.slow", "sleep", seconds=0.02, times=None)
        try:
            coordinator.search(query, 0.5)  # fills the latency window
            sorts.clear()
            with fault_plan(stall):
                coordinator.search(query, 0.5)
            # Three remote shards armed three timers off one window sort.
            assert sorts == [policy.quantile]
        finally:
            close_all(engines, coordinator)


class TestHedging:
    def test_slow_primary_is_hedged_to_a_replica(self):
        corpus = make_corpus(12)
        single = make_single(corpus)
        engines, _, coordinator = make_cluster(
            corpus,
            replication=2,
            hedge=HedgePolicy(min_delay=0.01, max_delay=0.01),
        )
        query = np.random.default_rng(10).random((10, DIMENSION))
        try:
            expected = single_node_search(single, query, 0.5)
            with fault_plan(
                FaultRule(
                    "cluster.backend.0.request",
                    "sleep",
                    seconds=0.4,
                    times=None,
                )
            ):
                result = coordinator.search(query, 0.5)
            assert result.complete
            assert result.answers == expected["answers"]
            stats = coordinator.stats()
            assert stats["hedges"] >= 1
            assert stats["hedge_wins"] >= 1
        finally:
            close_all(engines, coordinator, single)

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=1.5)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay=0.5, max_delay=0.1)

    def test_hedge_delay_clamps_to_bounds(self):
        from repro.service.stats import LatencyWindow

        policy = HedgePolicy(min_delay=0.05, max_delay=0.2)
        window = LatencyWindow(16)
        assert policy.delay(window) == 0.05  # empty window -> floor
        for _ in range(10):
            window.record(5.0)
        assert policy.delay(window) == 0.2  # quantile -> ceiling

    def test_hedge_delay_clamped_by_remaining_budget(self):
        """Regression: a hedge must never be scheduled to fire after the
        request budget is spent — the delay is capped by ``remaining``."""
        from repro.service.stats import LatencyWindow

        policy = HedgePolicy(min_delay=0.05, max_delay=0.2)
        window = LatencyWindow(16)
        assert policy.delay(window, remaining=0.02) == 0.02
        assert policy.delay(window, remaining=0.0) == 0.0
        # A negative remaining (budget already spent) floors at zero
        # rather than scheduling a hedge in the past.
        assert policy.delay(window, remaining=-1.0) == 0.0
        # No budget constraint: the usual bounds apply untouched.
        assert policy.delay(window, remaining=None) == 0.05


class TestStatsIdentity:
    def test_stats_carry_version_uptime_and_snapshot(self):
        from repro.util.version import REPRO_VERSION

        corpus = make_corpus(8)
        engines, _, coordinator = make_cluster(corpus, replication=2)
        try:
            stats = coordinator.stats()
            assert stats["repro_version"] == REPRO_VERSION
            assert stats["uptime_s"] >= 0.0
            # No probe has run yet: versions default to zero.
            assert stats["snapshot_version"] == 0
            assert stats["snapshot_versions"] == [0, 0, 0]

            points = np.random.default_rng(21).random((12, DIMENSION))
            coordinator.insert(points, sequence_id="stats-probe-seq")
            coordinator.probe()
            stats = coordinator.stats()
            # The write bumped at least the replicas holding the new
            # sequence; the cluster-wide version is their maximum.
            assert stats["snapshot_version"] >= 1
            assert stats["snapshot_version"] == max(
                stats["snapshot_versions"]
            )
            assert len(stats["snapshot_versions"]) == len(engines)
            assert all(
                block["probe"].get("status") == "ok"
                for block in stats["backends"]
            )
        finally:
            close_all(engines, coordinator)


class TestConfiguration:
    def test_rejects_empty_backends_and_bad_quorum(self):
        corpus = make_corpus(4)
        with pytest.raises(ValueError):
            ClusterCoordinator([])
        engines, _, coordinator = make_cluster(corpus, replication=2)
        coordinator.close()
        with pytest.raises(ValueError):
            make_cluster(corpus, replication=2, write_quorum=3)
        with pytest.raises(ValueError):
            ClusterCoordinator(
                [object()] * 2,
                health=HealthTracker(5),
            )
        for engine in engines:
            engine.close()

    def test_healthz_reports_degraded_then_partial(self):
        corpus = make_corpus(8)
        engines, backends, coordinator = make_cluster(corpus, replication=2)
        query = np.random.default_rng(2).random((8, DIMENSION))
        try:
            assert coordinator.healthz()["status"] == "ok"
            backends[0].dead = True
            for _ in range(4):
                coordinator.search(query, 0.4)
            assert coordinator.healthz()["status"] == "degraded"
            backends[1].dead = True
            backends[2].dead = True
            for _ in range(4):
                coordinator.search(query, 0.4)
            health = coordinator.healthz()
            assert health["status"] == "partial"
            assert health["unavailable_shards"]
        finally:
            close_all(engines, coordinator)
