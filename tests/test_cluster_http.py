"""The coordinator's HTTP endpoint, driven by an unmodified ServiceClient.

The cluster server speaks the same wire dialect as ``repro serve``, so
the standard :class:`ServiceClient` — written for a single backend —
must work against a whole cluster without modification, including the
typed-exception round trip for the new failure classes
(:class:`ShardUnavailable` over a dead shard).
"""

import base64
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, LocalBackend, serve_cluster
from repro.core.database import SequenceDatabase
from repro.service import QueryEngine, ServiceClient, WalFollower
from repro.service.errors import FollowerReadOnly, ShardUnavailable
from repro.service.http import serve, shutdown_gracefully
from repro.service.wal import WalRecord, encode_frames
from tests.test_cluster_coordinator import (
    DIMENSION,
    KillableBackend,
    make_corpus,
    make_single,
    single_node_knn,
    single_node_search,
)


def build_cluster(corpus, *, replication=2):
    from repro.cluster import ShardRouter

    router = ShardRouter(num_backends=3, replication=replication)
    databases = [SequenceDatabase(DIMENSION) for _ in range(3)]
    for sequence_id, points in corpus:
        for backend in router.placement(sequence_id).replicas:
            databases[backend].add(points, sequence_id=sequence_id)
    engines = [
        QueryEngine(database, workers=1, cache_size=0)
        for database in databases
    ]
    backends = [
        KillableBackend(LocalBackend(engine)) for engine in engines
    ]
    coordinator = ClusterCoordinator(
        backends, replication=replication, hedge=None
    )
    coordinator.seed_order([sequence_id for sequence_id, _ in corpus])
    return engines, backends, coordinator


@pytest.fixture
def cluster_served():
    corpus = make_corpus(16)
    engines, backends, coordinator = build_cluster(corpus)
    server = serve_cluster(coordinator, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0
    )
    single = make_single(corpus)
    yield corpus, backends, coordinator, client, single
    server.shutdown()
    server.server_close()
    coordinator.close()
    single.close()
    for engine in engines:
        engine.close()


class TestClusterOverHttp:
    def test_search_matches_single_node_and_reports_complete(
        self, cluster_served
    ):
        _, _, _, client, single = cluster_served
        query = np.random.default_rng(3).random((15, DIMENSION))
        expected = single_node_search(single, query, 0.5)
        reply = client.search(query, 0.5)
        assert reply["complete"] is True
        assert reply["missing_shards"] == []
        assert reply["answers"] == expected["answers"]
        assert reply["candidates"] == expected["candidates"]
        assert reply["intervals"] == expected["intervals"]

    def test_knn_matches_single_node(self, cluster_served):
        _, _, _, client, single = cluster_served
        query = np.random.default_rng(5).random((12, DIMENSION))
        assert client.knn(query, 4) == single_node_knn(single, query, 4)

    def test_insert_append_remove_through_the_coordinator(
        self, cluster_served
    ):
        _, _, coordinator, client, _ = cluster_served
        rng = np.random.default_rng(8)
        sequence_id = client.insert(rng.random((14, DIMENSION)), "via-http")
        assert sequence_id == "via-http"
        client.append("via-http", rng.random((6, DIMENSION)))
        result = coordinator.search(
            rng.random((5, DIMENSION)), 2.5, find_intervals=False
        )
        assert "via-http" in result.answers
        client.remove("via-http")
        result = coordinator.search(
            rng.random((5, DIMENSION)), 2.5, find_intervals=False
        )
        assert "via-http" not in result.answers

    def test_healthz_and_stats_describe_the_cluster(self, cluster_served):
        _, _, _, client, _ = cluster_served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["backends"] == 3
        assert health["replication"] == 2
        stats = client.stats()
        assert stats["router"]["shards"] == 3
        assert len(stats["backends"]) == 3

    def test_degraded_search_is_complete_false_over_the_wire(
        self, cluster_served
    ):
        _, backends, _, client, _ = cluster_served
        for backend in backends[:2]:
            backend.dead = True
        # Replication 2 over 3 backends: some shard has both replicas on
        # the two dead backends only if its replica pair is {0,1}.
        query = np.random.default_rng(2).random((10, DIMENSION))
        reply = client.search(query, 0.5)
        assert reply["complete"] is False
        assert reply["missing_shards"] == [
            s
            for s in range(3)
            if set((s, (s + 1) % 3)) <= {0, 1}
        ]

    def test_dead_shard_knn_is_typed_shard_unavailable(self, cluster_served):
        _, backends, _, client, _ = cluster_served
        for backend in backends[:2]:
            backend.dead = True
        query = np.random.default_rng(2).random((10, DIMENSION))
        with pytest.raises(ShardUnavailable) as excinfo:
            client.knn(query, 3)
        assert excinfo.value.missing_shards != ()

    def test_probe_endpoint_reports_reachability(self, cluster_served):
        _, backends, _, client, _ = cluster_served
        backends[1].dead = True
        request = urllib.request.Request(
            client.base_url + "/probe", data=b"{}", method="POST"
        )
        with urllib.request.urlopen(request, timeout=10.0) as reply:
            body = json.loads(reply.read())
        assert body["probed"] == 3
        assert body["unreachable"] == [1]
        assert sorted(body["reachable"] + body["unreachable"]) == [0, 1, 2]


class LostAppendReplyClient(ServiceClient):
    """A client whose next append reaches the server and loses the reply."""

    lose = False

    def append(self, sequence_id, points):
        reply = super().append(sequence_id, points)
        if self.lose:
            self.lose = False
            raise ConnectionError("reply to append lost")
        return reply


@pytest.fixture
def served_pair():
    """Two ``repro serve`` engines holding one 20-point sequence."""
    base = np.random.default_rng(40).random((20, DIMENSION))
    engines, servers = [], []
    for _ in range(2):
        database = SequenceDatabase(DIMENSION)
        database.add(base, sequence_id="s")
        engine = QueryEngine(database, workers=1, cache_size=0)
        server = serve(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        engines.append(engine)
        servers.append(server)
    urls = [f"http://127.0.0.1:{s.server_address[1]}" for s in servers]
    yield engines, urls
    for server, engine in zip(servers, engines):
        shutdown_gracefully(server, engine, drain_timeout=1.0)


class TestCatchUpOverHttp:
    def test_a_lost_append_reply_replays_once_through_wal_apply(
        self, served_pair
    ):
        engines, urls = served_pair
        clients = [LostAppendReplyClient(url, timeout=10.0) for url in urls]
        coordinator = ClusterCoordinator(
            clients, replication=2, write_quorum=1, hedge=None
        )
        extra = np.random.default_rng(41).random((5, DIMENSION))
        try:
            clients[1].lose = True
            coordinator.append("s", extra)
            assert coordinator.repair_pending() == {1: 1}
            coordinator.probe()
            assert coordinator.repair_pending() == {}
            stats = coordinator.stats()
            assert (stats["repairs_replayed"], stats["resyncs"]) == (1, 0)
            for engine in engines:
                assert len(engine._snapshot.database.sequence("s")) == 25
            query = np.vstack([extra, extra])
            assert engines[0].knn(query, 1) == engines[1].knn(query, 1)
        finally:
            coordinator.close()

    def test_a_damaged_batch_is_a_400_and_applies_nothing(self, served_pair):
        engines, urls = served_pair
        record = WalRecord(
            "insert", "new", points=np.ones((4, DIMENSION)), seq=1
        )
        frames = bytearray(encode_frames([record]))
        frames[-3] ^= 0x01  # one flipped byte inside the payload
        body = json.dumps(
            {"frames": base64.b64encode(bytes(frames)).decode("ascii")}
        ).encode()
        request = urllib.request.Request(
            urls[0] + "/wal/apply", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert engines[0].sequence_ids() == ["s"]
        # The intact batch applies.
        assert ServiceClient(urls[0]).apply_records([record]) == 1
        assert engines[0].sequence_ids() == ["s", "new"]

    def test_a_follower_server_refuses_wal_apply(self, served_pair):
        engines, _ = served_pair
        with QueryEngine(SequenceDatabase(DIMENSION), workers=1) as replica:
            follower = WalFollower(replica, engines[0], cursor_path=None)
            server = serve(replica, port=0, follower=follower)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            record = WalRecord("remove", "s", seq=1)
            try:
                with pytest.raises(FollowerReadOnly):
                    client.apply_records([record])
            finally:
                server.shutdown()
                server.server_close()
