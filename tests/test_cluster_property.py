"""Property-based parity: a cluster is indistinguishable from one node.

Hypothesis drives the cluster through random shapes — backend count,
replication factor, shard count, corpus — and optionally kills one
backend before querying.  Whenever every shard keeps a live replica the
merged answers must be byte-identical to a single node holding the
union corpus; when a shard loses its last replica the degradation must
be *typed*: search reports ``complete=False`` naming exactly the
missing shards (answers a subset, never wrong), and kNN fails closed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.cluster import ShardRouter
from repro.service.errors import ShardUnavailable
from repro.util.checks import checking
from tests.test_cluster_coordinator import (
    DIMENSION,
    close_all,
    make_cluster,
    make_single,
    single_node_knn,
    single_node_search,
)


@st.composite
def cluster_shapes(draw):
    num_backends = draw(st.integers(min_value=1, max_value=4))
    replication = draw(st.integers(min_value=1, max_value=num_backends))
    num_shards = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=7))
    )
    corpus_seed = draw(st.integers(min_value=0, max_value=2**16))
    corpus_size = draw(st.integers(min_value=4, max_value=10))
    killed = draw(
        st.one_of(
            st.none(), st.integers(min_value=0, max_value=num_backends - 1)
        )
    )
    return num_backends, replication, num_shards, corpus_seed, corpus_size, killed


def small_corpus(seed, count):
    rng = np.random.default_rng(seed)
    return [
        (f"seq-{i}", rng.random((int(rng.integers(5, 14)), DIMENSION)))
        for i in range(count)
    ]


def expected_missing_shards(router: ShardRouter, killed: int | None) -> list[int]:
    if killed is None:
        return []
    return [
        shard
        for shard in range(router.num_shards)
        if set(router.replicas_of(shard)) <= {killed}
    ]


@settings(max_examples=15, deadline=None)
@given(shape=cluster_shapes())
def test_cluster_matches_single_node_or_degrades_typed(shape):
    num_backends, replication, num_shards, corpus_seed, corpus_size, killed = shape
    corpus = small_corpus(corpus_seed, corpus_size)
    single = make_single(corpus)
    engines, backends, coordinator = make_cluster(
        corpus,
        num_backends=num_backends,
        replication=replication,
        num_shards=num_shards,
    )
    try:
        if killed is not None:
            backends[killed].dead = True
        missing = expected_missing_shards(coordinator.router, killed)
        query = np.random.default_rng(corpus_seed + 1).random((8, DIMENSION))
        with checking("contracts"):
            result = coordinator.search(query, 0.6)
            expected = single_node_search(single, query, 0.6)
            if not missing:
                assert result.complete is True
                assert result.missing_shards == ()
                assert result.answers == expected["answers"]
                assert result.candidates == expected["candidates"]
                assert result.intervals == expected["intervals"]
                knn = coordinator.knn(query, 3)
                assert knn.complete is True
                assert knn.neighbors == single_node_knn(single, query, 3)
            else:
                assert result.complete is False
                assert list(result.missing_shards) == missing
                # Partial answers must never be wrong, only missing.
                assert set(result.answers) <= set(expected["answers"])
                assert set(result.candidates) <= set(expected["candidates"])
                with pytest.raises(ShardUnavailable) as excinfo:
                    coordinator.knn(query, 3)
                assert list(excinfo.value.missing_shards) == missing
    finally:
        close_all(engines, coordinator, single)
