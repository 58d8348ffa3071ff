"""Sharded, replicated cluster serving over :mod:`repro.service`.

This package scales the serving layer horizontally while keeping the
paper's correctness story intact.  A :class:`ClusterCoordinator` fronts N
backends — each a full :class:`~repro.service.engine.QueryEngine` stack
(snapshots, ε-cache, WAL) — and presents the same operations over the
union corpus:

* :mod:`repro.cluster.router` — deterministic hash placement: sequence id
  → shard (blake2b over a canonical encoding, stable across processes
  and Python versions) → R consecutive backends.
* :mod:`repro.cluster.merge` — exact scatter-gather merges.  Phase-2/3
  verdicts (Lemmas 1-3) are per-sequence, so a union of per-shard range
  results and a heap merge of per-shard top-k lists reproduce the
  single-node answer bit-for-bit — sharding never costs a false
  dismissal.
* :mod:`repro.cluster.health` — per-backend up/suspect/down tracking fed
  by request outcomes and ``/healthz`` probes (which also surface each
  backend's WAL-since-checkpoint durability lag).
* :mod:`repro.cluster.coordinator` — failover across replicas, hedged
  requests after a latency quantile, quorum writes with read-repair, and
  *typed* partial-result degradation: a whole shard going dark turns
  ``search`` results into ``complete=False`` + the missing shard list,
  never an untyped error, while ``knn`` fails closed by default.  WAL
  log-shipping followers can be registered for bounded-staleness reads
  (``max_lag_records``).
* :mod:`repro.cluster.repair` — the bounded, optionally crash-durable
  repair journal: missed writes are journaled per backend, and a
  recovered backend tails its view by sequence, as a WAL follower does;
  backlog overflow forces a full snapshot resync from a caught-up peer
  instead of an unbounded replay.
* :mod:`repro.cluster.backends` — the transport-agnostic backend surface:
  :class:`~repro.service.client.ServiceClient` for real clusters,
  :class:`LocalBackend` (JSON-round-tripped in-process engines) for
  chaos and property tests.
* :mod:`repro.cluster.http` — the coordinator's HTTP endpoint, speaking
  the same wire dialect as ``repro serve`` so an unmodified
  ``ServiceClient`` can talk to a whole cluster.

Embedded use::

    from repro.cluster import ClusterCoordinator, LocalBackend

    cluster = ClusterCoordinator(
        [LocalBackend(engine) for engine in engines], replication=2
    )
    result = cluster.search(query_points, epsilon=0.5)
    if not result.complete:
        alert(result.missing_shards)

Served use::

    $ python -m repro cluster-serve --backend http://127.0.0.1:8001 \\
          --backend http://127.0.0.2:8002 --replication 2
"""

from repro.cluster.backends import Backend, LocalBackend
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterKnnResult,
    ClusterSearchResult,
    HedgePolicy,
)
from repro.cluster.health import BackendHealth, HealthTracker
from repro.cluster.http import ClusterServer, serve_cluster
from repro.cluster.merge import merge_knn, merge_search_payloads
from repro.cluster.repair import (
    DEFAULT_MAX_REPAIR_OPS,
    RepairJournal,
)
from repro.cluster.router import Placement, ShardRouter, canonical_id, shard_of

__all__ = [
    "Backend",
    "BackendHealth",
    "ClusterCoordinator",
    "ClusterKnnResult",
    "ClusterSearchResult",
    "ClusterServer",
    "DEFAULT_MAX_REPAIR_OPS",
    "HealthTracker",
    "HedgePolicy",
    "LocalBackend",
    "Placement",
    "RepairJournal",
    "ShardRouter",
    "canonical_id",
    "merge_knn",
    "merge_search_payloads",
    "serve_cluster",
    "shard_of",
]
