"""Concurrent query serving over the paper's three-phase search.

The :mod:`repro.core` layer answers one query at a time against a mutable
database; this package turns it into a long-lived, thread-safe serving
subsystem:

* :mod:`repro.service.engine` — the :class:`QueryEngine`: copy-on-write
  snapshot isolation (lock-free readers, serialised writers), a bounded
  worker pool with admission control and per-request deadlines.
* :mod:`repro.service.cache` — the ε-aware LRU result cache: a result
  computed at ε' exactly answers any request at ε <= ε' by re-running only
  Phase 3 over the cached candidates (lower-bound monotonicity,
  Lemmas 1-3); writes patch affected sequence ids instead of flushing.
* :mod:`repro.service.stats` — per-engine request counts, p50/p95/p99
  latency, cache hit ratio, queue depth, rejections.
* :mod:`repro.service.wal` — durability: a checksummed, fsynced
  write-ahead log with torn-tail recovery, idempotent replay, and the
  :class:`DurabilityConfig` that turns the engine crash-safe (WAL before
  acknowledge, checkpoint = atomic snapshot save + log reset).
* :mod:`repro.service.http` / :mod:`repro.service.client` — a stdlib-only
  HTTP JSON endpoint (``python -m repro serve``) with graceful drain on
  shutdown, and a client with an optional :class:`RetryPolicy` (full-jitter
  backoff honouring ``Retry-After``, idempotent reads only); both read
  header blocks with :mod:`repro.service.headers`.
* :mod:`repro.service.errors` — typed serving failures (:class:`Overloaded`,
  :class:`DeadlineExceeded`, :class:`EngineClosed`).
* :mod:`repro.service.follower` — WAL log-shipping replication: a
  :class:`WalFollower` tails a leader's ``/wal/tail``, verifies CRCs,
  replays idempotently and persists its applied cursor durably, so a
  killed replica resumes from where it stopped (or snapshot-resyncs when
  its cursor fell behind the leader's WAL horizon).
* :mod:`repro.service.faults` — deterministic fault injection at named
  sites (``REPRO_FAULTS`` / :func:`fault_plan`), so chaos tests can prove
  the recovery invariants instead of asserting them.

Embedded use::

    from repro.service import DurabilityConfig, QueryEngine

    with QueryEngine(
        db, workers=4, durability=DurabilityConfig("./data")
    ) as engine:
        result = engine.search(query_points, epsilon=0.5)

Served use::

    $ python -m repro serve --corpus corpus.npz --data-dir ./data --workers 8
"""

from repro.service.cache import CacheEntry, EpsilonCache, query_fingerprint
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.engine import QueryEngine, ServiceResponse
from repro.service.errors import (
    DeadlineExceeded,
    EngineClosed,
    FollowerReadOnly,
    HeadersTooLarge,
    Overloaded,
    RepairOverflow,
    ReplicaDiverged,
    ServiceError,
    ShardUnavailable,
    SnapshotRequired,
    UnsupportedMethod,
    WriteQuorumFailed,
)
from repro.service.faults import FaultRule, fault_plan
from repro.service.follower import ReplicationLeader, WalFollower
from repro.service.http import ServiceServer, serve, shutdown_gracefully
from repro.service.stats import LatencyWindow, ServiceStats
from repro.service.wal import (
    DurabilityConfig,
    WalEntryInfo,
    WalInspection,
    WalRecord,
    WriteAheadLog,
    decode_frames,
    encode_frames,
    inspect_wal,
    replay_into,
)

__all__ = [
    "CacheEntry",
    "DeadlineExceeded",
    "DurabilityConfig",
    "EngineClosed",
    "EpsilonCache",
    "FaultRule",
    "FollowerReadOnly",
    "HeadersTooLarge",
    "LatencyWindow",
    "Overloaded",
    "QueryEngine",
    "RepairOverflow",
    "ReplicaDiverged",
    "ReplicationLeader",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceResponse",
    "ServiceServer",
    "ServiceStats",
    "ShardUnavailable",
    "SnapshotRequired",
    "UnsupportedMethod",
    "WalEntryInfo",
    "WalFollower",
    "WalInspection",
    "WalRecord",
    "WriteQuorumFailed",
    "WriteAheadLog",
    "decode_frames",
    "encode_frames",
    "fault_plan",
    "inspect_wal",
    "query_fingerprint",
    "replay_into",
    "serve",
    "shutdown_gracefully",
]
