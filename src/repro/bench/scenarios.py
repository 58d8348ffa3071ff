"""The canonical benchmark scenarios.

Importing this module populates the registry in
:mod:`repro.bench.registry`.  Seven scenarios cover the stack bottom-up,
one per architectural capability the ROADMAP's perf items will move:

========  ==================  ========================================
suite     scenario            what it measures
========  ==================  ========================================
engine    single_query        raw three-phase search latency/QPS
service   end_to_end          QueryEngine under a mixed closed loop
service   cache_hit_ratio     ε-aware cache hits under Zipf-skewed reads
service   wal_recovery        cold-start replay time of a dirty WAL
service   overload_goodput    goodput, shed rate, and wasted work under
                              an open-loop ~2x-capacity read storm
cluster   scatter_gather      fan-out latency, healthy and one-dead
cluster   replica_catchup     log-shipping catch-up time for a cold
                              follower behind by a full leader WAL
========  ==================  ========================================

Every scenario is a pure function of ``(profile, seed)``: corpora,
queries, and operation streams all derive from the seed through
``repro.util.rng``, so a trajectory point is reproducible from its
recorded inputs.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import numpy.typing as npt

from repro.bench.registry import BenchProfile, register_scenario
from repro.bench.result import BenchResult
from repro.bench.workload import (
    OperationMix,
    WorkloadSpec,
    generate_operations,
    nearest_rank_quantile,
    run_closed_loop,
    run_open_loop,
)
from repro.cluster.backends import LocalBackend
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.datagen.queries import generate_queries
from repro.datagen.video import generate_video_corpus
from repro.service.engine import QueryEngine
from repro.service.follower import WalFollower
from repro.service.wal import DurabilityConfig
from repro.util.faults import FaultRule, fault_plan
from repro.util.validation import check_threshold

__all__: list[str] = []

#: Video streams are 3-dimensional (the paper's running example).
_DIMENSION = 3


def _build_corpus(
    profile: BenchProfile, seed: int
) -> list[MultidimensionalSequence]:
    return list(
        generate_video_corpus(
            profile.corpus_sequences,
            length_range=profile.sequence_length,
            seed=seed,
        )
    )


def _build_database(
    corpus: list[MultidimensionalSequence],
) -> SequenceDatabase:
    database = SequenceDatabase(dimension=_DIMENSION)
    for stream in corpus:
        database.add(stream)
    return database


def _build_queries(
    corpus: list[MultidimensionalSequence], profile: BenchProfile, seed: int
) -> list[npt.NDArray[np.float64]]:
    workload = generate_queries(
        corpus,
        profile.query_count,
        length_range=profile.query_length,
        seed=seed + 1,
    )
    return [np.asarray(query.points, dtype=np.float64) for query in workload]


@register_scenario(
    "engine",
    "single_query",
    "single-threaded three-phase search latency and QPS",
)
def _engine_single_query(profile: BenchProfile, seed: int) -> BenchResult:
    corpus = _build_corpus(profile, seed)
    database = _build_database(corpus)
    queries = _build_queries(corpus, profile, seed)
    searcher = SimilaritySearch(database)
    latencies_ms: list[float] = []
    answers = 0
    started = time.perf_counter()
    for index, query in enumerate(queries):
        threshold = profile.epsilons[index % len(profile.epsilons)]
        t0 = time.perf_counter()
        result = searcher.search(query, threshold, find_intervals=False)
        latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        answers += len(result.answers)
    elapsed = time.perf_counter() - started
    return BenchResult(
        suite="engine",
        scenario="single_query",
        metrics={
            "qps": len(queries) / elapsed if elapsed > 0 else 0.0,
            "p50_ms": nearest_rank_quantile(latencies_ms, 0.50),
            "p95_ms": nearest_rank_quantile(latencies_ms, 0.95),
            "p99_ms": nearest_rank_quantile(latencies_ms, 0.99),
        },
        meta={
            "corpus_sequences": profile.corpus_sequences,
            "queries": len(queries),
            "epsilons": list(profile.epsilons),
            "answers": answers,
        },
    )


@register_scenario(
    "service",
    "end_to_end",
    "QueryEngine QPS and latency quantiles under a mixed closed loop",
)
def _service_end_to_end(profile: BenchProfile, seed: int) -> BenchResult:
    corpus = _build_corpus(profile, seed)
    queries = _build_queries(corpus, profile, seed)
    existing = [str(stream.sequence_id) for stream in corpus]
    spec = WorkloadSpec(
        operations=profile.operations,
        query_pool=len(queries),
        dimension=_DIMENSION,
        mix=OperationMix(search=0.8, insert=0.1, append=0.1),
        epsilons=profile.epsilons,
    )
    operations = generate_operations(spec, seed=seed + 2, existing_ids=existing)
    with QueryEngine(
        _build_database(corpus),
        workers=profile.engine_workers,
        cache_size=256,
    ) as engine:
        report = run_closed_loop(
            engine,
            operations,
            queries=queries,
            dimension=_DIMENSION,
            concurrency=profile.concurrency,
            seed=seed + 3,
        )
        stats = engine.stats()
    metrics = report.metrics()
    return BenchResult(
        suite="service",
        scenario="end_to_end",
        metrics=metrics,
        meta={
            "operations": report.total,
            "completed": report.completed,
            "errors": report.errors,
            "mix": spec.mix.as_dict(),
            "concurrency": profile.concurrency,
            "workers": profile.engine_workers,
            "snapshot_version": stats.get("snapshot_version"),
        },
    )


@register_scenario(
    "service",
    "cache_hit_ratio",
    "ε-aware cache effectiveness under a Zipf-skewed read-only stream",
)
def _service_cache_hit_ratio(profile: BenchProfile, seed: int) -> BenchResult:
    corpus = _build_corpus(profile, seed)
    queries = _build_queries(corpus, profile, seed)
    spec = WorkloadSpec(
        operations=profile.operations,
        query_pool=len(queries),
        dimension=_DIMENSION,
        mix=OperationMix(search=1.0),
        epsilons=profile.epsilons,
        zipf_s=1.5,
    )
    operations = generate_operations(spec, seed=seed + 2)
    with QueryEngine(
        _build_database(corpus),
        workers=profile.engine_workers,
        cache_size=256,
    ) as engine:
        report = run_closed_loop(
            engine,
            operations,
            queries=queries,
            dimension=_DIMENSION,
            concurrency=profile.concurrency,
            seed=seed + 3,
        )
        cache = dict(engine.stats()["cache"])
    hits = float(cache.get("hits", 0) or 0)
    refines = float(cache.get("refines", 0) or 0)
    misses = float(cache.get("misses", 0) or 0)
    lookups = hits + refines + misses
    return BenchResult(
        suite="service",
        scenario="cache_hit_ratio",
        metrics={
            "hit_ratio": (hits + refines) / lookups if lookups else 0.0,
            "hits": hits,
            "refines": refines,
            "misses": misses,
            "qps": report.metrics()["qps"],
        },
        meta={
            "zipf_s": spec.zipf_s,
            "operations": report.total,
            "errors": report.errors,
        },
    )


@register_scenario(
    "service",
    "wal_recovery",
    "cold-start recovery time from a dirty WAL (no closing checkpoint)",
)
def _service_wal_recovery(profile: BenchProfile, seed: int) -> BenchResult:
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as directory:
        config = DurabilityConfig(
            directory, fsync=False, checkpoint_on_close=False
        )
        with QueryEngine(
            SequenceDatabase(dimension=_DIMENSION),
            workers=1,
            durability=config,
        ) as engine:
            for index in range(profile.wal_inserts):
                engine.insert(
                    rng.random((32, _DIMENSION)),
                    sequence_id=f"wal-{index}",
                )
            wal_records = int(engine.wal_records)
        started = time.perf_counter()
        with QueryEngine(None, workers=1, durability=config) as recovered:
            recovery_ms = (time.perf_counter() - started) * 1000.0
            recovered_sequences = len(recovered.sequence_ids())
    return BenchResult(
        suite="service",
        scenario="wal_recovery",
        metrics={
            "recovery_ms": recovery_ms,
            "wal_records": float(wal_records),
            "recovered_sequences": float(recovered_sequences),
        },
        meta={"inserts": profile.wal_inserts, "fsync": False},
    )


class _DeadlineTarget:
    """A ``WorkloadTarget`` stamping every search with one deadline.

    The workload drivers' ``search(query, epsilon)`` protocol has no
    timeout parameter; this adapter is where the overload scenario's
    per-request budget enters the engine.
    """

    def __init__(self, engine: QueryEngine, timeout: float) -> None:
        self._engine = engine
        self._timeout = timeout

    def search(self, query: object, epsilon: float) -> object:
        epsilon = check_threshold(epsilon)
        return self._engine.search(
            query, epsilon, find_intervals=False, timeout=self._timeout
        )

    def insert(self, points: object, sequence_id: object = None) -> object:
        return self._engine.insert(points, sequence_id=sequence_id)

    def append(self, sequence_id: object, points: object) -> object:
        return self._engine.append(sequence_id, points)


@register_scenario(
    "service",
    "overload_goodput",
    "goodput, shed rate, and wasted work under ~2x open-loop overload",
)
def _service_overload_goodput(profile: BenchProfile, seed: int) -> BenchResult:
    corpus = _build_corpus(profile, seed)
    queries = _build_queries(corpus, profile, seed)
    spec = WorkloadSpec(
        operations=profile.overload_operations,
        query_pool=len(queries),
        dimension=_DIMENSION,
        mix=OperationMix(search=1.0),
        epsilons=profile.epsilons,
    )
    operations = generate_operations(spec, seed=seed + 2)
    calibration = operations[: profile.overload_calibration_ops]
    # Pin per-request service time with a sleep fault so capacity is
    # engine_workers / overload_service_s on any host — "2x capacity"
    # stays a real overload whether CI is fast or slow.
    slow_worker = FaultRule(
        "engine.worker",
        action="sleep",
        seconds=profile.overload_service_s,
        times=None,
    )
    # No cache: an exact hit runs on its caller's thread, so it would
    # sleep its fault beside the pool instead of queueing for it.
    with QueryEngine(
        _build_database(corpus),
        workers=profile.engine_workers,
        queue_cap=profile.overload_queue_cap,
        cache_size=0,
    ) as engine:
        target = _DeadlineTarget(engine, profile.overload_deadline_s)
        with fault_plan(slow_worker):
            # Healthy-load capacity: a closed loop at exactly the worker
            # count — saturated but never queued, the goodput baseline.
            healthy = run_closed_loop(
                target,
                calibration,
                queries=queries,
                dimension=_DIMENSION,
                concurrency=profile.engine_workers,
                seed=seed + 3,
            )
            healthy_qps = healthy.metrics()["qps"]
            offered_rate = 2.0 * healthy_qps
            report = run_open_loop(
                target,
                operations,
                queries=queries,
                dimension=_DIMENSION,
                rate=offered_rate,
                workers=profile.overload_clients,
                seed=seed + 4,
            )
        stats = engine.stats()
    admission = stats["admission"]
    deadline_ms = profile.overload_deadline_s * 1000.0
    # Goodput counts only completions whose latency from *intended
    # arrival* beat the deadline: an answer the caller already gave up
    # on is work, not goodput.
    good = sum(1 for lat in report.latencies_ms if lat <= deadline_ms)
    goodput_qps = good / report.elapsed_s if report.elapsed_s > 0 else 0.0
    completed = int(stats["completed"])
    wasted = int(stats["wasted_work"])
    return BenchResult(
        suite="service",
        scenario="overload_goodput",
        metrics={
            "healthy_qps": healthy_qps,
            "offered_rate": offered_rate,
            "goodput_qps": goodput_qps,
            "goodput_ratio": (
                goodput_qps / healthy_qps if healthy_qps > 0 else 0.0
            ),
            "shed_ratio": report.errors / report.total if report.total else 0.0,
            "wasted_work_ratio": wasted / completed if completed else 0.0,
            "queue_wait_p95_ms": float(admission["queue_wait_ms"]["p95"]),
            "admission_limit": float(admission["limit"]),
            "p95_ms": nearest_rank_quantile(report.latencies_ms, 0.95),
        },
        meta={
            "operations": report.total,
            "completed_in_deadline": good,
            "deadline_s": profile.overload_deadline_s,
            "service_s": profile.overload_service_s,
            "queue_cap": profile.overload_queue_cap,
            "clients": profile.overload_clients,
            "rejected_overload": stats["rejected_overload"],
            "deadline_exceeded": stats["deadline_exceeded"],
            "cancelled": stats["cancelled"],
            "shed_by_priority": dict(admission["shed_by_priority"]),
        },
    )


@register_scenario(
    "cluster",
    "scatter_gather",
    "coordinator fan-out latency, healthy and with one backend killed",
)
def _cluster_scatter_gather(profile: BenchProfile, seed: int) -> BenchResult:
    corpus = _build_corpus(profile, seed)
    queries = _build_queries(corpus, profile, seed)
    engines = [
        QueryEngine(SequenceDatabase(dimension=_DIMENSION), workers=2)
        for _ in range(profile.cluster_backends)
    ]
    backends = [
        LocalBackend(engine, name=f"bench-{index}")
        for index, engine in enumerate(engines)
    ]
    try:
        with ClusterCoordinator(
            list(backends),
            replication=profile.cluster_replication,
            hedge=None,
            probe_interval=3600.0,
        ) as coordinator:
            for stream in corpus:
                coordinator.insert(
                    stream.points, sequence_id=str(stream.sequence_id)
                )

            def sweep(count: int) -> tuple[list[float], int]:
                latencies: list[float] = []
                complete = 0
                for index in range(count):
                    query = queries[index % len(queries)]
                    threshold = profile.epsilons[index % len(profile.epsilons)]
                    t0 = time.perf_counter()
                    result = coordinator.search(
                        query, threshold, find_intervals=False
                    )
                    latencies.append((time.perf_counter() - t0) * 1000.0)
                    if result.complete:
                        complete += 1
                return latencies, complete

            healthy_ms, _ = sweep(profile.cluster_queries)
            kill_backend_zero = FaultRule(
                "cluster.backend.0.request", action="raise", times=None
            )
            with fault_plan(kill_backend_zero):
                killed_ms, killed_complete = sweep(profile.cluster_queries)
            stats = coordinator.stats()
    finally:
        for engine in engines:
            engine.close()
    return BenchResult(
        suite="cluster",
        scenario="scatter_gather",
        metrics={
            "p50_ms": nearest_rank_quantile(healthy_ms, 0.50),
            "p95_ms": nearest_rank_quantile(healthy_ms, 0.95),
            "killed_p50_ms": nearest_rank_quantile(killed_ms, 0.50),
            "killed_p95_ms": nearest_rank_quantile(killed_ms, 0.95),
            "complete_ratio": (
                killed_complete / profile.cluster_queries
            ),
            "failovers": float(stats.get("failovers", 0)),
        },
        meta={
            "backends": profile.cluster_backends,
            "replication": profile.cluster_replication,
            "queries_per_sweep": profile.cluster_queries,
            "killed_backend": 0,
        },
    )


@register_scenario(
    "cluster",
    "replica_catchup",
    "log-shipping catch-up seconds for a fresh follower behind a full WAL",
)
def _cluster_replica_catchup(profile: BenchProfile, seed: int) -> BenchResult:
    rng = np.random.default_rng(seed)
    batch_limit = 512
    with tempfile.TemporaryDirectory(prefix="repro-bench-ship-") as root:
        base = Path(root)
        leader_config = DurabilityConfig(
            base / "leader", fsync=False, checkpoint_on_close=False
        )
        replica_config = DurabilityConfig(
            base / "replica", fsync=False, checkpoint_on_close=False
        )
        with QueryEngine(
            SequenceDatabase(dimension=_DIMENSION),
            workers=1,
            durability=leader_config,
        ) as leader:
            # Build the backlog first: every record below is already in the
            # leader's WAL before the follower takes its first poll, so the
            # timing isolates pure catch-up (tail + CRC + replay), not
            # leader ingest.
            for index in range(profile.catchup_records):
                leader.insert(
                    rng.random((8, _DIMENSION)),
                    sequence_id=f"ship-{index}",
                )
            with QueryEngine(
                SequenceDatabase(dimension=_DIMENSION),
                workers=1,
                durability=replica_config,
            ) as replica:
                follower = WalFollower(
                    replica,
                    leader,
                    cursor_path=base / "cursor.json",
                    batch_limit=batch_limit,
                )
                started = time.perf_counter()
                while True:
                    summary = follower.poll()
                    if summary["lag"] == 0:
                        break
                catchup_s = time.perf_counter() - started
                status = follower.status()
                if len(replica.sequence_ids()) != len(leader.sequence_ids()):
                    raise RuntimeError(
                        "replica_catchup follower did not reach leader "
                        f"parity: {len(replica.sequence_ids())} of "
                        f"{len(leader.sequence_ids())} sequences"
                    )
    return BenchResult(
        suite="cluster",
        scenario="replica_catchup",
        metrics={
            "catchup_s": catchup_s,
            "records_per_s": (
                profile.catchup_records / catchup_s if catchup_s > 0 else 0.0
            ),
            "applied_records": float(status["applied_records"]),
            "batches": float(status["batches"]),
        },
        meta={
            "records": profile.catchup_records,
            "batch_limit": batch_limit,
            "resyncs": status["resyncs"],
            "fsync": False,
        },
    )
