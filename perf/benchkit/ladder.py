"""The traced pass: one client, a boundary ladder on sampled ops.

For every k-th read and every write the harness records the real
outermost call (client -> server, coordinator, or ``SimilaritySearch``)
and then re-executes the same op at each inner public boundary on
in-process copies kept in step with the system's writes:

    reads   outer call -> QueryEngine.search (cache off) -> SimilaritySearch
            .search -> partition_sequence / index.search_within
    writes  outer call -> QueryEngine.insert|append -> SequenceDatabase
            .clone + .add|.append_points -> WriteAheadLog.append

A layer's self time is its boundary's median minus the next inner
boundary's.  Spans inside the program are a later change (ROADMAP's
stage-attribution item), which must reproduce these metric names.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.cluster import merge_search_payloads
from repro.core import SequenceDatabase, SimilaritySearch, partition_sequence
from repro.service import QueryEngine, WalRecord, WriteAheadLog, replay_into

from benchkit.calibrate import Calibrator
from benchkit.inputs import (
    DIMENSION,
    EPSILONS,
    KIND_INSERT,
    KIND_KNN,
    KIND_NAMES,
    KIND_SEARCH,
    KNN_K,
    WRITE_KINDS,
    Inputs,
    Spec,
)
from benchkit.runner import (
    COUNTED_ERRORS,
    ClientState,
    Op,
    PassResult,
    PhaseLog,
    client_states,
    execute,
    failure_kind,
    finish,
    run_phase,
    slices_of,
    verify_inputs,
)
from benchkit.spans import Tracer
from benchkit.stats import median, ratio
from benchkit.workloads import (
    SETUP_OP,
    WORKLOADS,
    ClusterScatter,
    ServeMixedDurable,
    ServeRead,
    Workload,
    build_database,
    make_scratch,
)

#: Share of ``--seconds`` replayed untraced; the rest is traced.  The two
#: alternate in ``_ROUNDS`` slices so that drift in the machine's speed
#: falls on both sides of ``harness.trace_overhead_ratio``.
UNTRACED_SHARE = 0.25
_ROUNDS = 5
#: Corpus sequences whose partitioning is timed on its own.
_PARTITION_SAMPLE = 40
#: Records per fixture batch (apply_records, replay_into, scaling inserts).
_FIXTURE_BATCH = 8
_SCALING_DIVISOR = 8
_HEALTHZ_CALLS = 20
_CLONE_CALLS = 5
#: A backend asked again for a query it just cached would answer from its
#: cache; asking for a threshold this much wider forces the full search.
_CACHE_DODGE = 1.0 + 1e-9
_USER_BYTES_PER_POINT = DIMENSION * 8


class Mirror:
    """In-process copies of the served data, for the inner rungs."""

    def __init__(self, workload: Workload, tracer: Tracer, scratch: Path) -> None:
        if workload.database is None:
            raise RuntimeError("the traced pass needs the harness-side database")
        self.tracer = tracer
        #: Per-ladder counts and timings that are not spans.
        self.counts: dict[str, list[float]] = defaultdict(list)
        #: Op ids the read ladder ran on, out of ``reads_seen`` reads.
        self.sampled: list[int] = []
        self.reads_seen = 0
        self.database = workload.database
        self.search = SimilaritySearch(self.database)
        #: Cache off: the engine boundary of a full search, and of a write.
        #: None on core_range, whose outer call is the core boundary.
        self.engine = (
            None
            if workload.outer_layer == "core.search"
            else QueryEngine(self.database.clone(), workers=2, cache_size=0)
        )
        #: Default cache, never written: hit and refine costs.
        self.cached = (
            QueryEngine(self.database.clone(), workers=2)
            if isinstance(workload, ServeRead)
            else None
        )
        self.wals = (
            (
                WriteAheadLog(scratch / "ladder-fsync.log", fsync=True),
                WriteAheadLog(scratch / "ladder-nofsync.log", fsync=False),
            )
            if isinstance(workload, ServeMixedDurable)
            else None
        )

    def close(self) -> None:
        for engine in (self.engine, self.cached):
            if engine is not None:
                engine.close()
        for wal in self.wals or ():
            wal.close()

    def sync(self, state: ClientState) -> None:
        """Apply, unmeasured, the writes the client has had acknowledged."""
        for written in state.inserted:
            sid = written.sequence_id
            have = len(self.database.sequence(sid)) if sid in self.database else 0
            block = written.points[have : state.acked[sid]]
            if len(block) == 0:
                continue
            if have == 0:
                self.database.add(block, sequence_id=sid)
                if self.engine is not None:
                    self.engine.insert(block, sequence_id=sid)
            else:
                self.database.append_points(sid, block)
                if self.engine is not None:
                    self.engine.append(sid, block)

    def read_rungs(self, op: Op, outer_result: Any) -> None:
        """Engine, core, partitioning and index boundaries of one search."""
        trace, i = self.tracer, op.index
        query, epsilon = op.query, op.epsilon
        self.sampled.append(i)
        if self.engine is not None:
            with trace.span(i, "service.engine.search", "service.engine"):
                self.engine.search(query, epsilon, find_intervals=True)
        if self.cached is not None:
            self._cache_rungs(op)
        if self.engine is None:
            result = outer_result
        else:
            with trace.span(i, "core.search.range", "core.search"):
                result = self.search.search(query, epsilon, find_intervals=True)
        with trace.span(i, "core.search.range_nointervals", "core.search"):
            self.search.search(query, epsilon, find_intervals=False)
        with trace.span(i, "core.partitioning.query", "core.partitioning"):
            partition = partition_sequence(
                query,
                cost_constant=self.database.cost_constant,
                max_points=self.database.max_points,
            )
        index = self.database.index
        accesses = index.stats.node_accesses
        entries = 0
        with trace.span(i, "index.probe", "index"):
            for segment in partition:
                with trace.span(i, "index.search_within", "index"):
                    entries += len(index.search_within(segment.mbr, epsilon))
        stats = result.stats
        counts = self.counts
        counts["node_accesses"].append(index.stats.node_accesses - accesses)
        counts["entries"].append(entries)
        counts["phase2_ms"].append(stats.phase2_seconds * 1e3)
        counts["phase3_ms"].append(stats.phase3_seconds * 1e3)
        counts["candidates"].append(stats.candidates_after_dmbr)
        counts["answers"].append(stats.answers_after_dnorm)
        counts["dnorm_evals"].append(stats.dnorm_evaluations)
        counts["dmbr_rows"].append(stats.dmbr_rows)
        counts["sequences"].append(len(self.database))

    def _cache_rungs(self, op: Op) -> None:
        """The same query at the widest threshold twice, then the tightest.

        A span whose outcome is not the one its name promises (an eviction
        raced it) takes the outcome as a suffix and drops out of the median.
        """
        engine = self.cached
        if engine is None:
            return
        trace, i = self.tracer, op.index
        engine.search_detailed(op.query, max(EPSILONS))
        with trace.span(i, "service.cache.hit", "service.cache") as span:
            outcome = engine.search_detailed(op.query, max(EPSILONS)).cache
        span.name += "" if outcome == "hit" else f".{outcome}"
        with trace.span(i, "service.cache.refine", "service.cache") as span:
            outcome = engine.search_detailed(op.query, min(EPSILONS)).cache
        span.name += "" if outcome == "refine" else f".{outcome}"

    def knn_rungs(self, op: Op) -> None:
        if self.engine is None:
            return  # the outer call is SimilaritySearch.knn itself
        with self.tracer.span(op.index, "core.search.knn", "core.search"):
            self.search.knn(op.query, KNN_K)

    def write_rungs(self, op: Op) -> None:
        """Engine, database and WAL boundaries of one write; stays in step."""
        if op.written is None or op.points is None:
            raise RuntimeError(f"op {op.index} is not a write")
        trace, i = self.tracer, op.index
        sid, points = op.written.sequence_id, op.points
        insert = op.kind == KIND_INSERT
        verb = KIND_NAMES[op.kind]
        if self.engine is not None:
            with trace.span(i, f"service.engine.{verb}", "service.engine"):
                if insert:
                    self.engine.insert(points, sequence_id=sid)
                else:
                    self.engine.append(sid, points)
        with trace.span(i, "core.database.clone", "core.database"):
            twin = self.database.clone()
        if insert:
            with trace.span(i, "core.database.add", "core.database"):
                twin.add(points, sequence_id=sid)
        else:
            with trace.span(i, "core.database.append_points", "core.database"):
                twin.append_points(sid, points)
        self.database = twin
        self.search = SimilaritySearch(twin)
        if self.wals is not None:
            record = WalRecord(
                verb,
                sid,
                points=points.tolist(),
                length=None if insert else len(twin.sequence(sid)),
            )
            with trace.span(i, "service.wal.append", "service.wal"):
                self.wals[0].append(record)
            with trace.span(i, "service.wal.append_nofsync", "service.wal"):
                self.wals[1].append(record)


def _cluster_rungs(workload: ClusterScatter, tracer: Tracer, op: Op) -> float:
    """Each backend's own search, then the merge; returns the slowest shard."""
    payloads = {}
    slowest = 0.0
    for index, backend in enumerate(workload.backends):
        with tracer.span(
            op.index, "cluster.backends.search", "cluster.backends"
        ) as span:
            payloads[index] = backend.search(
                op.query, op.epsilon * _CACHE_DODGE, find_intervals=True
            )
        slowest = max(slowest, span.ms)
    with tracer.span(op.index, "cluster.merge.search", "cluster.merge"):
        merge_search_payloads(payloads, order=str)
    return slowest


def _traced_loop(
    workload: Workload,
    mirror: Mirror,
    handle: Any,
    state: ClientState,
    seconds: float,
) -> PhaseLog:
    """The closed loop of ``runner.run_client`` with spans and ladders."""
    tracer, counts = mirror.tracer, mirror.counts
    log = PhaseLog()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        op = state.next_op()
        verb = KIND_NAMES[op.kind]
        with tracer.span(op.index, "harness.ladder", "harness"):
            try:
                with tracer.span(
                    op.index, workload.outer_name(verb), workload.outer_layer
                ) as outer:
                    detail = execute(handle, op)
            except COUNTED_ERRORS as error:
                log.failures[failure_kind(error)] += 1
                continue
            log.latencies_ms.append(outer.ms)
            log.kinds.append(op.kind)
            if op.kind in WRITE_KINDS:
                state.acknowledge(op)
                mirror.write_rungs(op)
                continue
            if op.kind == KIND_KNN:
                mirror.knn_rungs(op)
                continue
            mirror.reads_seen += 1
            if mirror.reads_seen % workload.spec.trace_every:
                continue
            if isinstance(workload, ServeRead):
                counts["response_bytes"].append(len(json.dumps(detail)))
                outer.name += f".{detail['cache']}"
                with tracer.span(
                    op.index, "service.client.search.repeat", "service.client"
                ):
                    handle.search(op.query, op.epsilon)
            if isinstance(workload, ClusterScatter):
                counts["slowest_shard_ms"].append(
                    _cluster_rungs(workload, tracer, op)
                )
                counts["complete"].append(bool(detail.complete))
            mirror.read_rungs(op, detail)
    log.wall_s = time.perf_counter() - started
    return log


#: ``stats()`` counters, summed over a workload's engines ...
_COUNTERS = ("hits", "refines", "misses", "patches", "evictions", "snapshots", "rejected")
#: ... and gauges, of which the slowest engine's is what a caller sees.
_GAUGES = ("queue_wait_p50_ms", "queue_wait_p95_ms", "limit")


def _engine_stats(workload: Workload) -> dict[str, float]:
    totals: dict[str, float] = dict.fromkeys((*_COUNTERS, *_GAUGES), 0.0)
    for block in workload.engine_stats():
        cache, admission = block["cache"], block["admission"]
        totals["hits"] += cache["hits"]
        totals["refines"] += cache["refines"]
        totals["misses"] += cache["misses"]
        totals["patches"] += cache["patches"]
        totals["evictions"] += block["cache_lru"].get("evictions", 0)
        totals["snapshots"] += block["snapshots_published"]
        totals["rejected"] += block["rejected_overload"]
        waits = admission["queue_wait_ms"]
        totals["queue_wait_p50_ms"] = max(totals["queue_wait_p50_ms"], waits["p50"])
        totals["queue_wait_p95_ms"] = max(totals["queue_wait_p95_ms"], waits["p95"])
        totals["limit"] = max(totals["limit"], admission["limit"])
    return totals


def _timed_ms(call: Callable[[], object]) -> float:
    started = time.perf_counter_ns()
    call()
    return (time.perf_counter_ns() - started) / 1e6


def _fixture_records(inputs: Inputs, tag: str) -> list[WalRecord]:
    """Insert records from the tail of client 0's pool, which no op reaches."""
    return [
        WalRecord(
            "insert",
            f"{tag}-{written.sequence_id}",
            points=written.points[: written.length].tolist(),
        )
        for written in inputs.write_pools[0][-_FIXTURE_BATCH:]
    ]


def _write_fixtures(
    workload: Workload, mirror: Mirror, inputs: Inputs
) -> dict[str, float]:
    """Engine write costs that need engines of their own."""
    out: dict[str, float] = {}
    head = inputs.corpus[: max(1, len(inputs.corpus) // _SCALING_DIVISOR)]
    small = QueryEngine(build_database(head), workers=2)
    large = QueryEngine(mirror.database.clone(), workers=2)

    def insert_ms(engine: QueryEngine) -> float:
        return median(
            [
                _timed_ms(
                    lambda: engine.insert(record.points, sequence_id=record.sequence_id)
                )
                for record in _fixture_records(inputs, "scale")
            ]
        )

    try:
        out["service.engine.insert_scaling_ratio"] = ratio(
            insert_ms(large), insert_ms(small)
        )
        batch = _fixture_records(inputs, "apply")
        out["service.engine.apply_records_ms_per_record"] = _timed_ms(
            lambda: large.apply_records(batch)
        ) / len(batch)
    finally:
        small.close()
        large.close()
    if isinstance(workload, ServeMixedDurable):
        batch = _fixture_records(inputs, "replay")
        twin = mirror.database.clone()
        out["service.wal.replay_ms_per_record"] = _timed_ms(
            lambda: replay_into(twin, batch)
        ) / len(batch)
    return out


def _serve_fixtures(
    workload: ServeRead, mirror: Mirror, handle: Any, inputs: Inputs
) -> dict[str, float]:
    """Costs read off the live server and the saved corpus file."""
    tracer = mirror.tracer
    for _ in range(_CLONE_CALLS):
        with tracer.span(SETUP_OP, "core.database.clone", "core.database"):
            mirror.database.clone()
    with tracer.span(SETUP_OP, "core.database.load", "core.database"):
        SequenceDatabase.load(workload.corpus_path)
    for _ in range(_HEALTHZ_CALLS):
        with tracer.span(SETUP_OP, "service.http.healthz", "service.http"):
            handle.client.healthz()
    transport = handle.client.transport_stats()
    return {
        "core.database.bytes_per_user_byte": workload.corpus_path.stat().st_size
        / (inputs.corpus_points * _USER_BYTES_PER_POINT),
        "service.client.retries": transport["retries"],
        "service.client.deadline_exhausted": transport["deadline_exhausted"],
    }


def _layer_metrics(
    workload: Workload,
    mirror: Mirror,
    inputs: Inputs,
    engines: dict[str, float],
    untraced: PhaseLog,
    traced: PhaseLog,
    result: PassResult,
) -> dict[str, float]:
    """Every per-layer metric this pass measured; the rest default to 0."""
    tracer, counts, database = mirror.tracer, mirror.counts, mirror.database
    out: dict[str, float] = {}

    def med(name: str) -> float:
        return median(tracer.durations_ms(name))

    def med_sampled(name: str) -> float:
        by_op = tracer.by_op(name)
        return median([by_op[i] for i in mirror.sampled if i in by_op])

    def mean(key: str) -> float:
        return ratio(sum(counts[key]), len(counts[key]))

    # Set-up side: partitioning of data, index insertion, database costs.
    setup_adds = [
        span.ms
        for span in tracer.spans
        if span.name == "core.database.add" and span.op_id == SETUP_OP
    ]
    per_kpoint, per_segment = [], []
    for position, sequence in enumerate(inputs.corpus[:_PARTITION_SAMPLE]):
        with tracer.span(
            SETUP_OP, "core.partitioning.data", "core.partitioning"
        ) as span:
            partition = partition_sequence(
                sequence,
                cost_constant=database.cost_constant,
                max_points=database.max_points,
            )
        per_kpoint.append(span.ms / len(sequence) * 1e3)
        per_segment.append((setup_adds[position] - span.ms) / len(partition))
    out["core.partitioning.query_ms"] = med("core.partitioning.query")
    out["core.partitioning.data_ms_per_kpoint"] = median(per_kpoint)
    out["core.partitioning.segments_per_kpoint"] = (
        database.segment_count / database.point_count * 1e3
    )
    out["index.probe_ms"] = med("index.probe")
    out["index.node_accesses_per_query"] = mean("node_accesses")
    out["index.entries_per_query"] = mean("entries")
    out["index.insert_ms_per_segment"] = median(per_segment)
    for verb in ("add", "clone", "save", "load"):
        out[f"core.database.{verb}_ms"] = med(f"core.database.{verb}")

    # core.search, on the ops the ladder sampled.
    range_ms = med_sampled("core.search.range")
    out["core.search.range_ms"] = range_ms
    out["core.search.phase2_ms"] = median(counts["phase2_ms"])
    out["core.search.phase3_ms"] = median(counts["phase3_ms"])
    out["core.search.intervals_extra_ms"] = range_ms - med(
        "core.search.range_nointervals"
    )
    out["core.search.knn_ms"] = med("core.search.knn")
    out["core.search.candidates_per_query"] = mean("candidates")
    out["core.search.answers_per_query"] = mean("answers")
    out["core.search.dnorm_evals_per_query"] = mean("dnorm_evals")
    out["core.search.dmbr_rows_per_query"] = mean("dmbr_rows")
    out["core.search.prune_ratio"] = 1.0 - ratio(
        sum(counts["candidates"]), sum(counts["sequences"])
    )
    out["core.search.phase3_yield"] = ratio(
        sum(counts["answers"]), sum(counts["candidates"])
    )
    out["core.search.false_hit_ratio"] = ratio(
        result.oracle.false_hits, result.oracle.answers
    )

    if mirror.engine is not None:
        out["service.engine.read_overhead_ms"] = (
            med("service.engine.search") - range_ms
        )
        out["service.engine.insert_ms"] = med("service.engine.insert")
        out["service.engine.append_ms"] = med("service.engine.append")
        inserts = tracer.by_op("service.engine.insert")
        if inserts:
            clones = tracer.by_op("core.database.clone")
            adds = tracer.by_op("core.database.add")
            out["service.engine.publish_overhead_ms"] = (
                median(list(inserts.values()))
                - median([clones[i] for i in inserts])
                - median([adds[i] for i in inserts])
            )
        out["service.engine.snapshots_published"] = engines["snapshots"]
        for gauge in _GAUGES:
            out[f"service.admission.{gauge}"] = engines[gauge]
        out["service.admission.rejected"] = engines["rejected"]
        # Every repeat call the harness made was an exact hit; take them out.
        repeats = len(tracer.durations_ms("service.client.search.repeat"))
        hits = engines["hits"] - repeats
        lookups = hits + engines["refines"] + engines["misses"]
        out["service.cache.hit_ratio"] = ratio(hits, lookups)
        out["service.cache.refine_ratio"] = ratio(engines["refines"], lookups)
        out["service.cache.miss_ratio"] = ratio(engines["misses"], lookups)
        out["service.cache.evictions"] = engines["evictions"]
        out["service.cache.patches"] = engines["patches"]

    if isinstance(workload, ServeRead):
        hit_ms = med("service.cache.hit")
        out["service.cache.hit_ms"] = hit_ms
        out["service.cache.refine_ms"] = med("service.cache.refine")
        out["service.http.healthz_ms"] = med("service.http.healthz")
        out["service.http.search_overhead_ms"] = (
            med("service.client.search.repeat") - hit_ms
        )
        out["service.http.response_bytes_per_search"] = median(
            counts["response_bytes"]
        )
        # Do the three boundaries account for what the client saw on a miss?
        misses = tracer.by_op("service.client.search.miss")
        if misses:
            repeat = tracer.by_op("service.client.search.repeat")
            engine = tracer.by_op("service.engine.search")
            accounted = (
                median([repeat[i] for i in misses])
                - hit_ms
                + median([engine[i] for i in misses])
            )
            out["harness.miss_budget_ratio"] = ratio(
                accounted, median(list(misses.values()))
            )

    if isinstance(workload, ServeMixedDurable):
        fsync_ms = med("service.wal.append")
        nofsync_ms = med("service.wal.append_nofsync")
        out["service.wal.append_ms"] = fsync_ms
        out["service.wal.append_nofsync_ms"] = nofsync_ms
        out["service.wal.fsync_ms"] = fsync_ms - nofsync_ms
        out["service.wal.bytes_per_user_byte"] = ratio(
            result.after["wal_bytes"],
            sum(result.acked.values()) * _USER_BYTES_PER_POINT,
        )

    if isinstance(workload, ClusterScatter):
        coordinator_ms = med_sampled("cluster.coordinator.search")
        slowest = median(counts["slowest_shard_ms"])
        stats = workload.coordinator.stats()
        shard_sizes = [0] * workload.coordinator.router.num_shards
        for sid in database.ids():
            shard_sizes[workload.coordinator.router.shard_of(sid)] += 1
        out["cluster.backends.search_ms"] = slowest
        out["cluster.coordinator.search_ms"] = coordinator_ms
        out["cluster.coordinator.fanout_overhead_ms"] = coordinator_ms - slowest
        out["cluster.merge.search_merge_ms"] = med("cluster.merge.search")
        out["cluster.coordinator.knn_ms"] = med("cluster.coordinator.knn")
        out["cluster.coordinator.insert_ms"] = med("cluster.coordinator.insert")
        out["cluster.coordinator.failovers"] = stats["failovers"]
        out["cluster.coordinator.hedges"] = stats["hedges"]
        out["cluster.coordinator.complete_ratio"] = mean("complete")
        out["cluster.router.shard_skew"] = ratio(
            max(shard_sizes), sum(shard_sizes) / len(shard_sizes)
        )

    def read_rate(log: PhaseLog) -> float:
        # Reads only: every workload has them, and the share of (far
        # slower) writes in a short slice is too uneven to compare.
        reads = log.of(KIND_SEARCH)
        return ratio(len(reads), sum(reads))

    out["harness.trace_overhead_ratio"] = ratio(
        read_rate(traced), read_rate(untraced)
    )
    # A number the driver can carry; the full hash is in the result file.
    out["harness.input_sha256"] = float(int(inputs.sha256[:12], 16))
    out.update(result.reported)
    return out


def run_traced(
    spec: Spec,
    seed: int,
    seconds: float,
    out_dir: Path,
    frozen: dict[str, dict[str, str]],
    declared: list[str],
) -> PassResult:
    """The pass whose numbers are the per-layer metrics."""
    inputs = Inputs(spec, seed, seconds)
    verify_inputs(inputs, frozen)
    tracer = Tracer()
    calibrator = Calibrator()
    workload = WORKLOADS[spec.name](spec, out_dir)
    scratch = make_scratch(out_dir, f"{spec.name}-ladder")
    mirror: Mirror | None = None
    try:
        workload.setup(inputs, tracer)
        mirror = Mirror(workload, tracer, scratch)
        # One client replays client 0's stream: spans need a single order.
        state = client_states(inputs)[0]
        handle = workload.handle(0)
        warmup = run_phase([handle], [state], ops_each=spec.warmup_ops)
        before = _engine_stats(workload)
        gc.collect()
        untraced, traced = PhaseLog(), PhaseLog()
        rounds = min(_ROUNDS, slices_of(seconds))
        calibrator.sample()
        for _ in range(rounds):
            untraced.merge(
                run_phase(
                    [handle], [state], seconds=seconds * UNTRACED_SHARE / rounds
                )
            )
            mirror.sync(state)
            traced.merge(
                _traced_loop(
                    workload,
                    mirror,
                    handle,
                    state,
                    seconds * (1.0 - UNTRACED_SHARE) / rounds,
                )
            )
            calibrator.sample()
        engines = _engine_stats(workload)
        for counter in _COUNTERS:
            engines[counter] -= before[counter]
        fixtures: dict[str, float] = {}
        if isinstance(workload, ServeRead):
            fixtures.update(_serve_fixtures(workload, mirror, handle, inputs))
        if spec.writes:
            fixtures.update(_write_fixtures(workload, mirror, inputs))
        whole = PhaseLog()
        whole.merge(untraced)
        whole.merge(traced)
        result = finish(
            workload,
            inputs,
            [state],
            whole,
            warmup,
            seconds,
            None,  # the traced pass reports raw times
            metrics={},
            p95_floor=1,
            tracer=tracer,
        )
        # The traced pass reports raw times; this is what to divide them
        # by to compare with the untraced pass's reference-speed numbers.
        fixtures["harness.machine_speed_factor"] = calibrator.factor(0, rounds)
        measured = {
            **fixtures,
            **_layer_metrics(
                workload, mirror, inputs, engines, untraced, traced, result
            ),
        }
        result.metrics = {name: float(measured.get(name, 0.0)) for name in declared}
        result.samples["spans"] = len(tracer.spans)
        result.samples["ladders"] = len(mirror.sampled)
        tracer.write(out_dir / f"trace-{spec.name}.jsonl")
        return result
    finally:
        if mirror is not None:
            mirror.close()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
