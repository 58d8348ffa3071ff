"""One pass of one workload: set-up, warm-up, timed phase, audit.

The untraced pass yields the end-to-end metrics; ``benchkit.ladder`` adds
the traced pass on top of the same pieces.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.service import Overloaded, ServiceError
from repro.service.client import TRANSPORT_ERRORS

from benchkit import oracle
from benchkit.calibrate import Calibrator
from benchkit.inputs import (
    EPSILONS,
    KIND_APPEND,
    KIND_INSERT,
    KIND_KNN,
    KIND_SEARCH,
    KNN_K,
    WRITE_KINDS,
    Inputs,
    Spec,
    WriteSequence,
    append_length,
)
from benchkit.spans import Tracer
from benchkit.stats import percentile, ratio
from benchkit.workloads import WORKLOADS, Refused, Workload

#: Slices per second of a timed phase; the machine's speed is sampled
#: between them.
SLICES_PER_SECOND = 2


def slices_of(seconds: float) -> int:
    return max(1, round(seconds * SLICES_PER_SECOND))


#: Failures of an op that count into ``failed``; anything else is a
#: harness bug and aborts the run.
COUNTED_ERRORS = (ServiceError, Refused, *TRANSPORT_ERRORS)


class InputDrift(RuntimeError):
    """The seeded inputs no longer hash to the frozen value."""


@dataclass
class Op:
    """One resolved operation, ready to execute."""

    index: int
    kind: int
    query: np.ndarray | None = None
    epsilon: float = 0.0
    written: WriteSequence | None = None
    points: np.ndarray | None = None


@dataclass
class ClientState:
    """A client's cursor into its op stream and its acknowledged writes."""

    ops: np.ndarray
    queries: list[np.ndarray]
    pool: list[WriteSequence]
    cursor: int = 0
    next_insert: int = 0
    inserted: list[WriteSequence] = field(default_factory=list)
    #: Acknowledged point count per written sequence id.
    acked: dict[str, int] = field(default_factory=dict)

    def next_op(self) -> Op:
        index = self.cursor
        self.cursor += 1
        row = self.ops[index % len(self.ops)]
        kind = int(row["kind"])
        if kind not in WRITE_KINDS:
            return Op(
                index,
                kind,
                query=self.queries[int(row["query"])],
                epsilon=EPSILONS[int(row["eps"])],
            )
        aux = int(row["aux"])
        if kind == KIND_APPEND and self.inserted:
            target = self.inserted[aux % len(self.inserted)]
            start = self.acked[target.sequence_id]
            chunk = target.points[start : start + append_length(aux)]
            if len(chunk) == append_length(aux):
                return Op(index, KIND_APPEND, written=target, points=chunk)
        # An append with nothing to extend (or no reserve left) inserts.
        if self.next_insert >= len(self.pool):
            raise RuntimeError("write pool exhausted; raise WRITES_PER_SECOND")
        written = self.pool[self.next_insert]
        self.next_insert += 1
        return Op(
            index, KIND_INSERT, written=written, points=written.points[: written.length]
        )

    def acknowledge(self, op: Op) -> None:
        """Record that the system acknowledged write ``op``."""
        if op.written is None or op.points is None:
            raise RuntimeError(f"op {op.index} is not a write")
        sid = op.written.sequence_id
        if op.kind == KIND_INSERT:
            self.inserted.append(op.written)
            self.acked[sid] = len(op.points)
        else:
            self.acked[sid] += len(op.points)


def execute(handle: Any, op: Op) -> Any:
    """Issue ``op`` through ``handle``; returns the call's detail object."""
    if op.kind == KIND_SEARCH:
        return handle.search(op.query, op.epsilon)[1]
    if op.kind == KIND_KNN:
        return handle.knn(op.query, KNN_K)
    if op.written is None:
        raise RuntimeError(f"op {op.index} is a write without a payload")
    if op.kind == KIND_INSERT:
        return handle.insert(op.written.sequence_id, op.points)
    return handle.append(op.written.sequence_id, op.points)


def failure_kind(error: Exception) -> str:
    if isinstance(error, (Overloaded, Refused)):
        return "refusal"
    if isinstance(error, ServiceError):
        return "typed_error"
    return "transport_error"


@dataclass
class PhaseLog:
    """What a closed-loop phase observed."""

    kinds: list[int] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.kinds) + sum(self.failures.values())

    def of(self, *kinds: int) -> list[float]:
        return [
            latency
            for kind, latency in zip(self.kinds, self.latencies_ms)
            if kind in kinds
        ]

    def merge(self, other: "PhaseLog") -> None:
        self.kinds += other.kinds
        self.latencies_ms += other.latencies_ms
        self.failures += other.failures
        self.wall_s += other.wall_s

    def at_reference_speed(self, factor: float) -> "PhaseLog":
        """The same log had the machine run at the reference speed."""
        return PhaseLog(
            kinds=self.kinds,
            latencies_ms=[latency / factor for latency in self.latencies_ms],
            failures=self.failures,
            wall_s=self.wall_s / factor,
        )


def run_client(
    handle: Any,
    state: ClientState,
    log: PhaseLog,
    should_stop: Callable[[], bool],
) -> None:
    """Closed loop: the next op goes out after the previous reply."""
    while not should_stop():
        op = state.next_op()
        started = time.perf_counter_ns()
        try:
            execute(handle, op)
        except COUNTED_ERRORS as error:
            log.failures[failure_kind(error)] += 1
            continue
        log.latencies_ms.append((time.perf_counter_ns() - started) / 1e6)
        log.kinds.append(op.kind)
        if op.kind in WRITE_KINDS:
            state.acknowledge(op)


def run_phase(
    handles: list[Any],
    states: list[ClientState],
    *,
    seconds: float | None = None,
    ops_each: int | None = None,
) -> PhaseLog:
    """Run every client for ``seconds`` (or ``ops_each`` ops) in threads."""
    logs = [PhaseLog() for _ in handles]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(handles) + 1)
    deadline = [0.0]

    def client(index: int) -> None:
        state, log = states[index], logs[index]
        if ops_each is not None:
            last = state.cursor + ops_each
            should_stop = lambda: state.cursor >= last  # noqa: E731
        else:
            should_stop = lambda: time.perf_counter() >= deadline[0]  # noqa: E731
        try:
            barrier.wait()
            run_client(handles[index], state, log, should_stop)
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=client, args=(index,), name=f"perf-client-{index}")
        for index in range(len(handles))
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline[0] = started + (seconds or 0.0)
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = PhaseLog(wall_s=time.perf_counter() - started)
    for log in logs:
        merged.merge(log)
    return merged


def run_timed(
    handles: list[Any],
    states: list[ClientState],
    seconds: float,
    calibrator: Calibrator,
    min_reads: int,
) -> tuple[PhaseLog, float]:
    """The timed phase, brought to the reference speed; and the factor.

    The phase runs in slices with a speed sample between them, and the
    whole log is scaled by the mean of the samples: the box's speed also
    flickers within a second, so one slice's two samples say little, all
    of a run's say how fast the box was while it ran.  On a machine so
    slow that ``seconds`` leave the p95 short of its sample floor, runs
    up to twice as many slices more.
    """
    slices = slices_of(seconds)
    raw = PhaseLog()
    first = calibrator.sample()
    for done in range(3 * slices):
        if done >= slices and len(raw.of(KIND_SEARCH)) >= min_reads:
            break
        raw.merge(run_phase(handles, states, seconds=seconds / slices))
        last = calibrator.sample()
    factor = calibrator.factor(first, last)
    return raw.at_reference_speed(factor), factor


def audit(
    workload: Workload, inputs: Inputs, states: list[ClientState]
) -> oracle.OracleReport:
    """Oracle checks over the base corpus plus every acknowledged write."""
    spec = workload.spec
    sequences = inputs.sequences()
    for state in states:
        for written in state.inserted:
            sid = written.sequence_id
            sequences[sid] = written.points[: state.acked[sid]]
    handle = workload.handle(0)
    rng = np.random.default_rng(np.random.SeedSequence([inputs.seed, 4]))
    picks = rng.choice(len(inputs.queries), size=spec.range_checks, replace=False)
    report = oracle.check_ranges(
        lambda query, epsilon: handle.search(query, epsilon)[0],
        sequences,
        [
            (inputs.queries[int(pick)], EPSILONS[position % len(EPSILONS)])
            for position, pick in enumerate(picks)
        ],
    )
    knn_picks = rng.choice(len(inputs.queries), size=spec.knn_checks, replace=False)
    report.merge(
        oracle.check_knn(
            handle.knn,
            sequences,
            [inputs.queries[int(pick)] for pick in knn_picks],
            KNN_K,
        )
    )
    return report


@dataclass
class PassResult:
    """Everything one pass reports."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    metrics: dict[str, float]
    #: Reported, not gated: the workload-specific end-to-end values.
    reported: dict[str, float]
    samples: dict[str, int]
    failures: dict[str, int]
    attempted: int
    failed: int
    correct: bool
    input_sha256: str
    #: Kept for the traced pass's per-layer metrics; not serialised.
    oracle: oracle.OracleReport
    after: dict
    acked: dict[str, int]
    tracer: Tracer | None = None
    #: Machine-speed factors the times were divided by (raw = value x factor).
    machine: dict[str, float] = field(default_factory=dict)


def client_states(inputs: Inputs) -> list[ClientState]:
    return [
        ClientState(ops, inputs.queries, pool)
        for ops, pool in zip(inputs.ops, inputs.write_pools)
    ]


def verify_inputs(inputs: Inputs, frozen: dict[str, dict[str, str]]) -> None:
    expected = frozen.get(inputs.spec.name, {}).get(str(inputs.seed))
    if expected is not None and expected != inputs.sha256:
        raise InputDrift(
            f"{inputs.spec.name} seed {inputs.seed}: inputs hash to "
            f"{inputs.sha256}, frozen {expected} — repro.datagen or the "
            "workload changed; re-freeze deliberately (perf/README.md)"
        )


def client_observed(log: PhaseLog, p95_floor: int) -> tuple[dict, dict, dict]:
    """End-to-end values, reported extras and sample counts of a phase."""
    reads = log.of(KIND_SEARCH)
    knns = log.of(KIND_KNN)
    writes = log.of(*WRITE_KINDS)
    gated = {
        "ops_per_s": ratio(len(log.kinds), log.wall_s),
        "read_p50_ms": percentile(reads, 0.50),
        "read_p95_ms": percentile(reads, 0.95, floor=p95_floor),
    }
    extras = {}
    if knns:
        extras["knn_p50_ms"] = percentile(knns, 0.50)
    if writes:
        extras["write_p50_ms"] = percentile(writes, 0.50)
        extras["write_p95_ms"] = percentile(writes, 0.95)
    samples = {"reads": len(reads), "knn": len(knns), "writes": len(writes)}
    return gated, extras, samples


def run_untraced(
    spec: Spec,
    seed: int,
    seconds: float,
    out_dir: Path,
    frozen: dict[str, dict[str, str]],
) -> PassResult:
    """The pass whose numbers are the end-to-end metrics."""
    calibrator = Calibrator()
    started = time.perf_counter()
    calibrator.sample()
    inputs = Inputs(spec, seed, seconds)
    verify_inputs(inputs, frozen)
    workload = WORKLOADS[spec.name](spec, out_dir)
    workload.tick = calibrator.sample
    try:
        workload.setup(inputs, None)
        states = client_states(inputs)
        handles = [workload.handle(client) for client in range(spec.clients)]
        warmup = run_phase(handles, states, ops_each=spec.warmup_ops)
        setup_s = time.perf_counter() - started - calibrator.spent_s
        setup_factor = calibrator.factor(0, calibrator.sample())
        gc.collect()
        log, timed_factor = run_timed(
            handles, states, seconds, calibrator, spec.p95_floor
        )
        rss = workload.peak_rss_mb()
        result = finish(
            workload,
            inputs,
            states,
            log,
            warmup,
            seconds,
            calibrator,
            metrics={"setup_s": setup_s / setup_factor, "peak_rss_mb": rss},
            p95_floor=spec.p95_floor,
        )
        result.machine = {
            "setup_factor": setup_factor,
            "timed_factor": timed_factor,
        }
        return result
    finally:
        workload.close()


def finish(
    workload: Workload,
    inputs: Inputs,
    states: list[ClientState],
    log: PhaseLog,
    warmup: PhaseLog,
    seconds: float,
    calibrator: Calibrator | None,
    *,
    metrics: dict[str, float],
    p95_floor: int,
    tracer: Tracer | None = None,
) -> PassResult:
    """Post-phase work shared by both passes: recovery, audit, tallies."""
    spec = workload.spec
    acked = {sid: length for state in states for sid, length in state.acked.items()}
    user_points = inputs.corpus_points + sum(acked.values())
    before_recovery = calibrator.sample() if calibrator else 0
    after = workload.after_timed(acked, user_points)
    if calibrator and "recovery_s" in after:
        after["recovery_s"] /= calibrator.factor(
            before_recovery, calibrator.sample()
        )
    report = audit(workload, inputs, states)
    gated, extras, samples = client_observed(log, p95_floor)
    failures = Counter(log.failures) + Counter(warmup.failures)
    failures["wrong_answer"] = report.wrong
    failures["lost_write"] = int(after.get("lost_writes", 0))
    attempted = (
        log.attempted
        + warmup.attempted
        + report.checks
        + int(after.get("acked_writes_checked", 0))
    )
    failed = sum(failures.values())
    for name in ("recovery_s", "stored_bytes_per_user_byte"):
        if name in after:
            extras[name] = after[name]
    extras["failed_ratio"] = ratio(failed, attempted)
    samples["oracle_checks"] = report.checks
    samples["acked_writes_checked"] = int(after.get("acked_writes_checked", 0))
    return PassResult(
        workload=spec.name,
        seed=inputs.seed,
        seconds=seconds,
        traced=tracer is not None,
        metrics={**metrics, **gated},
        reported=extras,
        samples=samples,
        failures={kind: count for kind, count in failures.items() if count},
        attempted=attempted,
        failed=failed,
        correct=report.wrong == 0 and failures["lost_write"] == 0,
        input_sha256=inputs.sha256,
        oracle=report,
        after=after,
        acked=acked,
        tracer=tracer,
    )
