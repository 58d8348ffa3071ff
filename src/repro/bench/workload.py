"""Closed- and open-loop load generation for benchmark scenarios.

A throughput number is only comparable when the workload behind it is
reproducible.  This module turns a seed into an exact stream of
operations — Zipf-skewed query selection over a fixed pool, a declared
search/insert/append mix, payloads derived per-operation from spawned
RNGs — so two runs with the same :class:`WorkloadSpec` and seed execute
byte-identical request sequences (an acceptance criterion of the bench
subsystem, covered by ``tests/test_bench_workload.py``).

Two drivers execute a generated stream against any
:class:`WorkloadTarget` (a ``QueryEngine``, a cluster adapter, or a fake
in tests):

* :func:`run_closed_loop` — a fixed number of worker threads each issue
  the next operation as soon as the previous one completes.  Throughput
  is *demand-limited*: the system is always saturated at the given
  concurrency, which is the right shape for peak-QPS measurement.
* :func:`run_open_loop` — operations arrive on a Poisson schedule at a
  target rate regardless of completion.  Latency is measured from the
  *intended arrival time*, so queueing delay under overload is visible
  (the coordinated-omission correction closed loops cannot provide).

Both drivers compose with the deterministic fault machinery: pass a
``REPRO_FAULTS``-grammar string via ``faults=`` and the plan is armed
around the run, giving chaos-under-load measurements with no extra code.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
import numpy.typing as npt

from repro.service.client import TRANSPORT_ERRORS
from repro.service.errors import ServiceError
from repro.util.budget import OperationCancelled
from repro.util.errtrace import record_swallowed
from repro.util.faults import FaultInjected, fault_plan, parse_fault_spec
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.util.sync import TracedLock
from repro.util.validation import (
    check_dimension,
    check_positive,
    check_threshold,
)

__all__ = [
    "Operation",
    "OperationMix",
    "WorkloadReport",
    "WorkloadSpec",
    "WorkloadTarget",
    "generate_operations",
    "nearest_rank_quantile",
    "run_closed_loop",
    "run_open_loop",
    "zipf_weights",
]


class WorkloadTarget(Protocol):
    """What a workload can be driven against.

    ``repro.service.QueryEngine`` satisfies this directly; the cluster
    scenario wraps its coordinator in a thin adapter.  Return values are
    ignored by the drivers — only latency and success/failure count.
    """

    def search(
        self, query: npt.NDArray[np.float64], epsilon: float
    ) -> object:
        """Run a similarity search."""
        ...

    def insert(
        self, points: npt.NDArray[np.float64], sequence_id: object = None
    ) -> object:
        """Add a new sequence."""
        ...

    def append(
        self, sequence_id: object, points: npt.NDArray[np.float64]
    ) -> object:
        """Extend an existing sequence."""
        ...


@dataclass(frozen=True)
class OperationMix:
    """Relative weights of the three operation kinds.

    Weights need not sum to one; they are normalised.  The default is a
    read-only workload.
    """

    search: float = 1.0
    insert: float = 0.0
    append: float = 0.0

    def __post_init__(self) -> None:
        for name, weight in self.as_dict().items():
            check_positive(f"mix.{name}", weight, strict=False)
        if self.search + self.insert + self.append <= 0:
            raise ValueError("operation mix weights must not all be zero")

    def as_dict(self) -> dict[str, float]:
        """The weights keyed by operation kind."""
        return {
            "search": self.search,
            "insert": self.insert,
            "append": self.append,
        }

    def probabilities(self) -> tuple[float, float, float]:
        """``(search, insert, append)`` normalised to sum to one."""
        total = self.search + self.insert + self.append
        return (
            self.search / total,
            self.insert / total,
            self.append / total,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The deterministic description of one workload.

    Parameters
    ----------
    operations:
        Total operations in the stream.
    query_pool:
        Number of distinct queries available; searches pick from this
        pool with Zipf skew (rank 0 is hottest).
    dimension:
        Point dimensionality of generated insert/append payloads.
    mix:
        Relative operation-kind weights.
    epsilons:
        Thresholds cycled round-robin across search operations, so every
        threshold is exercised evenly regardless of stream length.
    zipf_s:
        Zipf exponent for query selection; ``0`` is uniform, larger is
        more skewed (``~1.1`` resembles observed query popularity).
    insert_length / append_length:
        Points per generated insert payload / append extension.
    """

    operations: int
    query_pool: int
    dimension: int
    mix: OperationMix = field(default_factory=OperationMix)
    epsilons: tuple[float, ...] = (0.1,)
    zipf_s: float = 1.1
    insert_length: int = 32
    append_length: int = 8

    def __post_init__(self) -> None:
        check_positive("operations", self.operations)
        check_positive("query_pool", self.query_pool)
        check_dimension("dimension", self.dimension)
        check_positive("zipf_s", self.zipf_s, strict=False)
        check_positive("insert_length", self.insert_length)
        check_positive("append_length", self.append_length)
        if not self.epsilons:
            raise ValueError("epsilons must contain at least one threshold")
        for value in self.epsilons:
            check_threshold(value, dimension=self.dimension)


@dataclass(frozen=True)
class Operation:
    """One generated operation in a workload stream.

    ``query_index`` is ``-1`` and ``epsilon`` is ``0.0`` for writes;
    ``sequence_id`` is ``None`` and ``length`` is ``0`` for searches.
    """

    index: int
    kind: str
    epsilon: float = 0.0
    query_index: int = -1
    sequence_id: str | None = None
    length: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("search", "insert", "append"):
            raise ValueError(
                f"operation kind must be search/insert/append, got "
                f"{self.kind!r}"
            )


def zipf_weights(count: int, s: float) -> npt.NDArray[np.float64]:
    """Normalised Zipf selection weights for ranks ``0..count-1``.

    ``P(rank) ∝ 1 / (rank + 1) ** s`` — ``s=0`` degenerates to uniform.
    """
    check_positive("count", count)
    check_positive("s", s, strict=False)
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    result: npt.NDArray[np.float64] = weights / weights.sum()
    return result


def generate_operations(
    spec: WorkloadSpec,
    *,
    seed: SeedLike = None,
    existing_ids: Sequence[str] = (),
) -> list[Operation]:
    """Expand a spec into its exact operation stream.

    The stream is a pure function of ``(spec, seed, existing_ids)``:
    the same inputs always produce the same list, element for element.

    ``existing_ids`` are the sequence ids already present in the target;
    appends target only these (never sequences inserted by the workload
    itself, which under concurrency might not exist yet when the append
    runs).
    """
    rng = ensure_rng(seed)
    probabilities = np.asarray(spec.mix.probabilities())
    if probabilities[2] > 0 and not existing_ids:
        raise ValueError(
            "the mix includes appends but existing_ids is empty; appends "
            "target pre-existing sequences only"
        )
    weights = zipf_weights(spec.query_pool, spec.zipf_s)
    kinds = ("search", "insert", "append")
    operations: list[Operation] = []
    searches = 0
    for index in range(spec.operations):
        kind = kinds[int(rng.choice(3, p=probabilities))]
        if kind == "search":
            operations.append(
                Operation(
                    index=index,
                    kind="search",
                    epsilon=float(spec.epsilons[searches % len(spec.epsilons)]),
                    query_index=int(rng.choice(spec.query_pool, p=weights)),
                )
            )
            searches += 1
        elif kind == "insert":
            operations.append(
                Operation(
                    index=index,
                    kind="insert",
                    sequence_id=f"bench-insert-{index}",
                    length=spec.insert_length,
                )
            )
        else:
            operations.append(
                Operation(
                    index=index,
                    kind="append",
                    sequence_id=str(rng.choice(np.asarray(existing_ids))),
                    length=spec.append_length,
                )
            )
    return operations


def nearest_rank_quantile(values: Sequence[float], q: float) -> float:
    """The nearest-rank quantile, matching ``service.stats.LatencyWindow``.

    Returns ``0.0`` for an empty sequence so metric dictionaries stay
    finite even when a run completed nothing.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[rank])


@dataclass(frozen=True)
class WorkloadReport:
    """The outcome of one driver run."""

    total: int
    completed: int
    errors: int
    elapsed_s: float
    latencies_ms: tuple[float, ...]

    def metrics(self) -> dict[str, float]:
        """The comparable numbers: throughput and latency quantiles."""
        qps = self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0
        return {
            "qps": qps,
            "p50_ms": nearest_rank_quantile(self.latencies_ms, 0.50),
            "p95_ms": nearest_rank_quantile(self.latencies_ms, 0.95),
            "p99_ms": nearest_rank_quantile(self.latencies_ms, 0.99),
            "error_ratio": self.errors / self.total if self.total else 0.0,
        }


class _Cursor:
    """The shared next-operation counter the worker threads pull from."""

    def __init__(self, limit: int) -> None:
        self._lock = TracedLock("bench.workload.cursor")
        self._next = 0
        self._limit = limit

    def take(self) -> int | None:
        """Claim the next operation index, or ``None`` when exhausted."""
        with self._lock:
            if self._next >= self._limit:
                return None
            index = self._next
            self._next += 1
            return index


#: Per-operation failures a load run *measures* rather than aborts on:
#: the typed service taxonomy (including budget exhaustion), injected
#: chaos, transport drops against a remote target, and the engine's own
#: rejection of bad keys/payloads.  Anything outside this tuple is a
#: harness or library bug and must surface, not skew the error rate.
_EXPECTED_ERRORS = (
    FaultInjected,
    OperationCancelled,
    ServiceError,
    KeyError,
    ValueError,
    *TRANSPORT_ERRORS,
)


class _Tally:
    """One worker thread's private latency/error record (unshared)."""

    __slots__ = ("latencies_ms", "errors", "failure")

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.errors = 0
        self.failure: BaseException | None = None


def _build_payloads(
    operations: Sequence[Operation], dimension: int, seed: SeedLike
) -> dict[int, npt.NDArray[np.float64]]:
    """Deterministic unit-cube payload arrays for every write operation.

    One spawned RNG per operation (indexed by position, not draw order)
    keeps payload content independent of thread interleaving.
    """
    rngs = spawn_rngs(seed, len(operations))
    payloads: dict[int, npt.NDArray[np.float64]] = {}
    for op in operations:
        if op.kind in ("insert", "append"):
            payloads[op.index] = rngs[op.index].random(
                (op.length, dimension)
            )
    return payloads


def _issue(
    target: WorkloadTarget,
    op: Operation,
    queries: Sequence[npt.NDArray[np.float64]],
    payloads: dict[int, npt.NDArray[np.float64]],
) -> None:
    if op.kind == "search":
        target.search(queries[op.query_index], op.epsilon)
    elif op.kind == "insert":
        target.insert(payloads[op.index], sequence_id=op.sequence_id)
    else:
        target.append(op.sequence_id, payloads[op.index])


@contextmanager
def _armed(faults: str | None) -> Iterator[None]:
    """Arm a ``REPRO_FAULTS``-grammar plan around a run, if given."""
    if not faults:
        yield
        return
    with fault_plan(*parse_fault_spec(faults)):
        yield


def _spawn_and_join(
    worker_count: int, runner: Callable[[_Tally], None]
) -> list[_Tally]:
    """Run ``runner(tally)`` on ``worker_count`` threads and join them."""
    tallies = [_Tally() for _ in range(worker_count)]
    threads = [
        threading.Thread(
            target=runner, args=(tally,), name=f"bench-worker-{i}"
        )
        for i, tally in enumerate(tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for tally in tallies:
        if tally.failure is not None:
            raise tally.failure
    return tallies


def _report(
    operations: Sequence[Operation],
    tallies: Sequence[_Tally],
    elapsed_s: float,
) -> WorkloadReport:
    latencies: list[float] = []
    errors = 0
    for tally in tallies:
        latencies.extend(tally.latencies_ms)
        errors += tally.errors
    return WorkloadReport(
        total=len(operations),
        completed=len(latencies),
        errors=errors,
        elapsed_s=elapsed_s,
        latencies_ms=tuple(latencies),
    )


def run_closed_loop(
    target: WorkloadTarget,
    operations: Sequence[Operation],
    *,
    queries: Sequence[npt.NDArray[np.float64]],
    dimension: int,
    concurrency: int = 4,
    seed: SeedLike = None,
    faults: str | None = None,
) -> WorkloadReport:
    """Drive the stream at fixed concurrency until it is exhausted.

    Each of ``concurrency`` threads issues its next operation the moment
    the previous one returns; latency is the service time of each call.
    Payload arrays are derived from ``seed`` *before* timing starts so
    generation cost never pollutes the measurement.
    """
    check_positive("concurrency", concurrency)
    check_dimension("dimension", dimension)
    payloads = _build_payloads(operations, dimension, seed)
    cursor = _Cursor(len(operations))

    def worker(tally: _Tally) -> None:
        while True:
            index = cursor.take()
            if index is None:
                return
            op = operations[index]
            started = time.perf_counter()
            try:
                _issue(target, op, queries, payloads)
            except _EXPECTED_ERRORS as error:
                tally.errors += 1
                # A budget-exhausted op is a *measured* outcome here, not
                # a lost cancellation — the per-op deadline belongs to the
                # request, and the worker's job is to count its fate.
                record_swallowed(
                    error,
                    role="bench.worker",
                    site="run_closed_loop",
                    cancellation_ok=True,
                )
            except BaseException as error:  # error-ok: harness bug — captured and re-raised after join
                tally.failure = error
                return
            else:
                tally.latencies_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )

    with _armed(faults):
        started = time.perf_counter()
        tallies = _spawn_and_join(concurrency, worker)
        elapsed = time.perf_counter() - started
    return _report(operations, tallies, elapsed)


def run_open_loop(
    target: WorkloadTarget,
    operations: Sequence[Operation],
    *,
    queries: Sequence[npt.NDArray[np.float64]],
    dimension: int,
    rate: float,
    workers: int = 8,
    seed: SeedLike = None,
    faults: str | None = None,
) -> WorkloadReport:
    """Drive the stream on a Poisson arrival schedule at ``rate`` ops/s.

    Arrival offsets are sampled deterministically from ``seed`` up
    front.  Latency is measured from each operation's *intended arrival
    time*, so if the target cannot keep up, queueing delay accumulates
    into the recorded latencies instead of silently stretching the run
    (the coordinated-omission correction).
    """
    check_positive("rate", rate)
    check_positive("workers", workers)
    check_dimension("dimension", dimension)
    rng = ensure_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(operations)))
    payloads = _build_payloads(operations, dimension, seed)
    cursor = _Cursor(len(operations))

    def worker(tally: _Tally) -> None:
        while True:
            index = cursor.take()
            if index is None:
                return
            op = operations[index]
            arrival = epoch + float(offsets[index])
            delay = arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                _issue(target, op, queries, payloads)
            except _EXPECTED_ERRORS as error:
                tally.errors += 1
                # Same contract as the closed-loop worker: a timed-out op
                # is a counted outcome, not a swallowed cancellation.
                record_swallowed(
                    error,
                    role="bench.worker",
                    site="run_open_loop",
                    cancellation_ok=True,
                )
            except BaseException as error:  # error-ok: harness bug — captured and re-raised after join
                tally.failure = error
                return
            else:
                tally.latencies_ms.append(
                    (time.perf_counter() - arrival) * 1000.0
                )

    with _armed(faults):
        epoch = time.perf_counter()
        tallies = _spawn_and_join(workers, worker)
        elapsed = time.perf_counter() - epoch
    return _report(operations, tallies, elapsed)
