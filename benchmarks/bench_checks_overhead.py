"""Runtime-check overhead: each check's disabled path against its floor.

The four checks of :mod:`repro.util.checks` sit on hot paths — a served
search takes traced locks, crosses ``verify_frozen`` boundaries and calls
``lower_bounds``-decorated functions; a failed operation passes an
errtrace catch-site — on one promise: *no behavioural change and
negligible cost while the check is off*.  This benchmark keeps that
honest with one row per check, the same call timed against its floor
with the check off and on:

=========  ==============================  ===========================  ======
check      call                            floor                        budget
=========  ==============================  ===========================  ======
sync       ``TracedLock`` acquire/release  ``threading.Lock``           2 µs
freeze     ``verify_frozen`` (partition)   an empty call                400 ns
errors     ``record_swallowed``            an empty call                400 ns
contracts  ``lower_bounds`` wrapper        the same function unwrapped  1 µs
=========  ==============================  ===========================  ======

A disabled path is one Python call and one attribute read (the
decorator's also forwards ``*args, **kwargs``, hence its looser budget);
every budget is three to four decimal orders of magnitude below a served
search.  The
"on" column is the price paid only under the sanitizer run: lock-order
bookkeeping, the object-graph walk, the counter update under its lock,
and the wrapper around a no-op validator (a real validator re-runs the
search it checks, so its cost is the search's).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

import numpy as np

from benchmarks.conftest import publish
from repro.core.contracts import lower_bounds
from repro.core.partitioning import partition_sequence
from repro.core.sequence import MultidimensionalSequence
from repro.util.checks import checking, reset_checks
from repro.util.errtrace import record_swallowed
from repro.util.freeze import verify_frozen
from repro.util.sync import TracedLock

OPS = 50_000

Spin = Callable[[int], float]


def _timed(body: Callable[[], object], ops: int) -> float:
    started = time.perf_counter()
    for _ in range(ops):
        body()
    return time.perf_counter() - started


def _lock_loop(lock: threading.Lock | TracedLock) -> Spin:
    def spin(ops: int) -> float:
        started = time.perf_counter()
        for _ in range(ops):
            with lock:
                pass
        return time.perf_counter() - started

    return spin


def _best(spin: Spin, ops: int) -> float:
    """Seconds per call, best of three rounds after a warm-up."""
    spin(1000)
    return min(spin(ops) for _ in range(3)) / ops


def test_checks_overhead(benchmark) -> None:
    rng = np.random.default_rng(7)
    partition = partition_sequence(MultidimensionalSequence(rng.random((64, 3))))
    error = ValueError("bench probe")

    def plain(value: int) -> int:
        return value

    def empty_call(ops: int) -> float:
        return _timed(lambda: None, ops)

    wrapped = lower_bounds(lambda result, value: None)(plain)

    # (check, call, floor, floor spin, checked spin, calls with the check
    # on — fewer where a call does real work — and the disabled budget).
    rows: list[tuple[str, str, str, Spin, Spin, int, float]] = [
        (
            "sync",
            "TracedLock acquire/release",
            "threading.Lock",
            _lock_loop(threading.Lock()),
            _lock_loop(TracedLock("bench.checks-overhead")),
            OPS,
            2e-6,
        ),
        (
            "freeze",
            "verify_frozen(partition)",
            "empty call",
            empty_call,
            lambda ops: _timed(
                lambda: verify_frozen(partition, role="bench", site="bench"), ops
            ),
            OPS // 50,
            4e-7,
        ),
        (
            "errors",
            "record_swallowed",
            "empty call",
            empty_call,
            lambda ops: _timed(
                lambda: record_swallowed(error, role="bench", site="bench"), ops
            ),
            OPS // 10,
            4e-7,
        ),
        (
            "contracts",
            "lower_bounds wrapper",
            "unwrapped call",
            lambda ops: _timed(lambda: plain(1), ops),
            lambda ops: _timed(lambda: wrapped(1), ops),
            OPS,
            1e-6,
        ),
    ]

    reset_checks()
    lines = [
        f"{OPS} calls per row (fewer with the check on), best of 3; ns per call",
        f"{'check':<10} {'call':<27} {'against':<15} {'floor':>7} {'off':>7}"
        f" {'+over':>7} {'budget':>7} {'on':>9}",
    ]
    broken = []
    for name, call, floor_name, floor_spin, spin, ops_on, budget in rows:
        floor = _best(floor_spin, OPS)
        off = _best(spin, OPS)
        with checking(name):
            on = _best(spin, ops_on)
        overhead = off - floor
        if overhead >= budget:
            broken.append(f"{name} +{overhead * 1e9:.0f} ns > {budget * 1e9:.0f}")
        lines.append(
            f"{name:<10} {call:<27} {floor_name:<15} {floor * 1e9:7.1f}"
            f" {off * 1e9:7.1f} {overhead * 1e9:7.1f} {budget * 1e9:7.0f}"
            f" {on * 1e9:9.1f}"
        )
    reset_checks()

    benchmark.pedantic(
        lambda: [row[4](OPS) for row in rows], rounds=1, iterations=1
    )
    assert not broken, f"disabled paths over budget: {broken}"

    lines += [
        "a disabled path is one call and one attribute read; a served search",
        "costs milliseconds, so the off column is within noise per request.",
        "the on column is paid only under the REPRO_* switches (CI's",
        "sanitizer run); contracts' on row is the wrapper around a no-op",
        "validator, not a validator's own full scan.",
    ]
    publish("checks_overhead", "\n".join(lines))
