"""Per-engine serving metrics: request counts, latency quantiles, cache.

A production query engine is judged by its tail latency and its rejection
rate, not by any single call — :class:`ServiceStats` is the thread-safe
accounting block every :class:`~repro.service.engine.QueryEngine` carries.
Latencies go into a fixed-size ring (:class:`LatencyWindow`), so p50/p95/p99
reflect the recent window rather than the whole process lifetime, and the
whole block renders to a plain dict for the ``/stats`` endpoint.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.util.sync import TracedLock

__all__ = ["LatencyWindow", "ServiceStats"]

#: Cache-outcome labels recorded by the engine.
_CACHE_OUTCOMES = ("hit", "refine", "miss", "off")


class LatencyWindow:
    """A ring buffer of recent request latencies with quantile queries."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._values: list[float] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._values)

    def record(self, seconds: float) -> None:
        """Add one latency observation (overwrites the oldest when full).

        Non-finite observations are rejected: one NaN in the ring would
        make every quantile NaN for the rest of the window's life (NaN
        sorts unpredictably), silently poisoning ``/stats`` and every
        trajectory stamped from it.
        """
        if not math.isfinite(seconds):
            raise ValueError(
                f"latency must be finite, got {seconds!r}"
            )
        if len(self._values) < self.capacity:
            self._values.append(seconds)
        else:
            self._values[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self.capacity

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank) of the window; 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[rank]


class ServiceStats:
    """Thread-safe metrics block of one query engine.

    All mutators take the internal lock; :meth:`snapshot` returns a plain
    JSON-serialisable dict, so readers never hold references into live
    state.
    """

    def __init__(self, *, latency_window: int = 2048) -> None:
        self._lock = TracedLock("service.stats")
        self._requests: Counter[str] = Counter()
        self._failures: Counter[str] = Counter()
        self._cache: Counter[str] = Counter()
        self._latency = LatencyWindow(latency_window)
        self._rejected_overload = 0
        self._deadline_exceeded = 0
        self._snapshots_published = 0
        self._cache_patches = 0
        self._completed = 0
        self._wal_appends = 0
        self._wasted_work = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Recording (called by the engine)
    # ------------------------------------------------------------------
    def record_request(self, op: str) -> None:
        """Count one admitted request of kind ``op``."""
        with self._lock:
            self._requests[op] += 1

    def record_completed(self, op: str, seconds: float) -> None:
        """Count one successful completion and its latency."""
        with self._lock:
            self._completed += 1
            self._latency.record(seconds)

    def record_failure(self, op: str) -> None:
        """Count one request that raised out of the search itself."""
        with self._lock:
            self._failures[op] += 1

    def record_overloaded(self) -> None:
        """Count one admission-control rejection."""
        with self._lock:
            self._rejected_overload += 1

    def record_deadline_exceeded(self) -> None:
        """Count one request whose deadline expired."""
        with self._lock:
            self._deadline_exceeded += 1

    def record_wasted_work(self) -> None:
        """Count one request that *completed* after its deadline anyway.

        Every unit here is CPU the engine burned producing an answer no
        caller was still waiting for — the quantity cooperative
        cancellation checkpoints exist to drive toward zero.
        """
        with self._lock:
            self._wasted_work += 1

    def record_cancelled(self) -> None:
        """Count one request stopped mid-scan by a cancellation checkpoint."""
        with self._lock:
            self._cancelled += 1

    def record_cache(self, outcome: str) -> None:
        """Count one cache outcome: hit / refine / miss / off."""
        if outcome not in _CACHE_OUTCOMES:
            raise ValueError(
                f"cache outcome must be one of {_CACHE_OUTCOMES}, got "
                f"{outcome!r}"
            )
        with self._lock:
            self._cache[outcome] += 1

    def record_snapshot_published(self) -> None:
        """Count one copy-on-write snapshot swap (a write)."""
        with self._lock:
            self._snapshots_published += 1

    def record_wal_append(self) -> None:
        """Count one durable write-ahead-log append."""
        with self._lock:
            self._wal_appends += 1

    def record_cache_patches(self, count: int) -> None:
        """Count cache entries re-examined after a write."""
        with self._lock:
            self._cache_patches += count

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All counters and quantiles as a JSON-serialisable dict."""
        with self._lock:
            hits = self._cache["hit"] + self._cache["refine"]
            lookups = hits + self._cache["miss"]
            return {
                "requests": dict(self._requests),
                "requests_total": sum(self._requests.values()),
                "completed": self._completed,
                "failures": dict(self._failures),
                "rejected_overload": self._rejected_overload,
                "deadline_exceeded": self._deadline_exceeded,
                "wasted_work": self._wasted_work,
                "cancelled": self._cancelled,
                "latency_ms": {
                    "p50": self._latency.quantile(0.50) * 1e3,
                    "p95": self._latency.quantile(0.95) * 1e3,
                    "p99": self._latency.quantile(0.99) * 1e3,
                    "window": len(self._latency),
                },
                "cache": {
                    "hits": self._cache["hit"],
                    "refines": self._cache["refine"],
                    "misses": self._cache["miss"],
                    "bypassed": self._cache["off"],
                    "hit_ratio": (hits / lookups) if lookups else 0.0,
                    "patches": self._cache_patches,
                },
                "snapshots_published": self._snapshots_published,
                "wal_appends": self._wal_appends,
            }
