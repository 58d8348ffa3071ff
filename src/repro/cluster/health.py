"""Per-backend health tracking for the cluster coordinator.

Every backend call feeds the tracker — successes clear failure streaks,
transport failures accumulate — and ``/healthz`` probe results enrich it
with what the backend says about itself (its admission limiter's
``degraded`` signal, durability lag).
The coordinator consults :meth:`HealthTracker.usable` when ordering a
shard's replicas for a read and when deciding whether a write replica
needs the read-repair queue.

The state machine per backend mirrors a circuit breaker, with one
difference that matters for replica *selection*: asking "is this backend
usable?" must not mutate state (the coordinator ranks several replicas
per request), so probing is an explicit transition driven by
:meth:`probe_due` / :meth:`record_probe` rather than a side effect of the
availability check.

==========  =========================================================
state       meaning
==========  =========================================================
``up``      no recent failures; first choice for its shards
``suspect``  failing but under the threshold; still routable
``down``    failure streak hit ``failure_threshold``; skipped until
            ``probe_interval`` elapses, then eligible for one probe
==========  =========================================================
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.util.sync import TracedLock

__all__ = ["BackendHealth", "HealthTracker"]


class BackendHealth:
    """Mutable health record of one backend (guarded by the tracker lock)."""

    __slots__ = (
        "state",
        "consecutive_failures",
        "failures",
        "successes",
        "last_failure_at",
        "last_probe_at",
        "probe_info",
        "transitions",
    )

    def __init__(self) -> None:
        self.state = "up"
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.last_failure_at = 0.0
        self.last_probe_at = 0.0
        self.probe_info: dict[str, Any] = {}
        self.transitions = 0

    def snapshot(self) -> dict:
        """A JSON-serialisable copy for stats endpoints."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
            "transitions": self.transitions,
            "probe": dict(self.probe_info),
        }


class HealthTracker:
    """Thread-safe up/suspect/down tracking for a fixed set of backends.

    Parameters
    ----------
    num_backends:
        Backends tracked, indexed ``0 .. num_backends - 1``.
    failure_threshold:
        Consecutive failures that mark a backend ``down``.
    probe_interval:
        Seconds a ``down`` backend waits before a probe may try it again.
    clock:
        Monotonic time source — injectable for deterministic tests.
    """

    def __init__(
        self,
        num_backends: int,
        *,
        failure_threshold: int = 3,
        probe_interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if num_backends < 1:
            raise ValueError(f"num_backends must be >= 1, got {num_backends}")
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if probe_interval < 0:
            raise ValueError(
                f"probe_interval must be >= 0, got {probe_interval}"
            )
        self.num_backends = num_backends
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self._clock = clock
        self._lock = TracedLock("health.tracker")
        self._backends = [BackendHealth() for _ in range(num_backends)]

    def _check_index(self, backend: int) -> BackendHealth:
        if not 0 <= backend < self.num_backends:
            raise ValueError(
                f"backend must be in [0, {self.num_backends}), got {backend}"
            )
        return self._backends[backend]

    # ------------------------------------------------------------------
    # Outcome feeds
    # ------------------------------------------------------------------
    def record_success(self, backend: int) -> bool:
        """A request to ``backend`` succeeded; returns True on down -> up."""
        record = self._check_index(backend)
        with self._lock:
            was_down = record.state == "down"
            record.successes += 1
            record.consecutive_failures = 0
            if record.state != "up":
                record.state = "up"
                record.transitions += 1
            return was_down

    def record_failure(self, backend: int) -> bool:
        """A request to ``backend`` failed; returns True if it went down."""
        record = self._check_index(backend)
        with self._lock:
            record.failures += 1
            record.consecutive_failures += 1
            record.last_failure_at = self._clock()
            if (
                record.state != "down"
                and record.consecutive_failures >= self.failure_threshold
            ):
                record.state = "down"
                record.transitions += 1
                return True
            if record.state == "up":
                record.state = "suspect"
                record.transitions += 1
            return False

    def record_probe(self, backend: int, info: dict | None) -> bool:
        """Store a ``/healthz`` probe outcome (``None`` = probe failed).

        Returns ``True`` when the probe brought a down backend back up.
        """
        record = self._check_index(backend)
        if info is None:
            self.record_failure(backend)
            with self._lock:
                record.last_probe_at = self._clock()
            return False
        came_back = self.record_success(backend)
        with self._lock:
            record.last_probe_at = self._clock()
            record.probe_info = {
                key: info[key]
                for key in (
                    "status",
                    "degraded",
                    "sequences",
                    "snapshot_version",
                    "wal_records",
                    "last_checkpoint_version",
                    "replication",
                )
                if key in info
            }
        return came_back

    # ------------------------------------------------------------------
    # Queries (never mutate state)
    # ------------------------------------------------------------------
    def state(self, backend: int) -> str:
        """``up``, ``suspect`` or ``down``."""
        record = self._check_index(backend)
        with self._lock:
            return record.state

    def usable(self, backend: int) -> bool:
        """Whether the coordinator should route requests to ``backend``."""
        record = self._check_index(backend)
        with self._lock:
            return record.state != "down"

    def probe_due(self, backend: int) -> bool:
        """Whether a ``down`` backend is eligible for a recovery probe."""
        record = self._check_index(backend)
        with self._lock:
            if record.state != "down":
                return False
            reference = max(record.last_failure_at, record.last_probe_at)
            return self._clock() - reference >= self.probe_interval

    def down_backends(self) -> list[int]:
        """Indices currently marked ``down``."""
        with self._lock:
            return [
                index
                for index, record in enumerate(self._backends)
                if record.state == "down"
            ]

    def snapshot(self) -> list[dict]:
        """Per-backend health blocks for stats endpoints."""
        with self._lock:
            return [record.snapshot() for record in self._backends]
