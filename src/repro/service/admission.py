"""Adaptive admission control: an AIMD concurrency limit with priorities.

A static ``workers + queue_cap`` cap is right only at one operating
point: when requests are cheap the queue could safely be deeper, and when
they are expensive even a half-full queue already means seconds of wait.
What admission control actually defends is **queue wait** — time a
request spends admitted but not executing — so this module regulates the
limit on the signal itself:

* **AIMD on observed queue wait.**  Every dequeue from the worker pool
  reports how long the request waited; a read run on its caller's thread
  never queued and reports nothing.  Waits at or under the target (:data:`QUEUE_WAIT_TARGET_S`)
  grow the limit additively (``+1/limit`` per observation, concave like
  TCP); a wait over target shrinks it multiplicatively (``x 0.9``), at
  most once per ``cooldown`` so one burst does not collapse the window.
  The limit always stays inside ``[min_limit, max_limit]`` — the floor
  keeps the worker pool itself reachable, the ceiling is the
  ``workers + queue_cap`` cap as a safety bound.  A limit below its
  ceiling is what the engine reports as ``degraded``.
* **Priority headroom.**  Not all traffic deserves the last admission
  slot.  Reads may fill the whole limit; writes are shed once usage
  crosses 75 % of it; repair/replication traffic (WAL tailing, record
  application, restores) sheds at 50 %.  Under pressure the engine
  sheds in the order that preserves client-visible reads longest.

Reads *hold a slot* (``acquire``/``release``) because they occupy the
worker pool (or, ``on_caller``, stand in for work that would); writes
and repair traffic execute on their caller's thread serialised by the
engine's write lock, so they only consult the gate (``permits``)
without consuming a slot.  An exact ε-cache hit is a lookup, not work:
the engine answers it on the caller without touching this gate.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.service.stats import LatencyWindow
from repro.util.sync import TracedLock

__all__ = ["PRIORITIES", "QUEUE_WAIT_TARGET_S", "AdaptiveLimiter"]

#: Admission priority classes, highest first.
PRIORITIES: tuple[str, ...] = ("read", "write", "repair")

#: Fraction of the current limit each class may fill before shedding.
_HEADROOM: dict[str, float] = {"read": 1.0, "write": 0.75, "repair": 0.5}

#: The engine's queue-wait target, seconds.
QUEUE_WAIT_TARGET_S = 0.1

#: AIMD coefficients: additive growth per good observation (divided by
#: the limit) and the multiplicative cut on an over-target one.
_INCREASE = 1.0
_DECREASE = 0.9


class AdaptiveLimiter:
    """The engine's admission gate: AIMD limit plus priority headroom.

    Parameters
    ----------
    min_limit:
        Lower bound of the adaptive limit (typically the worker count:
        below it the pool itself would idle).
    max_limit:
        Upper bound (``workers + queue_cap``), and the starting limit.
    cooldown:
        Minimum seconds between multiplicative decreases, so a single
        burst's worth of queued requests counts as one congestion
        signal, not ten; defaults to the target
        (:data:`QUEUE_WAIT_TARGET_S`).
    """

    def __init__(
        self,
        *,
        min_limit: int,
        max_limit: int,
        cooldown: float = QUEUE_WAIT_TARGET_S,
    ) -> None:
        if min_limit < 1:
            raise ValueError(f"min_limit must be >= 1, got {min_limit}")
        if max_limit < min_limit:
            raise ValueError(
                f"max_limit must be >= min_limit ({min_limit}), got {max_limit}"
            )
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.cooldown = max(0.0, cooldown)
        self._lock = TracedLock("engine.admission")
        # The limit adapts as a float so additive growth below one slot
        # per observation still accumulates; the effective limit is its
        # floor.  Starts at the ceiling: the first congestion signal
        # shrinks it.
        self._limit = float(max_limit)
        self._inflight = 0
        self._waits = LatencyWindow(1024)
        self._last_decrease = 0.0
        self._shed: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------
    def effective_limit(self) -> int:
        """The current integral admission limit."""
        with self._lock:
            return self._effective()

    def _effective(self) -> int:
        return max(self.min_limit, int(self._limit))

    def _threshold(self, priority: str) -> int:
        headroom = _HEADROOM[priority]
        effective = self._effective()
        if headroom >= 1.0:
            return effective
        # Lower-priority classes keep at least one slot of headroom so a
        # tiny limit does not starve writes outright on an idle engine.
        return max(1, int(effective * headroom))

    def acquire(self, priority: str = "read") -> int | None:
        """Claim one slot; returns the pre-admission depth, or ``None``.

        ``None`` means the request must be shed: usage already reached
        the class's share of the current limit.
        """
        if priority not in _HEADROOM:
            raise ValueError(f"unknown priority {priority!r}")
        with self._lock:
            if self._inflight >= self._threshold(priority):
                self._shed[priority] += 1
                return None
            depth_before = self._inflight
            self._inflight += 1
            return depth_before

    def release(self) -> None:
        """Return one slot claimed by :meth:`acquire`."""
        with self._lock:
            self._inflight -= 1

    def permits(self, priority: str) -> bool:
        """Whether non-slot traffic of ``priority`` may proceed now.

        The gate for work that runs outside the worker pool (writes,
        repair/replication): it checks the class's headroom against the
        pool's current usage without claiming a slot.
        """
        if priority not in _HEADROOM:
            raise ValueError(f"unknown priority {priority!r}")
        with self._lock:
            if self._inflight >= self._threshold(priority):
                self._shed[priority] += 1
                return False
            return True

    @property
    def inflight(self) -> int:
        """Slots currently held (the engine's queue depth)."""
        with self._lock:
            return self._inflight

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def observe(self, queue_wait: float) -> None:
        """Feed one observed queue wait (seconds) into the AIMD loop."""
        queue_wait = max(0.0, queue_wait)
        with self._lock:
            self._waits.record(queue_wait)
            if queue_wait <= QUEUE_WAIT_TARGET_S:
                self._limit = min(
                    float(self.max_limit),
                    self._limit + _INCREASE / max(1.0, self._limit),
                )
                return
            now = time.monotonic()
            if now - self._last_decrease >= self.cooldown:
                self._limit = max(
                    float(self.min_limit), self._limit * _DECREASE
                )
                self._last_decrease = now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Gauges for ``/stats``: limit, usage, waits, per-class sheds."""
        with self._lock:
            return {
                "limit": self._effective(),
                "min_limit": self.min_limit,
                "max_limit": self.max_limit,
                "target_queue_wait_ms": QUEUE_WAIT_TARGET_S * 1e3,
                "inflight": self._inflight,
                "queue_wait_ms": {
                    "p50": self._waits.quantile(0.50) * 1e3,
                    "p95": self._waits.quantile(0.95) * 1e3,
                    "p99": self._waits.quantile(0.99) * 1e3,
                    "window": len(self._waits),
                },
                "shed_by_priority": dict(self._shed),
            }
