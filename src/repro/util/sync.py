"""Instrumented synchronization primitives: the runtime half of the gate.

The serving (:mod:`repro.service`) and cluster (:mod:`repro.cluster`)
layers are multithreaded; the class of bug most likely to corrupt served
results — a race on shared counters, a lock-order inversion between the
engine's writer lock and the cache's entry lock, blocking I/O under a
lock — is invisible to unit tests that happen not to interleave badly.
This module provides drop-in wrappers for the stdlib primitives that make
those bugs *observable*:

* :class:`TracedLock` / :class:`TracedRLock` — wrap ``threading.Lock`` /
  ``threading.RLock``.  With checks enabled they maintain a per-thread
  held-lock stack and a process-global acquisition-order graph; acquiring
  a lock in an order that closes a cycle in that graph raises
  :class:`LockOrderViolation` *instead of deadlocking*, naming the cycle.
  They also detect same-thread re-acquisition of a non-reentrant lock
  (guaranteed self-deadlock) before blocking on it, and record per-lock
  acquisition, contention, wait-time and hold-time statistics
  (:func:`sync_stats`).
* :class:`TracedCondition` — wraps ``threading.Condition`` over a traced
  lock and verifies ``wait``/``notify`` are called with that lock held by
  the *calling* thread (the raw primitive cannot tell which thread holds
  a plain ``Lock``).

Checks are **off by default**: the disabled fast path is one attribute
read before delegating to the raw primitive, so production behaviour is
unchanged (``benchmarks/bench_checks_overhead.py`` keeps the claim
honest).  They are the ``sync`` check of :mod:`repro.util.checks`
(``REPRO_SYNC_CHECKS``; "Runtime checks" in ``docs/static_analysis.md``),
whose ``reset_checks()`` also clears the order graph and statistics.

Lock *names* are roles, not instances: every engine's writer lock is
``engine.write``.  The order graph is keyed by name, so an inversion
between two instances of the same pair of roles is still a cycle — and
nesting two distinct instances of the *same* role is reported as a
violation too (it is the classic unordered peer-to-peer deadlock).
The intended global order is documented in ``docs/concurrency.md``; the
static half of the gate (``tools/repro_lint`` rules REP200–REP206) checks
what is visible lexically, this module checks what actually happens.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from types import TracebackType

from repro.util.checks import SYNC

__all__ = [
    "LockOrderViolation",
    "TracedCondition",
    "TracedLock",
    "TracedRLock",
    "held_locks",
    "lock_order_edges",
    "sync_stats",
]


class LockOrderViolation(RuntimeError):
    """A lock acquisition that would (or could) deadlock.

    Raised only while sync checks are enabled, at the acquisition that
    closes a cycle in the global lock-order graph — or that re-enters a
    non-reentrant lock on the same thread.  Signals a concurrency bug in
    the library, never bad caller input.
    """

    def __init__(self, message: str, *, cycle: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        #: The lock-name cycle that the offending acquisition would close
        #: (``("a", "b", "a")``), empty for self-deadlock detections.
        self.cycle = cycle


class _LockStats:
    """Mutable per-lock-name counters (guarded by the registry lock)."""

    __slots__ = ("acquisitions", "contended", "wait_s", "hold_s", "max_hold_s")

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.wait_s = 0.0
        self.hold_s = 0.0
        self.max_hold_s = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "wait_s": self.wait_s,
            "hold_s": self.hold_s,
            "max_hold_s": self.max_hold_s,
        }


class _Held:
    """One entry on a thread's held-lock stack."""

    __slots__ = ("owner", "acquired_at", "nested")

    def __init__(self, owner: "TracedLock | TracedRLock", nested: bool) -> None:
        self.owner = owner
        self.acquired_at = time.perf_counter()
        self.nested = nested


class _HeldStack(threading.local):
    """The per-thread stack of currently held traced locks."""

    def __init__(self) -> None:
        self.stack: list[_Held] = []


# Registry state.  The registry's own lock is a raw threading.Lock by
# necessity (the wrappers cannot bootstrap on themselves); it is a leaf —
# nothing is acquired while holding it — so it can never participate in
# an inversion.
_registry_lock = threading.Lock()
_edges: dict[str, set[str]] = {}
_stats: dict[str, _LockStats] = {}
_held = _HeldStack()


def _clear() -> None:
    """Forget the order graph, the statistics and this thread's held stack.

    The order graph is cumulative across the process lifetime (that is
    what makes single-run cycle detection possible), so independent
    tests that stage *intentional* inversions clear it between stages.
    The calling thread's held-lock stack goes too: a test that died
    mid-acquisition would otherwise poison every later test on the same
    thread with a phantom held lock.  Other threads' stacks are theirs.
    """
    with _registry_lock:
        _edges.clear()
        _stats.clear()
        _held.stack = []


def sync_stats() -> dict[str, dict[str, float]]:
    """Per-lock-name acquisition/contention/hold statistics (a copy)."""
    with _registry_lock:
        return {name: stats.snapshot() for name, stats in _stats.items()}


def lock_order_edges() -> dict[str, tuple[str, ...]]:
    """The observed acquisition-order graph: name -> names acquired under it."""
    with _registry_lock:
        return {name: tuple(sorted(after)) for name, after in _edges.items()}


def held_locks() -> tuple[str, ...]:
    """Names of the traced locks the calling thread currently holds."""
    return tuple(entry.owner.name for entry in _held.stack)


SYNC.clear = _clear
SYNC.stats = sync_stats


def _find_path(start: str, target: str) -> list[str] | None:
    """A path ``start -> ... -> target`` in the order graph, if one exists."""
    seen = {start}
    trail: list[tuple[str, list[str]]] = [(start, [start])]
    while trail:
        node, path = trail.pop()
        if node == target:
            return path
        for successor in _edges.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                trail.append((successor, path + [successor]))
    return None


def _traced_acquire(
    owner: "TracedLock | TracedRLock",
    blocking: bool,
    timeout: float,
    *,
    reentrant: bool,
) -> bool:
    stack = _held.stack
    held_same = [entry for entry in stack if entry.owner is owner]
    if held_same:
        if not reentrant:
            if not blocking:
                # A try-lock on a lock this thread already holds is not
                # a deadlock — it simply fails, which is the legitimate
                # single-flight idiom (e.g. the coordinator's per-backend
                # drain locks). Only a *blocking* re-acquire can never
                # return.
                return False
            raise LockOrderViolation(
                f"lock '{owner.name}' re-acquired by the thread already "
                "holding it: guaranteed self-deadlock on a non-reentrant "
                "lock"
            )
        # Re-entrant re-acquisition: no new edges, no new stats — the
        # lock is already accounted for on this thread's stack.
        acquired = owner.raw.acquire(blocking, timeout)
        if acquired:
            stack.append(_Held(owner, nested=True))
        return acquired
    for entry in stack:
        if entry.owner.name == owner.name:
            raise LockOrderViolation(
                f"two distinct locks named '{owner.name}' nested on one "
                "thread: same-role peer locks have no defined order and "
                "can deadlock against a thread nesting them the other "
                "way"
            )
    # Register the intended edges and check for a cycle BEFORE blocking
    # on the raw lock: two threads mid-inversion would otherwise both
    # pass the check and deadlock for real.  Publishing the intent first
    # guarantees that whichever thread attempts the closing edge second
    # sees the first thread's edge and raises instead of blocking.
    with _registry_lock:
        for entry in stack:
            held_name = entry.owner.name
            if owner.name in _edges.get(held_name, ()):
                continue
            path = _find_path(owner.name, held_name)
            if path is not None:
                cycle = tuple(path + [owner.name])
                raise LockOrderViolation(
                    f"lock-order inversion: acquiring '{owner.name}' while "
                    f"holding '{held_name}' closes the cycle "
                    f"{' -> '.join(cycle)} (another code path acquires "
                    "these locks in the opposite order)",
                    cycle=cycle,
                )
            _edges.setdefault(held_name, set()).add(owner.name)
    contended = owner.raw.locked() if hasattr(owner.raw, "locked") else False
    started = time.perf_counter()
    acquired = owner.raw.acquire(blocking, timeout)
    waited = time.perf_counter() - started
    if not acquired:
        return False
    with _registry_lock:
        stats = _stats.setdefault(owner.name, _LockStats())
        stats.acquisitions += 1
        if contended:
            stats.contended += 1
        stats.wait_s += waited
    stack.append(_Held(owner, nested=False))
    return True


def _traced_release(owner: "TracedLock | TracedRLock") -> None:
    stack = _held.stack
    for index in range(len(stack) - 1, -1, -1):
        if stack[index].owner is owner:
            entry = stack.pop(index)
            if not entry.nested:
                hold = time.perf_counter() - entry.acquired_at
                with _registry_lock:
                    stats = _stats.setdefault(owner.name, _LockStats())
                    stats.hold_s += hold
                    stats.max_hold_s = max(stats.max_hold_s, hold)
            break
    owner.raw.release()


class TracedLock:
    """A named, instrumentable drop-in for ``threading.Lock``.

    With checks disabled every call is one flag read plus the raw
    primitive; with checks enabled, acquisitions feed the global
    lock-order graph and per-name statistics, and an ordering cycle (or
    same-thread re-acquisition) raises :class:`LockOrderViolation`.
    """

    _reentrant = False

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("a traced lock needs a non-empty role name")
        self.name = name
        self.raw = self._make_raw()

    @staticmethod
    def _make_raw() -> "threading.Lock":  # repro-lint: disable=REP203
        return threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the lock (same contract as the raw primitive)."""
        if not SYNC.on:
            return self.raw.acquire(blocking, timeout)
        return _traced_acquire(
            self, blocking, timeout, reentrant=self._reentrant
        )

    def release(self) -> None:
        """Release the lock."""
        if not SYNC.on:
            self.raw.release()
            return
        _traced_release(self)

    def locked(self) -> bool:
        """Whether any thread holds the lock."""
        locked: Callable[[], bool] | None = getattr(self.raw, "locked", None)
        return bool(locked()) if locked is not None else False

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TracedRLock(TracedLock):
    """A named, instrumentable drop-in for ``threading.RLock``.

    Re-entrant acquisition by the holding thread is legal and adds no
    order-graph edges; everything else behaves like :class:`TracedLock`.
    """

    _reentrant = True

    @staticmethod
    def _make_raw() -> "threading.RLock":  # type: ignore[override]  # repro-lint: disable=REP203
        return threading.RLock()


class TracedCondition:
    """A named condition variable over a traced lock.

    Wraps ``threading.Condition`` sharing the traced lock's raw
    primitive, so waiters and notifiers synchronise exactly as with the
    stdlib — but with checks enabled, ``wait``/``notify``/``notify_all``
    verify that the *calling thread* holds the lock (the stdlib can only
    check that *some* thread does, when the lock is a plain ``Lock``),
    and the wait's release/re-acquire updates the held-lock stack so the
    order graph stays truthful across the sleep.
    """

    def __init__(
        self, lock: TracedLock | TracedRLock | None = None, *, name: str
    ) -> None:
        if not name:
            raise ValueError("a traced condition needs a non-empty role name")
        self.name = name
        self.lock = lock if lock is not None else TracedRLock(name)
        self._cond = threading.Condition(self.lock.raw)  # repro-lint: disable=REP203

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying traced lock."""
        return self.lock.acquire(blocking, timeout)

    def release(self) -> None:
        """Release the underlying traced lock."""
        self.lock.release()

    def __enter__(self) -> bool:
        return self.lock.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.lock.release()

    def _require_held(self, op: str) -> None:
        if SYNC.on and not any(
            entry.owner is self.lock for entry in _held.stack
        ):
            raise RuntimeError(
                f"{op}() on condition '{self.name}' without holding its "
                "lock on this thread"
            )

    def wait(self, timeout: float | None = None) -> bool:
        """Wait for a notification (lock must be held by this thread)."""
        self._require_held("wait")
        if not SYNC.on:
            return self._cond.wait(timeout)
        # The wait releases the raw lock: take it off this thread's
        # stack for the duration, then restore it through the traced
        # path so hold times and edges stay correct.
        _traced_release_bookkeeping_only(self.lock)
        try:
            return self._cond.wait(timeout)
        finally:
            _traced_reacquire_bookkeeping_only(self.lock)

    def wait_for(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Wait until ``predicate()`` is true (stdlib semantics)."""
        self._require_held("wait_for")
        deadline = None if timeout is None else time.monotonic() + timeout
        result = predicate()
        while not result:
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return predicate()
            self.wait(remaining)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiters (lock must be held by this thread)."""
        self._require_held("notify")
        self._cond.notify(n)

    def notify_all(self) -> None:
        """Wake all waiters (lock must be held by this thread)."""
        self._require_held("notify_all")
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<TracedCondition {self.name!r}>"


def _traced_release_bookkeeping_only(owner: TracedLock | TracedRLock) -> None:
    """Pop ``owner`` from the held stack without touching the raw lock."""
    stack = _held.stack
    for index in range(len(stack) - 1, -1, -1):
        if stack[index].owner is owner:
            entry = stack.pop(index)
            if not entry.nested:
                hold = time.perf_counter() - entry.acquired_at
                with _registry_lock:
                    stats = _stats.setdefault(owner.name, _LockStats())
                    stats.hold_s += hold
                    stats.max_hold_s = max(stats.max_hold_s, hold)
            return


def _traced_reacquire_bookkeeping_only(
    owner: TracedLock | TracedRLock,
) -> None:
    """Push ``owner`` back on the held stack after a condition wait.

    The raw lock was re-acquired by ``Condition.wait`` itself; only the
    bookkeeping (stack entry, order edges from locks still held) needs
    replaying.
    """
    stack = _held.stack
    with _registry_lock:
        for entry in stack:
            if entry.owner is owner or entry.owner.name == owner.name:
                continue
            _edges.setdefault(entry.owner.name, set()).add(owner.name)
        stats = _stats.setdefault(owner.name, _LockStats())
        stats.acquisitions += 1
    stack.append(_Held(owner, nested=False))
