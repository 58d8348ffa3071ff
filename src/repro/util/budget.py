"""Request budgets: deadlines that travel, shrink, and cancel work.

A production request does not have *a* timeout — it has a **budget** that
every hop spends from: queue wait at admission, network time between
coordinator and backend, backoff before a retry.  This module is the
transport-free core of that idea, placed in the ``util`` layer so the
``core`` search loops can observe a budget without importing the serving
stack upward (the same layering trick as :mod:`repro.util.faults`).

Two pieces:

* :class:`Deadline` — an absolute point on the monotonic clock plus a
  cooperative *cancel* flag.  ``Deadline.after(0.5)`` is "500 ms from
  now"; every hop asks :meth:`Deadline.remaining` and passes the shrunk
  value downstream, so a request that spent 300 ms queued arrives at the
  next hop with 200 ms, not a fresh 500.  :meth:`Deadline.cancel` marks
  the request abandoned (the caller gave up, a hedge won elsewhere) so
  in-flight work can stop burning CPU.
* **Cancellation scopes** — :func:`deadline_scope` installs a deadline
  for the current thread; :func:`checkpoint`, sprinkled through long
  loops (the engine's Phase 2/3 scans), raises
  :class:`OperationCancelled` the moment the active deadline is expired
  or cancelled.  With no scope installed a checkpoint is one
  thread-local read — cheap enough for per-candidate granularity.

The scope is per-thread (``threading.local``), not a context variable,
deliberately: the engine installs it *on the worker thread* that runs
the request body, exactly where the loops execute, and worker threads
never inherit the submitting thread's context anyway.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "Deadline",
    "OperationCancelled",
    "active_deadline",
    "checkpoint",
    "deadline_scope",
]


class OperationCancelled(Exception):
    """Cooperative cancellation fired inside a :func:`deadline_scope`.

    Raised by :func:`checkpoint` when the installed deadline is expired
    (the budget ran out mid-scan) or cancelled (the caller abandoned the
    request).  Not a :class:`~repro.service.errors.ServiceError` —
    this module sits below the serving layer; the engine maps it to the
    typed ``DeadlineExceeded`` at its boundary.
    """

    def __init__(
        self, message: str, *, expired: bool = False, cancelled: bool = False
    ) -> None:
        super().__init__(message)
        #: The budget ran out (``remaining() <= 0``).
        self.expired = expired
        #: The request was explicitly abandoned via :meth:`Deadline.cancel`.
        self.cancelled = cancelled


class Deadline:
    """An absolute monotonic expiry plus a cooperative cancel flag.

    ``expires_at`` is a :func:`time.monotonic` timestamp, or ``None`` for
    an unbounded request (still cancellable).  The cancel flag is a
    monotonic boolean latch — it only ever flips ``False -> True`` — so
    reads and the write race benignly without a lock.
    """

    __slots__ = ("expires_at", "_cancelled")

    def __init__(self, expires_at: float | None) -> None:
        #: Monotonic-clock expiry, or ``None`` when unbounded.
        self.expires_at = expires_at
        self._cancelled = False

    @classmethod
    def after(cls, budget: float | None) -> "Deadline":
        """A deadline ``budget`` seconds from now (``None`` = unbounded).

        ``budget`` must be finite and positive: an infinite one is spelled
        ``None``, and a NaN would make a deadline that never expires.
        """
        if budget is None:
            return cls(None)
        if not math.isfinite(budget) or budget <= 0:
            raise ValueError(f"budget must be finite and positive, got {budget}")
        return cls(time.monotonic() + budget)

    def remaining(self) -> float | None:
        """Seconds of budget left (may be <= 0), ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the budget has run out (cancellation not included)."""
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def cancel(self) -> None:
        """Mark the request abandoned; checkpoints will stop its work."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._cancelled

    def done(self) -> bool:
        """Expired *or* cancelled — "no point doing more work"."""
        return self._cancelled or self.expired()

    def clamp(self, timeout: float | None) -> float | None:
        """``timeout`` shrunk to the remaining budget.

        ``None`` on both sides means unbounded; a non-positive result is
        returned as-is so callers can distinguish "already expired"
        (``<= 0``) from "no constraint" (``None``).
        """
        remaining = self.remaining()
        if remaining is None:
            return timeout
        if timeout is None:
            return remaining
        return min(timeout, remaining)

    def __repr__(self) -> str:
        remaining = self.remaining()
        state = "cancelled" if self._cancelled else (
            "unbounded" if remaining is None else f"{remaining:.3f}s left"
        )
        return f"<Deadline {state}>"


class _Scope(threading.local):
    """The per-thread stack of installed deadlines (innermost last)."""

    def __init__(self) -> None:
        self.stack: list[Deadline] = []


_scope = _Scope()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Install ``deadline`` for :func:`checkpoint` calls on this thread.

    ``None`` installs nothing (so callers need no conditional); scopes
    nest, with the innermost deadline governing.
    """
    if deadline is None:
        yield
        return
    _scope.stack.append(deadline)
    try:
        yield
    finally:
        _scope.stack.pop()


def active_deadline() -> Deadline | None:
    """The innermost deadline installed on this thread, if any."""
    stack = _scope.stack
    return stack[-1] if stack else None


def checkpoint(site: str = "") -> None:
    """Raise :class:`OperationCancelled` if the active deadline is done.

    The cooperative-cancellation probe: call it at the top of any loop
    iteration that may run long.  With no scope installed (or a healthy
    deadline) this is a thread-local read plus at most one clock read.
    """
    stack = _scope.stack
    if not stack:
        return
    deadline = stack[-1]
    if deadline.cancelled:
        raise OperationCancelled(
            f"request abandoned at checkpoint {site or '<unnamed>'}",
            cancelled=True,
        )
    if deadline.expired():
        raise OperationCancelled(
            f"budget exhausted at checkpoint {site or '<unnamed>'}",
            expired=True,
        )
