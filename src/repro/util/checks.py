"""One switch for the four runtime checks.

The library carries four opt-in sanitizers, each off by default:

* ``contracts`` — the paper's lower-bound validators
  (:mod:`repro.core.contracts`), switched by ``REPRO_CHECK_CONTRACTS``;
* ``sync`` — the lock-order sanitizer (:mod:`repro.util.sync`),
  ``REPRO_SYNC_CHECKS``;
* ``freeze`` — frozen-boundary checks (:mod:`repro.util.freeze`),
  ``REPRO_FREEZE_CHECKS``;
* ``errors`` — swallowed-error detection (:mod:`repro.util.errtrace`),
  ``REPRO_ERROR_CHECKS``.

This module owns their on/off state and nothing else.  Each switch is
read from its environment variable (``1``/``true``/``yes``/``on``,
case-insensitive) at import and by :func:`reset_checks`, and
:func:`checking` turns named checks on for a scope.  The scope is
process-global, not a context variable: the checked code runs on engine
workers, writer and tail threads that never inherit a caller's context.

A checked call site reads its :class:`Check`'s ``on`` attribute and
nothing more, so a disabled check costs one attribute read.  The
per-check semantics live in the four modules; ``docs/static_analysis.md``
("Runtime checks") is the reference for all of them.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = [
    "CONTRACTS",
    "Check",
    "ERRORS",
    "FREEZE",
    "SYNC",
    "check_stats",
    "checking",
    "enabled",
    "reset_checks",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class Check:
    """The switch of one named runtime check."""

    __slots__ = ("name", "env_var", "on", "scopes", "clear", "stats")

    def __init__(self, name: str, env_var: str) -> None:
        self.name = name
        self.env_var = env_var
        #: Open :func:`checking` scopes naming this check.
        self.scopes = 0
        #: Whether the check runs; the only field a checked call site reads.
        self.on = self.from_env()
        #: Set by the owning module: forget what the check has recorded.
        self.clear: Callable[[], None] = lambda: None
        #: Set by the owning module: a copy of what the check has recorded.
        self.stats: Callable[[], dict[str, Any]] = dict

    def from_env(self) -> bool:
        """Whether the environment switches this check on."""
        return os.environ.get(self.env_var, "").strip().lower() in _TRUTHY


CONTRACTS = Check("contracts", "REPRO_CHECK_CONTRACTS")
SYNC = Check("sync", "REPRO_SYNC_CHECKS")
FREEZE = Check("freeze", "REPRO_FREEZE_CHECKS")
ERRORS = Check("errors", "REPRO_ERROR_CHECKS")

_CHECKS = {check.name: check for check in (CONTRACTS, SYNC, FREEZE, ERRORS)}

# A leaf lock: nothing is acquired while holding it.
_lock = threading.Lock()


def _named(names: tuple[str, ...]) -> list[Check]:
    unknown = [name for name in names if name not in _CHECKS]
    if unknown or not names:
        raise ValueError(
            f"expected check names among {sorted(_CHECKS)}, got {list(names)}"
        )
    return [_CHECKS[name] for name in names]


def enabled(name: str) -> bool:
    """Whether the check called ``name`` is on."""
    return _named((name,))[0].on


@contextmanager
def checking(*names: str) -> Iterator[None]:
    """Turn the named checks on for the ``with`` block (nestable).

    Process-wide: every thread sees the checks on until the outermost
    scope naming them exits, when each falls back to its environment
    switch.
    """
    chosen = _named(names)
    with _lock:
        for check in chosen:
            check.scopes += 1
            check.on = True
    try:
        yield
    finally:
        with _lock:
            for check in chosen:
                check.scopes -= 1
                check.on = check.scopes > 0 or check.from_env()


def reset_checks() -> None:
    """Re-read the four environment switches and clear recorded state.

    Clears the lock-order graph, the lock statistics and the calling
    thread's held-lock stack (``sync``), and the per-site error counters
    (``errors``).  For test isolation; open :func:`checking` scopes stay
    in force.
    """
    with _lock:
        for check in _CHECKS.values():
            check.on = check.scopes > 0 or check.from_env()
    for check in _CHECKS.values():
        check.clear()


def check_stats() -> dict[str, dict[str, Any]]:
    """What the stateful checks have recorded: ``{"sync": …, "errors": …}``.

    ``sync`` maps lock names to acquisition statistics, ``errors`` maps
    catch-sites to event counts; both are copies, and empty until their
    check has been on.
    """
    return {"sync": SYNC.stats(), "errors": ERRORS.stats()}
