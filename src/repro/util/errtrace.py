"""Swallowed-error detection: the runtime half of the error-path gate.

The serving stack's failure story rests on two invariants.  First,
*cancellation always propagates*: once a request's budget is spent, an
``OperationCancelled`` (or the ``DeadlineExceeded`` it is translated
into at the engine boundary) must reach the caller — an ``except`` block
that eats one turns a bounded request into silent wasted work.  Second,
*typed-error translation keeps provenance*: when a layer rebuilds a
lower layer's failure as one of the ``repro.service.errors`` types, the
original must ride along as ``__cause__`` so operators see the real
fault, not just its final costume.

This module makes both invariants *observable* instead of aspirational.
Instrumented catch-sites call one of three primitives:

* :func:`record_swallowed` — an ``except`` block that intentionally
  absorbs the error (a keep-tailing loop, a bench worker counting
  failures).  With checks enabled the swallow is counted per site, and
  swallowing a cancellation/budget type raises
  :class:`SwallowedErrorViolation` unless the site declared
  ``cancellation_ok=True`` (a loop whose *job* is to outlive errors).
* :func:`translated` — a typed-error rebuild (``raise translated(err,
  DeadlineExceeded(...), ...) from err``).  Counted per site; a
  translation with no caught original is a violation, and with checks
  enabled the ``__cause__`` chain is established even if a call-site
  forgets ``from``.
* :func:`record_propagated` — an error crossing a reporting boundary
  (the HTTP handler mapping it to a status code).  Counted per site;
  an error that was raised *during* handling of another without an
  explicit ``from`` (implicit ``__context__``, no ``__cause__``) is
  counted in the ``unchained`` bucket — a provenance leak the REP402
  lint should have caught statically.

Checks are **off by default**: every primitive's disabled path is a
single attribute read (benchmarked in
``benchmarks/bench_checks_overhead.py``).  They are the ``errors`` check
of :mod:`repro.util.checks` (``REPRO_ERROR_CHECKS``; "Runtime checks" in
``docs/static_analysis.md``).  :func:`error_stats` snapshots the
per-site counters; the engine folds it into ``stats()`` as the
``errors`` block.

The static half of the gate is ``tools/repro_lint`` rules REP400–REP407;
the taxonomy-to-HTTP mapping the instrumented sites protect is
documented in ``docs/errors.md``.
"""

from __future__ import annotations

import threading
from typing import TypeVar

from repro.util.checks import ERRORS

__all__ = [
    "SwallowedErrorViolation",
    "error_stats",
    "record_propagated",
    "record_swallowed",
    "translated",
]

_E = TypeVar("_E", bound=BaseException)

#: Class names (matched across the MRO, so subclasses count) that an
#: ``except`` block may never absorb: cancellation must propagate.
#: Name-based so ``util`` never imports the serving layer's taxonomy.
_NEVER_SWALLOW = frozenset({"OperationCancelled", "DeadlineExceeded"})

_EVENTS = ("swallowed", "translated", "propagated", "unchained")


class SwallowedErrorViolation(RuntimeError):
    """An error-path invariant broke at an instrumented catch-site.

    Raised when a catch-site swallows a cancellation/budget error it did
    not declare itself safe for, or when a typed-error translation has
    no caught original to chain from.  Signals an error-handling bug in
    the library, never bad caller input.
    """

    def __init__(self, message: str, *, role: str = "", site: str = "") -> None:
        super().__init__(message)
        #: The handling role of the violating catch-site (e.g.
        #: ``bench.worker``, ``follower.tail``, ``http.boundary``).
        self.role = role
        #: The instrumented site (e.g. ``run_closed_loop``,
        #: ``WalFollower.run``, ``client._raise_typed``).
        self.site = site


_state_lock = threading.Lock()
_counters: dict[str, dict[str, int]] = {}


def _clear() -> None:
    with _state_lock:
        _counters.clear()


def error_stats() -> dict[str, dict[str, int]]:
    """Per-site ``{swallowed, translated, propagated, unchained}`` counts.

    Sites appear once they record their first event; the snapshot is a
    deep copy, safe to publish through ``stats()``.
    """
    with _state_lock:
        return {site: dict(events) for site, events in _counters.items()}


ERRORS.clear = _clear
ERRORS.stats = error_stats


def _count(site: str, event: str) -> None:
    with _state_lock:
        events = _counters.get(site)
        if events is None:
            events = dict.fromkeys(_EVENTS, 0)
            _counters[site] = events
        events[event] += 1


def _is_never_swallow(error: BaseException) -> bool:
    return any(
        klass.__name__ in _NEVER_SWALLOW for klass in type(error).__mro__
    )


def record_swallowed(
    error: BaseException,
    *,
    role: str = "",
    site: str = "",
    cancellation_ok: bool = False,
) -> None:
    """An ``except`` block absorbed ``error`` on purpose.

    Disabled, this is one attribute read.  Enabled, the swallow is
    counted for ``site``; absorbing a cancellation/budget type
    (``OperationCancelled``, ``DeadlineExceeded``) raises
    :class:`SwallowedErrorViolation` unless the site passed
    ``cancellation_ok=True`` — reserved for loops that must outlive
    every failure (a follower tail, an operator probe sweep) and whose
    waiver comment says so.
    """
    if not ERRORS.on:
        return
    _count(site, "swallowed")
    if not cancellation_ok and _is_never_swallow(error):
        raise SwallowedErrorViolation(
            f"catch-site '{site}' (role '{role}') swallowed a "
            f"{type(error).__name__}; cancellation/budget errors must "
            "propagate to the caller",
            role=role,
            site=site,
        )


def translated(
    original: BaseException | None,
    replacement: _E,
    *,
    role: str = "",
    site: str = "",
) -> _E:
    """A typed-error rebuild of ``original``; returns ``replacement``.

    Use as ``raise translated(err, TypedError(...), ...) from err`` so
    the provenance chain is explicit in the source (what REP402 checks
    statically).  Disabled, this is one attribute read.  Enabled, the
    translation is counted for ``site``; a translation with no caught
    original raises :class:`SwallowedErrorViolation`, and the
    ``__cause__`` chain is established here as well, so provenance
    survives even a call-site that forgot ``from``.
    """
    if not ERRORS.on:
        return replacement
    _count(site, "translated")
    if original is None:
        raise SwallowedErrorViolation(
            f"catch-site '{site}' (role '{role}') built a "
            f"{type(replacement).__name__} translation with no caught "
            "original to chain from",
            role=role,
            site=site,
        )
    if replacement.__cause__ is None and replacement is not original:
        replacement.__cause__ = original
    return replacement


def record_propagated(
    error: BaseException, *, role: str = "", site: str = ""
) -> None:
    """``error`` crossed a reporting boundary (surfaced, not swallowed).

    Disabled, this is one attribute read.  Enabled, the propagation is
    counted for ``site``; an error raised *during* handling of another
    without an explicit ``from`` (``__context__`` set, ``__cause__``
    unset, context not suppressed) is additionally counted in the
    ``unchained`` bucket — provenance was dropped somewhere upstream.
    """
    if not ERRORS.on:
        return
    _count(site, "propagated")
    if (
        error.__context__ is not None
        and error.__cause__ is None
        and not error.__suppress_context__
    ):
        _count(site, "unchained")
