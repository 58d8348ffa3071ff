"""Opt-in runtime verification of the paper's lower-bound contracts.

The correctness of the whole search rests on the inequality chain of
Lemmas 1-3::

    min Dmbr  <=  min Dnorm  <=  D(Q, S)

If any rewrite of the distance kernels breaks one of these bounds, pruning
silently starts to *dismiss relevant sequences* — the worst failure mode a
similarity-search system has, and one no unit test of the rewritten code
alone will catch.  This module provides the machinery to verify the bounds
*at call time* against independently recomputed values:

* :func:`lower_bounds` — a decorator factory attaching a validator to a
  function.  The validator only runs while the ``contracts`` check is on
  (:mod:`repro.util.checks`; "Runtime checks" in
  ``docs/static_analysis.md``); off, the default, it costs one attribute
  read per call.

Violations raise :class:`ContractViolation` (a ``RuntimeError``: the library
itself is in an inconsistent state, not the caller's arguments).

The decorators are applied in :mod:`repro.core.distance`,
:mod:`repro.core.search` and :mod:`repro.core.solution_interval`; the public
analysis-facing surface (including audit helpers) is
:mod:`repro.analysis.contracts`.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any, TypeVar

from repro.util.checks import CONTRACTS

__all__ = ["BOUND_TOLERANCE", "ContractViolation", "lower_bounds"]

_F = TypeVar("_F", bound=Callable[..., Any])

#: Absolute slack allowed when comparing two independently computed floats.
#: The bounds are exact in real arithmetic; the tolerance only absorbs
#: round-off between different summation orders.
BOUND_TOLERANCE = 1e-9


class ContractViolation(RuntimeError):
    """A verified lower-bound (or structural) contract does not hold.

    Raised only while contract checking is enabled; signals a bug in the
    library's pruning/distance layer, never bad caller input.
    """


def lower_bounds(
    validator: Callable[..., None], *, label: str | None = None
) -> Callable[[_F], _F]:
    """Attach a call-time validator to a function.

    Parameters
    ----------
    validator:
        Called as ``validator(result, *args, **kwargs)`` after every
        invocation of the wrapped function while checking is enabled; must
        raise :class:`ContractViolation` on a broken bound.
    label:
        Optional human-readable contract name (defaults to the validator's
        ``__name__``), exposed as ``__contract_label__`` on the wrapper.

    Notes
    -----
    The wrapped function's behaviour is unchanged: the validator sees the
    result but cannot alter it, and when checking is disabled the only
    cost is one attribute read.
    """

    def decorate(func: _F) -> _F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            if CONTRACTS.on:
                validator(result, *args, **kwargs)
            return result

        wrapper.__contract_validator__ = validator  # type: ignore[attr-defined]
        wrapper.__contract_label__ = (  # type: ignore[attr-defined]
            label if label is not None else validator.__name__
        )
        return wrapper  # type: ignore[return-value]

    return decorate
