"""Frozen-snapshot enforcement: the runtime half of the immutability gate.

The engine's concurrency story rests on one invariant: a published
``_Snapshot`` — and every NumPy array, MBR, partition matrix and
solution-interval structure hanging off it — is deeply immutable, so
lock-free readers, the ε-cache's copy-on-write patching and cluster
scatter-gather can alias it freely.  This module makes that invariant
*enforceable* instead of aspirational:

* :func:`freeze` / :func:`deep_freeze` mark values immutable.  NumPy
  arrays are frozen in place (``flags.writeable = False`` — any later
  in-place write raises at the write site); lists and dicts are wrapped
  in lightweight read-only proxies (:class:`FrozenList`,
  :class:`FrozenDict`) whose mutating methods raise
  :class:`FrozenWriteViolation` naming the owning role and the site that
  published the value.
* :func:`frozen_view` returns a read-only view of an array without
  touching the caller's (possibly writable) base.
* :func:`verify_frozen` is the boundary check: with checks enabled it
  walks an object graph (snapshot, cache entry, index node, merge
  payload) and raises :class:`FrozenWriteViolation` if any reachable
  ndarray is still writable; disabled, it is one attribute read, like
  :mod:`repro.util.sync`.

Checks are **off by default**; they are the ``freeze`` check of
:mod:`repro.util.checks` (``REPRO_FREEZE_CHECKS``; "Runtime checks" in
``docs/static_analysis.md``).

The proxies intercept every *Python-level* mutation (``append``,
``update``, item assignment, ``sort`` …).  C extensions that bypass the
method table could still mutate the underlying storage — the proxies are
a sanitizer, not a security boundary; the array half (``writeable``
flag) is enforced by NumPy itself.

The static half of the gate is ``tools/repro_lint`` rules REP300–REP307;
ownership and boundary placement are documented in
``docs/immutability.md``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any, NoReturn, TypeVar, cast

import numpy as np

from repro.util.checks import FREEZE

__all__ = [
    "FrozenDict",
    "FrozenList",
    "FrozenWriteViolation",
    "deep_freeze",
    "freeze",
    "frozen_view",
    "verify_frozen",
]

_T = TypeVar("_T")


class FrozenWriteViolation(RuntimeError):
    """A mutation of (or a writable leak inside) a frozen structure.

    Raised by the read-only proxies on any mutating call, and by
    :func:`verify_frozen` when a boundary walk finds a still-writable
    array inside a structure that is about to be published.  Signals an
    aliasing bug in the library, never bad caller input.
    """

    def __init__(self, message: str, *, role: str = "", site: str = "") -> None:
        super().__init__(message)
        #: The ownership role of the violated structure (e.g.
        #: ``engine.snapshot``, ``cache.entry``, ``cluster.merge``).
        self.role = role
        #: The boundary that published/verified it (e.g.
        #: ``QueryEngine._commit``, ``EpsilonCache.store``).
        self.site = site


def _refuse(role: str, site: str, operation: str) -> NoReturn:
    raise FrozenWriteViolation(
        f"in-place {operation} on frozen structure owned by "
        f"'{role or 'unknown'}' (published at {site or 'unknown site'}); "
        "copy before mutating",
        role=role,
        site=site,
    )


class FrozenList(list[Any]):
    """A list whose Python-level mutators raise :class:`FrozenWriteViolation`.

    Subclassing ``list`` keeps the proxy transparent to consumers —
    iteration, indexing, ``json.dumps``, equality with plain lists and
    ``isinstance(x, list)`` all behave normally — while every mutating
    method names the owning role and publish site when it refuses.
    """

    def __init__(
        self, items: Any = (), *, role: str = "", site: str = ""
    ) -> None:
        super().__init__(items)
        self._role = role
        self._site = site

    def append(self, item: Any) -> NoReturn:
        _refuse(self._role, self._site, "append")

    def extend(self, items: Any) -> NoReturn:
        _refuse(self._role, self._site, "extend")

    def insert(self, index: Any, item: Any) -> NoReturn:
        _refuse(self._role, self._site, "insert")

    def remove(self, item: Any) -> NoReturn:
        _refuse(self._role, self._site, "remove")

    def pop(self, index: Any = -1) -> NoReturn:
        _refuse(self._role, self._site, "pop")

    def clear(self) -> NoReturn:
        _refuse(self._role, self._site, "clear")

    def sort(self, **kwargs: Any) -> NoReturn:
        _refuse(self._role, self._site, "sort")

    def reverse(self) -> NoReturn:
        _refuse(self._role, self._site, "reverse")

    def __setitem__(self, index: Any, value: Any) -> NoReturn:
        _refuse(self._role, self._site, "item assignment")

    def __delitem__(self, index: Any) -> NoReturn:
        _refuse(self._role, self._site, "item deletion")

    def __iadd__(self, items: Any) -> NoReturn:
        _refuse(self._role, self._site, "augmented assignment")

    def __imul__(self, factor: Any) -> NoReturn:
        _refuse(self._role, self._site, "augmented assignment")


class FrozenDict(dict[Any, Any]):
    """A dict whose Python-level mutators raise :class:`FrozenWriteViolation`.

    Same design as :class:`FrozenList`: transparent to readers (lookup,
    ``.get``, iteration, ``json.dumps``, equality with plain dicts),
    loud on any write.
    """

    def __init__(
        self, items: Any = (), *, role: str = "", site: str = ""
    ) -> None:
        super().__init__(items)
        self._role = role
        self._site = site

    def __setitem__(self, key: Any, value: Any) -> NoReturn:
        _refuse(self._role, self._site, "item assignment")

    def __delitem__(self, key: Any) -> NoReturn:
        _refuse(self._role, self._site, "item deletion")

    def pop(self, key: Any, *default: Any) -> NoReturn:
        _refuse(self._role, self._site, "pop")

    def popitem(self) -> NoReturn:
        _refuse(self._role, self._site, "popitem")

    def clear(self) -> NoReturn:
        _refuse(self._role, self._site, "clear")

    def update(self, *args: Any, **kwargs: Any) -> NoReturn:
        _refuse(self._role, self._site, "update")

    def setdefault(self, key: Any, default: Any = None) -> NoReturn:
        _refuse(self._role, self._site, "setdefault")

    def __ior__(self, other: Any) -> NoReturn:
        _refuse(self._role, self._site, "augmented assignment")


def freeze(value: _T, *, role: str = "", site: str = "") -> _T:
    """Shallow-freeze one value; returns it (or its read-only proxy).

    * ndarray — made read-only in place (``writeable = False``) and
      returned; every alias and view created *afterwards* inherits the
      flag, and in-place writes raise ``ValueError`` at the write site.
    * list / dict — wrapped in :class:`FrozenList` / :class:`FrozenDict`
      (contents shared, not copied).
    * set — converted to ``frozenset``.
    * anything else — returned unchanged.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
    if isinstance(value, (FrozenList, FrozenDict, frozenset)):
        return value
    if isinstance(value, list):
        return FrozenList(value, role=role, site=site)  # type: ignore[return-value]
    if isinstance(value, dict):
        return FrozenDict(value, role=role, site=site)  # type: ignore[return-value]
    if isinstance(value, set):
        return frozenset(value)  # type: ignore[return-value]
    return value


def deep_freeze(value: _T, *, role: str = "", site: str = "") -> _T:
    """Recursively freeze a structure; returns its frozen form.

    Arrays are frozen in place at every depth.  Lists and dicts are
    rebuilt as read-only proxies over deep-frozen contents (the original
    containers are left untouched — callers that still own them keep
    their mutable handle).  Tuples and sets are rebuilt as tuples and
    frozensets.  Other objects (dataclasses, library classes) are
    returned as-is after their reachable arrays have been frozen in
    place; their interior containers cannot be swapped for proxies
    without breaking ownership, so for object graphs the enforcement is
    the array flag plus :func:`verify_frozen` at the boundaries.
    """
    return cast(_T, _deep_freeze(value, role, site, set()))


def _deep_freeze(value: Any, role: str, site: str, seen: set[int]) -> Any:
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
    if value is None or isinstance(
        value, (str, bytes, int, float, bool, complex, np.generic)
    ):
        return value
    if id(value) in seen:
        return value
    seen.add(id(value))
    if isinstance(value, (FrozenList, FrozenDict)):
        return value
    if isinstance(value, dict):
        return FrozenDict(
            {
                key: _deep_freeze(item, role, site, seen)
                for key, item in value.items()
            },
            role=role,
            site=site,
        )
    if isinstance(value, list):
        return FrozenList(
            [_deep_freeze(item, role, site, seen) for item in value],
            role=role,
            site=site,
        )
    if isinstance(value, tuple):
        return tuple(_deep_freeze(item, role, site, seen) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    _freeze_reachable_arrays(value, seen)
    return value


def _freeze_reachable_arrays(value: Any, seen: set[int]) -> None:
    """Freeze (in place) every ndarray reachable from an object's fields."""
    for _, child in _iter_children(value):
        if isinstance(child, np.ndarray):
            child.setflags(write=False)
            continue
        if child is None or isinstance(
            child, (str, bytes, int, float, bool, complex, np.generic)
        ):
            continue
        if id(child) in seen:
            continue
        seen.add(id(child))
        if isinstance(child, (dict, Mapping)):
            for item in child.values():
                _freeze_leaf_or_recurse(item, seen)
        elif isinstance(child, (list, tuple, set, frozenset)):
            for item in child:
                _freeze_leaf_or_recurse(item, seen)
        else:
            _freeze_reachable_arrays(child, seen)


def _freeze_leaf_or_recurse(item: Any, seen: set[int]) -> None:
    if isinstance(item, np.ndarray):
        item.setflags(write=False)
        return
    if item is None or isinstance(
        item, (str, bytes, int, float, bool, complex, np.generic)
    ):
        return
    if id(item) in seen:
        return
    seen.add(id(item))
    if isinstance(item, (dict, Mapping)):
        for value in item.values():
            _freeze_leaf_or_recurse(value, seen)
    elif isinstance(item, (list, tuple, set, frozenset)):
        for value in item:
            _freeze_leaf_or_recurse(value, seen)
    else:
        _freeze_reachable_arrays(item, seen)


def frozen_view(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the base's writeability is untouched.

    The owner keeps its (possibly writable) handle; everything handed
    across a boundary goes through the view, so no consumer can write
    back through the alias.
    """
    view = array.view()
    view.setflags(write=False)
    return view


def _iter_children(value: Any) -> Iterator[tuple[str, Any]]:
    """``(label, child)`` pairs for the fields/items of one object."""
    if isinstance(value, (dict, Mapping)):
        for key, item in value.items():
            yield f"[{key!r}]", item
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for index, item in enumerate(value):
            yield f"[{index}]", item
        return
    attributes = getattr(value, "__dict__", None)
    if attributes is not None:
        for name, item in attributes.items():
            yield f".{name}", item
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                yield f".{slot}", getattr(value, slot)
            except AttributeError:
                continue


_OPAQUE = (
    str,
    bytes,
    int,
    float,
    bool,
    complex,
    np.generic,
    type,
)


def verify_frozen(value: _T, *, role: str, site: str) -> _T:
    """Boundary check: every reachable ndarray must be read-only.

    With checks disabled this is one attribute read and returns the
    value unchanged.  Enabled, it walks the object graph (containers,
    ``__dict__``/``__slots__`` objects, with cycle protection) and
    raises :class:`FrozenWriteViolation` naming the first writable array
    found, the owning ``role`` and the publishing ``site``.
    """
    if not FREEZE.on:
        return value
    _verify(value, role, role, site, set())
    return value


def _verify(value: Any, path: str, role: str, site: str, seen: set[int]) -> None:
    if isinstance(value, np.ndarray):
        if value.flags.writeable:
            raise FrozenWriteViolation(
                f"writable array at {path} crossed the frozen boundary "
                f"'{role}' (checked at {site}); freeze it before publishing",
                role=role,
                site=site,
            )
        return
    if value is None or isinstance(value, _OPAQUE):
        return
    if callable(value) and not hasattr(value, "__dict__"):
        return
    if id(value) in seen:
        return
    seen.add(id(value))
    for label, child in _iter_children(value):
        _verify(child, path + label, role, site, seen)
