"""Index-backend registry: dependency inversion between ``core`` and ``index``.

The layered architecture (enforced by ``tools/repro_lint`` rule REP105)
forbids ``core`` from importing ``repro.index`` — the spatial index is a
*plugin* of the data model, not a dependency.  This module is the seam:
``core.database`` asks the registry for an index by name, and
``repro.index`` registers its implementations when it is imported.

For plain library use nothing changes: the registry lazily imports
``repro.index`` (by module *name*, the one sanctioned direction-free
mechanism) the first time an unknown backend is requested, so
``SequenceDatabase(dimension=3)`` keeps working without any explicit
registration.  Third-party backends register a build function::

    from repro.core.backends import register_index_backend

    register_index_backend(
        "mytree",
        lambda database, previous, written: MyTree(database.partitions()),
    )

Every index is derived state: the database never changes one in place.
It asks the backend for the index of what it stores *now*
(:data:`Build`), keeps the result until the next write, and shares it with
its clones.  The R-tree kinds (the paper's §3.4.1 substrate) are built
anew each time; ``"packed"``, the database's default, advances from its
predecessor.
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:
    import numpy as np

    from repro.core.database import SequenceDatabase
    from repro.core.mbr import MBR

__all__ = [
    "ArrayIndexBackend",
    "Build",
    "IndexBackend",
    "IndexBackendSpec",
    "IndexCounters",
    "IndexEntry",
    "available_backends",
    "get_backend",
    "register_index_backend",
]

#: Module imported (lazily, by name) to register the default backends.
_DEFAULT_PROVIDER_MODULE = "repro.index"


class IndexEntry(Protocol):
    """One leaf entry returned by a tree probe; the database reads
    ``payload.sequence_id`` (a :class:`~repro.core.database.SegmentKey`)."""

    @property
    def mbr(self) -> MBR: ...

    @property
    def payload(self) -> object: ...


class IndexCounters(Protocol):
    """The access counters an index carries across probes."""

    node_accesses: int


class IndexBackend(Protocol):
    """What ``SequenceDatabase.index`` offers whatever the kind.

    ``search_within`` is the Phase-2 probe for one rectangle: the entries
    with ``Dmbr <= epsilon``, as a sized collection — :class:`IndexEntry`
    leaf entries of a tree, ``(sequence row, segment index)`` pairs of an
    array-backed index.  ``stats.node_accesses`` grows with every probe.
    """

    @property
    def stats(self) -> IndexCounters: ...

    def search_within(
        self, query_mbr: MBR, epsilon: float
    ) -> Collection[Any]: ...

    def __len__(self) -> int: ...


class ArrayIndexBackend(IndexBackend, Protocol):
    """An index that answers Phase 2 for a whole query in one call; the
    database probes any other kind once per query MBR."""

    def candidate_rows(
        self, lows: np.ndarray, highs: np.ndarray, epsilon: float
    ) -> tuple[np.ndarray, int]:
        """Phase 2 for all probes ``(lows[i], highs[i])`` at once: the
        ascending table rows of the sequences owning an entry within
        ``epsilon`` of some probe, and the node accesses spent."""
        ...


#: ``build(database, previous, written) -> IndexBackend`` — the index of
#: what ``database`` stores now: its ``partitions()`` in insertion order,
#: or its ``segment_table``.  ``previous`` is the index last derived for
#: this database or the one it was cloned from (``None``: there is none,
#: or a sequence was removed since) and ``written`` the ids added or
#: appended to since then, oldest first; a kind that cannot advance from
#: its predecessor ignores both.  ``previous`` is shared with clones, so a
#: build reads it and never changes it.
Build = Callable[
    ["SequenceDatabase", "IndexBackend | None", Sequence[object]], IndexBackend
]


@dataclass(frozen=True)
class IndexBackendSpec:
    """One kind of index: its registry key (the database's ``index_kind``)
    and how it is built (see :data:`Build`)."""

    name: str
    build: Build


_REGISTRY: dict[str, IndexBackendSpec] = {}
_REGISTRY_LOCK = threading.Lock()
_DEFAULTS_LOADED = False


def register_index_backend(name: str, build: Build) -> IndexBackendSpec:
    """Register (or replace) an index backend under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    spec = IndexBackendSpec(name=name, build=build)
    with _REGISTRY_LOCK:
        _REGISTRY[name] = spec
    return spec


def _ensure_default_backends() -> None:
    """Import the default provider module once so it can self-register."""
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    with _REGISTRY_LOCK:
        if _DEFAULTS_LOADED:
            return
        _DEFAULTS_LOADED = True
    importlib.import_module(_DEFAULT_PROVIDER_MODULE)


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    _ensure_default_backends()
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> IndexBackendSpec:
    """The spec registered under ``name``; raises ``ValueError`` if absent."""
    _ensure_default_backends()
    with _REGISTRY_LOCK:
        spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"index_kind must be one of {available_backends()}, got {name!r}"
        )
    return spec
