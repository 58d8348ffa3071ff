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
registration.  Third-party backends can register their own factories::

    from repro.core.backends import register_index_backend

    register_index_backend(
        "mytree",
        factory=lambda dimension, max_entries: MyTree(dimension),
    )

There are two families.  A *tree* backend holds ``(MBR, payload)`` leaf
entries the database inserts and deletes one by one (or bulk-loads): the
paper's §3.4.1 substrate.  An *array-backed* backend (``table_factory``)
is derived from the database's segment table — the corner arrays, not one
object per segment — and answers Phase 2 for all of a query's MBRs in one
call; ``"packed"``, the database's default, is one.
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    import numpy as np

    from repro.core.mbr import MBR

__all__ = [
    "ArrayIndexBackend",
    "IndexBackend",
    "IndexBackendSpec",
    "IndexCounters",
    "IndexEntry",
    "TreeIndexBackend",
    "available_backends",
    "bulk_build_index",
    "create_index",
    "deserialize_index",
    "get_backend",
    "register_index_backend",
    "serialize_index",
]

#: Module imported (lazily, by name) to register the default backends.
_DEFAULT_PROVIDER_MODULE = "repro.index"


class IndexEntry(Protocol):
    """One leaf entry returned by an index probe."""

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
    with ``Dmbr <= epsilon``, as a sized collection — leaf entries of a
    tree, ``(sequence row, segment index)`` pairs of an array-backed
    index.  ``stats.node_accesses`` grows with every probe.
    """

    @property
    def stats(self) -> IndexCounters: ...

    def search_within(
        self, query_mbr: MBR, epsilon: float
    ) -> Collection[object]: ...

    def __len__(self) -> int: ...


class TreeIndexBackend(IndexBackend, Protocol):
    """A tree of ``(MBR, payload)`` leaf entries the database maintains.

    Any object with these methods can serve as a ``SequenceDatabase``
    index; the R-tree family in :mod:`repro.index` provides three.
    """

    def insert(self, mbr: MBR, payload: object) -> None: ...

    def delete(self, mbr: MBR, payload: object) -> bool: ...

    def search_within(
        self, query_mbr: MBR, epsilon: float
    ) -> Collection[IndexEntry]: ...


class ArrayIndexBackend(IndexBackend, Protocol):
    """An index derived from the segment table's arrays.

    Immutable: a write yields a successor through the backend's
    ``table_factory``, never a change to this object.
    """

    def candidate_rows(
        self, lows: np.ndarray, highs: np.ndarray, epsilon: float
    ) -> tuple[np.ndarray, int]:
        """Phase 2 for all probes ``(lows[i], highs[i])`` at once: the
        ascending table rows of the sequences owning an entry within
        ``epsilon`` of some probe, and the node accesses spent."""
        ...


#: ``factory(dimension, max_entries) -> TreeIndexBackend``
Factory = Callable[[int, int], TreeIndexBackend]
#: ``bulk_factory(items, dimension, max_entries) -> TreeIndexBackend``
BulkFactory = Callable[
    [Sequence[tuple["MBR", object]], int, int], TreeIndexBackend
]
#: ``table_factory(low_columns, high_columns, sequence_offsets, previous,
#: written_rows) -> ArrayIndexBackend`` — the index of a segment table
#: given by its column-major ``(n, S)`` corner arrays and the ``(N + 1,)``
#: first segment of each sequence row.  ``previous`` is the index of the
#: table this one was written from (``None``: build anew) and
#: ``written_rows`` the rows added or rewritten since; rows may only have
#: been appended or rewritten in place between the two, never removed.
TableFactory = Callable[
    [
        "np.ndarray",
        "np.ndarray",
        "np.ndarray",
        "ArrayIndexBackend | None",
        Sequence[int],
    ],
    ArrayIndexBackend,
]
#: ``dumps(index) -> bytes`` — flat persistence of a built index.
Dumps = Callable[[TreeIndexBackend], bytes]
#: ``loads(data) -> TreeIndexBackend`` — inverse of ``Dumps``.
Loads = Callable[[bytes], TreeIndexBackend]


@dataclass(frozen=True)
class IndexBackendSpec:
    """How to build one kind of index.

    Attributes
    ----------
    name:
        Registry key (the database's ``index_kind``).
    factory:
        Builds an empty, incrementally-updatable index; ``None`` for
        bulk-only backends.
    bulk_factory:
        Builds a packed index from all items at once; ``None`` falls back
        to ``factory`` plus an insert loop.
    table_factory:
        Makes the backend array-backed: it derives the index from the
        segment table's arrays (see :data:`TableFactory`) and the database
        builds no ``(MBR, payload)`` entries for it at all.
    incremental:
        Whether the backend supports in-place insert/delete.  Bulk-only
        backends (STR packing) are rebuilt lazily by the database instead.
    dumps / loads:
        Optional flat-serialisation pair: ``dumps`` turns a built index
        into bytes and ``loads`` restores it with identical layout.  When
        present, :meth:`~repro.core.database.SequenceDatabase.save` embeds
        the serialised tree so :meth:`~SequenceDatabase.load` can skip
        index construction entirely (the startup path of ``repro serve``).
    """

    name: str
    factory: Factory | None
    bulk_factory: BulkFactory | None = None
    incremental: bool = True
    dumps: Dumps | None = None
    loads: Loads | None = None
    table_factory: TableFactory | None = None

    def __post_init__(self) -> None:
        if self.table_factory is not None:
            if (
                self.factory or self.bulk_factory or self.dumps or self.incremental
            ):
                raise ValueError(
                    f"array-backed backend {self.name!r} takes a "
                    f"table_factory alone (incremental=False)"
                )
            return
        if self.factory is None and self.bulk_factory is None:
            raise ValueError(
                f"backend {self.name!r} needs a factory or a bulk_factory"
            )
        if self.incremental and self.factory is None:
            raise ValueError(
                f"incremental backend {self.name!r} needs a factory"
            )
        if (self.dumps is None) != (self.loads is None):
            raise ValueError(
                f"backend {self.name!r} must provide dumps and loads "
                f"together (or neither)"
            )


_REGISTRY: dict[str, IndexBackendSpec] = {}
_REGISTRY_LOCK = threading.Lock()
_DEFAULTS_LOADED = False


def register_index_backend(
    name: str,
    factory: Factory | None = None,
    *,
    bulk_factory: BulkFactory | None = None,
    incremental: bool = True,
    dumps: Dumps | None = None,
    loads: Loads | None = None,
    table_factory: TableFactory | None = None,
) -> IndexBackendSpec:
    """Register (or replace) an index backend under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    spec = IndexBackendSpec(
        name=name,
        factory=factory,
        bulk_factory=bulk_factory,
        incremental=incremental,
        dumps=dumps,
        loads=loads,
        table_factory=table_factory,
    )
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


def create_index(
    name: str, dimension: int, *, max_entries: int
) -> TreeIndexBackend:
    """Build an empty incremental index of the given kind."""
    spec = get_backend(name)
    if spec.factory is None:
        raise ValueError(
            f"backend {name!r} is bulk-only and cannot build an empty "
            f"incremental index"
        )
    return spec.factory(dimension, max_entries)


def bulk_build_index(
    name: str,
    items: Iterable[tuple[MBR, object]],
    dimension: int,
    *,
    max_entries: int,
) -> TreeIndexBackend:
    """Build a tree index of the given kind holding ``items``.

    Uses the backend's bulk loader when it has one; otherwise creates an
    empty index and inserts item by item.
    """
    spec = get_backend(name)
    materialised = list(items)
    if spec.bulk_factory is not None:
        return spec.bulk_factory(materialised, dimension, max_entries)
    index = create_index(name, dimension, max_entries=max_entries)
    for mbr, payload in materialised:
        index.insert(mbr, payload)
    return index


def serialize_index(name: str, index: TreeIndexBackend) -> bytes | None:
    """Flat-serialise a built index, or ``None`` if the backend can't.

    The bytes round-trip through :func:`deserialize_index` with identical
    node layout, so query results and node-access counts are preserved.
    """
    spec = get_backend(name)
    if spec.dumps is None:
        return None
    return spec.dumps(index)


def deserialize_index(name: str, data: bytes) -> TreeIndexBackend:
    """Restore an index serialised by :func:`serialize_index`."""
    spec = get_backend(name)
    if spec.loads is None:
        raise ValueError(
            f"backend {name!r} does not support flat deserialisation"
        )
    return spec.loads(data)
