"""Flat serialisation of R-trees to ``.npz`` archives.

:meth:`repro.core.database.SequenceDatabase.save` rebuilds its index from
the raw sequences on load, which is simple but pays the full construction
cost again.  For large corpora this module persists the *tree structure
itself*: nodes are flattened breadth-first into parallel arrays (level,
kind, child ranges) with the rectangle coordinates in one matrix, and leaf
payloads pickled alongside.

Round-tripping preserves node layout exactly, so query results *and*
node-access counts are identical before and after.

Security note: the payload column is pickled (payloads are Python objects,
e.g. :class:`~repro.core.database.SegmentKey`), and ``pickle.loads`` on
untrusted bytes is arbitrary code execution.  Loading therefore goes
through a restricted :class:`pickle.Unpickler` whose ``find_class`` admits
only :class:`~repro.core.database.SegmentKey` plus stdlib/numpy primitive
constructors (:data:`SAFE_PICKLE_GLOBALS`); any other global — including
``os.system``, ``subprocess`` helpers or ``__reduce__`` gadgets — raises
``pickle.UnpicklingError`` before it is resolved.  Archives holding exotic
payload types are *not* loadable by design; extend
:data:`SAFE_PICKLE_GLOBALS` deliberately if you add one.
"""

from __future__ import annotations

import io
import pickle
from typing import TYPE_CHECKING

import numpy as np

from repro.core.mbr import MBR
from repro.index.node import LeafEntry, Node
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.util.freeze import freeze_checks_enabled, verify_frozen

if TYPE_CHECKING:
    import os
    from typing import IO

    TreeSink = "str | os.PathLike[str] | IO[bytes]"

__all__ = [
    "SAFE_PICKLE_GLOBALS",
    "dumps_tree",
    "load_tree",
    "loads_tree",
    "save_tree",
]

_KINDS = {"RTree": RTree, "RStarTree": RStarTree}

#: ``(module, qualname)`` pairs the payload unpickler may resolve.  The
#: leaf payloads the library itself writes are ``SegmentKey`` instances
#: whose fields are ``str``/``int``, so this list is deliberately tiny;
#: the numpy entries cover payloads that captured numpy scalars.
SAFE_PICKLE_GLOBALS: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro.core.database", "SegmentKey"),
        ("builtins", "bool"),
        ("builtins", "bytes"),
        ("builtins", "complex"),
        ("builtins", "dict"),
        ("builtins", "float"),
        ("builtins", "frozenset"),
        ("builtins", "int"),
        ("builtins", "list"),
        ("builtins", "set"),
        ("builtins", "str"),
        ("builtins", "tuple"),
        ("numpy", "dtype"),
        ("numpy", "ndarray"),
        ("numpy.core.multiarray", "_reconstruct"),
        ("numpy.core.multiarray", "scalar"),
        ("numpy._core.multiarray", "_reconstruct"),
        ("numpy._core.multiarray", "scalar"),
    }
)


class _RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that only resolves :data:`SAFE_PICKLE_GLOBALS`."""

    def find_class(self, module: str, name: str) -> object:
        if (module, name) in SAFE_PICKLE_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"payload pickle references forbidden global {module}.{name}; "
            f"only SegmentKey and stdlib/numpy primitives are loadable"
        )


def _restricted_loads(data: bytes) -> list:
    """Unpickle the payload column through the restricted unpickler."""
    payloads = _RestrictedUnpickler(io.BytesIO(data)).load()
    if not isinstance(payloads, list):
        raise pickle.UnpicklingError(
            f"payload column must unpickle to a list, got "
            f"{type(payloads).__name__}"
        )
    return payloads


def save_tree(tree: RTree, path: TreeSink) -> None:
    """Serialise a (non-empty or empty) R-tree to ``path`` (.npz)."""
    if type(tree).__name__ not in _KINDS:
        raise TypeError(
            f"cannot serialise {type(tree).__name__}; expected one of "
            f"{sorted(_KINDS)}"
        )

    # Breadth-first flattening: children of node i occupy a contiguous run.
    nodes: list[Node] = [tree.root]
    for node in nodes:  # grows while iterating: BFS
        if not node.is_leaf:
            nodes.extend(node.children)

    node_count = len(nodes)
    index_of = {id(node): position for position, node in enumerate(nodes)}
    levels = np.empty(node_count, dtype=np.int64)
    is_leaf = np.empty(node_count, dtype=np.bool_)
    child_start = np.zeros(node_count, dtype=np.int64)
    child_count = np.zeros(node_count, dtype=np.int64)
    first_child = np.full(node_count, -1, dtype=np.int64)

    entry_lows: list[tuple[float, ...]] = []
    entry_highs: list[tuple[float, ...]] = []
    payloads: list = []

    for position, node in enumerate(nodes):
        levels[position] = node.level
        is_leaf[position] = node.is_leaf
        child_count[position] = len(node.children)
        if node.is_leaf:
            child_start[position] = len(payloads)
            for entry in node.children:
                entry_lows.append(entry.mbr.low_tuple)
                entry_highs.append(entry.mbr.high_tuple)
                payloads.append(entry.payload)
        elif node.children:
            first_child[position] = index_of[id(node.children[0])]

    entry_count = len(payloads)
    dimension = tree.dimension
    lows = np.array(entry_lows, dtype=np.float64).reshape(-1, dimension)
    highs = np.array(entry_highs, dtype=np.float64).reshape(-1, dimension)

    np.savez_compressed(
        path,
        kind=np.frombuffer(type(tree).__name__.encode(), dtype=np.uint8),
        dimension=np.int64(dimension),
        max_entries=np.int64(tree.max_entries),
        min_entries=np.int64(tree.min_entries),
        size=np.int64(len(tree)),
        levels=levels,
        is_leaf=is_leaf,
        child_start=child_start,
        child_count=child_count,
        first_child=first_child,
        entry_lows=lows,
        entry_highs=highs,
        payloads=np.frombuffer(
            pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        ),
        entry_count=np.int64(entry_count),
    )


def load_tree(path: TreeSink) -> RTree:
    """Rebuild a tree saved with :func:`save_tree` (identical layout)."""
    with np.load(path) as archive:
        kind = bytes(archive["kind"]).decode()
        cls = _KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown tree kind {kind!r} in archive")
        dimension = int(archive["dimension"])
        tree = cls(
            dimension,
            max_entries=int(archive["max_entries"]),
            min_entries=int(archive["min_entries"]),
        )
        levels = archive["levels"]
        is_leaf = archive["is_leaf"]
        child_start = archive["child_start"]
        child_count = archive["child_count"]
        first_child = archive["first_child"]
        # The archive is outside input, so the rectangles are validated —
        # once, over the whole blob, which is what lets each one skip the
        # per-rectangle checks of the public MBR constructor below.
        lows = archive["entry_lows"]
        highs = archive["entry_highs"]
        payloads = _restricted_loads(bytes(archive["payloads"]))
        if not (
            lows.dtype == highs.dtype == np.float64
            and lows.shape == highs.shape == (len(payloads), dimension)
        ):
            raise ValueError(
                f"corrupt archive: entry rectangles of shape {lows.shape} / "
                f"{highs.shape} for {len(payloads)} payloads of dimension "
                f"{dimension}"
            )
        if not (
            np.isfinite(lows).all()
            and np.isfinite(highs).all()
            and (lows <= highs).all()
        ):
            raise ValueError(
                "corrupt archive: entry rectangles must be finite with "
                "low <= high"
            )
        rectangles = [
            MBR._trusted(tuple(low), tuple(high))
            for low, high in zip(lows.tolist(), highs.tolist())
        ]

        nodes = [
            Node(is_leaf=bool(is_leaf[i]), level=int(levels[i]))
            for i in range(levels.shape[0])
        ]
        for position, node in enumerate(nodes):
            count = int(child_count[position])
            if node.is_leaf:
                start = int(child_start[position])
                node.children = [
                    LeafEntry(rectangles[at], payloads[at])
                    for at in range(start, start + count)
                ]
            elif count:
                begin = int(first_child[position])
                node.children = nodes[begin : begin + count]
        # MBRs are derived state: rebuild bottom-up (leaves first) so every
        # parent sees finished child rectangles.
        for node in sorted(nodes, key=lambda n: n.level):
            node.recompute_mbr()

        tree.root = nodes[0] if nodes else Node(is_leaf=True, level=0)
        tree._size = int(archive["size"])
        if freeze_checks_enabled():
            verify_frozen(tree, role="index.load", site="load_tree")
        return tree


def dumps_tree(tree: RTree) -> bytes:
    """:func:`save_tree` into bytes (for embedding in other archives)."""
    buffer = io.BytesIO()
    save_tree(tree, buffer)
    return buffer.getvalue()


def loads_tree(data: bytes) -> RTree:
    """Inverse of :func:`dumps_tree`."""
    return load_tree(io.BytesIO(data))
