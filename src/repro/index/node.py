"""Node and entry structures shared by the R-tree family.

The trees are in-memory: a :class:`Node` is either a *leaf* holding
:class:`LeafEntry` records (an MBR plus an opaque payload) or an *internal*
node holding child nodes.  Every node caches the MBR of its contents; the
trees keep the caches consistent on insert/split, and
:meth:`Node.recompute_mbr` rebuilds one level on demand.

The paper stores one leaf entry per sequence segment: the segment MBR plus a
payload identifying ``(sequence id, segment index)`` — see
:mod:`repro.core.database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.mbr import MBR

__all__ = ["LeafEntry", "Node"]


@dataclass(frozen=True, slots=True)
class LeafEntry:
    """A leaf record: a bounding rectangle and the object it indexes."""

    mbr: MBR
    payload: Any


class Node:
    """One R-tree node (leaf or internal)."""

    __slots__ = ("is_leaf", "children", "mbr", "level")

    def __init__(self, is_leaf: bool, level: int = 0) -> None:
        #: Whether children are :class:`LeafEntry` records (leaf) or nodes.
        self.is_leaf = is_leaf
        #: Leaf entries or child nodes, depending on :attr:`is_leaf`.
        self.children: list = []
        #: Cached MBR of the contents; ``None`` while empty.
        self.mbr: MBR | None = None
        #: Height of this node above the leaves (leaves are level 0).
        self.level = level

    def __len__(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, level={self.level}, children={len(self.children)})"

    def add(self, child: "LeafEntry | Node") -> None:
        """Append a child (entry or node) and grow the cached MBR."""
        self.children.append(child)
        if self.mbr is None:
            self.mbr = child.mbr
        else:
            self.mbr = self.mbr.union(child.mbr)

    def recompute_mbr(self) -> None:
        """Rebuild the cached MBR from the children (after removals/splits)."""
        if not self.children:
            self.mbr = None
        else:
            self.mbr = MBR.union_all(child.mbr for child in self.children)
