"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE'97).

Index construction in the paper is an offline pre-processing step
(§3.4.1): every sequence is partitioned and all segment MBRs are inserted at
once.  Bulk loading builds a far better-packed tree than one-at-a-time
insertion for that workload, so the database offers it as an option and the
``bench_ablation_index`` benchmark compares the variants.

STR sorts the rectangles by the first coordinate of their centres, cuts the
sorted list into vertical slabs, recursively tiles each slab on the next
coordinate, and packs consecutive runs of ``max_entries`` rectangles into
leaves; the same packing is applied level by level until one root remains.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.core.mbr import MBR
from repro.index.node import LeafEntry, Node
from repro.index.rtree import RTree

__all__ = ["bulk_load_str"]


def bulk_load_str(
    items: Iterable[tuple[MBR, Any]],
    dimension: int,
    *,
    max_entries: int = 16,
    min_entries: int | None = None,
) -> RTree:
    """Build a packed R-tree from ``(mbr, payload)`` pairs via STR.

    Parameters
    ----------
    items:
        The leaf entries to index.
    dimension:
        Dimensionality of the rectangles.
    max_entries, min_entries:
        Node capacity parameters of the resulting tree.  Subsequent dynamic
        ``insert`` calls keep working; only the initial packing differs.

    Returns
    -------
    RTree
        A tree containing exactly the given entries.
    """
    tree = RTree(dimension, max_entries=max_entries, min_entries=min_entries)
    entries = [LeafEntry(mbr, payload) for mbr, payload in items]
    for entry in entries:
        if entry.mbr.dimension != dimension:
            raise ValueError(
                f"entry dimension {entry.mbr.dimension} != index dimension "
                f"{dimension}"
            )
    if not entries:
        return tree

    leaves = [
        _make_node(chunk, is_leaf=True, level=0)
        for chunk in _str_tile(entries, dimension, max_entries)
    ]
    level = 0
    nodes = leaves
    while len(nodes) > 1:
        level += 1
        nodes = [
            _make_node(chunk, is_leaf=False, level=level)
            for chunk in _str_tile(nodes, dimension, max_entries)
        ]
    tree.root = nodes[0]
    tree._size = len(entries)
    return tree


def _make_node(children: list, *, is_leaf: bool, level: int) -> Node:
    node = Node(is_leaf=is_leaf, level=level)
    node.children = list(children)
    node.recompute_mbr()
    return node


def _str_tile(items: list, dimension: int, capacity: int) -> list[list]:
    """Partition items into runs of ``capacity`` by recursive centre sorting."""
    if len(items) <= capacity:
        return [list(items)]
    return _tile_axis(items, axis=0, dimension=dimension, capacity=capacity)


def _tile_axis(items: list, axis: int, dimension: int, capacity: int) -> list[list]:
    count = len(items)
    pages = math.ceil(count / capacity)
    if axis >= dimension - 1 or pages == 1:
        ordered = _sorted_by_center(items, axis)
        return [
            ordered[start : start + capacity]
            for start in range(0, count, capacity)
        ]
    # Number of slabs along this axis: ceil(pages ** (1 / remaining_axes)).
    remaining_axes = dimension - axis
    slabs = max(1, math.ceil(pages ** (1.0 / remaining_axes)))
    slab_size = math.ceil(count / slabs)
    ordered = _sorted_by_center(items, axis)
    chunks: list[list] = []
    for start in range(0, count, slab_size):
        slab = ordered[start : start + slab_size]
        chunks.extend(
            _tile_axis(slab, axis + 1, dimension, capacity)
        )
    return chunks


def _sorted_by_center(items: list, axis: int) -> list:
    centers = np.array(
        [
            (item.mbr.low_tuple[axis] + item.mbr.high_tuple[axis]) / 2.0
            for item in items
        ]
    )
    return [items[i] for i in np.argsort(centers, kind="stable")]
