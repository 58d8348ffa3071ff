"""The R*-tree variant (Beckmann et al., SIGMOD'90).

The paper's index-construction step allows "the R-tree or its variants
[2, 3, 4, 9]"; the R*-tree is the variant that mattered in practice.  It
differs from the Guttman tree in three ways, all implemented here:

* **ChooseSubtree**: at the level just above the leaves the child is picked
  by least *overlap* enlargement (ties: least volume enlargement, then least
  volume); higher up, by least volume enlargement as before.
* **Split**: the split axis minimises the sum of group margins over all
  legal distributions; the distribution on that axis minimises group
  overlap (ties: total volume).
* **Forced reinsert**: the first time a node overflows at each level during
  one insertion, the 30% of its children farthest from its centre are
  removed and reinserted instead of splitting, which tightens the tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.mbr import MBR
from repro.index.node import LeafEntry, Node
from repro.index.rtree import RTree
from repro.util.checks import FREEZE
from repro.util.freeze import verify_frozen

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

__all__ = ["RStarTree"]


def _axis_orders(axis: int) -> "tuple[Callable, Callable]":
    """The two sort keys of one split axis: by lower, then by upper value."""
    return (
        lambda child: (child.mbr.low_tuple[axis], child.mbr.high_tuple[axis]),
        lambda child: (child.mbr.high_tuple[axis], child.mbr.low_tuple[axis]),
    )


class RStarTree(RTree):
    """R*-tree: overlap-aware subtree choice, margin split, forced reinsert.

    Parameters
    ----------
    dimension, max_entries, min_entries:
        As for :class:`~repro.index.rtree.RTree`.
    reinsert_fraction:
        Fraction of an overfull node's children removed for reinsertion
        (the classic value is 0.3).
    """

    def __init__(
        self,
        dimension: int,
        *,
        max_entries: int = 16,
        min_entries: int | None = None,
        reinsert_fraction: float = 0.3,
    ) -> None:
        super().__init__(
            dimension, max_entries=max_entries, min_entries=min_entries
        )
        if not 0.0 < reinsert_fraction < 1.0:
            raise ValueError(
                f"reinsert_fraction must be in (0, 1), got {reinsert_fraction}"
            )
        self.reinsert_fraction = reinsert_fraction
        self._levels_reinserted: set[int] = set()
        self._pending: list[tuple[object, int]] = []

    # ------------------------------------------------------------------
    # Insertion driver with deferred reinsertion
    # ------------------------------------------------------------------
    def _insert_entry(
        self, item: LeafEntry | Node, target_level: int
    ) -> None:
        self._levels_reinserted = set()
        self._pending = [(item, target_level)]
        while self._pending:
            pending_item, level = self._pending.pop(0)
            super()._insert_entry(pending_item, level)

    def _handle_overflow(self, node: Node) -> Node | None:
        if node is not self.root and node.level not in self._levels_reinserted:
            self._levels_reinserted.add(node.level)
            removed = self._shed_for_reinsert(node)
            if removed:
                if FREEZE.on:
                    # Shed children hop levels through the pending queue
                    # while readers can still reach their rectangles; a
                    # writable MBR here would let the reinsert scribble
                    # over a rectangle a concurrent search is pruning on.
                    verify_frozen(
                        removed,
                        role="index.reinsert",
                        site="RStarTree._handle_overflow",
                    )
                self.stats.reinserts += len(removed)
                self._pending.extend((child, node.level) for child in removed)
                return None
        return self._split(node)

    def _shed_for_reinsert(self, node: Node) -> list:
        """Remove the children farthest from the node centre; keep the rest.

        Returns the removed children ordered nearest-first ("close
        reinsert"), which the insertion driver re-adds at the same level.
        """
        count = max(1, int(round(self.reinsert_fraction * len(node.children))))
        count = min(count, len(node.children) - self.min_entries)
        if count < 1:
            return []
        distances = [
            child.mbr.center_distance_squared(node.mbr)
            for child in node.children
        ]
        order = np.argsort(distances)  # ascending: keep the near ones
        keep = [node.children[i] for i in order[: len(order) - count]]
        shed = [node.children[i] for i in order[len(order) - count :]]
        node.children = keep
        node.recompute_mbr()
        return shed

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------
    def _choose_subtree(self, node: Node, mbr: MBR) -> Node:
        if node.level == 1:
            return self._choose_by_overlap(node, mbr)
        return super()._choose_subtree(node, mbr)

    @staticmethod
    def _choose_by_overlap(node: Node, mbr: MBR) -> Node:
        """Least overlap enlargement among siblings (R* leaf-level rule)."""
        best = None
        best_key = None
        children = node.children
        for index, child in enumerate(children):
            grown = child.mbr.union(mbr)
            overlap_delta = 0.0
            for other_index, other in enumerate(children):
                if other_index == index:
                    continue
                overlap_delta += grown.overlap_volume(other.mbr)
                overlap_delta -= child.mbr.overlap_volume(other.mbr)
            key = (
                overlap_delta,
                child.mbr.enlargement(mbr),
                child.mbr.volume(),
            )
            if best_key is None or key < best_key:
                best = child
                best_key = key
        return best

    # ------------------------------------------------------------------
    # Margin-driven split
    # ------------------------------------------------------------------
    def _split(self, node: Node) -> Node:
        self.stats.splits += 1
        children = node.children
        axis = self._choose_split_axis(children)
        group_a, group_b = self._choose_split_distribution(children, axis)

        node.children = group_a
        node.recompute_mbr()
        sibling = Node(is_leaf=node.is_leaf, level=node.level)
        sibling.children = group_b
        sibling.recompute_mbr()
        return sibling

    def _distributions(
        self, children_sorted: list[LeafEntry] | list[Node]
    ) -> "Iterator[tuple[list, list]]":
        """Yield every legal (group_a, group_b) prefix/suffix distribution."""
        total = len(children_sorted)
        for split_at in range(self.min_entries, total - self.min_entries + 1):
            yield children_sorted[:split_at], children_sorted[split_at:]

    def _choose_split_axis(
        self, children: list[LeafEntry] | list[Node]
    ) -> int:
        """The axis whose distributions have the least total margin."""
        best_axis = 0
        best_margin = float("inf")
        for axis in range(self.dimension):
            margin_sum = 0.0
            for key in _axis_orders(axis):
                ordered = sorted(children, key=key)
                for group_a, group_b in self._distributions(ordered):
                    margin_sum += MBR.union_all(
                        c.mbr for c in group_a
                    ).margin()
                    margin_sum += MBR.union_all(
                        c.mbr for c in group_b
                    ).margin()
            if margin_sum < best_margin:
                best_margin = margin_sum
                best_axis = axis
        return best_axis

    def _choose_split_distribution(
        self, children: list[LeafEntry] | list[Node], axis: int
    ) -> "tuple[list, list]":
        """Least-overlap (ties: least volume) distribution on the split axis."""
        best = None
        best_key = None
        for key in _axis_orders(axis):
            ordered = sorted(children, key=key)
            for group_a, group_b in self._distributions(ordered):
                mbr_a = MBR.union_all(c.mbr for c in group_a)
                mbr_b = MBR.union_all(c.mbr for c in group_b)
                candidate_key = (
                    mbr_a.overlap_volume(mbr_b),
                    mbr_a.volume() + mbr_b.volume(),
                )
                if best_key is None or candidate_key < best_key:
                    best_key = candidate_key
                    best = (list(group_a), list(group_b))
        return best
