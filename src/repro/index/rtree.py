"""A Guttman R-tree (dynamic insertion, quadratic split).

The paper's index-construction step ("Every MBR is indexed and stored into a
database by using any R-tree variant", §3.4.1) needs a spatial index over the
segment MBRs that supports the Phase-2 query *find every leaf entry whose
``Dmbr`` to a query rectangle is at most ε*.  This module implements the
classic R-tree of Guttman (SIGMOD'84):

* **ChooseLeaf** descends towards the child needing the least volume
  enlargement (ties: smaller volume).
* **Quadratic split** seeds the two groups with the pair of children wasting
  the most volume if grouped, then assigns the rest by maximum preference
  difference.
* **AdjustTree** propagates MBR growth and splits towards the root.

Queries traverse with rectangle/rectangle ``min_distance`` (= ``Dmbr``)
pruning and count node accesses in :attr:`RTree.stats` so benchmarks can
report the cost-model quantity MCOST estimates.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.mbr import MBR
from repro.core.packed import IndexStats
from repro.index.node import LeafEntry, Node
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy.typing as npt

__all__ = ["RTree"]


class RTree:
    """Dynamic R-tree over :class:`~repro.core.mbr.MBR` keyed leaf entries.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed rectangles.
    max_entries:
        Node capacity ``M`` (default 16).
    min_entries:
        Minimum fill ``m``; defaults to ``ceil(0.4 * M)`` as is conventional.

    Examples
    --------
    >>> tree = RTree(dimension=2)
    >>> tree.insert(MBR([0.1, 0.1], [0.2, 0.2]), payload="a")
    >>> [e.payload for e in tree.search_within(MBR([0.0, 0.0], [0.05, 0.05]), 0.2)]
    ['a']
    """

    def __init__(
        self,
        dimension: int,
        *,
        max_entries: int = 16,
        min_entries: int | None = None,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if min_entries is None:
            min_entries = max(1, (2 * max_entries + 4) // 5)  # ceil(0.4 M)
        if not 1 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, max_entries // 2]; got "
                f"{min_entries} for max_entries={max_entries}"
            )
        self.dimension = dimension
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.root = Node(is_leaf=True, level=0)
        self.stats = IndexStats()
        self._size = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a root leaf)."""
        return self.root.level + 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dimension={self.dimension}, "
            f"size={self._size}, height={self.height})"
        )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, mbr: MBR, payload: Any = None) -> None:
        """Insert one leaf entry."""
        if mbr.dimension != self.dimension:
            raise ValueError(
                f"entry dimension {mbr.dimension} != index dimension "
                f"{self.dimension}"
            )
        self._insert_entry(LeafEntry(mbr, payload), target_level=0)
        self._size += 1

    def extend(self, items: Iterable[tuple[MBR, Any]]) -> None:
        """Insert ``(mbr, payload)`` pairs from an iterable."""
        for mbr, payload in items:
            self.insert(mbr, payload)

    def _insert_entry(
        self, item: LeafEntry | Node, target_level: int
    ) -> None:
        """Insert an entry (level 0) or a subtree shed for reinsertion at its level."""
        split = self._insert_recursive(self.root, item, target_level)
        if split is not None:
            new_root = Node(is_leaf=False, level=self.root.level + 1)
            new_root.add(self.root)
            new_root.add(split)
            self.root = new_root

    def _insert_recursive(
        self, node: Node, item: LeafEntry | Node, target_level: int
    ) -> Node | None:
        """Descend to ``target_level``, insert, split upwards as needed.

        Returns the sibling created by a split of ``node``, or ``None``.
        """
        if node.level == target_level:
            node.add(item)
        else:
            child = self._choose_subtree(node, item.mbr)
            split_child = self._insert_recursive(child, item, target_level)
            node.recompute_mbr()
            if split_child is not None:
                node.add(split_child)
        if len(node.children) > self.max_entries:
            return self._handle_overflow(node)
        return None

    def _handle_overflow(self, node: Node) -> Node | None:
        """Resolve an overfull node; the base tree always splits.

        Subclasses may instead shed entries for reinsertion (R*-tree) and
        return ``None``.
        """
        return self._split(node)

    def _choose_subtree(self, node: Node, mbr: MBR) -> Node:
        """Guttman's ChooseLeaf step: least enlargement, ties by volume."""
        best = None
        best_key = None
        for child in node.children:
            key = (child.mbr.enlargement(mbr), child.mbr.volume())
            if best_key is None or key < best_key:
                best = child
                best_key = key
        return best

    # ------------------------------------------------------------------
    # Quadratic split
    # ------------------------------------------------------------------
    def _split(self, node: Node) -> Node:
        """Split an overfull node in place; return the new sibling."""
        self.stats.splits += 1
        children = node.children
        seed_a, seed_b = self._pick_seeds(children)
        group_a = [children[seed_a]]
        group_b = [children[seed_b]]
        mbr_a = children[seed_a].mbr
        mbr_b = children[seed_b].mbr
        remaining = [
            child
            for index, child in enumerate(children)
            if index not in (seed_a, seed_b)
        ]

        while remaining:
            # If one group must absorb everything to reach min fill, do so.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                mbr_a = MBR.union_all([mbr_a] + [c.mbr for c in remaining])
                remaining = []
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                mbr_b = MBR.union_all([mbr_b] + [c.mbr for c in remaining])
                remaining = []
                break
            chosen_index, prefer_a = self._pick_next(remaining, mbr_a, mbr_b)
            chosen = remaining.pop(chosen_index)
            if prefer_a:
                group_a.append(chosen)
                mbr_a = mbr_a.union(chosen.mbr)
            else:
                group_b.append(chosen)
                mbr_b = mbr_b.union(chosen.mbr)

        node.children = group_a
        node.mbr = mbr_a
        sibling = Node(is_leaf=node.is_leaf, level=node.level)
        sibling.children = group_b
        sibling.mbr = mbr_b
        return sibling

    @staticmethod
    def _pick_seeds(children: list[LeafEntry] | list[Node]) -> tuple[int, int]:
        """The pair wasting the most volume if grouped together."""
        best_pair = (0, 1)
        best_waste = float("-inf")
        mbrs = [child.mbr for child in children]
        volumes = [mbr.volume() for mbr in mbrs]
        for i, j in itertools.combinations(range(len(mbrs)), 2):
            # volume(a ∪ b) - volume(a) - volume(b), in that order.
            waste = mbrs[i].enlargement(mbrs[j]) - volumes[j]
            if waste > best_waste:
                best_waste = waste
                best_pair = (i, j)
        return best_pair

    def _pick_next(
        self,
        remaining: list[LeafEntry] | list[Node],
        mbr_a: MBR,
        mbr_b: MBR,
    ) -> tuple[int, bool]:
        """The child with the strongest group preference, and that group."""
        best_index = 0
        best_diff = -1.0
        best_prefer_a = True
        for index, child in enumerate(remaining):
            enlarge_a = mbr_a.enlargement(child.mbr)
            enlarge_b = mbr_b.enlargement(child.mbr)
            diff = abs(enlarge_a - enlarge_b)
            if diff > best_diff:
                best_diff = diff
                best_index = index
                if enlarge_a != enlarge_b:
                    best_prefer_a = enlarge_a < enlarge_b
                else:
                    best_prefer_a = mbr_a.volume() <= mbr_b.volume()
        return best_index, best_prefer_a

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search_intersect(self, query: MBR) -> list[LeafEntry]:
        """All leaf entries whose MBR intersects ``query``."""
        self._check_query(query)
        return [
            entry
            for entry in self._traverse(
                lambda mbr: mbr.intersects(query)
            )
        ]

    def search_within(self, query: MBR, epsilon: float) -> list[LeafEntry]:
        """All leaf entries with ``Dmbr(entry, query) <= epsilon``.

        This is the Phase-2 index probe of the paper's SIMILARITY_SEARCH:
        rectangle-to-rectangle minimum distance at most the threshold.
        """
        self._check_query(query)
        epsilon = check_threshold(epsilon)
        # The query is checked above and every node MBR is of the tree's
        # dimension, so the per-entry distance need not check again.
        return list(
            self._traverse(
                lambda mbr: mbr.min_distance_unchecked(query) <= epsilon
            )
        )

    def search_point_radius(
        self, point: "npt.ArrayLike", epsilon: float
    ) -> list[LeafEntry]:
        """All leaf entries within Euclidean distance ``epsilon`` of a point."""
        epsilon = check_threshold(epsilon)
        query = MBR.of_point(point)
        return self.search_within(query, epsilon)

    def _traverse(self, admits: Callable[[MBR], bool]) -> Iterator[LeafEntry]:
        """Depth-first traversal pruned by an MBR predicate, counting accesses."""
        if self.root.mbr is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.node_accesses += 1
            if node.is_leaf:
                self.stats.leaf_accesses += 1
                for entry in node.children:
                    if admits(entry.mbr):
                        yield entry
            else:
                for child in node.children:
                    if admits(child.mbr):
                        stack.append(child)

    def nearest(self, query: MBR, k: int = 1) -> list[tuple[float, LeafEntry]]:
        """The ``k`` leaf entries with smallest ``Dmbr`` to ``query``.

        Best-first (Hjaltason/Samet) traversal ordered by rectangle
        ``min_distance``; an extension beyond the paper used by the k-NN
        sequence search in :mod:`repro.core.search`.

        Returns
        -------
        list of (distance, entry)
            In non-decreasing distance order.
        """
        self._check_query(query)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.root.mbr is None:
            return []
        results: list[tuple[float, LeafEntry]] = []
        counter = itertools.count()  # tie-breaker: heap items never compare nodes
        heap = [(self.root.mbr.min_distance(query), next(counter), self.root)]
        while heap and len(results) < k:
            distance, _, item = heapq.heappop(heap)
            if isinstance(item, LeafEntry):
                results.append((distance, item))
                continue
            self.stats.node_accesses += 1
            if item.is_leaf:
                self.stats.leaf_accesses += 1
            for child in item.children:
                heapq.heappush(
                    heap,
                    (child.mbr.min_distance(query), next(counter), child),
                )
        return results

    # ------------------------------------------------------------------
    # Introspection / invariants
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[LeafEntry]:
        """Iterate over every leaf entry (no access counting)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.children
            else:
                stack.extend(node.children)

    def check_invariants(self, *, check_min_fill: bool = True) -> None:
        """Verify structural invariants; raises ``RuntimeError`` on damage.

        Checked: cached MBRs match contents, every child MBR is contained in
        its parent, all leaves sit at level 0, node occupancy respects
        ``max_entries`` (and, when ``check_min_fill``, ``min_entries`` for
        non-roots — bulk-loaded trees may underfill their last page), and
        the leaf count matches ``len(self)``.
        """

        def broken(detail: str) -> RuntimeError:
            return RuntimeError(f"R-tree invariant broken: {detail}")

        count = 0
        stack: list[tuple[Node, MBR | None]] = [(self.root, None)]
        while stack:
            node, parent_mbr = stack.pop()
            if node.children:
                recomputed = MBR.union_all(c.mbr for c in node.children)
                if node.mbr != recomputed:
                    raise broken(
                        f"stale cached MBR {node.mbr} != {recomputed}"
                    )
            elif node is not self.root:
                raise broken("empty non-root node")
            if parent_mbr is not None:
                if node.mbr is not None and not parent_mbr.contains(node.mbr):
                    raise broken("child escapes parent MBR")
                lower = self.min_entries if check_min_fill else 1
                if not lower <= len(node.children) <= self.max_entries:
                    raise broken(
                        f"occupancy {len(node.children)} outside "
                        f"[{lower}, {self.max_entries}]"
                    )
            elif len(node.children) > self.max_entries:
                raise broken(
                    f"root occupancy {len(node.children)} exceeds "
                    f"{self.max_entries}"
                )
            if node.is_leaf:
                if node.level != 0:
                    raise broken(f"leaf at level {node.level}, expected 0")
                count += len(node.children)
            else:
                for child in node.children:
                    if child.level != node.level - 1:
                        raise broken(
                            f"child level {child.level} under level "
                            f"{node.level}"
                        )
                    stack.append((child, node.mbr))
        if count != self._size:
            raise broken(f"size {self._size} != leaf count {count}")

    def _check_query(self, query: MBR) -> None:
        if not isinstance(query, MBR):
            raise TypeError(f"query must be an MBR, got {type(query).__name__}")
        if query.dimension != self.dimension:
            raise ValueError(
                f"query dimension {query.dimension} != index dimension "
                f"{self.dimension}"
            )
