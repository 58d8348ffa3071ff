"""Simulated paged storage with an LRU buffer pool.

The paper's cost model is disk-era: MCOST estimates the *number of disk
accesses* an MBR causes (§3.4.3), and the 2000 evaluation ran against a
disk-resident R-tree.  The in-memory trees here count logical node accesses;
this module adds the missing half — a page abstraction with a bounded LRU
buffer pool — so benchmarks can report *physical* I/O and validate the MCOST
model's assumptions at different buffer sizes.

Usage::

    store = PageStore(buffer_pages=64)
    attach_page_store(tree, store)      # every traversal now touches pages
    tree.search_within(probe, 0.1)
    store.stats.physical_reads          # simulated disk reads

One node maps to one page (the classic design point: node capacity is
chosen to fill a page).  The pool is warmed by accesses and evicts the
least-recently-used page when full.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.index.rtree import RTree
from repro.util.checks import FREEZE
from repro.util.freeze import verify_frozen

if TYPE_CHECKING:
    from repro.core.mbr import MBR
    from repro.index.node import LeafEntry, Node

__all__ = ["PageStats", "PageStore", "attach_page_store", "detach_page_store"]


@dataclass
class PageStats:
    """I/O counters of a :class:`PageStore`."""

    logical_reads: int = 0
    physical_reads: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Buffer hit rate over all logical reads (1.0 when never missed)."""
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.evictions = 0


class PageStore:
    """An LRU buffer pool over node-sized pages.

    Parameters
    ----------
    buffer_pages:
        Number of pages the pool holds; at least 1.
    """

    def __init__(self, buffer_pages: int = 64) -> None:
        if buffer_pages < 1:
            raise ValueError(f"buffer_pages must be >= 1, got {buffer_pages}")
        self.buffer_pages = buffer_pages
        self.stats = PageStats()
        self._pool: OrderedDict[int, None] = OrderedDict()

    def access(self, node: "Node") -> bool:
        """Record one access to ``node``'s page; returns ``True`` on a hit."""
        if FREEZE.on and getattr(node, "mbr", None) is not None:
            # A page served to a reader must carry a frozen rectangle: a
            # writable MBR here means some split/reinsert leaked a
            # mutable buffer into the shared tree.
            verify_frozen(
                node.mbr, role="index.page", site="PageStore.access"
            )
        page_id = id(node)
        self.stats.logical_reads += 1
        if page_id in self._pool:
            self._pool.move_to_end(page_id)
            return True
        self.stats.physical_reads += 1
        self._pool[page_id] = None
        if len(self._pool) > self.buffer_pages:
            self._pool.popitem(last=False)
            self.stats.evictions += 1
        return False

    def clear(self) -> None:
        """Drop every buffered page (cold restart); stats are kept."""
        self._pool.clear()

    @property
    def resident_pages(self) -> int:
        """Pages currently buffered."""
        return len(self._pool)


def attach_page_store(tree: RTree, store: PageStore) -> None:
    """Make every node access of ``tree`` pass through ``store``.

    Wraps the tree's traversal hook; reversible with
    :func:`detach_page_store`.
    """
    if getattr(tree, "_page_store", None) is not None:
        raise RuntimeError("tree already has a page store attached")
    tree._page_store = store
    original_traverse = tree._traverse

    def traversing(
        admits: "Callable[[MBR], bool]",
    ) -> "Iterator[LeafEntry]":
        # Re-yield while notifying the store of each node touched.  The
        # base traversal counts accesses in tree.stats; pages mirror it.
        def wrapped() -> "Iterator[LeafEntry]":
            if tree.root.mbr is None:
                return
            stack = [tree.root]
            while stack:
                node = stack.pop()
                tree.stats.node_accesses += 1
                store.access(node)
                if node.is_leaf:
                    tree.stats.leaf_accesses += 1
                    for entry in node.children:
                        if admits(entry.mbr):
                            yield entry
                else:
                    for child in node.children:
                        if admits(child.mbr):
                            stack.append(child)

        return wrapped()

    tree._traverse_without_paging = original_traverse
    tree._traverse = traversing


def detach_page_store(tree: RTree) -> None:
    """Undo :func:`attach_page_store`."""
    original = getattr(tree, "_traverse_without_paging", None)
    if original is None:
        raise RuntimeError("no page store attached to this tree")
    tree._traverse = original
    del tree._traverse_without_paging
    tree._page_store = None
