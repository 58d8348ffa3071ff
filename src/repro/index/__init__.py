"""The paper's spatial index substrate, built beside a database.

The paper stores every sequence-segment MBR "into a database by using the
R-tree or its variants" (§3.4.1), once, as pre-processing.  The database
itself keeps one index, the packed one of :mod:`repro.core.packed`; this
subpackage holds the R-tree family the figure and ablation benches
measure:

* :class:`~repro.index.rtree.RTree` (``"rtree"``) — the classic Guttman
  tree (quadratic split), the paper's substrate and the parity reference.
* :class:`~repro.index.rstar.RStarTree` (``"rstar"``) — the R*-tree variant.
* :func:`~repro.index.bulk.bulk_load_str` (``"str"``) — STR-packed bulk
  construction of an object tree for offline index building.

All of them support the Phase-2 probe of the paper's search algorithm:
``search_within(query_mbr, epsilon)`` returns every leaf entry whose
rectangle-to-rectangle minimum distance (``Dmbr``) to the query rectangle is
at most ``epsilon``.  :func:`build_tree` builds one over what a database
stores.
"""

from repro.core.database import SegmentKey, SequenceDatabase
from repro.index.bulk import bulk_load_str
from repro.index.node import LeafEntry, Node
from repro.index.paging import (
    PageStats,
    PageStore,
    attach_page_store,
    detach_page_store,
)
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree

#: The kinds :func:`build_tree` knows.
TREE_KINDS = ("rtree", "rstar", "str")


def build_tree(database: SequenceDatabase, kind: str = "rtree") -> RTree:
    """A static tree over every segment ``database`` stores now.

    One leaf entry per segment, its payload the segment's
    :class:`~repro.core.database.SegmentKey`, taken in insertion order:
    ``"rtree"`` / ``"rstar"`` insert them one by one, ``"str"`` bulk-loads
    them.  So a database, its clone and its reloaded archive give one
    layout.  The tree is not kept up to date: build another after a write.
    """
    if kind not in TREE_KINDS:
        raise ValueError(f"kind must be one of {TREE_KINDS}, got {kind!r}")
    entries = [
        (segment.mbr, SegmentKey(sequence_id, segment.index))
        for sequence_id, partition in database.partitions()
        for segment in partition
    ]
    if kind == "str":
        return bulk_load_str(entries, database.dimension)
    tree = (RTree if kind == "rtree" else RStarTree)(database.dimension)
    tree.extend(entries)
    return tree


__all__ = [
    "LeafEntry",
    "Node",
    "PageStats",
    "PageStore",
    "RStarTree",
    "RTree",
    "TREE_KINDS",
    "attach_page_store",
    "build_tree",
    "bulk_load_str",
    "detach_page_store",
]
