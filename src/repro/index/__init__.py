"""Spatial index substrate: where the segment MBRs are stored and probed.

The paper stores every sequence-segment MBR "into a database by using the
R-tree or its variants" (§3.4.1).  This subpackage provides:

* :class:`~repro.index.packed.PackedIndex` (``"packed"``) — the database's
  default: an STR-packed tree held in a handful of arrays, derived from
  the segment table and probed for all query MBRs in one batched descent.
* :class:`~repro.index.rtree.RTree` (``"rtree"``) — the classic Guttman
  tree (quadratic split), the paper's substrate and the parity reference.
* :class:`~repro.index.rstar.RStarTree` (``"rstar"``) — the R*-tree variant.
* :func:`~repro.index.bulk.bulk_load_str` (``"str"``) — STR-packed bulk
  construction of an object tree for offline index building.

All of them support the Phase-2 probe of the paper's search algorithm:
``search_within(query_mbr, epsilon)`` returns every leaf entry whose
rectangle-to-rectangle minimum distance (``Dmbr``) to the query rectangle is
at most ``epsilon``.
"""

from repro.core.backends import Build, IndexBackend, register_index_backend
from repro.core.database import SegmentKey, SequenceDatabase
from repro.core.mbr import MBR
from repro.index.bulk import bulk_load_str
from repro.index.node import LeafEntry, Node
from repro.index.packed import PackedBase, PackedIndex, index_table
from repro.index.paging import (
    PageStats,
    PageStore,
    attach_page_store,
    detach_page_store,
)
from repro.index.rstar import RStarTree
from repro.index.rtree import IndexStats, RTree


def _leaf_entries(database: SequenceDatabase) -> list[tuple[MBR, SegmentKey]]:
    """One ``(MBR, key)`` leaf entry per stored segment, in insertion order."""
    return [
        (segment.mbr, SegmentKey(sequence_id, segment.index))
        for sequence_id, partition in database.partitions()
        for segment in partition
    ]


def _grown(tree_class: type[RTree]) -> Build:
    """The build of a dynamic tree: insert every entry, in insertion order
    — so a database, its clone and its reloaded archive hold one layout."""

    def build(
        database: SequenceDatabase, previous: IndexBackend | None, written: object
    ) -> RTree:
        tree = tree_class(database.dimension, max_entries=database.max_entries)
        tree.extend(_leaf_entries(database))
        return tree

    return build


# Self-register the default backends with the core registry (the lazy
# provider seam of repro.core.backends imports this module by name).
register_index_backend("packed", index_table)
register_index_backend("rtree", _grown(RTree))
register_index_backend("rstar", _grown(RStarTree))
register_index_backend(
    "str",
    lambda database, previous, written: bulk_load_str(
        _leaf_entries(database), database.dimension, max_entries=database.max_entries
    ),
)

__all__ = [
    "IndexStats",
    "LeafEntry",
    "Node",
    "PackedBase",
    "PackedIndex",
    "PageStats",
    "PageStore",
    "RStarTree",
    "RTree",
    "attach_page_store",
    "bulk_load_str",
    "detach_page_store",
    "index_table",
]
