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

from repro.core.backends import register_index_backend
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
from repro.index.serialize import dumps_tree, load_tree, loads_tree, save_tree
from repro.index.rtree import IndexStats, RTree

def _dumps_backend(index: object) -> bytes:
    """Registry ``dumps`` hook: flat-serialise any tree of this family."""
    if not isinstance(index, RTree):
        raise TypeError(
            f"cannot flat-serialise {type(index).__name__}; expected an "
            f"RTree-family index"
        )
    return dumps_tree(index)


# Self-register the default backends with the core registry (the lazy
# provider seam of repro.core.backends imports this module by name).
register_index_backend("packed", table_factory=index_table, incremental=False)
# The other three kinds build RTree-family trees, so they share the flat
# dumps/loads pair of repro.index.serialize.
register_index_backend(
    "rtree",
    factory=lambda dimension, max_entries: RTree(
        dimension, max_entries=max_entries
    ),
    dumps=_dumps_backend,
    loads=loads_tree,
)
register_index_backend(
    "rstar",
    factory=lambda dimension, max_entries: RStarTree(
        dimension, max_entries=max_entries
    ),
    dumps=_dumps_backend,
    loads=loads_tree,
)
register_index_backend(
    "str",
    bulk_factory=lambda items, dimension, max_entries: bulk_load_str(
        items, dimension, max_entries=max_entries
    ),
    incremental=False,
    dumps=_dumps_backend,
    loads=loads_tree,
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
    "dumps_tree",
    "index_table",
    "load_tree",
    "loads_tree",
    "save_tree",
]
