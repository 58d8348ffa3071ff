"""repro — similarity search for multidimensional data sequences.

A production-quality reproduction of Lee, Chun, Kim, Lee & Chung,
*Similarity Search for Multidimensional Data Sequences*, ICDE 2000.

Quick start::

    import numpy as np
    from repro import SequenceDatabase, SimilaritySearch

    db = SequenceDatabase(dimension=3)
    for i, stream in enumerate(streams):          # (length, 3) arrays
        db.add(stream, sequence_id=f"video-{i}")

    engine = SimilaritySearch(db)
    result = engine.search(query_points, epsilon=0.15)
    result.answers                  # matching sequence ids
    result.solution_intervals       # which sub-streams to play back

Subpackages
-----------
``repro.core``
    The paper's contribution: data model, the ``Dmean``/``D``/``Dmbr``/
    ``Dnorm`` distance hierarchy, MCOST partitioning, the sequence database
    with its packed MBR index, and the three-phase search algorithm.
``repro.index``
    The paper's R-tree family over segment MBRs (Guttman R-tree, R*-tree,
    STR bulk loading), built beside a database by ``build_tree``.
``repro.datagen``
    Workload generators: the paper's fractal synthetic sequences, a
    shot-structured video-stream simulator, 1-d time series, image-region
    sequences, and query workloads.
``repro.baselines``
    Comparators: exact sequential scan (ground truth), key-frame search,
    DFT whole-sequence matching, ST-index style 1-d subsequence matching.
``repro.analysis``
    Experiment harness: pruning-rate/recall/response-ratio metrics, the
    paper's parameter grid, and table formatting for Figures 6-10.
``repro.service``
    Concurrent query serving: the snapshot-isolated :class:`QueryEngine`
    with an ε-aware result cache, plus the ``python -m repro serve`` HTTP
    endpoint and its client.
"""

from repro.core import (
    MBR,
    IntervalSet,
    MultidimensionalSequence,
    NormalizedDistance,
    PartitionedSequence,
    SearchResult,
    SearchStats,
    SegmentKey,
    SequenceDatabase,
    SequenceSegment,
    SimilaritySearch,
    SubsequenceHit,
    as_sequence,
    marginal_cost,
    mbr_min_distance,
    mean_distance,
    min_normalized_distance,
    normalized_distance,
    partition_sequence,
    point_distance,
    sequence_distance,
    sliding_mean_distances,
)
from repro.index import RStarTree, RTree, bulk_load_str
from repro.service import QueryEngine, ServiceClient
from repro.util.version import REPRO_VERSION

__version__ = REPRO_VERSION

__all__ = [
    "IntervalSet",
    "MBR",
    "MatchExplanation",
    "MultidimensionalSequence",
    "NormalizedDistance",
    "PartitionedSequence",
    "QueryEngine",
    "RStarTree",
    "RTree",
    "SearchResult",
    "SearchStats",
    "SegmentKey",
    "SequenceDatabase",
    "SequenceSegment",
    "ServiceClient",
    "SimilaritySearch",
    "SubsequenceHit",
    "__version__",
    "as_sequence",
    "bulk_load_str",
    "marginal_cost",
    "mbr_min_distance",
    "mean_distance",
    "min_normalized_distance",
    "normalized_distance",
    "partition_sequence",
    "point_distance",
    "sequence_distance",
    "sliding_mean_distances",
]
