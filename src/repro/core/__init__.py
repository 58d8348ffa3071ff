"""The paper's primary contribution: model, distances, partitioning, search.

Contents map to the paper as follows:

============================  =========================================
Module                        Paper section
============================  =========================================
:mod:`repro.core.sequence`    Definition 1 (the data model)
:mod:`repro.core.mbr`         Definition 4 substrate (hyper-rectangles)
:mod:`repro.core.distance`    Definitions 2-5, Lemmas 1-3
:mod:`repro.core.partitioning`  Section 3.4.3 (MCOST partitioning)
:mod:`repro.core.database`    Section 3.4.1 (index construction)
:mod:`repro.core.packed`      Section 3.4.1 (the segment MBR index)
:mod:`repro.core.search`      Section 3.4.2 (SIMILARITY_SEARCH)
:mod:`repro.core.solution_interval`  Definition 6, Section 3.3
============================  =========================================
"""

from repro.core.database import SegmentKey, SegmentTable, SequenceDatabase
from repro.core.distance import (
    NormalizedDistance,
    mbr_min_distance,
    mean_distance,
    min_normalized_distance,
    normalized_distance,
    point_distance,
    sequence_distance,
    sliding_mean_distances,
)
from repro.core.mbr import MBR
from repro.core.partitioning import (
    DEFAULT_COST_CONSTANT,
    PartitionedSequence,
    SequenceSegment,
    marginal_cost,
    partition_sequence,
)
from repro.core.search import (
    MatchExplanation,
    SearchResult,
    SearchStats,
    SimilaritySearch,
    SubsequenceHit,
)
from repro.core.sequence import MultidimensionalSequence, as_sequence
from repro.core.solution_interval import IntervalSet

__all__ = [
    "DEFAULT_COST_CONSTANT",
    "IntervalSet",
    "MBR",
    "MatchExplanation",
    "MultidimensionalSequence",
    "NormalizedDistance",
    "PartitionedSequence",
    "SearchResult",
    "SearchStats",
    "SegmentKey",
    "SegmentTable",
    "SequenceDatabase",
    "SequenceSegment",
    "SimilaritySearch",
    "SubsequenceHit",
    "as_sequence",
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
