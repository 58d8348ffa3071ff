"""Contract checking: the public surface and audit helpers.

The enforcement machinery lives in :mod:`repro.core.contracts` (it must be
importable from ``core`` without crossing layers); this module re-exports it
for users and adds analysis-level helpers that *actively* audit a database
rather than waiting for decorated calls to fire:

* :func:`lower_bound_chain` — compute all three levels of the hierarchy for
  one (query, sequence) pair and verify ``min Dmbr <= min Dnorm <= D``.
* :func:`audit_search` — run a query workload through a search engine with
  contract checking enabled, so every decorated call in the hot path is
  verified against independently recomputed bounds.

Enable checking globally with ``REPRO_CHECK_CONTRACTS=1`` or for a scope
(see "Runtime checks" in ``docs/static_analysis.md``)::

    from repro.analysis.contracts import checking

    with checking("contracts"):
        engine.search(query, 0.1)   # validated, or ContractViolation
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.contracts import BOUND_TOLERANCE, ContractViolation, lower_bounds
from repro.core.distance import min_normalized_distance, sequence_distance
from repro.util.checks import checking
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from repro.core.partitioning import PartitionedSequence
    from repro.core.search import SimilaritySearch
    from repro.core.sequence import MultidimensionalSequence

__all__ = [
    "BOUND_TOLERANCE",
    "BoundChain",
    "ContractViolation",
    "audit_search",
    "checking",
    "lower_bound_chain",
    "lower_bounds",
]


@dataclass(frozen=True)
class BoundChain:
    """The three levels of the paper's distance hierarchy for one pair."""

    min_dmbr: float
    min_dnorm: float
    exact_distance: float

    def holds(self, *, tolerance: float = BOUND_TOLERANCE) -> bool:
        """Whether ``min Dmbr <= min Dnorm <= D`` within ``tolerance``."""
        return (
            self.min_dmbr <= self.min_dnorm + tolerance
            and self.min_dnorm <= self.exact_distance + tolerance
        )


def lower_bound_chain(
    query_partition: PartitionedSequence,
    data_partition: PartitionedSequence,
    *,
    verify: bool = True,
) -> BoundChain:
    """Compute ``(min Dmbr, min Dnorm, D)`` for one pair of partitions.

    Parameters
    ----------
    query_partition, data_partition:
        The two partitioned sequences to compare.
    verify:
        When true (default), raise :class:`ContractViolation` if the chain
        is out of order — this check always runs, independent of the
        ``REPRO_CHECK_CONTRACTS`` toggle.
    """
    min_dmbr = min(
        float(data_partition.mbr_distance_row(segment.mbr).min())
        for segment in query_partition
    )
    min_dnorm = min_normalized_distance(query_partition, data_partition)
    exact = sequence_distance(
        query_partition.sequence, data_partition.sequence
    )
    chain = BoundChain(
        min_dmbr=min_dmbr, min_dnorm=min_dnorm, exact_distance=float(exact)
    )
    if verify and not chain.holds():
        raise ContractViolation(
            f"lower-bound chain out of order: Dmbr {min_dmbr!r}, "
            f"Dnorm {min_dnorm!r}, D {exact!r}"
        )
    return chain


def audit_search(
    engine: SimilaritySearch,
    queries: Iterable[MultidimensionalSequence],
    epsilon: float,
    *,
    find_intervals: bool = True,
) -> int:
    """Run a workload with contract checking on; return the search count.

    Every decorated call in the search path (``Dnorm`` windows, the
    end-to-end no-false-dismissal check, interval algebra) is validated for
    each query.  Raises :class:`ContractViolation` on the first broken
    bound; completing normally certifies the workload.
    """
    epsilon = check_threshold(epsilon)
    searches = 0
    with checking("contracts"):
        for query in queries:
            engine.search(query, epsilon, find_intervals=find_intervals)
            searches += 1
    return searches
