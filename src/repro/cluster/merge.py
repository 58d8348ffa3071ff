"""Exact merging of per-shard results into one global answer.

Shards are disjoint subsets of the corpus and every verdict of the
paper's pipeline is per-sequence — a sequence passes Phase 2 (Dmbr within
ε, Lemma 1) and Phase 3 (Dnorm within ε, Lemmas 2-3) based only on its
own segments — so merging is set union for range search and a global
k-smallest selection for kNN.  Nothing here approximates: the merged
result of a complete scatter equals what a single node holding the union
corpus would return, which is what the parity tests assert.

Two subtleties, both handled here:

* **Ordering.**  A single node reports answers in corpus insertion
  order; shards only know their local order.  The coordinator therefore
  passes an ``order`` key (its global insertion-order map) so the merged
  lists come back in the exact order the single node would use.
* **Deduplication.**  A backend hosting several shards (the normal case
  under replication) answers a per-shard request from its *whole* local
  database, so the same sequence can appear in more than one shard's
  payload.  Merging dedups by canonical id.  This is why per-shard
  payloads are merged whole rather than filtered down to the shard's own
  ids: a backend's local top-k is exact over everything it hosts (any
  sequence beaten by k closer ones locally is beaten by k closer ones
  globally), whereas filtering could truncate a shard's true top-k away.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.cluster.router import canonical_id
from repro.util.checks import FREEZE
from repro.util.freeze import deep_freeze

__all__ = ["MergedSearch", "merge_knn", "merge_search_payloads"]


@dataclass(frozen=True)
class MergedSearch:
    """The union of per-shard range-search payloads."""

    answers: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    #: Solution intervals keyed by ``str(sequence_id)`` (transport form).
    intervals: dict = field(default_factory=dict)
    #: Aggregated per-shard search statistics.
    stats: dict = field(default_factory=dict)
    #: Snapshot version per responding shard.
    snapshot_versions: dict = field(default_factory=dict)


def merge_search_payloads(
    shard_payloads: dict[int, dict],
    *,
    order: Callable[[object], object],
) -> MergedSearch:
    """Union per-shard ``/search`` payloads into one global result.

    Parameters
    ----------
    shard_payloads:
        ``shard -> payload`` for every shard that responded, where each
        payload has the HTTP transport shape (``answers``, ``candidates``,
        optional ``intervals`` keyed by ``str(sequence_id)``, ``stats``).
    order:
        Sort key reproducing the single-node corpus order; applied to the
        merged ``answers`` and ``candidates`` lists.
    """
    if FREEZE.on:
        # The per-shard payloads are shared with the read-repair and
        # degradation paths; the merge must never mutate them.  Under
        # checks, freeze the inputs so any such write raises here.
        shard_payloads = deep_freeze(
            dict(shard_payloads),
            role="cluster.merge",
            site="merge_search_payloads",
        )
    answers: list = []
    candidates: list = []
    intervals: dict = {}
    versions: dict = {}
    seen_answers: set[str] = set()
    seen_candidates: set[str] = set()
    totals = {"query_segments": 0, "node_accesses": 0, "dnorm_evaluations": 0}
    for shard in sorted(shard_payloads):
        payload = shard_payloads[shard]
        for sid in payload.get("answers", ()):
            key = canonical_id(sid)
            if key not in seen_answers:
                seen_answers.add(key)
                answers.append(sid)
        for sid in payload.get("candidates", ()):
            key = canonical_id(sid)
            if key not in seen_candidates:
                seen_candidates.add(key)
                candidates.append(sid)
        intervals.update(payload.get("intervals", {}))
        if "snapshot_version" in payload:
            versions[shard] = payload["snapshot_version"]
        stats = payload.get("stats", {})
        for key in totals:
            totals[key] += int(stats.get(key, 0))
        # Every shard partitions the query identically; the segment count
        # is a property of the query, not of the scatter width.
        if "query_segments" in stats:
            totals["query_segments"] = int(stats["query_segments"])
    answers.sort(key=order)
    candidates.sort(key=order)
    return MergedSearch(
        answers=answers,
        candidates=candidates,
        intervals=intervals,
        stats=totals,
        snapshot_versions=versions,
    )


def merge_knn(
    shard_neighbors: Iterable[list],
    k: int,
    *,
    order: Callable[[object], object],
) -> list[tuple[float, object]]:
    """The global ``k`` nearest among per-shard neighbor lists.

    Each responding backend contributes its local top-``k`` as
    ``(distance, sequence_id)`` pairs; the global answer is exactly the
    ``k`` smallest distances across them.  Exactness holds because every
    covered sequence appears in at least one contributing list's source:
    a globally top-``k`` sequence has fewer than ``k`` closer sequences
    anywhere, hence fewer than ``k`` closer ones on its own backend, so
    its backend's local top-``k`` includes it.  Sequences hosted by
    several queried backends appear in several lists at the same
    distance; the merge keeps each id once.  Ties on distance break by
    the ``order`` key, keeping the merged list deterministic regardless
    of shard count.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if FREEZE.on:
        shard_neighbors = deep_freeze(
            [list(neighbors) for neighbors in shard_neighbors],
            role="cluster.merge",
            site="merge_knn",
        )
    merged = heapq.merge(
        *(
            sorted(
                ((float(distance), sid) for distance, sid in neighbors),
                key=lambda pair: (pair[0], order(pair[1])),
            )
            for neighbors in shard_neighbors
        ),
        key=lambda pair: (pair[0], order(pair[1])),
    )
    seen: set[str] = set()
    top: list[tuple[float, object]] = []
    for distance, sid in merged:
        key = canonical_id(sid)
        if key in seen:
            continue
        seen.add(key)
        top.append((distance, sid))
        if len(top) == k:
            break
    return top
