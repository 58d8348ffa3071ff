"""The ε-aware LRU result cache of the query engine.

Correctness rests on the monotonicity the contract layer already enforces
(Lemmas 1-3 of the paper): the Phase-2 candidate set and the Phase-3
answer set both *shrink* as ε shrinks.  A cached result computed at
threshold ε' therefore bounds every request at ε <= ε' from above:

* the exact candidate set at ε is ``{s in candidates(ε') : min Dmbr <= ε}``
  — no index probe needed, because any sequence outside ``candidates(ε')``
  has ``min Dmbr > ε' >= ε``;
* the exact answer set at ε is obtained by re-running Phase 3
  (:meth:`~repro.core.search.SimilaritySearch.match_candidates`) over that
  candidate set only — Phases 1 and 2, the index-bound part of the search,
  are skipped entirely.

Entries are keyed by a fingerprint of the query points and pinned to the
engine's snapshot version: a write publishes a new snapshot and, for the
affected sequence id only, publishes a *patched copy* of each entry
(remove the id, then re-examine it against the entry's stored query
partition at the entry's ε') stamped with the new version — so a lookup
matches only entries coherent with the snapshot the request runs on,
readers still holding the pre-write entry keep a state exact for their
snapshot, and no write ever flushes the whole cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.search import SimilaritySearch
from repro.core.solution_interval import IntervalSet
from repro.util.checks import FREEZE
from repro.util.freeze import deep_freeze, freeze
from repro.util.sync import TracedLock
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from repro.core.partitioning import PartitionedSequence

__all__ = ["CacheEntry", "EpsilonCache", "ReplySlot", "query_fingerprint"]


def query_fingerprint(points: np.ndarray) -> str:
    """A stable content hash of a query's point array (shape included)."""
    digest = hashlib.sha256()
    digest.update(str(points.shape).encode())
    digest.update(np.ascontiguousarray(points, dtype=np.float64).tobytes())
    return digest.hexdigest()


class ReplySlot:
    """What an exact hit on one published entry serves, filled on first use.

    The one part of a :class:`CacheEntry` written after publication.
    Every value is a pure function of the entry and of the snapshot its
    ``version`` names, so two threads racing to fill a key compute the
    same value and either write is right.  A write never copies a slot:
    :meth:`EpsilonCache.apply_write` publishes a new entry with an empty
    one, so nothing here outlives the result sets it was derived from.
    """

    __slots__ = ("bodies", "order")

    def __init__(self) -> None:
        #: ``(candidates, answers)`` in database order.
        self.order: tuple[tuple[object, ...], tuple[object, ...]] | None = None
        #: Encoded ``/search`` reply bodies by
        #: ``(snapshot_version, find_intervals)``.
        self.bodies: dict[tuple[int, bool], bytes] = {}


@dataclass
class CacheEntry:
    """One cached search: the query's partition plus exact result sets.

    ``candidates``/``answers``/``intervals`` are exact for the snapshot
    identified by ``version`` at threshold ``epsilon`` — the patching in
    :meth:`EpsilonCache.apply_write` maintains that invariant across
    snapshot swaps.  ``reply`` holds what exact hits derive from them
    (:class:`ReplySlot`).
    """

    query_partition: PartitionedSequence
    epsilon: float
    find_intervals: bool
    candidates: set = field(default_factory=set)
    answers: set = field(default_factory=set)
    intervals: dict[object, IntervalSet] = field(default_factory=dict)
    version: int = 0
    reply: ReplySlot = field(default_factory=ReplySlot, compare=False, repr=False)


def _published(entry: CacheEntry, site: str) -> CacheEntry:
    """The entry object actually shared with concurrent readers.

    Storing transfers ownership of the entry to the cache, so under
    ``REPRO_FREEZE_CHECKS`` its result sets are frozen *in place* before
    publication: any later in-place patching of a shared entry (the bug
    shape :meth:`EpsilonCache.apply_write` exists to avoid) raises
    :class:`~repro.util.freeze.FrozenWriteViolation` instead of silently
    corrupting readers still holding the entry.  The ``reply`` slot stays
    writable: hits fill it after publication.  The disabled path returns
    the entry untouched.
    """
    if not FREEZE.on:
        return entry
    entry.candidates = freeze(entry.candidates, role="cache.entry", site=site)
    entry.answers = freeze(entry.answers, role="cache.entry", site=site)
    entry.intervals = deep_freeze(
        dict(entry.intervals), role="cache.entry", site=site
    )
    return entry


class EpsilonCache:
    """A bounded LRU of :class:`CacheEntry` keyed by query fingerprint.

    Thread-safety: every public method takes the internal lock; the engine
    additionally serialises :meth:`apply_write` behind its writer lock so
    patching and version bumps are atomic with the snapshot swap.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = TracedLock("cache.entries")
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        # Traffic counters, mutated only under self._lock; a "refine" is
        # an ε-monotonic hit (entry computed at a wider threshold, so the
        # engine re-runs Phase 3 over the cached candidate set).
        self._lookups = 0
        self._hits = 0
        self._refines = 0
        self._misses = 0
        self._stores = 0
        self._store_races = 0
        self._evictions = 0
        self._patches = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self, key: str, epsilon: float, version: int
    ) -> CacheEntry | None:
        """The entry usable for ``(key, epsilon)`` on snapshot ``version``.

        Usable means: same query fingerprint, computed at a threshold
        ``epsilon' >= epsilon`` (ε-monotonic reuse), and coherent with the
        requested snapshot version.  A usable entry is promoted to
        most-recently-used.
        """
        epsilon = check_threshold(epsilon)
        with self._lock:
            self._lookups += 1
            entry = self._usable(key, epsilon, version)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            if entry.epsilon > epsilon:
                self._refines += 1
            self._entries.move_to_end(key)
            return entry

    def peek(
        self, key: str, epsilon: float, version: int
    ) -> CacheEntry | None:
        """What :meth:`lookup` would return, without its side effects.

        No LRU promotion and no counters: the engine peeks to pick the
        thread a search runs on, and the body's own lookup is the one
        that counts.
        """
        epsilon = check_threshold(epsilon)
        with self._lock:
            return self._usable(key, epsilon, version)

    def _usable(
        self, key: str, epsilon: float, version: int
    ) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None or entry.version != version or entry.epsilon < epsilon:
            return None
        return entry

    def store(self, key: str, entry: CacheEntry, version: int) -> bool:
        """Insert ``entry`` unless it is already stale.

        Returns whether the entry was stored; an entry computed against an
        older snapshot than ``version`` (a writer won the race while the
        search ran) is dropped rather than poisoning the cache.  An
        existing entry for the same query is replaced only by a same-or-
        wider threshold, so a tight search never evicts the wide result
        that can serve it.
        """
        with self._lock:
            if entry.version != version:
                self._store_races += 1
                return False
            current = self._entries.get(key)
            if (
                current is not None
                and current.version == version
                and current.epsilon > entry.epsilon
            ):
                self._entries.move_to_end(key)
                self._store_races += 1
                return False
            self._entries[key] = _published(entry, "EpsilonCache.store")
            self._entries.move_to_end(key)
            self._stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Traffic counters, read atomically under the cache lock.

        ``hits`` includes ``refines`` (a refine *is* an ε-monotonic hit
        that skipped Phases 1–2); ``store_races`` counts stores dropped
        because a concurrent writer made the result stale or a wider
        entry already covered it.
        """
        with self._lock:
            return {
                "lookups": self._lookups,
                "hits": self._hits,
                "refines": self._refines,
                "misses": self._misses,
                "stores": self._stores,
                "store_races": self._store_races,
                "evictions": self._evictions,
                "patches": self._patches,
            }

    # ------------------------------------------------------------------
    # Write-through patching
    # ------------------------------------------------------------------
    def apply_write(
        self,
        sequence_id: object,
        search: SimilaritySearch,
        new_version: int,
    ) -> int:
        """Re-reconcile every entry with a written sequence id.

        Called by the engine (under its writer lock) after building the
        new snapshot but before publishing it.  For each entry: drop the
        id from all result sets, then — if the id still exists in the new
        snapshot — re-run the two pruning levels for that single sequence
        at the entry's threshold and re-admit it where it qualifies, and
        publish the patch as a *new* :class:`CacheEntry` stamped with
        ``new_version``.

        Only entries coherent with the pre-write snapshot
        (``version == new_version - 1``) are patched: a single-id patch
        is exact only on top of an exact base.  Any other entry is
        evicted — it lost a race with this writer (a search that ran on
        an older snapshot stored its result between this writer's cache
        patch and its snapshot publish) and silently stamping it would
        hide every write it never saw.

        The old entry object is never mutated: a reader that looked it up
        against the previous snapshot may still be materialising a result
        from its sets, and that result must stay exact for *that*
        snapshot.  Entry replacement mirrors the engine's own
        copy-on-write snapshot swap (and keeps each key's LRU position).
        Returns the number of entries re-examined.
        """
        with self._lock:
            coherent: list[tuple[str, CacheEntry]] = []
            for key, entry in list(self._entries.items()):
                if entry.version == new_version - 1:
                    coherent.append((key, entry))
                else:
                    del self._entries[key]
                    self._evictions += 1
            present = sequence_id in search.database
            verdicts = [False] * len(coherent)
            matches: Iterator[IntervalSet | None] = iter(())
            if present:
                # Phase 2 for every entry in one broadcast Dmbr, then Phase 3
                # in one pass for the entries where it said yes.
                verdicts = search.queries_within(
                    [(e.query_partition, e.epsilon) for _, e in coherent],
                    sequence_id,
                )
                matches = iter(
                    search.match_queries(
                        [
                            (e.query_partition, e.epsilon, e.find_intervals)
                            for (_, e), admitted in zip(coherent, verdicts)
                            if admitted
                        ],
                        sequence_id,
                    )
                )
            for (key, entry), is_candidate in zip(coherent, verdicts):
                candidates = entry.candidates
                answers = entry.answers
                intervals = entry.intervals
                if (
                    is_candidate
                    or sequence_id in candidates
                    or sequence_id in answers
                    or sequence_id in intervals
                ):
                    # Only an entry whose result sets change gets new ones;
                    # the rest share theirs with the entry they replace
                    # (nothing mutates a stored entry's sets in place).
                    candidates = set(candidates)
                    answers = set(answers)
                    intervals = dict(intervals)
                    candidates.discard(sequence_id)
                    answers.discard(sequence_id)
                    intervals.pop(sequence_id, None)
                if is_candidate:
                    candidates.add(sequence_id)
                    interval = next(matches)
                    if interval is not None:
                        answers.add(sequence_id)
                        if entry.find_intervals:
                            intervals[sequence_id] = interval
                self._entries[key] = _published(
                    CacheEntry(
                        query_partition=entry.query_partition,
                        epsilon=entry.epsilon,
                        find_intervals=entry.find_intervals,
                        candidates=candidates,
                        answers=answers,
                        intervals=intervals,
                        version=new_version,
                    ),
                    "EpsilonCache.apply_write",
                )
            patched = len(coherent) if present else 0
            self._patches += patched
        return patched
