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

Entries are keyed by a fingerprint of the query points.  The cache as a
whole is pinned to one snapshot version — every entry is exact for it,
and a lookup matches only at it.  A write moves the cache to the new
version: for the written sequence id only, each entry whose result sets
change is replaced by a *patched copy* (remove the id, then re-examine it
against the entry's stored query partition at the entry's ε'), and every
other entry stays as it is, reply slot and all.  The patch is computed
outside the cache lock, so readers keep hitting at the old version while
it runs; no write ever flushes the whole cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.contracts import ContractViolation, lower_bounds
from repro.core.mbr import dmbr_columns
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
    ``order`` is a pure function of the entry's sets and of the database
    order of their ids, which no write that leaves the entry in place can
    change; each body is a pure function of the entry and the snapshot
    version in its key.  So two threads racing to fill a key compute the
    same value and either write is right.  A write that changes an
    entry's sets replaces the entry, and the replacement starts with an
    empty slot.
    """

    __slots__ = ("bodies", "order")

    def __init__(self) -> None:
        #: ``(candidates, answers)`` in database order.
        self.order: tuple[tuple[object, ...], tuple[object, ...]] | None = None
        #: Encoded ``/search`` reply bodies by
        #: ``(snapshot_version, find_intervals)``, newest version only.
        self.bodies: dict[tuple[int, bool], bytes] = {}

    def keep(self, version: int, find_intervals: bool, body: bytes) -> bytes:
        """Keep ``body`` as the reply at ``version``; returns the kept bytes.

        Only the newest version's bodies stay — at most two, one per
        ``find_intervals`` — so a body older than the ones held is not
        kept, and a newer one replaces the dict (readers still holding the
        old dict keep reading it).
        """
        bodies = self.bodies
        newest = max((held for held, _ in bodies), default=version)
        if version < newest:
            return body
        if version > newest:
            bodies = self.bodies = {}
        return bodies.setdefault((version, find_intervals), body)


@dataclass
class CacheEntry:
    """One cached search: the query's partition plus exact result sets.

    ``candidates``/``answers``/``intervals`` are exact at threshold
    ``epsilon`` for the snapshot version of the cache that holds the
    entry — :meth:`EpsilonCache.apply_write` maintains that invariant
    across snapshot swaps.  ``box`` is the query's bounding box for the
    write patch's filter: the float64 bytes of the least low corner,
    then of the greatest high corner (bytes, so that a write joins every
    entry's box into one array in a single copy).  It is derived from
    ``query_partition`` at construction unless given.  ``reply`` holds
    what exact hits derive from the sets (:class:`ReplySlot`).
    """

    query_partition: PartitionedSequence
    epsilon: float
    find_intervals: bool
    candidates: set = field(default_factory=set)
    answers: set = field(default_factory=set)
    intervals: dict[object, IntervalSet] = field(default_factory=dict)
    box: bytes = field(default=b"", compare=False, repr=False)
    reply: ReplySlot = field(default_factory=ReplySlot, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.box:
            self.box = np.concatenate(
                (
                    self.query_partition.low_matrix.min(axis=0),
                    self.query_partition.high_matrix.max(axis=0),
                )
            ).tobytes()

    def holds(self, sequence_id: object) -> bool:
        """Whether ``sequence_id`` is in any of the entry's result sets."""
        return (
            sequence_id in self.candidates
            or sequence_id in self.answers
            or sequence_id in self.intervals
        )


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


def _validate_near(
    near: list[bool],
    entries: Sequence[CacheEntry],
    search: SimilaritySearch,
    sequence_id: object,
) -> None:
    skipped = [entry for entry, kept in zip(entries, near) if not kept]
    admitted = search.queries_within(
        [(entry.query_partition, entry.epsilon) for entry in skipped], sequence_id
    )
    if any(admitted):
        raise ContractViolation(
            f"the cache patch's box filter skipped {sum(admitted)} entries "
            f"whose Phase 2 admits {sequence_id!r}"
        )


@lower_bounds(_validate_near, label="box distance <= min Dmbr")
def _near(
    entries: Sequence[CacheEntry], search: SimilaritySearch, sequence_id: object
) -> list[bool]:
    """Per entry: is the written sequence's box within the entry's ε'
    of the entry's query box?

    A no means Phase 2 cannot admit the sequence.  Every corner of a box
    is a copy of a corner of a rectangle inside it, so each per-dimension
    gap between the boxes is at most that between any two of their
    rectangles, also after rounding (a float difference is monotone in
    its operands); ``dmbr_columns`` adds the squares in the order of
    Phase 2's own ``Dmbr``, so the box distance never exceeds the least
    ``Dmbr`` and the filter never drops an entry Phase 2 would admit.
    """
    partition = search.database.partition(sequence_id)
    boxes = np.frombuffer(b"".join([entry.box for entry in entries])).reshape(
        len(entries), 2, -1
    )
    distances = dmbr_columns(
        boxes[:, 0],
        boxes[:, 1],
        partition.low_matrix.min(axis=0)[:, None],
        partition.high_matrix.max(axis=0)[:, None],
    )[:, 0]
    near: list[bool] = (
        distances <= np.array([entry.epsilon for entry in entries])
    ).tolist()
    return near


class EpsilonCache:
    """A bounded LRU of :class:`CacheEntry` keyed by query fingerprint.

    Every entry is exact for the one snapshot ``version`` the cache is
    at.  Thread-safety: every public method takes the internal lock;
    :meth:`apply_write` holds it only to take the entry list and to
    install its result, and the engine serialises it behind its writer
    lock, before the snapshot it patches for is published.
    """

    def __init__(self, capacity: int = 128, version: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = TracedLock("cache.entries")
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._version = version
        # Set while a write's patch is computed off the lock: stores wait
        # for the install (they are refused, so no entry misses the patch).
        self._patching = False
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
        self._replaced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def version(self) -> int:
        """The snapshot version every entry is exact for."""
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self, key: str, epsilon: float, version: int
    ) -> CacheEntry | None:
        """The entry usable for ``(key, epsilon)`` on snapshot ``version``.

        Usable means: same query fingerprint, computed at a threshold
        ``epsilon' >= epsilon`` (ε-monotonic reuse), and the cache is at
        the requested snapshot version.  A usable entry is promoted to
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
        if version != self._version:
            return None
        entry = self._entries.get(key)
        if entry is None or entry.epsilon < epsilon:
            return None
        return entry

    def store(self, key: str, entry: CacheEntry, version: int) -> bool:
        """Insert ``entry``, computed on snapshot ``version``, unless stale.

        Returns whether the entry was stored.  It is refused — counted in
        ``store_races`` — when the cache is not at ``version`` (a writer
        won the race while the search ran) or a write's patch is in
        progress (the entry would miss it).  An existing entry for the
        same query is replaced only by a same-or-wider threshold, so a
        tight search never evicts the wide result that can serve it.
        """
        with self._lock:
            if self._patching or version != self._version:
                self._store_races += 1
                return False
            current = self._entries.get(key)
            if current is not None and current.epsilon > entry.epsilon:
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

    def clear(self, version: int | None = None) -> None:
        """Drop every entry; the empty cache moves to ``version`` if given."""
        with self._lock:
            self._entries.clear()
            if version is not None:
                self._version = version

    def stats(self) -> dict[str, int]:
        """Traffic counters, read atomically under the cache lock.

        ``hits`` includes ``refines`` (a refine *is* an ε-monotonic hit
        that skipped Phases 1–2); ``store_races`` counts stores dropped
        because a concurrent writer made the result stale, a write's
        patch was in progress or a wider entry already covered it;
        ``patches`` counts entries a write examined and ``replaced``
        those it gave new result sets.
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
                "replaced": self._replaced,
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
        """Move the cache to ``new_version``, one written id later.

        Called by the engine (under its writer lock) after building the
        new snapshot but before publishing it.  A single-id patch is
        exact only on top of an exact base, so a cache not at
        ``new_version - 1`` is cleared instead.  Otherwise, for each
        entry: if the id still exists in the new snapshot, re-run the two
        pruning levels for that single sequence at the entry's threshold
        — a bounding-box check first, then Phase 2 and Phase 3 for the
        entries it lets through — and, where the id was in the entry's
        sets or is re-admitted, publish a *new* :class:`CacheEntry`
        without it and with the new verdict.  Every other entry stays the
        same object, reply slot included.

        The lock is held only to take the entry list and to install the
        replacements with the new version.  In between, lookups at the
        old version keep hitting — exact, since the new snapshot is not
        published yet — and stores are refused.  The old entry object is
        never mutated: a reader that looked it up may still be
        materialising a result from its sets.  If the patch raises, the
        cache is left empty at the old version.  Returns the number of
        entries examined.
        """
        with self._lock:
            if self._version != new_version - 1:
                self._evictions += len(self._entries)
                self._entries.clear()
                self._version = new_version
                return 0
            entries = list(self._entries.items())
            self._patching = True
        try:
            replacements = self._patched(entries, sequence_id, search)
        except BaseException:
            with self._lock:
                self._entries.clear()
                self._patching = False
            raise
        examined = len(entries) if sequence_id in search.database else 0
        with self._lock:
            for key, entry in replacements:
                self._entries[key] = entry
            self._version = new_version
            self._patching = False
            self._patches += examined
            self._replaced += len(replacements)
        return examined

    @staticmethod
    def _patched(
        entries: list[tuple[str, CacheEntry]],
        sequence_id: object,
        search: SimilaritySearch,
    ) -> list[tuple[str, CacheEntry]]:
        """The new entries a write of ``sequence_id`` gives, by key."""
        matches: dict[str, IntervalSet | None] = {}
        if entries and sequence_id in search.database:
            near = _near([entry for _, entry in entries], search, sequence_id)
            nearby = [pair for pair, kept in zip(entries, near) if kept]
            # Phases 2 and 3 for the nearby entries in one pass.
            admitted, found = search.match_queries(
                [(e.query_partition, e.epsilon, e.find_intervals) for _, e in nearby],
                sequence_id,
            )
            matches = {
                key: interval
                for (key, _), yes, interval in zip(nearby, admitted, found)
                if yes
            }
        replacements = []
        for key, entry in entries:
            if key not in matches and not entry.holds(sequence_id):
                continue
            candidates = set(entry.candidates)
            answers = set(entry.answers)
            intervals = dict(entry.intervals)
            candidates.discard(sequence_id)
            answers.discard(sequence_id)
            intervals.pop(sequence_id, None)
            if key in matches:
                candidates.add(sequence_id)
                interval = matches[key]
                if interval is not None:
                    answers.add(sequence_id)
                    if entry.find_intervals:
                        intervals[sequence_id] = interval
            replacements.append(
                (
                    key,
                    _published(
                        CacheEntry(
                            query_partition=entry.query_partition,
                            epsilon=entry.epsilon,
                            find_intervals=entry.find_intervals,
                            candidates=candidates,
                            answers=answers,
                            intervals=intervals,
                            box=entry.box,
                        ),
                        "EpsilonCache.apply_write",
                    ),
                )
            )
        return replacements
