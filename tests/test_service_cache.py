"""Unit and property tests for the ε-aware result cache.

The load-bearing claim: serving from the cache — whether an exact-ε hit
or a tighter-ε refine — NEVER changes a result set relative to an
uncached engine.  The hypothesis test at the bottom drives that claim
with the same corpus generator as the end-to-end search property tests.
"""

import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.service.cache as cache_module
from repro.core.contracts import ContractViolation
from repro.core.database import SequenceDatabase
from repro.core.mbr import min_dmbr_columns
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.service import QueryEngine
from repro.service.cache import CacheEntry, EpsilonCache, query_fingerprint
from repro.util.checks import checking
from tests.test_properties_search import corpora


def make_database(rng, count=6):
    database = SequenceDatabase(dimension=2)
    for ordinal in range(count):
        database.add(rng.random((24, 2)), sequence_id=f"s{ordinal}")
    return database


def entry_from_search(search, query, epsilon):
    result = search.search(query, epsilon)
    return result, CacheEntry(
        query_partition=result.query_partition,
        epsilon=epsilon,
        find_intervals=True,
        candidates=set(result.candidates),
        answers=set(result.answers),
        intervals=dict(result.solution_intervals),
    )


def assert_exact(entry, search, query=None):
    """The entry's sets are what a fresh search on ``search`` finds."""
    if query is None:
        query = entry.query_partition.sequence.points
    fresh = search.search(query, entry.epsilon, find_intervals=entry.find_intervals)
    assert entry.candidates == set(fresh.candidates)
    assert entry.answers == set(fresh.answers)
    assert entry.intervals == fresh.solution_intervals


class TestFingerprint:
    def test_same_content_same_fingerprint(self, rng):
        points = rng.random((12, 3))
        assert query_fingerprint(points) == query_fingerprint(points.copy())

    def test_dtype_is_canonicalised(self, rng):
        points = rng.random((8, 2))
        assert query_fingerprint(points) == query_fingerprint(
            points.astype(np.float64)
        )

    def test_different_shape_or_content_differ(self, rng):
        points = rng.random((12, 2))
        assert query_fingerprint(points) != query_fingerprint(points[:6])
        assert query_fingerprint(points) != query_fingerprint(
            points.reshape(2, 12)
        )
        nudged = points.copy()
        nudged[0, 0] += 1e-9
        assert query_fingerprint(points) != query_fingerprint(nudged)


class TestLookupStore:
    def test_epsilon_monotonic_lookup(self, rng):
        search = SimilaritySearch(make_database(rng))
        query = rng.random((10, 2))
        _, entry = entry_from_search(search, query, 0.5)
        cache = EpsilonCache(capacity=4)
        assert cache.store("q", entry, version=0)
        assert cache.lookup("q", 0.5, version=0) is entry
        assert cache.lookup("q", 0.2, version=0) is entry  # tighter: usable
        assert cache.lookup("q", 0.7, version=0) is None  # wider: not usable
        assert cache.lookup("q", 0.5, version=1) is None  # other snapshot
        assert cache.lookup("other", 0.5, version=0) is None

    def test_store_drops_stale_entry(self, rng):
        search = SimilaritySearch(make_database(rng))
        _, entry = entry_from_search(search, rng.random((10, 2)), 0.5)
        cache = EpsilonCache(capacity=4, version=3)
        # Computed on snapshot 0; writers moved the cache on meanwhile.
        assert not cache.store("q", entry, version=0)
        assert len(cache) == 0
        assert cache.stats()["store_races"] == 1

    def test_narrower_entry_never_evicts_wider(self, rng):
        search = SimilaritySearch(make_database(rng))
        query = rng.random((10, 2))
        _, wide = entry_from_search(search, query, 0.6)
        _, tight = entry_from_search(search, query, 0.2)
        cache = EpsilonCache(capacity=4)
        assert cache.store("q", wide, version=0)
        assert not cache.store("q", tight, version=0)
        assert cache.lookup("q", 0.6, version=0) is wide

    def test_lru_eviction(self, rng):
        search = SimilaritySearch(make_database(rng))
        cache = EpsilonCache(capacity=2)
        entries = {}
        for name in ("a", "b", "c"):
            _, entries[name] = entry_from_search(search, rng.random((8, 2)), 0.4)
            cache.store(name, entries[name], version=0)
        assert cache.lookup("a", 0.4, version=0) is None  # oldest evicted
        assert cache.lookup("b", 0.4, version=0) is entries["b"]
        # "b" is now most recent; inserting "d" evicts "c"
        _, entries["d"] = entry_from_search(search, rng.random((8, 2)), 0.4)
        cache.store("d", entries["d"], version=0)
        assert cache.lookup("c", 0.4, version=0) is None
        assert cache.lookup("b", 0.4, version=0) is entries["b"]

    def test_clear_and_capacity_validation(self):
        with pytest.raises(ValueError):
            EpsilonCache(capacity=0)
        cache = EpsilonCache(capacity=2)
        cache.clear()
        assert len(cache) == 0


class TestApplyWrite:
    def test_insert_patch_equals_fresh_search(self, rng):
        database = make_database(rng)
        query = rng.random((10, 2))
        search = SimilaritySearch(database)
        _, entry = entry_from_search(search, query, 0.5)
        cache = EpsilonCache(capacity=4)
        cache.store("q", entry, version=0)

        grown = database.clone()
        grown.add(rng.random((24, 2)), sequence_id="newcomer")
        patched = cache.apply_write("newcomer", SimilaritySearch(grown), 1)
        assert patched == 1
        assert cache.version == 1

        fresh = SimilaritySearch(grown).search(query, 0.5)
        assert "newcomer" in fresh.candidates
        patched_entry = cache.lookup("q", 0.5, version=1)
        assert patched_entry is not None
        assert_exact(patched_entry, SimilaritySearch(grown), query)
        assert cache.lookup("q", 0.5, version=0) is None
        # The original entry is untouched: a reader still holding it sees
        # the state that was exact for snapshot 0.
        assert patched_entry is not entry
        assert "newcomer" not in entry.candidates
        assert cache.stats()["replaced"] == 1

    def test_remove_patch_drops_sequence(self, rng):
        database = make_database(rng)
        query = rng.random((10, 2))
        search = SimilaritySearch(database)
        result, entry = entry_from_search(search, query, 0.8)
        assume_target = result.answers[0] if result.answers else "s0"
        cache = EpsilonCache(capacity=4)
        cache.store("q", entry, version=0)

        shrunk = database.clone()
        shrunk.remove(assume_target)
        cache.apply_write(assume_target, SimilaritySearch(shrunk), 1)

        fresh = SimilaritySearch(shrunk).search(query, 0.8)
        patched_entry = cache.lookup("q", 0.8, version=1)
        assert patched_entry is not None
        assert assume_target not in patched_entry.candidates
        assert patched_entry.candidates == set(fresh.candidates)
        assert patched_entry.answers == set(fresh.answers)
        assert patched_entry.intervals == fresh.solution_intervals
        # Copy-on-write patching: the pre-write entry still holds the
        # removed id, exact for snapshot 0.
        assert assume_target in entry.candidates or not result.answers

    def test_incoherent_entry_is_evicted_not_stamped(self, rng):
        """A patch to v+2 on a cache at v clears it rather than stamping
        its entries with v+2 — a single-id patch is only exact on an
        exact base, and the cache never saw the write of v+1."""
        database = make_database(rng)
        query = rng.random((10, 2))
        _, entry = entry_from_search(SimilaritySearch(database), query, 0.5)
        cache = EpsilonCache(capacity=4)
        cache.store("q", entry, version=0)

        grown = database.clone()
        grown.add(rng.random((24, 2)), sequence_id="v1-missed")
        grown.add(rng.random((24, 2)), sequence_id="v2-seen")
        # Writer v2 patches for its own id only; the cache is at 0, not
        # 1, so it cannot be patched up to 2.
        assert cache.apply_write("v2-seen", SimilaritySearch(grown), 2) == 0
        assert cache.lookup("q", 0.5, version=2) is None
        assert len(cache) == 0
        assert cache.version == 2
        # The empty cache is exact for v2: a search there stores again.
        _, fresh = entry_from_search(SimilaritySearch(grown), query, 0.5)
        assert cache.store("q", fresh, version=2)
        assert_exact(cache.lookup("q", 0.5, version=2), SimilaritySearch(grown))


def reference_apply_write(entries, sequence_id, search):
    """The per-entry patch loop the batched ``apply_write`` replaced.

    One entry at a time: Phase 2 as a Python loop over the query segments
    (one ``Dmbr`` row each, stopping at the first within the threshold),
    then Phase 3 where that said yes.  ``entries`` maps key to
    :class:`CacheEntry`; returns every key's result sets and the number
    of entries re-examined.
    """
    outcome = {}
    patched = 0
    for key, entry in entries.items():
        candidates = set(entry.candidates) - {sequence_id}
        answers = set(entry.answers) - {sequence_id}
        intervals = {
            sid: span for sid, span in entry.intervals.items() if sid != sequence_id
        }
        if sequence_id in search.database:
            partition = search.database.partition(sequence_id)
            if any(
                float(partition.mbr_distance_row(segment.mbr).min())
                <= entry.epsilon
                for segment in entry.query_partition
            ):
                candidates.add(sequence_id)
                matched = search.match_candidates(
                    entry.query_partition,
                    [sequence_id],
                    entry.epsilon,
                    find_intervals=entry.find_intervals,
                )
                if matched:
                    answers.add(sequence_id)
                    if entry.find_intervals:
                        intervals.update(matched)
            patched += 1
        outcome[key] = (candidates, answers, intervals)
    return outcome, patched


class TestBatchedApplyWriteParity:
    """The box filter and one broadcast Phase 2 over the entries it lets
    through give what the per-entry loop gave: same result sets, same
    counters — and the entries whose sets the write leaves alone stay
    the same objects."""

    @staticmethod
    def _walk(rng, length, dimension):
        steps = rng.normal(0, 0.03, (length, dimension))
        return np.clip(rng.random(dimension) + np.cumsum(steps, axis=0), 0, 1)

    def _scenario(self, seed, dimension):
        """A corpus, a cache full of mixed entries, and the entries again."""
        rng = np.random.default_rng(seed)
        database = SequenceDatabase(dimension, max_points=6)
        for ordinal in range(10):
            database.add(
                self._walk(rng, int(rng.integers(8, 60)), dimension),
                sequence_id=f"s{ordinal}",
            )
        search = SimilaritySearch(database)
        cache = EpsilonCache(capacity=64, version=7)
        entries = {}
        for ordinal in range(24):
            # Every third query is longer than most stored sequences: the
            # long-query role swap of Phase 3 must survive the patch too.
            length = 70 if ordinal % 3 == 0 else int(rng.integers(4, 20))
            query = self._walk(rng, length, dimension)
            epsilon = float(rng.choice([0.0, 0.03, 0.1, 0.3, 0.8]))
            find_intervals = ordinal % 4 != 1
            result = search.search(query, epsilon, find_intervals=find_intervals)
            entry = CacheEntry(
                query_partition=result.query_partition,
                epsilon=epsilon,
                find_intervals=find_intervals,
                candidates=set(result.candidates),
                answers=set(result.answers),
                intervals=dict(result.solution_intervals),
            )
            entries[f"q{ordinal}"] = entry
            assert cache.store(f"q{ordinal}", entry, version=7)
        return rng, database, cache, entries

    def _check(self, cache, entries, sequence_id, database, new_version):
        search = SimilaritySearch(database)
        before = cache.stats()
        expected, expected_patched = reference_apply_write(
            entries, sequence_id, search
        )
        # Replaced: the id was in the entry's sets or Phase 2 admits it.
        touched = {
            key
            for key, (candidates, _, _) in expected.items()
            if sequence_id in candidates or entries[key].holds(sequence_id)
        }
        assert cache.apply_write(sequence_id, search, new_version) == expected_patched
        after = cache.stats()
        assert after["patches"] - before["patches"] == expected_patched
        assert after["replaced"] - before["replaced"] == len(touched)
        assert after["evictions"] == before["evictions"]
        assert len(cache) == len(expected) == len(entries)
        patched_entries = {}
        for key, (candidates, answers, intervals) in expected.items():
            entry = cache.lookup(key, entries[key].epsilon, version=new_version)
            assert entry is not None
            assert (entry is entries[key]) is (key not in touched)
            assert entry.candidates == candidates
            assert entry.answers == answers
            assert entry.intervals == intervals
            assert entry.find_intervals == entries[key].find_intervals
            # Exactness, not just agreement with the reference: a fresh
            # search on the new snapshot finds the same sets.
            assert_exact(entry, search)
            patched_entries[key] = entry
        return patched_entries

    @pytest.mark.parametrize("dimension", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_insert_then_append_then_remove(self, seed, dimension):
        rng, database, cache, entries = self._scenario(seed, dimension)
        stored = dict(entries)
        originals = {
            key: (set(e.candidates), set(e.answers), dict(e.intervals))
            for key, e in stored.items()
        }

        grown = database.clone()
        grown.add(self._walk(rng, 40, dimension), sequence_id="written")
        entries = self._check(cache, entries, "written", grown, 8)

        appended = grown.clone()
        appended.append_points("written", self._walk(rng, 30, dimension))
        entries = self._check(cache, entries, "written", appended, 9)

        # A write to an id the entries already hold (an old sequence grows).
        appended.append_points("s3", self._walk(rng, 25, dimension))
        entries = self._check(cache, entries, "s3", appended, 10)

        shrunk = appended.clone()
        shrunk.remove("written")
        self._check(cache, entries, "written", shrunk, 11)

        # Copy-on-write: the entries stored before the first write still
        # hold exactly what they held.
        for key, held in originals.items():
            entry = stored[key]
            assert (entry.candidates, entry.answers, entry.intervals) == held

    def test_untouched_entries_share_their_result_sets(self, rng):
        """An entry the write cannot affect is left in place: the same
        object, so the same sets and the same reply slot."""
        database = make_database(rng)
        search = SimilaritySearch(database)
        _, entry = entry_from_search(search, np.full((6, 2), 0.01), 0.001)
        cache = EpsilonCache(capacity=4)
        cache.store("q", entry, version=0)
        slot = entry.reply
        grown = database.clone()
        grown.add(np.full((8, 2), 0.99), sequence_id="far-away")
        assert cache.apply_write("far-away", SimilaritySearch(grown), 1) == 1
        patched = cache.lookup("q", 0.001, version=1)
        assert patched is entry and patched.reply is slot
        assert cache.stats()["replaced"] == 0
        assert_exact(patched, SimilaritySearch(grown))

    def test_empty_cache_and_all_stale(self, rng):
        database = make_database(rng)
        search = SimilaritySearch(database)
        cache = EpsilonCache(capacity=4)
        assert cache.apply_write("s0", search, 1) == 0
        assert cache.version == 1
        _, entry = entry_from_search(search, rng.random((10, 2)), 0.5)
        assert cache.store("q", entry, version=1)
        assert cache.apply_write("s0", search, 5) == 0
        assert len(cache) == 0
        assert cache.version == 5
        assert cache.stats()["evictions"] == 1


class TestQueriesWithin:
    def test_matches_the_one_query_verdicts(self, rng):
        database = make_database(rng, count=5)
        search = SimilaritySearch(database)
        partitions = [
            search.search(rng.random((int(rng.integers(3, 30)), 2)), 0.1).query_partition
            for _ in range(12)
        ]
        for epsilon in (0.0, 0.05, 0.2, 0.6):
            queries = [(partition, epsilon) for partition in partitions]
            for sid in database.ids():
                verdicts = search.queries_within(queries, sid)
                stored = database.partition(sid)
                assert verdicts == [
                    min(
                        float(stored.mbr_distance_row(segment.mbr).min())
                        for segment in partition
                    )
                    <= epsilon
                    for partition in partitions
                ]
                assert verdicts == [
                    search.candidates_within(partition, [sid], epsilon) == [sid]
                    for partition in partitions
                ]
        assert search.queries_within([], "s0") == []
        with pytest.raises(KeyError):
            search.queries_within([(partitions[0], 0.1)], "missing")
        with pytest.raises(ValueError):
            search.queries_within([(partitions[0], -0.1)], "s0")

    def test_blocked_broadcast_equals_one_block(self, rng, monkeypatch):
        import repro.core.mbr as mbr_module

        database = make_database(rng, count=3)
        search = SimilaritySearch(database)
        queries = [
            (search.search(rng.random((25, 2)), 0.1).query_partition, 0.15)
            for _ in range(9)
        ]
        whole = search.queries_within(queries, "s1")
        monkeypatch.setattr(mbr_module, "BROADCAST_CELLS", 1)
        assert search.queries_within(queries, "s1") == whole


class TestEpsilonMonotonicProperty:
    @given(corpora(dims=(1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_cached_engine_never_changes_results(self, case):
        """miss, hit and refine all match the uncached engine exactly —
        answers, candidates and solution intervals."""
        sequences, query, epsilon = case
        assume(epsilon > 1e-6)
        database = SequenceDatabase(
            dimension=sequences[0].shape[1], max_points=4
        )
        for ordinal, points in enumerate(sequences):
            database.add(points, sequence_id=ordinal)
        reference = SimilaritySearch(database.clone())

        tighter = epsilon * 0.5
        plan = [
            (epsilon, "miss"),
            (epsilon, "hit"),
            (float(np.nextafter(epsilon, 0)), "refine"),
            (tighter, "refine"),
        ]
        with QueryEngine(database, workers=2, cache_size=8) as engine:
            for threshold, outcome in plan:
                detailed = engine.search_detailed(query, threshold)
                expected = reference.search(query, threshold)
                assert detailed.cache == outcome
                assert detailed.result.answers == expected.answers
                assert detailed.result.candidates == expected.candidates
                assert (
                    detailed.result.solution_intervals
                    == expected.solution_intervals
                )

    def test_a_threshold_just_below_the_entry_refines(self):
        """An entry stored at ε' is an exact hit at ε' only: at the next
        float below, ``far`` (at distance exactly 0.3) is no answer, and
        only a refine finds that out."""
        database = SequenceDatabase(dimension=1)
        database.add(np.full((20, 1), 0.3), sequence_id="far")
        query = np.zeros((8, 1))
        tighter = 0.3 - 1e-13
        reference = SimilaritySearch(database.clone())
        with QueryEngine(database, workers=1, cache_size=8) as engine:
            assert engine.search_detailed(query, 0.3).result.answers == ["far"]
            detailed = engine.search_detailed(query, tighter)
        assert reference.search(query, tighter).answers == []
        assert detailed.cache == "refine"
        assert detailed.result.answers == []


class TestPatchOffTheLock:
    """A write's patch holds the cache lock only to take the entries and
    to install the new ones: readers keep hitting in between."""

    @staticmethod
    def _near_write(rng):
        """A cached query and a write that Phase 3 must examine for it."""
        database = make_database(rng)
        query = rng.random((10, 2))
        _, entry = entry_from_search(SimilaritySearch(database), query, 0.5)
        cache = EpsilonCache(capacity=4)
        assert cache.store("q", entry, version=0)
        grown = database.clone()
        grown.add(query, sequence_id="written")
        return query, entry, cache, SimilaritySearch(grown)

    def test_readers_hit_while_a_patch_runs(self, rng, monkeypatch):
        query, entry, cache, search = self._near_write(rng)
        entered, release = threading.Event(), threading.Event()
        match_queries = search.match_queries

        def paused(*args, **kwargs):
            entered.set()
            release.wait(10)
            return match_queries(*args, **kwargs)

        monkeypatch.setattr(search, "match_queries", paused)
        writer = threading.Thread(target=cache.apply_write, args=("written", search, 1))
        seen = {}

        def read():
            seen["entry"] = cache.lookup("q", 0.5, version=0)
            _, other = entry_from_search(search, rng.random((6, 2)), 0.5)
            seen["stored"] = cache.store("other", other, version=0)

        reader = threading.Thread(target=read)
        races = cache.stats()["store_races"]
        writer.start()
        try:
            assert entered.wait(5)
            reader.start()
            reader.join(1.0)
            assert not reader.is_alive(), "a lookup waited for the patch"
        finally:
            release.set()
            writer.join(10)
            reader.join(10)
        assert seen == {"entry": entry, "stored": False}
        assert cache.stats()["store_races"] == races + 1
        patched = cache.lookup("q", 0.5, version=1)
        assert patched is not None and patched is not entry
        assert "written" in patched.candidates
        assert_exact(patched, search, query)
        assert cache.lookup("q", 0.5, version=0) is None

    def test_a_raising_patch_leaves_the_cache_empty_and_open(
        self, rng, monkeypatch
    ):
        _, _, cache, search = self._near_write(rng)

        def broken(*args, **kwargs):
            raise RuntimeError("phase 3 failed")

        monkeypatch.setattr(search, "match_queries", broken)
        with pytest.raises(RuntimeError, match="phase 3 failed"):
            cache.apply_write("written", search, 1)
        assert len(cache) == 0
        assert cache.version == 0
        # No patch is marked in progress: a store at the version is taken.
        _, entry = entry_from_search(search, rng.random((6, 2)), 0.5)
        assert cache.store("q", entry, version=0)


class TestBoxFilter:
    """The patch's bounding-box check never drops an entry Phase 2 admits."""

    @given(
        st.integers(1, 4).flatmap(
            lambda dimension: st.tuples(
                st.lists(
                    arrays(
                        np.float64,
                        st.tuples(st.integers(1, 30), st.just(dimension)),
                        elements=st.floats(0.0, 1.0, width=64),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                arrays(
                    np.float64,
                    st.tuples(st.integers(1, 30), st.just(dimension)),
                    elements=st.floats(0.0, 1.0, width=64),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_box_distance_never_exceeds_the_least_dmbr(self, case):
        """Compared exactly: each entry's ε' is its least ``Dmbr`` to the
        sequence, so the filter keeps it only if the box distance is at
        most that value, to the last bit."""
        queries, points = case
        database = SequenceDatabase(dimension=points.shape[1], max_points=3)
        database.add(points, sequence_id="s")
        search = SimilaritySearch(database)
        stored = database.partition("s")
        entries = []
        for points in queries:
            partition = partition_sequence(
                MultidimensionalSequence(points), max_points=3
            )
            least = min_dmbr_columns(
                partition.low_matrix,
                partition.high_matrix,
                stored.low_matrix.T,
                stored.high_matrix.T,
                axis=1,
                site="test",
            ).min()
            entries.append(
                CacheEntry(query_partition=partition, epsilon=float(least), find_intervals=False)
            )
        assert cache_module._near(entries, search, "s") == [True] * len(entries)

    def test_contract_catches_a_filter_that_drops_an_admitted_entry(
        self, rng, checks_off, monkeypatch
    ):
        real = cache_module.dmbr_columns
        monkeypatch.setattr(
            cache_module, "dmbr_columns", lambda *args: real(*args) + 1.0
        )
        _, _, cache, search = TestPatchOffTheLock._near_write(rng)
        cache.apply_write("written", search, 1)  # checks off: a silent miss
        assert "written" not in cache.lookup("q", 0.5, version=1).candidates
        _, _, cache, search = TestPatchOffTheLock._near_write(rng)
        with checking("contracts"):
            with pytest.raises(ContractViolation, match="box filter"):
                cache.apply_write("written", search, 1)
