"""The frozen-snapshot sanitizer and its integration tests.

Unit tests pin the sanitizer's contract — a passthrough while off,
shallow/deep freezing, read-only proxies, :func:`verify_frozen`
boundary walks — and the integration
tests run the real engine and cluster with checks armed, asserting that
no :class:`FrozenWriteViolation` fires and that the regression shapes
(the once-writable partition matrices, in-place patching of a shared
cache entry) now raise instead of corrupting concurrent readers.
"""

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, LocalBackend, ShardRouter
from repro.cluster.merge import merge_knn, merge_search_payloads
from repro.core.database import SequenceDatabase
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.service import QueryEngine
from repro.service.cache import CacheEntry, EpsilonCache
from repro.util.checks import checking
from repro.util.freeze import (
    FrozenDict,
    FrozenList,
    FrozenWriteViolation,
    deep_freeze,
    freeze,
    frozen_view,
    verify_frozen,
)
from tests.test_checks import assert_env_value, assert_scopes_nest

DIMENSION = 2


@pytest.fixture(autouse=True)
def clean_freeze_state(check_env):
    """Switch ``REPRO_FREEZE_CHECKS`` off: these tests pin the disabled
    path and arm checks explicitly via ``checking("freeze")``, so they
    must behave identically under CI's sanitizer job (which exports the
    variable suite-wide)."""
    check_env(freeze=None)


# ----------------------------------------------------------------------
# Toggling
# ----------------------------------------------------------------------
class TestToggle:
    def test_disabled_by_default(self):
        # verify_frozen is a no-op passthrough when disabled, even on a
        # blatantly writable structure.
        writable = {"arr": np.zeros(3)}
        assert verify_frozen(writable, role="t", site="t") is writable

    def test_checking_freeze_scope_nests(self):
        assert_scopes_nest("freeze")

    def test_env_var_enables(self, check_env):
        assert_env_value("freeze", check_env, "1", True)
        assert_env_value("freeze", check_env, "0", False)


# ----------------------------------------------------------------------
# freeze / deep_freeze / frozen_view
# ----------------------------------------------------------------------
class TestFreeze:
    def test_array_frozen_in_place(self):
        arr = np.arange(4.0)
        assert freeze(arr) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 9.0

    def test_list_proxy_reads_like_a_list(self):
        frozen = freeze([1, 2, 3], role="t", site="t")
        assert isinstance(frozen, list)
        assert frozen == [1, 2, 3]
        assert frozen[1] == 2
        assert list(reversed(frozen)) == [3, 2, 1]

    def test_list_proxy_mutators_raise(self):
        frozen = freeze([1, 2, 3], role="cache.entry", site="here")
        for mutate in (
            lambda: frozen.append(4),
            lambda: frozen.extend([4]),
            lambda: frozen.insert(0, 0),
            lambda: frozen.remove(1),
            lambda: frozen.pop(),
            lambda: frozen.clear(),
            lambda: frozen.sort(),
            lambda: frozen.reverse(),
            lambda: frozen.__setitem__(0, 9),
            lambda: frozen.__delitem__(0),
        ):
            with pytest.raises(FrozenWriteViolation) as caught:
                mutate()
            assert caught.value.role == "cache.entry"
            assert caught.value.site == "here"

    def test_dict_proxy_mutators_raise(self):
        frozen = freeze({"a": 1}, role="t", site="t")
        assert isinstance(frozen, dict)
        assert frozen["a"] == 1
        assert frozen.get("missing") is None
        for mutate in (
            lambda: frozen.__setitem__("b", 2),
            lambda: frozen.__delitem__("a"),
            lambda: frozen.pop("a"),
            lambda: frozen.popitem(),
            lambda: frozen.clear(),
            lambda: frozen.update({"b": 2}),
            lambda: frozen.setdefault("b", 2),
        ):
            with pytest.raises(FrozenWriteViolation):
                mutate()

    def test_set_becomes_frozenset(self):
        assert freeze({1, 2}) == frozenset({1, 2})
        assert isinstance(freeze({1, 2}), frozenset)

    def test_deep_freeze_nested_structure(self):
        structure = {
            "arrays": [np.zeros(2), np.ones(2)],
            "nested": {"ids": [1, 2], "tag": "x"},
            "pair": (np.arange(3.0), {"inner": [np.zeros(1)]}),
        }
        frozen = deep_freeze(structure, role="t", site="t")
        assert isinstance(frozen, FrozenDict)
        assert isinstance(frozen["arrays"], FrozenList)
        assert not frozen["arrays"][0].flags.writeable
        assert not frozen["pair"][0].flags.writeable
        assert not frozen["pair"][1]["inner"][0].flags.writeable
        with pytest.raises(FrozenWriteViolation):
            frozen["nested"]["ids"].append(3)
        # The caller's original containers stay mutable.
        structure["nested"]["extra"] = True

    def test_deep_freeze_handles_cycles(self):
        loop = {"name": "outer"}
        loop["self"] = loop
        frozen = deep_freeze(loop)
        assert frozen["name"] == "outer"

    def test_deep_freeze_object_graph_freezes_arrays(self):
        sequence = MultidimensionalSequence(
            np.random.default_rng(0).random((12, DIMENSION))
        )
        partition = partition_sequence(sequence)
        deep_freeze(partition, role="t", site="t")
        assert not partition.counts.flags.writeable

    def test_frozen_view_leaves_base_writable(self):
        base = np.arange(4.0)
        view = frozen_view(base)
        assert not view.flags.writeable
        assert base.flags.writeable
        base[0] = 7.0  # owner keeps its handle
        assert view[0] == 7.0
        with pytest.raises(ValueError):
            view[1] = 0.0


# ----------------------------------------------------------------------
# verify_frozen boundary walks
# ----------------------------------------------------------------------
class TestVerifyFrozen:
    def test_accepts_frozen_structure(self):
        frozen = deep_freeze({"arr": np.zeros(3), "ids": [1]})
        with checking("freeze"):
            assert verify_frozen(frozen, role="t", site="t") is frozen

    def test_seeded_writable_array_is_named(self):
        structure = deep_freeze({"ok": np.zeros(2), "leak": {"deep": [1]}})
        # Seed the violation on a fresh writable array smuggled in
        # post-freeze (a dict subclass write bypassing the proxy, as a C
        # extension could).
        dict.__setitem__(structure, "bad", np.zeros(2))
        with checking("freeze"):
            with pytest.raises(FrozenWriteViolation) as caught:
                verify_frozen(
                    structure, role="engine.snapshot", site="test.seed"
                )
        assert "['bad']" in str(caught.value)
        assert caught.value.role == "engine.snapshot"
        assert caught.value.site == "test.seed"

    def test_walks_slots_objects(self):
        sequence = MultidimensionalSequence(np.zeros((4, DIMENSION)))
        partition = partition_sequence(sequence)
        with checking("freeze"):
            # PartitionedSequence freezes its matrices at construction;
            # the walk covers __slots__ and must find nothing writable.
            verify_frozen(partition, role="t", site="t")


# ----------------------------------------------------------------------
# Regression: the partition matrices are frozen at construction
# ----------------------------------------------------------------------
class TestPartitionImmutability:
    def test_matrices_and_counts_reject_writes(self, rng):
        """The fixed aliasing bug: ``counts`` promised "read-only" while
        the backing array (shared across snapshots and cache entries)
        accepted in-place writes that would corrupt Dmbr for every
        concurrent reader.  Now the write itself raises — with checks
        *off*, because the freeze is unconditional."""
        sequence = MultidimensionalSequence(rng.random((40, DIMENSION)))
        partition = partition_sequence(sequence)
        with pytest.raises(ValueError):
            partition.counts[0] += 1
        with pytest.raises(ValueError):
            partition._low_matrix[0, 0] = -1.0
        with pytest.raises(ValueError):
            partition._high_matrix[-1, -1] = 2.0

    def test_distance_row_still_works(self, rng):
        sequence = MultidimensionalSequence(rng.random((40, DIMENSION)))
        partition = partition_sequence(sequence)
        query = partition_sequence(
            MultidimensionalSequence(rng.random((10, DIMENSION)))
        )
        for segment in query:
            row = partition.mbr_distance_row(segment.mbr)
            assert row.shape == (len(partition),)
            assert np.all(row >= 0.0)


# ----------------------------------------------------------------------
# Cache entries are frozen at publication under checks
# ----------------------------------------------------------------------
def small_entry(rng, epsilon=0.5):
    query = MultidimensionalSequence(rng.random((10, DIMENSION)))
    return CacheEntry(
        query_partition=partition_sequence(query),
        epsilon=epsilon,
        find_intervals=False,
        candidates={"s1", "s2"},
        answers={"s1"},
        intervals={},
    )


class TestCachePublication:
    def test_stored_entry_sets_are_frozen_under_checks(self, rng):
        cache = EpsilonCache(capacity=4)
        entry = small_entry(rng)
        with checking("freeze"):
            assert cache.store("q", entry, version=0)
            shared = cache.lookup("q", 0.5, version=0)
            assert shared is entry  # ownership transferred, not copied
            # The pre-fix bug shape: patching the shared entry in place.
            with pytest.raises(AttributeError):
                shared.candidates.discard("s1")  # frozenset has no discard
            assert isinstance(shared.intervals, FrozenDict)

    def test_store_disabled_path_untouched(self, rng):
        cache = EpsilonCache(capacity=4)
        entry = small_entry(rng)
        assert cache.store("q", entry, version=0)
        assert isinstance(entry.candidates, set)
        entry.candidates.discard("s1")  # plain set: still mutable

    def test_apply_write_publishes_frozen_patches(self, rng):
        database = SequenceDatabase(DIMENSION)
        database.add(rng.random((20, DIMENSION)), sequence_id="s1")
        search = SimilaritySearch(database)
        cache = EpsilonCache(capacity=4)
        with checking("freeze"):
            stored = small_entry(rng)
            cache.store("q", stored, version=0)
            cache.apply_write("s1", search, new_version=1)
            patched = cache.lookup("q", 0.5, version=1)
            assert patched is not None and patched is not stored
            assert isinstance(patched.intervals, FrozenDict)
            with pytest.raises(AttributeError):
                patched.answers.discard("s1")


# ----------------------------------------------------------------------
# Merge inputs are frozen under checks
# ----------------------------------------------------------------------
class TestMergeFreezing:
    def test_merge_search_payloads_inputs_frozen(self):
        payloads = {
            0: {"answers": ["a"], "candidates": ["a", "b"], "stats": {}},
            1: {"answers": ["b"], "candidates": ["b"], "stats": {}},
        }
        order = {"a": 0, "b": 1}
        with checking("freeze"):
            merged = merge_search_payloads(
                payloads, order=lambda sid: order[str(sid)]
            )
        assert merged.answers == ["a", "b"]
        assert merged.candidates == ["a", "b"]
        # The caller's own payload dicts are never wrapped or mutated.
        payloads[0]["answers"].append("c")

    def test_merge_knn_inputs_frozen(self):
        lists = [[(0.3, "a"), (0.1, "b")], [(0.2, "c"), (0.1, "b")]]
        with checking("freeze"):
            top = merge_knn(lists, 2, order=str)
        assert top == [(0.1, "b"), (0.2, "c")]


# ----------------------------------------------------------------------
# Engine and cluster parity with checks armed
# ----------------------------------------------------------------------
class TestIntegrationUnderChecks:
    def test_engine_write_search_checkpoint_cycle(self, rng, tmp_path):
        from repro.service.wal import DurabilityConfig

        database = SequenceDatabase(DIMENSION)
        for i in range(6):
            database.add(
                rng.random((int(rng.integers(12, 30)), DIMENSION)),
                sequence_id=f"seed-{i}",
            )
        queries = [rng.random((8, DIMENSION)) for _ in range(3)]
        with checking("freeze"):
            engine = QueryEngine(
                database,
                workers=2,
                cache_size=8,
                durability=DurabilityConfig(
                    directory=tmp_path / "wal", fsync=False
                ),
            )
            try:
                for i in range(4):
                    engine.insert(
                        rng.random((10, DIMENSION)), sequence_id=f"new-{i}"
                    )
                for query in queries:
                    first = engine.search(query, 0.5)
                    again = engine.search(query, 0.5)  # cache hit path
                    assert set(first.answers) == set(again.answers)
                engine.checkpoint()
            finally:
                engine.close()

        # Parity with an unchecked engine over the same corpus and rng-
        # independent queries: freezing must never change an answer.
        reference = SimilaritySearch(database)
        for query in queries:
            expected = reference.search(query, 0.5)
            with checking("freeze"):
                engine = QueryEngine(database, workers=2, cache_size=8)
                try:
                    got = engine.search(query, 0.5)
                finally:
                    engine.close()
            assert set(got.answers) == set(expected.answers)

    def test_cluster_scatter_merge_under_checks(self, rng):
        corpus = [
            (f"seq-{i}", rng.random((int(rng.integers(12, 24)), DIMENSION)))
            for i in range(8)
        ]
        router = ShardRouter(num_backends=2, num_shards=4, replication=2)
        databases = [SequenceDatabase(DIMENSION) for _ in range(2)]
        for sequence_id, points in corpus:
            for backend in router.placement(sequence_id).replicas:
                databases[backend].add(points, sequence_id=sequence_id)
        union = SequenceDatabase(DIMENSION)
        for sequence_id, points in corpus:
            union.add(points, sequence_id=sequence_id)
        reference = SimilaritySearch(union)
        queries = [rng.random((8, DIMENSION)) for _ in range(3)]
        with checking("freeze"):
            engines = [
                QueryEngine(database, workers=2, cache_size=8)
                for database in databases
            ]
            coordinator = ClusterCoordinator(
                [
                    LocalBackend(engine, name=f"local-{i}")
                    for i, engine in enumerate(engines)
                ],
                num_shards=4,
                replication=2,
            )
            coordinator.seed_order([sid for sid, _ in corpus])
            try:
                for query in queries:
                    merged = coordinator.search(query, 0.5)
                    expected = reference.search(query, 0.5)
                    assert set(merged.answers) == set(expected.answers)
                    knn = coordinator.knn(query, 3)
                    assert len(knn.neighbors) <= 3
            finally:
                coordinator.close()
                for engine in engines:
                    engine.close()
