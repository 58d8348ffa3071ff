"""Unit tests for R-tree serialisation and streaming append / calibration."""

import os

import numpy as np
import pytest

from repro.analysis.calibration import calibrate_epsilon, selectivity_curve
from repro.core.database import SequenceDatabase
from repro.core.distance import sequence_distance
from repro.core.mbr import MBR
from repro.core.search import SimilaritySearch
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.index.serialize import load_tree, save_tree
from tests.test_rtree import random_boxes


@pytest.mark.parametrize("cls", [RTree, RStarTree])
class TestTreeSerialization:
    def test_round_trip_structure(self, rng, tmp_path, cls):
        tree = cls(dimension=3, max_entries=5)
        tree.extend(random_boxes(rng, 90, dimension=3))
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        loaded = load_tree(path)

        assert type(loaded) is cls
        assert len(loaded) == len(tree)
        assert loaded.height == tree.height
        assert loaded.max_entries == tree.max_entries
        assert loaded.min_entries == tree.min_entries
        loaded.check_invariants()
        assert {e.payload for e in loaded.entries()} == {
            e.payload for e in tree.entries()
        }

    def test_round_trip_query_identical(self, rng, tmp_path, cls):
        tree = cls(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 70))
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        loaded = load_tree(path)

        for _ in range(10):
            low = rng.random(2) * 0.7
            probe = MBR(low, low + 0.2)
            epsilon = float(rng.random() * 0.2)
            original = {e.payload for e in tree.search_within(probe, epsilon)}
            reloaded = {
                e.payload for e in loaded.search_within(probe, epsilon)
            }
            assert reloaded == original

    def test_access_counts_identical(self, rng, tmp_path, cls):
        """Identical layout means identical node-access counts."""
        tree = cls(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 80))
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        loaded = load_tree(path)
        probe = MBR([0.3, 0.3], [0.5, 0.5])
        tree.stats.reset_query_counters()
        loaded.stats.reset_query_counters()
        tree.search_within(probe, 0.1)
        loaded.search_within(probe, 0.1)
        assert loaded.stats.node_accesses == tree.stats.node_accesses

    def test_empty_tree(self, tmp_path, cls, rng):
        tree = cls(dimension=2)
        path = tmp_path / "empty.npz"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert len(loaded) == 0
        assert loaded.search_within(MBR([0, 0], [1, 1]), 1.0) == []

    def test_insert_after_load(self, rng, tmp_path, cls):
        tree = cls(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 30))
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        loaded = load_tree(path)
        loaded.insert(MBR([0.9, 0.9], [0.95, 0.95]), "late")
        assert len(loaded) == 31
        loaded.check_invariants()


class TestSerializeValidation:
    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_tree("not a tree", tmp_path / "x.npz")

    @staticmethod
    def _archive_with(rng, tmp_path, **replaced):
        tree = RTree(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 20))
        save_tree(tree, tmp_path / "good.npz")
        with np.load(tmp_path / "good.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        for name, change in replaced.items():
            arrays[name] = change(arrays[name].copy())
        np.savez(tmp_path / "bad.npz", **arrays)
        return tmp_path / "bad.npz"

    def test_rectangles_are_validated_once_for_the_whole_archive(
        self, rng, tmp_path
    ):
        """Loaded rectangles skip the per-rectangle constructor checks, so
        the blob they come from is checked as a whole first."""

        def inverted(lows):
            lows[7, 1] = 2.0  # above its high corner
            return lows

        def not_finite(highs):
            highs[3, 0] = np.nan
            return highs

        for replaced in (
            {"entry_lows": inverted},
            {"entry_highs": not_finite},
            {"entry_lows": lambda lows: lows[:-1]},
            {"entry_highs": lambda highs: highs.astype(np.float32)},
            {"entry_lows": lambda lows: lows[:, :1], "entry_highs": lambda h: h[:, :1]},
        ):
            with pytest.raises(ValueError, match="corrupt archive"):
                load_tree(self._archive_with(rng, tmp_path, **replaced))

    def test_loaded_rectangles_hold_no_arrays(self, rng, tmp_path):
        tree = RTree(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 30))
        save_tree(tree, tmp_path / "t.npz")
        loaded = load_tree(tmp_path / "t.npz")
        assert all(entry.mbr._low is None for entry in loaded.entries())
        assert sorted(e.payload for e in loaded.entries()) == sorted(
            e.payload for e in tree.entries()
        )


class TestAppendPoints:
    def test_append_extends_and_index_tracks(self, rng):
        db = SequenceDatabase(dimension=2, index_kind="rtree")
        db.add(rng.random((40, 2)), sequence_id="s")
        db.append_points("s", rng.random((25, 2)))
        assert len(db.sequence("s")) == 65
        assert len(db.index) == db.segment_count
        db.index.check_invariants()
        # The patched index must equal a from-scratch rebuild semantically.
        fresh = SequenceDatabase(dimension=2)
        fresh.add(db.sequence("s").points, sequence_id="s")
        assert [s.start for s in fresh.partition("s")] == [
            s.start for s in db.partition("s")
        ]

    def test_append_matches_full_rebuild_partition(self, rng):
        """Greedy partitioning is prefix-deterministic, so appending must
        give the exact same partition as re-partitioning from scratch."""
        db = SequenceDatabase(dimension=3)
        base = rng.random((60, 3))
        extra = rng.random((30, 3))
        db.add(base, sequence_id=0)
        db.append_points(0, extra)
        from repro.core.partitioning import partition_sequence

        expected = partition_sequence(
            np.vstack([base, extra]),
            cost_constant=db.cost_constant,
            max_points=db.max_points,
        )
        got = db.partition(0)
        assert [s.start for s in got] == [s.start for s in expected]
        assert got.mbrs == expected.mbrs

    def test_append_search_consistency(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((30, 2)), sequence_id="grow")
        tail = rng.random((20, 2))
        db.append_points("grow", tail)
        engine = SimilaritySearch(db)
        result = engine.search(tail[:10], 0.01, find_intervals=False)
        assert "grow" in result.answers

    def test_append_empty_is_noop(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((10, 2)), sequence_id=0)
        before = len(db.sequence(0))
        db.append_points(0, np.empty((0, 2)))
        assert len(db.sequence(0)) == before

    def test_append_validation(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((10, 2)), sequence_id=0)
        with pytest.raises(KeyError):
            db.append_points("missing", rng.random((5, 2)))
        with pytest.raises(ValueError, match="dimension"):
            db.append_points(0, rng.random((5, 3)))

    def test_append_with_str_index(self, rng):
        db = SequenceDatabase(dimension=2, index_kind="str")
        db.add(rng.random((30, 2)), sequence_id=0)
        _ = db.index
        db.append_points(0, rng.random((15, 2)))
        assert len(db.index) == db.segment_count


class TestCalibration:
    def _database(self, rng):
        db = SequenceDatabase(dimension=2)
        for i in range(15):
            walk = np.clip(
                0.5 + np.cumsum(rng.normal(0, 0.02, (40, 2)), axis=0), 0, 1
            )
            db.add(walk, sequence_id=i)
        return db

    def test_selectivity_curve_monotone(self, rng):
        db = self._database(rng)
        queries = [db.sequence(0).points[5:15]]
        curve = selectivity_curve(db, queries, [0.05, 0.2, 0.5, 1.0])
        values = [sel for _, sel in curve]
        assert values == sorted(values)
        assert values[-1] == 1.0  # diagonal-scale threshold catches all

    def test_calibrated_epsilon_hits_target(self, rng):
        db = self._database(rng)
        queries = [db.sequence(i).points[0:12] for i in (1, 4, 9)]
        target = 0.4
        epsilon = calibrate_epsilon(db, queries, target, tolerance=0.05)
        sequences = [db.sequence(sid) for sid in db.ids()]
        achieved = np.mean(
            [
                np.mean(
                    [
                        sequence_distance(q, s) <= epsilon
                        for s in sequences
                    ]
                )
                for q in queries
            ]
        )
        assert abs(achieved - target) <= 0.1

    def test_validation(self, rng):
        db = self._database(rng)
        queries = [db.sequence(0).points[:5]]
        with pytest.raises(ValueError):
            calibrate_epsilon(db, queries, 0.0)
        with pytest.raises(ValueError):
            calibrate_epsilon(db, queries, 1.0)
        with pytest.raises(ValueError):
            calibrate_epsilon(db, [], 0.5)
        with pytest.raises(ValueError):
            selectivity_curve(db, [], [0.1])


class TestRestrictedUnpickling:
    """The payload pickle is resolved through an allowlist-only unpickler:
    archives naming any global outside SAFE_PICKLE_GLOBALS must fail
    before the reference is resolved, never execute it."""

    def _tampered_archive(self, rng, tmp_path, payload_bytes):
        import io

        tree = RTree(dimension=2, max_entries=4)
        tree.extend(random_boxes(rng, 20))
        buffer = io.BytesIO()
        save_tree(tree, buffer)
        buffer.seek(0)
        with np.load(buffer, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["payloads"] = np.frombuffer(payload_bytes, dtype=np.uint8)
        out = tmp_path / "tampered.npz"
        np.savez(out, **arrays)
        return out

    def test_forbidden_global_rejected(self, rng, tmp_path):
        import pickle

        evil = pickle.dumps([os.system for _ in range(1)])
        path = self._tampered_archive(rng, tmp_path, evil)
        with pytest.raises(pickle.UnpicklingError, match="forbidden global"):
            load_tree(path)

    def test_reduce_based_payload_rejected(self, rng, tmp_path):
        import pickle

        class Exploit:
            def __reduce__(self):
                return (os.system, ("true",))

        evil = pickle.dumps([Exploit()])
        path = self._tampered_archive(rng, tmp_path, evil)
        with pytest.raises(pickle.UnpicklingError, match="forbidden global"):
            load_tree(path)

    def test_non_list_payload_rejected(self, rng, tmp_path):
        import pickle

        path = self._tampered_archive(rng, tmp_path, pickle.dumps({"a": 1}))
        with pytest.raises(pickle.UnpicklingError, match="must unpickle to a list"):
            load_tree(path)

    def test_allowlist_names_segment_key_and_primitives(self):
        from repro.index.serialize import SAFE_PICKLE_GLOBALS

        assert ("repro.core.database", "SegmentKey") in SAFE_PICKLE_GLOBALS
        assert ("builtins", "tuple") in SAFE_PICKLE_GLOBALS
        assert not any(module == "os" for module, _ in SAFE_PICKLE_GLOBALS)
        assert not any(module == "posix" for module, _ in SAFE_PICKLE_GLOBALS)

    def test_legitimate_payloads_still_load(self, rng, tmp_path):
        from repro.core.database import SegmentKey

        tree = RTree(dimension=2, max_entries=4)
        for ordinal, (mbr, _) in enumerate(random_boxes(rng, 25)):
            tree.insert(mbr, SegmentKey(f"s{ordinal}", ordinal))
        path = tmp_path / "legit.npz"
        save_tree(tree, path)
        loaded = load_tree(path)
        payloads = {entry.payload for entry in loaded.entries()}
        assert payloads == {entry.payload for entry in tree.entries()}
        assert all(isinstance(p, SegmentKey) for p in payloads)


class TestBytesRoundTrip:
    def test_dumps_loads_tree(self, rng):
        from repro.index.serialize import dumps_tree, loads_tree

        tree = RStarTree(dimension=3, max_entries=5)
        tree.extend(random_boxes(rng, 60, dimension=3))
        blob = dumps_tree(tree)
        assert isinstance(blob, bytes) and blob
        loaded = loads_tree(blob)
        assert type(loaded) is RStarTree
        assert len(loaded) == len(tree)
        assert loaded.height == tree.height
        loaded.check_invariants()


class TestDatabaseIndexEmbedding:
    """The index is derived state whatever the kind: an archive holds
    sequences, ids and partition parameters, and a loaded database derives
    the index the saved one had."""

    def _database(self, rng, count=8, index_kind="rtree", **kwargs):
        db = SequenceDatabase(dimension=2, index_kind=index_kind, **kwargs)
        for ordinal in range(count):
            db.add(rng.random((22, 2)), sequence_id=f"s{ordinal}")
        return db

    def test_default_kind_archives_carry_no_index_blob(self, rng, tmp_path):
        """The packed index is derived from the segment table in
        milliseconds; nothing of it is persisted, so nothing of it can be
        torn or stale on disk."""
        db = self._database(rng, index_kind="packed")
        assert SequenceDatabase(dimension=2).index_kind == "packed"
        db.index  # a live index changes nothing
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path) as archive:
            assert "_index" not in archive.files
        loaded = SequenceDatabase.load(path)
        assert loaded.index_kind == "packed"
        assert loaded._index is None  # packed on first use, once
        query = rng.random((9, 2))
        original = SimilaritySearch(db).search(query, 0.25)
        restored = SimilaritySearch(loaded).search(query, 0.25)
        assert restored.candidates == original.candidates
        assert restored.answers == original.answers
        assert restored.solution_intervals == original.solution_intervals
        assert restored.stats.node_accesses == original.stats.node_accesses
        assert len(loaded.index) == loaded.segment_count

    def test_rtree_archives_load_as_rtree_databases(self, rng, tmp_path):
        """An archive written when ``"rtree"`` was the default names its
        kind; it keeps loading as what it is."""
        import json

        db = self._database(rng, index_kind="rtree")
        path = tmp_path / "old.npz"
        db.save(path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["_meta"]).decode())
            assert meta["index_kind"] == "rtree" and "_index" not in archive.files
        loaded = SequenceDatabase.load(path)
        assert loaded.index_kind == "rtree"
        assert type(loaded.index).__name__ == "RTree"
        loaded.index.check_invariants()
        loaded.add(rng.random((22, 2)), sequence_id="later")
        assert len(loaded.index) == loaded.segment_count

    def test_loaded_index_layout_identical(self, rng, tmp_path):
        """The re-derived tree has the same node layout — same entries in
        the same insertion order — also after appends and a remove:
        identical answers AND identical node-access counts."""
        db = self._database(rng)
        db.append_points("s2", rng.random((30, 2)))
        db.remove("s4")
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = SequenceDatabase.load(path)
        assert len(loaded.index) == db.index.__len__() == db.segment_count

        query = rng.random((9, 2))
        db.index.stats.reset_query_counters()
        loaded.index.stats.reset_query_counters()
        original = SimilaritySearch(db).search(query, 0.25)
        restored = SimilaritySearch(loaded).search(query, 0.25)
        assert restored.answers == original.answers
        assert restored.candidates == original.candidates
        assert restored.solution_intervals == original.solution_intervals
        assert restored.stats.node_accesses == original.stats.node_accesses

    def test_str_backend_roundtrip_with_index(self, rng, tmp_path):
        db = self._database(rng, index_kind="str")
        path = tmp_path / "db_str.npz"
        db.save(path)
        with np.load(path) as archive:
            assert "_index" not in archive.files
        loaded = SequenceDatabase.load(path)
        query = rng.random((9, 2))
        assert (
            SimilaritySearch(loaded).search(query, 0.3).answers
            == SimilaritySearch(db).search(query, 0.3).answers
        )

    def test_an_old_archive_s_index_member_is_never_read(self, rng, tmp_path):
        """Archives written before the index was derived state embed a
        pickled tree under ``_index``.  It is ignored — here it is garbage
        no unpickler could take — and the tree is derived from the
        sequences, with the layout the embedded one had."""
        db = self._database(rng)
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["_index"] = np.frombuffer(b"cos\nsystem\n(S'false'\ntR.", np.uint8)
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **arrays)
        loaded = SequenceDatabase.load(old)
        assert loaded.index_kind == "rtree" and loaded.ids() == db.ids()
        loaded.index.check_invariants()
        query = rng.random((9, 2))
        original = SimilaritySearch(db).search(query, 0.25)
        restored = SimilaritySearch(loaded).search(query, 0.25)
        assert restored.answers == original.answers
        assert restored.solution_intervals == original.solution_intervals
        assert restored.stats.node_accesses == original.stats.node_accesses


def test_save_rejects_bool_ids_instead_of_renaming_them(tmp_path):
    """``True`` is an ``int`` to ``isinstance``; written as
    ``["bool", "True"]`` it would come back as the string ``'True'``."""
    db = SequenceDatabase(dimension=2)
    db.add(np.zeros((5, 2)), sequence_id=True)
    with pytest.raises(TypeError, match="bool"):
        db.save(tmp_path / "db.npz")
    assert not list(tmp_path.iterdir())
