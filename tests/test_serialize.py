"""Database archives, streaming append and threshold calibration."""

import json

import numpy as np
import pytest

from repro.analysis.calibration import calibrate_epsilon, selectivity_curve
from repro.core.database import SequenceDatabase
from repro.core.distance import sequence_distance
from repro.core.search import SimilaritySearch
from repro.index import build_tree


class TestAppendPoints:
    def test_append_extends_and_index_tracks(self, rng):
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((40, 2)), sequence_id="s")
        db.index
        db.append_points("s", rng.random((25, 2)))
        assert len(db.sequence("s")) == 65
        assert len(db.index) == db.segment_count
        tree = build_tree(db)
        tree.check_invariants()
        assert len(tree) == db.segment_count
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
        db = SequenceDatabase(dimension=2)
        db.add(rng.random((30, 2)), sequence_id=0)
        before = build_tree(db, "str")
        db.append_points(0, rng.random((15, 2)))
        assert len(before) < len(build_tree(db, "str")) == db.segment_count


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


class TestDatabaseIndexEmbedding:
    """The index is derived state: an archive holds sequences, ids and
    partition parameters, and a loaded database derives the index the
    saved one had — and a tree built beside it the saved one's tree."""

    def _database(self, rng, count=8, **kwargs):
        db = SequenceDatabase(dimension=2, **kwargs)
        for ordinal in range(count):
            db.add(rng.random((22, 2)), sequence_id=f"s{ordinal}")
        return db

    def test_default_kind_archives_carry_no_index_blob(self, rng, tmp_path):
        """The packed index is derived from the segment table in
        milliseconds; nothing of it is persisted, so nothing of it can be
        torn or stale on disk."""
        db = self._database(rng)
        db.index  # a live index changes nothing
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path) as archive:
            assert "_index" not in archive.files
            meta = json.loads(bytes(archive["_meta"]).decode())
        assert "index_kind" not in meta and "max_entries" not in meta
        loaded = SequenceDatabase.load(path)
        assert loaded._index is None  # packed on first use, once
        query = rng.random((9, 2))
        original = SimilaritySearch(db).search(query, 0.25)
        restored = SimilaritySearch(loaded).search(query, 0.25)
        assert restored.candidates == original.candidates
        assert restored.answers == original.answers
        assert restored.solution_intervals == original.solution_intervals
        assert restored.stats.node_accesses == original.stats.node_accesses
        assert len(loaded.index) == loaded.segment_count

    def _load_archive_naming(self, rng, tmp_path, kind):
        """Archives written while the database kept several kinds of index
        name one in ``_meta``, with a node capacity; both are ignored and
        the archive loads as the one database, with identical answers."""
        db = self._database(rng)
        path = tmp_path / "old.npz"
        db.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["_meta"]).decode())
        meta.update({"index_kind": kind, "max_entries": 8})
        arrays["_meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **arrays)
        loaded = SequenceDatabase.load(path)
        assert loaded.ids() == db.ids()
        assert not hasattr(loaded, "index_kind") and not hasattr(loaded, "max_entries")
        query = rng.random((9, 2))
        original = SimilaritySearch(db).search(query, 0.3)
        restored = SimilaritySearch(loaded).search(query, 0.3)
        assert restored.candidates == original.candidates
        assert restored.answers == original.answers
        assert restored.solution_intervals == original.solution_intervals
        loaded.add(rng.random((22, 2)), sequence_id="later")
        assert len(loaded.index) == loaded.segment_count
        tree = build_tree(loaded, kind)
        tree.check_invariants()
        assert len(tree) == loaded.segment_count

    def test_rtree_archives_load_as_rtree_databases(self, rng, tmp_path):
        """An archive written when ``"rtree"`` was the default names its
        kind; it keeps loading, and an R-tree built beside it is sound."""
        self._load_archive_naming(rng, tmp_path, "rtree")

    def test_rstar_archives_load_as_the_one_database(self, rng, tmp_path):
        self._load_archive_naming(rng, tmp_path, "rstar")

    def test_str_backend_roundtrip_with_index(self, rng, tmp_path):
        self._load_archive_naming(rng, tmp_path, "str")

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
        trees = [build_tree(db), build_tree(loaded)]
        for segment in restored.query_partition:
            hits = [tree.search_within(segment.mbr, 0.25) for tree in trees]
            assert [e.payload for e in hits[0]] == [e.payload for e in hits[1]]
        assert trees[0].stats.node_accesses == trees[1].stats.node_accesses

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
        assert loaded.ids() == db.ids()
        build_tree(loaded).check_invariants()
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
