"""Unit tests for sequence removal, persistence and the CLI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.core.database import SegmentTable, SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.index import TREE_KINDS, build_tree
from repro.service.engine import QueryEngine
from repro.util.checks import checking
from repro.util.freeze import verify_frozen
from tests.test_phase2_index import tree_rows


class TestRemove:
    def _database(self, rng):
        db = SequenceDatabase(dimension=2)
        for i in range(8):
            db.add(rng.random((int(rng.integers(20, 50)), 2)), sequence_id=i)
        return db

    @pytest.mark.parametrize("kind", ["rtree", "rstar", "str"])
    def test_remove_drops_sequence_and_index_entries(self, rng, kind):
        db = self._database(rng)
        db.index  # derived before the remove, so the remove must drop it
        before = db.segment_count
        removed_segments = len(db.partition(3))
        db.remove(3)
        assert 3 not in db
        assert len(db) == 7
        assert db.segment_count == before - removed_segments
        index = build_tree(db, kind)
        assert len(index) == len(db.index) == db.segment_count
        assert all(
            e.payload.sequence_id != 3 for e in index.entries()
        )

    def test_remove_unknown_raises(self, rng):
        db = self._database(rng)
        with pytest.raises(KeyError):
            db.remove("missing")

    def test_search_after_remove(self, rng):
        db = self._database(rng)
        query = db.sequence(5).points[:10]
        engine = SimilaritySearch(db)
        assert 5 in engine.search(query, 0.05, find_intervals=False).answers
        db.remove(5)
        result = engine.search(query, 0.05, find_intervals=False)
        assert 5 not in result.answers

    def test_readd_after_remove(self, rng):
        db = self._database(rng)
        points = db.sequence(2).points.copy()
        db.remove(2)
        db.add(points, sequence_id=2)
        assert 2 in db
        assert len(db.index) == db.segment_count
        build_tree(db).check_invariants()


class TestSegmentTable:
    """The table is derived state: whatever happened to the database, it
    must describe the partitions as they are now."""

    @staticmethod
    def _walk(seed, length):
        rng = np.random.default_rng(seed)
        return np.clip(0.5 + np.cumsum(rng.normal(0, 0.03, (length, 2)), axis=0), 0, 1)

    @staticmethod
    def _outcome(database, query, epsilon):
        result = SimilaritySearch(database).search(query, epsilon)
        return (
            result.candidates,
            result.answers,
            result.solution_intervals,
            result.stats.dmbr_rows,
            result.stats.dnorm_evaluations,
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "append", "remove", "clone", "search"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=14,
        ),
        st.sampled_from(TREE_KINDS),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_equals_a_database_rebuilt_from_scratch(self, steps, kind):
        """Also a tree built beside the written database: it finds what
        the rebuilt one's index finds."""
        database = SequenceDatabase(2, max_points=6)
        database.add(self._walk(1, 30), sequence_id="seed")
        query = self._walk(1, 30)[5:20]
        added = 0
        for verb, number in steps:
            ids = database.ids()
            if verb == "add":
                added += 1
                database.add(
                    self._walk(number, 5 + number % 40), sequence_id=f"s{added}"
                )
            elif verb == "append" and ids:
                database.append_points(
                    ids[number % len(ids)], self._walk(number, 1 + number % 9)
                )
            elif verb == "remove" and ids:
                database.remove(ids[number % len(ids)])
            elif verb == "clone":
                database = database.clone()
            else:
                database.segment_table  # a read between writes builds it
            fresh = database.empty_twin()
            for sequence_id, partition in database.partitions():
                fresh.add(partition.sequence.points, sequence_id=sequence_id)
            tree = build_tree(database, kind)
            for epsilon in (0.05, 0.3):
                assert self._outcome(database, query, epsilon) == self._outcome(
                    fresh, query, epsilon
                )
                probe = SimilaritySearch(fresh).search(query, epsilon).query_partition
                expected = fresh.candidate_rows(probe, epsilon)[0].tolist()
                assert tree_rows(tree, database, probe, epsilon) == expected
            table = database.segment_table
            assert list(table.ids) == database.ids()
            assert len(table.counts) == database.segment_count
            assert int(table.lengths.sum()) == database.point_count

    @staticmethod
    def _assert_equals_built(database):
        table = database.segment_table
        built = SegmentTable.build(database.dimension, dict(database.partitions()))
        assert table.ids == built.ids and dict(table.rows) == dict(built.rows)
        for name in (
            "lows",
            "highs",
            "low_columns",
            "high_columns",
            "counts",
            "point_offsets",
            "sequence_offsets",
            "lengths",
        ):
            ours, theirs = getattr(table, name), getattr(built, name)
            assert ours.dtype == theirs.dtype and not ours.flags.writeable
            np.testing.assert_array_equal(ours, theirs, err_msg=name)
        assert np.array_equal(table.low_columns, table.lows.T)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "append", "remove", "clone", "two"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_a_spliced_table_equals_a_built_one(self, steps):
        """One write after a table was current splices it — append a run,
        replace a run, cut a run; any other history rebuilds.  Either way
        the result is ``SegmentTable.build`` of the partitions, array for
        array."""
        database = SequenceDatabase(2, max_points=6)
        database.add(self._walk(1, 30), sequence_id="seed")
        added = 0
        for verb, number in steps:
            previous = database.segment_table  # current: the next write splices
            ids = database.ids()
            if verb in ("add", "two") or not ids:
                added += 1
                database.add(
                    self._walk(number, 1 + number % 40), sequence_id=f"s{added}"
                )
            elif verb == "append":
                database.append_points(
                    ids[number % len(ids)], self._walk(number, 1 + number % 9)
                )
            elif verb == "remove":
                database.remove(ids[number % len(ids)])
            else:
                database = database.clone()
                assert database.segment_table is previous
                continue
            if verb == "two":  # a second write before the table is read
                database.append_points(f"s{added}", self._walk(number + 1, 3))
            assert len(database._stale) == (2 if verb == "two" else 1)
            assert database.segment_table is not previous
            assert database._stale == ()
            self._assert_equals_built(database)

    def test_splices_at_the_edges(self, rng):
        database = SequenceDatabase(3)
        for name in "abc":
            database.add(rng.random((25, 3)), sequence_id=name)
        for write in (
            lambda db: db.remove("a"),  # first run
            lambda db: db.remove("c"),  # last run
            lambda db: db.append_points("c", rng.random((40, 3))),
            lambda db: db.append_points("a", rng.random((1, 3))),
            lambda db: (db.remove("b"), db.add(rng.random((9, 3)), sequence_id="b")),
        ):
            twin = database.clone()
            twin.segment_table
            write(twin)
            self._assert_equals_built(twin)
        for name in "abc":  # down to nothing
            database.segment_table
            database.remove(name)
            self._assert_equals_built(database)
        assert database.segment_table.lows.shape == (0, 3)

    def test_clone_shares_the_table_until_it_mutates(self, rng):
        database = SequenceDatabase(2)
        for i in range(4):
            database.add(rng.random((30, 2)), sequence_id=i)
        table = database.segment_table
        lows = table.lows.copy()
        twin = database.clone()
        assert twin.segment_table is table
        twin.add(rng.random((30, 2)), sequence_id="new")
        twin.remove(0)
        assert twin.segment_table is not table
        assert twin.segment_table.ids == (1, 2, 3, "new")
        assert database.segment_table is table
        assert table.ids == (0, 1, 2, 3)
        assert np.array_equal(table.lows, lows)

    def test_table_arrays_and_row_map_reject_writes(self, rng):
        database = SequenceDatabase(2)
        database.add(rng.random((30, 2)), sequence_id="a")
        table = database.segment_table
        for name in (
            "lows",
            "highs",
            "low_columns",
            "high_columns",
            "counts",
            "point_offsets",
            "sequence_offsets",
            "lengths",
        ):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0
        with pytest.raises(RuntimeError, match="frozen"):
            table.rows["b"] = 1

    def test_published_snapshots_carry_a_built_frozen_table(self, rng):
        database = SequenceDatabase(2)
        database.add(rng.random((30, 2)), sequence_id="a")
        with checking("freeze"), QueryEngine(database, workers=1) as engine:
            assert engine._snapshot.database._table is not None
            engine.insert(rng.random((30, 2)), sequence_id="b")
            engine.append("b", rng.random((5, 2)))
            snapshot = engine._snapshot
            assert snapshot.database._table is not None
            assert snapshot.database._table.ids == ("a", "b")
            verify_frozen(snapshot, role="engine.snapshot", site="test")


class TestAppendEqualsAdd:
    """A stream that arrives in pieces is stored exactly as if it had
    arrived whole: ``append_points`` re-partitions the last segment only,
    and that must not show."""

    @staticmethod
    def _entries(database, kind):
        return sorted(
            (
                str(entry.payload.sequence_id),
                entry.payload.segment_index,
                entry.mbr.low_tuple,
                entry.mbr.high_tuple,
            )
            for entry in build_tree(database, kind).entries()
        )

    @given(
        seed=st.integers(0, 10_000),
        length=st.integers(2, 120),
        cuts=st.lists(st.integers(1, 119), max_size=6),
        max_points=st.sampled_from([None, 1, 6, 64]),
        kind=st.sampled_from(["rtree", "rstar", "str"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_plus_appends_equals_add_of_the_whole(
        self, seed, length, cuts, max_points, kind
    ):
        stream = TestSegmentTable._walk(seed, length)
        others = [TestSegmentTable._walk(seed + k, 25) for k in (1, 2)]
        stops = sorted({c for c in cuts if c < length} | {length})

        whole = SequenceDatabase(2, max_points=max_points)
        pieces = whole.empty_twin()
        for database, first in ((whole, stream), (pieces, stream[: stops[0]])):
            database.add(others[0], sequence_id="before")
            database.add(first, sequence_id="stream")
            database.add(others[1], sequence_id="after")
        for start, stop in zip(stops, stops[1:]):
            closed = pieces.partition("stream").segments[:-1]
            pieces.append_points("stream", stream[start:stop])
            grown = pieces.partition("stream").segments
            assert all(new is old for new, old in zip(grown, closed))

        for name in ("lows", "highs", "counts", "point_offsets", "lengths"):
            np.testing.assert_array_equal(
                getattr(pieces.segment_table, name),
                getattr(whole.segment_table, name),
            )
        assert self._entries(pieces, kind) == self._entries(whole, kind)
        build_tree(pieces, kind).check_invariants(check_min_fill=(kind != "str"))
        assert np.array_equal(
            pieces.sequence("stream").points, whole.sequence("stream").points
        )
        query = stream[: min(12, length)]
        for epsilon in (0.02, 0.2):
            got = SimilaritySearch(pieces).search(query, epsilon)
            expected = SimilaritySearch(whole).search(query, epsilon)
            assert got.candidates == expected.candidates
            assert got.answers == expected.answers
            assert got.solution_intervals == expected.solution_intervals


class TestPersistence:
    def test_round_trip(self, rng, tmp_path):
        db = SequenceDatabase(dimension=3, cost_constant=0.25, max_points=32)
        for i in range(5):
            db.add(rng.random((30, 3)), sequence_id=f"clip-{i}")
        db.add(rng.random((20, 3)), sequence_id=77)
        path = tmp_path / "db.npz"
        db.save(path)

        loaded = SequenceDatabase.load(path)
        assert loaded.dimension == 3
        assert loaded.cost_constant == 0.25
        assert loaded.max_points == 32
        assert set(loaded.ids()) == set(db.ids())
        for sequence_id in db.ids():
            np.testing.assert_array_equal(
                loaded.sequence(sequence_id).points,
                db.sequence(sequence_id).points,
            )
            assert len(loaded.partition(sequence_id)) == len(
                db.partition(sequence_id)
            )

    def test_loaded_database_searches_identically(self, rng, tmp_path):
        db = SequenceDatabase(dimension=2)
        for i in range(6):
            db.add(rng.random((40, 2)), sequence_id=i)
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = SequenceDatabase.load(path)

        query = db.sequence(1).points[5:20]
        original = SimilaritySearch(db).search(query, 0.15)
        reloaded = SimilaritySearch(loaded).search(query, 0.15)
        assert original.answers == reloaded.answers
        assert original.solution_intervals == reloaded.solution_intervals

    def test_exotic_ids_rejected(self, rng, tmp_path):
        db = SequenceDatabase(dimension=1)
        db.add(rng.random((5, 1)), sequence_id=("tuple", "id"))
        with pytest.raises(TypeError, match="ids"):
            db.save(tmp_path / "db.npz")


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_runs(self, capsys):
        code = main(
            ["demo", "--dataset", "fractal", "--sequences", "25", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "false dismissals: 0" in out

    def test_sweep_runs(self, capsys):
        code = main(
            [
                "sweep",
                "--dataset",
                "fractal",
                "--sequences",
                "25",
                "--queries",
                "1",
                "--thresholds",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "fig10" in out

    def test_sweep_multi_threshold_prints_sparklines(self, capsys):
        code = main(
            [
                "sweep",
                "--dataset",
                "video",
                "--sequences",
                "25",
                "--queries",
                "1",
                "--thresholds",
                "0.1",
                "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "pr_dnorm" in out
        assert any(mark in out for mark in "▁▂▃▄▅▆▇█")

    def test_generate_and_reload(self, capsys, tmp_path):
        out_path = tmp_path / "corpus.npz"
        code = main(
            [
                "generate",
                "--dataset",
                "video",
                "--sequences",
                "10",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        loaded = SequenceDatabase.load(out_path)
        assert len(loaded) == 10
