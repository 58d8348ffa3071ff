"""Phase 2: the database's packed base + delta against the R-trees built
beside it, against a flat scan of the segment table, and across writes,
clones and re-packs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.packed as packed
from repro.core.contracts import ContractViolation
from repro.core.database import SequenceDatabase, _validate_candidate_rows
from repro.core.mbr import MBR, dmbr_columns, dmbr_rows
from repro.core.packed import PackedBase, PackedIndex
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.index import TREE_KINDS, build_tree
from repro.service.engine import QueryEngine
from repro.util.checks import checking
from tests.test_search import lemma1_bounds

KINDS = ("packed", *TREE_KINDS)


def walk(seed, length, dimension=2, step=0.03):
    rng = np.random.default_rng(seed)
    start = rng.random(dimension)
    return np.clip(
        start + np.cumsum(rng.normal(0, step, (length, dimension)), axis=0), 0, 1
    )


def outcome(database, query, epsilon):
    result = SimilaritySearch(database).search(query, epsilon)
    return result.candidates, result.answers, result.solution_intervals


def populated(count=30, dimension=2, **kwargs):
    database = SequenceDatabase(dimension, **kwargs)
    for number in range(count):
        database.add(
            walk(number, 20 + 7 * number % 90, dimension), sequence_id=number
        )
    return database


def tree_rows(tree, database, partition, epsilon):
    """Phase 2 on a tree built beside ``database``: one probe per query
    MBR; the ascending table rows of the sequences hit."""
    rows = database.segment_table.rows
    return sorted(
        {
            rows[entry.payload.sequence_id]
            for segment in partition
            for entry in tree.search_within(segment.mbr, epsilon)
        }
    )


def test_build_tree_builds_the_three_tree_kinds_and_no_other():
    database = populated(count=10)
    assert isinstance(database.index, PackedIndex)
    for kind in TREE_KINDS:
        tree = build_tree(database, kind)
        assert len(tree) == database.segment_count
        tree.check_invariants(check_min_fill=kind != "str")
    with pytest.raises(ValueError, match="kind"):
        build_tree(database, "packed")


class TestOneSummationOrder:
    """``Dmbr`` has three bodies and one floating-point value: a threshold
    equal to a sequence's own ``min Dmbr`` admits it on every path."""

    @pytest.mark.parametrize("dimension", range(1, 13))
    def test_scalar_rows_and_columns_agree_to_the_bit(self, dimension):
        rng = np.random.default_rng(dimension)
        lows = rng.random((200, dimension))
        highs = lows + rng.random((200, dimension)) * 0.2
        probe_lows = rng.random((5, dimension))
        probe_highs = probe_lows + rng.random((5, dimension)) * 0.1
        columns = dmbr_columns(
            probe_lows,
            probe_highs,
            np.ascontiguousarray(lows.T),
            np.ascontiguousarray(highs.T),
        )
        for probe in range(5):
            rows = dmbr_rows(probe_lows[probe], probe_highs[probe], lows, highs)
            box = MBR(probe_lows[probe], probe_highs[probe])
            scalar = [
                box.min_distance(MBR(low, high)) for low, high in zip(lows, highs)
            ]
            assert rows.tolist() == columns[probe].tolist() == scalar

    @pytest.mark.parametrize("dimension", range(1, 13))
    def test_thresholds_on_the_boundary(self, dimension):
        rng = np.random.default_rng(100 + dimension)
        stored = [
            walk(rng.integers(1 << 30), int(rng.integers(20, 60)), dimension, 0.02)
            for _ in range(12)
        ]
        query = walk(rng.integers(1 << 30), 25, dimension, 0.02)
        database = SequenceDatabase(dimension)
        for number, points in enumerate(stored):
            database.add(points, sequence_id=number)
        trees = {kind: build_tree(database, kind) for kind in TREE_KINDS}
        search = SimilaritySearch(database)
        partition = search.search(query, 0.1).query_partition
        bounds = lemma1_bounds(search, partition).tolist()
        ids = database.ids()
        assert any(bound > 0 for bound in bounds)
        for epsilon in bounds:
            within = [sid for sid, bound in zip(ids, bounds) if bound <= epsilon]
            got = search.search(query, epsilon, find_intervals=False)
            assert got.candidates == within, epsilon
            for kind, tree in trees.items():
                rows = tree_rows(tree, database, partition, epsilon)
                assert [ids[row] for row in rows] == within, (kind, epsilon)
            assert search.candidates_within(partition, ids, epsilon) == within
            assert [
                sid
                for sid in ids
                if search.queries_within([(partition, epsilon)], sid) == [True]
            ] == within


class TestPackedBase:
    def test_levels_cover_their_children_and_padding_is_nan(self):
        database = populated(count=120)
        table = database.segment_table
        base = database.index.base
        size = base.size
        assert size == len(table.counts) > packed.FANOUT
        assert len(base.levels) >= 2
        assert base.levels[-1][0].shape[1] <= packed.FANOUT
        # Every table segment is a leaf entry exactly once, under its row.
        entries = (table.sequence_offsets[base.entry_row] + base.entry_segment)[:size]
        assert sorted(entries.tolist()) == list(range(size))
        assert base.row_entries.tolist() == np.diff(table.sequence_offsets).tolist()
        lows, highs = base.levels[0]
        assert np.array_equal(lows[:, :size], table.low_columns[:, entries])
        assert np.array_equal(highs[:, :size], table.high_columns[:, entries])
        assert np.isnan(lows[:, size:]).all() and np.isnan(highs[:, size:]).all()
        for (lows, highs), (above_lows, above_highs) in zip(
            base.levels, base.levels[1:]
        ):
            for node in range(lows.shape[1] // packed.FANOUT):
                children = slice(node * packed.FANOUT, (node + 1) * packed.FANOUT)
                for k in range(len(lows)):
                    real = lows[k, children][~np.isnan(lows[k, children])]
                    assert above_lows[k, node] == real.min()
                    real = highs[k, children][~np.isnan(highs[k, children])]
                    assert above_highs[k, node] == real.max()
        for name in ("entry_row", "entry_segment", "row_entries"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(base, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            base.levels[0][0][0, 0] = 0.0

    def test_an_infinite_threshold_admits_everything_and_no_padding(self):
        database = populated(count=40)
        search = SimilaritySearch(database)
        result = search.search(walk(7, 20), float("inf"), find_intervals=False)
        assert result.candidates == database.ids()
        hits = database.index.search_within(MBR([0.5, 0.5], [0.5, 0.5]), float("inf"))
        assert len(hits) == len(database.index) == database.segment_count

    def test_str_order_is_a_permutation_tiled_into_whole_pages(self):
        rng = np.random.default_rng(3)
        for dimension, count in ((1, 100), (2, 1000), (3, 5000), (4, 33)):
            centers = rng.random((dimension, count))
            order = packed._str_order(centers)
            assert sorted(order.tolist()) == list(range(count))
            # Leaves are tight along the last axis: within a page the last
            # coordinate is sorted unless the page ends a slab.
            pages = order[: count - count % packed.FANOUT].reshape(-1, packed.FANOUT)
            last = centers[-1][pages]
            sorted_pages = (np.diff(last, axis=1) >= 0).all(axis=1)
            assert sorted_pages.mean() > 0.9

    def test_empty_and_tiny_databases(self):
        database = SequenceDatabase(3)
        search = SimilaritySearch(database)
        query = walk(1, 12, 3)
        assert search.search(query, 0.5).candidates == []
        assert len(database.index) == 0
        database.add(walk(2, 1, 3), sequence_id="one-point")
        assert search.search(query, 2.0).candidates == ["one-point"]
        assert len(database.index) == 1


class TestIndexSurface:
    """What ``perf/benchkit/ladder.py`` reads off ``database.index``."""

    def test_len_search_within_and_node_accesses(self):
        database = populated(count=60)
        tree = build_tree(database)
        index = database.index
        assert len(index) == database.segment_count
        partition = partition_sequence(walk(3, 30))
        table = database.segment_table
        for segment in partition:
            before = index.stats.node_accesses
            hits = index.search_within(segment.mbr, 0.1)
            assert index.stats.node_accesses > before
            got = sorted((table.ids[row], at) for row, at in hits.tolist())
            expected = sorted(
                (entry.payload.sequence_id, entry.payload.segment_index)
                for entry in tree.search_within(segment.mbr, 0.1)
            )
            assert got == expected and len(hits) == len(expected)
        with pytest.raises(TypeError, match="MBR"):
            index.search_within("box", 0.1)
        with pytest.raises(ValueError, match="dimension"):
            index.search_within(MBR([0.0], [1.0]), 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            index.search_within(partition[0].mbr, -1.0)

    def test_search_reports_the_descent_as_node_accesses(self):
        database = populated(count=60)
        result = SimilaritySearch(database).search(walk(3, 30), 0.1)
        # The implicit root once per query MBR, then what the descent opens.
        assert result.stats.node_accesses >= result.stats.query_segments
        everything = SimilaritySearch(database).search(walk(3, 30), 5.0)
        nodes = sum(
            -(-lows.shape[1] // packed.FANOUT) for lows, _ in database.index.base.levels
        )
        assert everything.stats.node_accesses == nodes * result.stats.query_segments


class TestWritesAgainstTheTree:
    """The packed index through every write, against an R-tree built
    afresh after each."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "append", "remove", "clone"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=16,
        ),
        st.integers(4, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_results_after_every_step(self, steps, merge_after):
        saved = packed.MERGE_DELTA_SEGMENTS
        packed.MERGE_DELTA_SEGMENTS = merge_after
        try:
            self._run(steps)
        finally:
            packed.MERGE_DELTA_SEGMENTS = saved

    @staticmethod
    def _run(steps):
        database = SequenceDatabase(2, max_points=6)
        for number in range(3):
            database.add(walk(number, 30), sequence_id=f"seed{number}")
        database.index  # the seeds are the first base
        query = walk(1, 30)[5:20]
        added = 0
        for verb, number in steps:
            ids = database.ids()
            if verb == "add":
                added += 1
                database.add(walk(number, 5 + number % 40), sequence_id=f"s{added}")
            elif verb == "append" and ids:
                database.append_points(
                    ids[number % len(ids)], walk(number, 1 + number % 9)
                )
            elif verb == "remove" and ids:
                database.remove(ids[number % len(ids)])
            elif verb == "clone":
                database = database.clone()
            tree = build_tree(database)
            for epsilon in (0.05, 0.3):
                with checking("contracts"):
                    partition = SimilaritySearch(database).search(
                        query, epsilon
                    ).query_partition
                    rows = database.candidate_rows(partition, epsilon)[0]
                assert rows.tolist() == tree_rows(tree, database, partition, epsilon)
            index = database.index
            assert len(index) == database.segment_count
            assert index.delta_segments <= packed.MERGE_DELTA_SEGMENTS

    def test_an_append_masks_the_rows_base_entries(self):
        database = populated(count=12, max_points=6)
        base = database.index.base
        assert database.index.delta_segments == 0
        database.append_points(5, walk(77, 9))
        index = database.index
        assert index.base is base and index.delta_rows.tolist() == [5]
        assert index.delta_segments == len(database.partition(5))
        # Every live entry exactly once: row 5 from the delta, not the base.
        everywhere = MBR([0.0, 0.0], [1.0, 1.0])
        hits = index.search_within(everywhere, 0.0).tolist()
        assert len(hits) == len(index) == database.segment_count
        assert sorted(hits) == [
            [row, at]
            for row, sid in enumerate(database.ids())
            for at in range(len(database.partition(sid)))
        ]

    def test_a_full_delta_is_merged_into_a_new_base(self, monkeypatch):
        monkeypatch.setattr(packed, "MERGE_DELTA_SEGMENTS", 40)
        database = populated(count=12, max_points=6)
        query = walk(5, 40)[:15]
        probe = partition_sequence(query, max_points=6)
        bases = [database.index.base]
        for number in range(20):
            database.add(walk(200 + number, 30), sequence_id=f"new{number}")
            index = database.index
            assert index.delta_segments <= 40
            if index.base is not bases[-1]:
                bases.append(index.base)
                assert index.delta_segments == 0
                assert index.base.size == database.segment_count
            assert database.candidate_rows(probe, 0.1)[0].tolist() == tree_rows(
                build_tree(database), database, probe, 0.1
            )
        assert 3 <= len(bases) <= 6

    def test_a_twin_never_changes_its_parent(self):
        """A clone shares the index by reference until it writes, and then
        derives its own over the same base: the parent's index object, its
        size and what it returns stay as they were."""
        queries = [walk(seed, 25) for seed in (3, 11)]
        probes = [partition_sequence(query) for query in queries]

        def seen(database):
            return (
                [outcome(database, query, 0.15) for query in queries],
                [database.candidate_rows(p, 0.15)[0].tolist() for p in probes],
            )

        parent = populated(count=20)
        index, size, before = parent.index, len(parent.index), seen(parent)
        twin = parent.clone()
        assert twin.index is index  # nothing copied
        twin.add(queries[0], sequence_id="new")
        twin.append_points(4, queries[1])
        assert twin.index is not index
        assert len(twin.index) == twin.segment_count > size
        assert "new" in outcome(twin, queries[0], 0.15)[1]
        assert twin.index.base is index.base  # shared by reference
        assert twin.index.delta_rows.tolist() == [4, 20]
        twin.remove(0)
        assert len(twin.index) == twin.segment_count
        assert twin.index.base is not index.base
        assert index.delta_rows.tolist() == []
        assert parent.index is index and len(index) == size
        assert seen(parent) == before

    def test_two_hundred_writes_pack_a_handful_of_times(self, monkeypatch):
        packs = []
        pack = PackedBase.pack.__func__

        def counting(cls, *args):
            packs.append(args[0].shape[1])
            return pack(cls, *args)

        monkeypatch.setattr(PackedBase, "pack", classmethod(counting))
        database = populated(count=30)
        with QueryEngine(database, workers=1, cache_size=0) as engine:
            assert len(packs) == 1
            for number in range(200):
                engine.insert(walk(500 + number, 200), sequence_id=f"w{number}")
                engine.search(walk(number, 20), 0.05)  # readers never pack
            segments = engine._snapshot.database.segment_count
            result = engine.search(walk(600, 200)[10:40], 0.05)
        assert "w100" in result.answers
        assert segments > packed.MERGE_DELTA_SEGMENTS
        assert 2 <= len(packs) <= 2 + segments // packed.MERGE_DELTA_SEGMENTS <= 5


class TestPhase2Contract:
    """``REPRO_CHECK_CONTRACTS``: the probe's rows against a flat scan."""

    def test_shrinking_a_parent_box_is_caught(self, checks_off):
        database = SequenceDatabase(2)
        for number in range(60):  # everything in the upper right quarter
            database.add(0.5 + walk(number, 60) / 2, sequence_id=number)
        island = np.full((8, 2), 0.01) + np.linspace(0, 1e-3, 8)[:, None]
        database.add(island, sequence_id="island")
        assert len(database.partition("island")) == 1
        search = SimilaritySearch(database)
        assert search.search(island, 0.05).candidates == ["island"]

        index = database.index
        assert len(index.base.levels) >= 2
        entry = np.flatnonzero(index.base.entry_row[: index.base.size] == 60)[0]
        lows, highs = (corners.copy() for corners in index.base.levels[1])
        node = entry // packed.FANOUT
        lows[:, node] += 0.2  # the node no longer covers the island
        index.base = dataclasses.replace(
            index.base,
            levels=(index.base.levels[0], (lows, highs), *index.base.levels[2:]),
        )
        assert search.search(island, 0.05).candidates == []  # silently wrong
        with checking("contracts"), pytest.raises(ContractViolation, match="missed"):
            search.search(island, 0.05)

    def test_a_write_that_never_reached_the_index_is_caught(self):
        database = populated(count=20)
        stale = database.index
        far = np.full((20, 2), 0.001)
        database.append_points(3, far)
        table = database.segment_table
        # Pretend nothing was written: the old base, no delta.
        database._index = PackedIndex(
            stale.base,
            table.low_columns,
            table.high_columns,
            table.sequence_offsets,
            np.zeros(0, dtype=np.int64),
        )
        with checking("contracts"), pytest.raises(ContractViolation, match="missed"):
            SimilaritySearch(database).search(far[:10], 0.01)
        # The engine's consistency check sees the entry count is off.
        with pytest.raises(RuntimeError, match="inconsistent database"):
            QueryEngine(database, workers=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_passes_the_validator(self, kind):
        """The database's index under the ``contracts`` check; a tree built
        beside it, its per-MBR probe handed to the same validator."""
        database = populated(count=25, dimension=9)
        search = SimilaritySearch(database)
        tree = None if kind == "packed" else build_tree(database, kind)
        with checking("contracts"):
            for seed in range(5):
                query = walk(seed, 30, 9)
                partition = search.search(query, 0.1).query_partition
                bounds = lemma1_bounds(search, partition)
                for epsilon in np.sort(bounds)[:6].tolist():
                    if tree is None:
                        search.search(query, epsilon, find_intervals=False)
                        continue
                    rows = np.array(
                        tree_rows(tree, database, partition, epsilon), dtype=np.int64
                    )
                    _validate_candidate_rows((rows, 0), database, partition, epsilon)
