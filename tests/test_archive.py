"""The database archive: one point block plus stored segment counts.

``save`` writes every sequence's points as one row-major ``points``
member and every segment's point count as one ``segment_counts`` column;
``load`` slices the partitions back out of them, takes the MBR corners
from the points, and does not run MCOST.  What these tests pin:

* a round trip is bit-identical — counts, corners by ``float.hex`` (so
  ``-0.0`` is not ``0.0``), points bytewise — and equals MCOST's output;
* the structure of the stored counts is checked on every load, a damaged
  file fails its CRC check, and both are a ``ValueError`` naming the file;
* under the ``contracts`` check a valid but different tiling is caught;
* archives in the older per-sequence layout still load, through MCOST,
  and a durable engine's next checkpoint rewrites them in the new one.
"""

import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.core.contracts import ContractViolation
from repro.core.database import SequenceDatabase
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.service import DurabilityConfig, QueryEngine
from repro.util.checks import checking

LAYOUT = ["_meta", "point_offsets", "points", "segment_counts", "segment_offsets"]


def build(rng, count=8, *, ids=None, dimension=2, **kwargs):
    database = SequenceDatabase(dimension, **kwargs)
    for ordinal in range(count):
        length = int(rng.integers(1, 90))
        sequence_id = f"s{ordinal}" if ids is None else ids[ordinal]
        database.add(rng.random((length, dimension)), sequence_id=sequence_id)
    return database


def hexes(matrix):
    return [[value.hex() for value in row] for row in matrix.tolist()]


def fingerprint(database):
    """Every stored partition, exactly: segment tiling, corners as hex
    strings, points as bytes."""
    return [
        (
            sequence_id,
            part.counts.tolist(),
            hexes(part.low_matrix),
            hexes(part.high_matrix),
            part.sequence.points.tobytes(),
            [
                (
                    segment.index,
                    segment.start,
                    segment.count,
                    tuple(map(float.hex, segment.mbr.low_tuple)),
                    tuple(map(float.hex, segment.mbr.high_tuple)),
                )
                for segment in part
            ],
        )
        for sequence_id, part in database.partitions()
    ]


def mcost(database):
    """The database re-partitioned from its points by MCOST."""
    fresh = database.empty_twin()
    for sequence_id, part in database.partitions():
        fresh._store(
            sequence_id,
            partition_sequence(
                part.sequence,
                cost_constant=database.cost_constant,
                max_points=database.max_points,
            ),
        )
    return fresh


def round_trip(database, path):
    database.save(path)
    return SequenceDatabase.load(path)


def members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def rewrite(path, **changes):
    """The archive at ``path`` again, with some members replaced."""
    arrays = members(path)
    arrays.update(changes)
    np.savez(path, **arrays)


def write_old_layout(database, path, kind="rtree"):
    """An archive as earlier versions wrote it: one compressed
    ``sequence_<i>`` member per sequence beside ``_meta``, which names the
    index kind the database then kept."""
    ids = database.ids()
    meta = {
        "dimension": database.dimension,
        "cost_constant": database.cost_constant,
        "max_points": database.max_points,
        "index_kind": kind,
        "max_entries": 16,
        "ids": [[type(i).__name__, str(i)] for i in ids],
    }
    archive = {
        f"sequence_{ordinal}": database.sequence(sequence_id).points
        for ordinal, sequence_id in enumerate(ids)
    }
    archive["_meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **archive)


def same_searches(got, expected, rng, dimension=2):
    for _ in range(4):
        query = rng.random((int(rng.integers(4, 20)), dimension))
        for epsilon in (0.1, 0.3):
            a = SimilaritySearch(got).search(query, epsilon)
            b = SimilaritySearch(expected).search(query, epsilon)
            assert a.candidates == b.candidates
            assert a.answers == b.answers
            assert a.solution_intervals == b.solution_intervals
            assert a.stats.node_accesses == b.stats.node_accesses


class TestLayout:
    def test_members_are_the_flat_columns_and_no_corners(self, rng, tmp_path):
        database = build(rng)
        path = tmp_path / "db.npz"
        database.save(path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert sorted(info.filename for info in infos) == [f"{m}.npy" for m in LAYOUT]
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}
        stored = members(path)
        parts = [part for _, part in database.partitions()]
        np.testing.assert_array_equal(
            stored["points"], np.concatenate([p.sequence.points for p in parts])
        )
        np.testing.assert_array_equal(
            stored["segment_counts"], np.concatenate([p.counts for p in parts])
        )
        assert stored["point_offsets"].tolist() == [0, *np.cumsum([len(p.sequence) for p in parts])]
        assert stored["segment_offsets"].tolist() == [0, *np.cumsum([len(p) for p in parts])]

    def test_load_does_not_partition(self, rng, tmp_path, checks_off, monkeypatch):
        database = build(rng)
        path = tmp_path / "db.npz"
        database.save(path)

        def no_mcost(*args, **kwargs):
            raise AssertionError("load ran the MCOST pass")

        monkeypatch.setattr("repro.core.partitioning._partition_rows", no_mcost)
        loaded = SequenceDatabase.load(path)
        assert fingerprint(loaded) == fingerprint(database)

    def test_the_point_block_is_streamed_not_concatenated(self, rng, tmp_path):
        database = SequenceDatabase(3)
        for _ in range(40):  # random walks: segments of many points
            steps = rng.normal(0.0, 0.003, (2000, 3))
            database.add(np.clip(0.5 + np.cumsum(steps, axis=0), 0.0, 1.0))
        block = database.point_count * 3 * 8
        tracemalloc.start()
        try:
            database.save(tmp_path / "db.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block / 4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "case",
        ["str ids", "int ids", "mixed ids", "one point", "no max_points", "empty"],
    )
    def test_partitions_are_bit_identical_and_mcost_s(self, rng, tmp_path, case):
        if case == "empty":  # what the smokes save
            database = SequenceDatabase(2)
        elif case == "one point":
            database = build(rng, 3)
            database.add(rng.random((1, 2)), sequence_id="single")
        elif case == "no max_points":
            database = build(rng, 6, max_points=None, cost_constant=0.9)
        else:
            ids = {
                "str ids": [f"clip-{i}" for i in range(6)],
                "int ids": [10, 3, 0, 7, 1, 2],
                "mixed ids": ["a", 1, "1", 2, "b", 0],
            }[case]
            database = build(rng, 6, ids=ids)
        loaded = round_trip(database, tmp_path / "db.npz")
        assert loaded.ids() == database.ids()
        assert [type(i) for i in loaded.ids()] == [type(i) for i in database.ids()]
        assert fingerprint(loaded) == fingerprint(database) == fingerprint(mcost(loaded))
        assert (loaded.cost_constant, loaded.max_points) == (
            database.cost_constant,
            database.max_points,
        )
        same_searches(loaded, database, rng)

    def test_signed_zeros_keep_their_sign(self, rng, tmp_path):
        """Python's min / max keep the first of two equal values, NumPy's
        reductions the last: ``0.0`` and ``-0.0`` tell them apart."""
        points = rng.random((120, 2))
        points[rng.random((120, 2)) < 0.3] = 0.0
        points[rng.random((120, 2)) < 0.3] = -0.0
        database = SequenceDatabase(2, max_points=6)
        database.add(points, sequence_id="zeros")
        database.add(np.negative(np.zeros((9, 2))), sequence_id="all -0")
        corners = hexes(database.partition("zeros").low_matrix)
        assert {"0x0.0p+0", "-0x0.0p+0"} <= {value for row in corners for value in row}
        loaded = round_trip(database, tmp_path / "db.npz")
        assert fingerprint(loaded) == fingerprint(database) == fingerprint(mcost(loaded))

    def test_after_appends_and_a_remove(self, rng, tmp_path):
        database = build(rng, 6, ids=[0, 1, 2, "x", "y", "z"])
        database.save(tmp_path / "first.npz")
        database = SequenceDatabase.load(tmp_path / "first.npz")
        database.append_points(1, rng.random((37, 2)))
        database.append_points("y", rng.random((1, 2)))
        database.remove("x")
        database.add(rng.random((30, 2)), sequence_id="late")
        loaded = round_trip(database, tmp_path / "second.npz")
        assert loaded.ids() == [0, 1, 2, "y", "z", "late"]
        assert fingerprint(loaded) == fingerprint(database) == fingerprint(mcost(loaded))
        same_searches(loaded, database, rng)

    def test_a_loaded_database_grows_like_the_saved_one(self, rng, tmp_path):
        database = build(rng, 5)
        loaded = round_trip(database, tmp_path / "db.npz")
        for twin in (database, loaded):
            twin.segment_table  # derived, so the writes below are recorded
            twin.append_points("s2", np.full((20, 2), 0.25))
            twin.add(np.full((8, 2), 0.75), sequence_id="new")
            assert twin._stale == ("s2", "new")
        assert fingerprint(loaded) == fingerprint(database)
        for name in ("lows", "highs", "counts", "point_offsets", "lengths"):
            np.testing.assert_array_equal(
                getattr(loaded.segment_table, name), getattr(database.segment_table, name)
            )


class TestOldLayout:
    @pytest.mark.parametrize("index_kind", ["packed", "rtree"])
    def test_per_sequence_archives_load_through_mcost(self, rng, tmp_path, index_kind):
        database = build(rng, 10)
        database.append_points("s3", rng.random((25, 2)))
        old = tmp_path / "old.npz"
        write_old_layout(database, old, index_kind)
        with zipfile.ZipFile(old) as archive:
            assert "points.npy" not in archive.namelist()
        loaded = SequenceDatabase.load(old)
        assert loaded.ids() == database.ids()
        assert fingerprint(loaded) == fingerprint(database)
        same_searches(loaded, database, rng)
        # Saved again, it is in the new layout, and loads to the same.
        again = round_trip(loaded, tmp_path / "new.npz")
        assert sorted(members(tmp_path / "new.npz")) == LAYOUT
        assert fingerprint(again) == fingerprint(database)

    def test_a_durable_engine_rewrites_an_old_snapshot_at_its_checkpoint(
        self, rng, tmp_path
    ):
        database = build(rng, 6)
        config = DurabilityConfig(tmp_path / "data")
        config.directory.mkdir()
        write_old_layout(database, config.snapshot_path)
        query = rng.random((12, 2))
        with QueryEngine(None, workers=1, durability=config) as engine:
            assert engine.sequence_ids() == database.ids()
            before = engine.search(query, 0.3)
            assert before.answers == SimilaritySearch(database).search(query, 0.3).answers
            assert engine.snapshot_version == engine.wal_last_seq
        assert sorted(members(config.snapshot_path)) == LAYOUT
        with QueryEngine(None, workers=1, durability=config) as engine:
            assert engine.search(query, 0.3).answers == before.answers
            assert fingerprint(engine._snapshot.database) == fingerprint(database)


class TestDamage:
    def _saved(self, rng, tmp_path, **kwargs):
        database = build(rng, 6, **kwargs)
        path = tmp_path / "db.npz"
        database.save(path)
        return path, members(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("zero count", "positive"),
            ("count over max_points", "max_points"),
            ("counts off by one", "sum"),
            ("offsets not monotone", "increasing"),
            ("offset out of range", "increasing"),
            ("float counts", "int64"),
            ("points of another dimension", "points are"),
            ("duplicate ids", "duplicate"),
        ],
    )
    def test_a_structural_violation_names_the_file(self, rng, tmp_path, damage, message):
        path, stored = self._saved(rng, tmp_path, max_points=8)
        counts = stored["segment_counts"].copy()
        point_offsets = stored["point_offsets"].copy()
        segment_offsets = stored["segment_offsets"].copy()
        changes = {}
        if damage == "zero count":
            counts[0], counts[1] = 0, counts[0] + counts[1]
            changes["segment_counts"] = counts
        elif damage == "count over max_points":
            # Sequence 0 as one segment: still tiles it, but too big.
            first, stop = segment_offsets[:2]
            assert point_offsets[1] > 8
            changes["segment_counts"] = np.concatenate(
                [[point_offsets[1]], counts[stop:]]
            ).astype(np.int64)
            changes["segment_offsets"] = np.concatenate(
                [[0], segment_offsets[1:] - (stop - first - 1)]
            ).astype(np.int64)
        elif damage == "counts off by one":
            counts[0] += 1
            changes["segment_counts"] = counts
        elif damage == "offsets not monotone":
            point_offsets[[1, 2]] = point_offsets[[2, 1]]
            changes["point_offsets"] = point_offsets
        elif damage == "offset out of range":
            segment_offsets[-1] += 1
            changes["segment_offsets"] = segment_offsets
        elif damage == "float counts":
            changes["segment_counts"] = counts.astype(np.float64)
        elif damage == "points of another dimension":
            changes["points"] = np.hstack([stored["points"]] * 2)
        elif damage == "duplicate ids":
            meta = json.loads(bytes(stored["_meta"]).decode())
            meta["ids"][1] = meta["ids"][0]
            changes["_meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        rewrite(path, **changes)
        with pytest.raises(ValueError, match=message) as caught:
            SequenceDatabase.load(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("constant", [float("nan"), float("inf"), -0.3])
    def test_a_bad_cost_constant_names_the_file(self, rng, tmp_path, constant):
        """JSON carries NaN and Infinity, and ``load`` takes the value
        through ``float``: it must meet the constructor's rule."""
        path, stored = self._saved(rng, tmp_path)
        meta = json.loads(bytes(stored["_meta"]).decode())
        meta["cost_constant"] = constant
        rewrite(path, _meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))
        with pytest.raises(ValueError, match="cost_constant") as caught:
            SequenceDatabase.load(path)
        assert str(path) in str(caught.value)

    def test_a_truncated_archive_names_the_file(self, rng, tmp_path):
        path, _ = self._saved(rng, tmp_path)
        data = path.read_bytes()
        for keep in (len(data) // 2, len(data) - 10, 100):
            path.write_bytes(data[:keep])
            with pytest.raises(ValueError) as caught:
                SequenceDatabase.load(path)
            assert str(path) in str(caught.value)
            assert isinstance(caught.value.__cause__, zipfile.BadZipFile)

    @pytest.mark.parametrize("member", ["points", "segment_counts", "points header"])
    def test_a_flipped_bit_fails_the_crc_check(self, rng, tmp_path, member):
        """Checked before anything is parsed: a flip in an array header
        would otherwise surface as whatever NumPy makes of the header."""
        path, stored = self._saved(rng, tmp_path)
        data = bytearray(path.read_bytes())
        if member == "points header":
            at = data.find(b"'<f8'") + 3  # the '8': an unknown type
        else:
            at = data.find(stored[member][3:5].tobytes())
        assert at > 3
        data[at] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="CRC") as caught:
            SequenceDatabase.load(path)
        assert str(path) in str(caught.value)

    def test_a_missing_file_is_still_a_file_not_found_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SequenceDatabase.load(tmp_path / "nothing.npz")


class TestContractsCheck:
    def _tampered(self, rng, tmp_path):
        """An archive whose counts still tile every sequence within
        ``max_points`` — but split one segment MCOST made in two."""
        database = build(rng, 6)
        path = tmp_path / "db.npz"
        database.save(path)
        stored = members(path)
        counts, offsets = stored["segment_counts"], stored["segment_offsets"]
        split = int(np.flatnonzero(counts >= 2)[0])
        row = int(np.searchsorted(offsets, split, side="right")) - 1
        tampered = np.insert(counts, split, 1)
        tampered[split + 1] -= 1
        shifted = offsets.copy()
        shifted[row + 1 :] += 1
        rewrite(path, segment_counts=tampered, segment_offsets=shifted)
        return database, path, database.ids()[row]

    def test_a_valid_but_different_tiling_loads_silently_with_checks_off(
        self, rng, tmp_path, checks_off
    ):
        database, path, sequence_id = self._tampered(rng, tmp_path)
        loaded = SequenceDatabase.load(path)
        assert len(loaded.partition(sequence_id)) == len(database.partition(sequence_id)) + 1
        assert fingerprint(loaded) != fingerprint(database)

    def test_a_valid_but_different_tiling_raises_under_contracts(self, rng, tmp_path, checks_off):
        database, path, sequence_id = self._tampered(rng, tmp_path)
        with checking("contracts"), pytest.raises(ContractViolation) as caught:
            SequenceDatabase.load(path)
        assert str(path) in str(caught.value) and repr(sequence_id) in str(caught.value)

    def test_an_untampered_archive_passes_the_check(self, rng, tmp_path, checks_off):
        database = build(rng, 6)
        with checking("contracts"):
            loaded = round_trip(database, tmp_path / "db.npz")
        assert fingerprint(loaded) == fingerprint(database)
