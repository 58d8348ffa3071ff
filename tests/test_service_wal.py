"""Tests for the write-ahead log and crash recovery (repro.service.wal).

The durability contract: an acknowledged write survives any crash, a torn
or corrupt log tail is truncated (never fatal), and replay is idempotent —
the exact invariant a crash between checkpoint save and WAL reset relies
on.  Recovery is also exercised with the no-false-dismissal contracts
enabled, so a recovered engine is held to the same correctness bar as a
never-crashed one.
"""

import os
import shutil
import struct
import zlib

import numpy as np
import pytest

from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import (
    DurabilityConfig,
    QueryEngine,
    WalRecord,
    WriteAheadLog,
    decode_frames,
    inspect_wal,
    replay_into,
)
from repro.service.faults import FaultInjected, FaultRule, fault_plan
from repro.util.checks import checking

_MAGIC = b"REPROWAL1\n"
_HEADER = struct.Struct("<II")


def build_database(rng, count=6, dimension=2):
    database = SequenceDatabase(dimension=dimension)
    for ordinal in range(count):
        length = int(rng.integers(20, 50))
        database.add(rng.random((length, dimension)), sequence_id=f"s{ordinal}")
    return database


def read_raw(path):
    return path.read_bytes()


class TestWalRecord:
    def test_round_trip_all_ops(self):
        records = [
            WalRecord("insert", "a", points=[[0.1, 0.2], [0.3, 0.4]]),
            WalRecord("append", 7, points=[[0.5, 0.6]], length=12),
            WalRecord("remove", "gone"),
        ]
        for record in records:
            rebuilt = WalRecord.from_payload(record.to_payload())
            assert rebuilt == record

    def test_int_id_preserves_type(self):
        rebuilt = WalRecord.from_payload(WalRecord("remove", 42).to_payload())
        assert rebuilt.sequence_id == 42
        assert isinstance(rebuilt.sequence_id, int)

    def test_rejects_unloggable_ids_and_ops(self):
        with pytest.raises(TypeError, match="sequence ids"):
            WalRecord("insert", ("tuple", "id"), points=[[0.0]])
        with pytest.raises(TypeError, match="sequence ids"):
            WalRecord("remove", True)
        with pytest.raises(ValueError, match="op"):
            WalRecord("upsert", "a")


class TestWriteAheadLog:
    def test_empty_log_recovers_to_nothing(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        assert wal.recovered_records == []
        assert len(wal) == 0
        wal.close()
        # Re-open the now-existing (but record-free) file.
        wal = WriteAheadLog(path)
        assert wal.recovered_records == []
        wal.close()

    def test_append_then_recover(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WalRecord("insert", "a", points=[[0.1, 0.2]]))
        wal.append(WalRecord("remove", "a"))
        assert len(wal) == 2
        wal.close()
        recovered = WriteAheadLog(path)
        ops = [record.op for record in recovered.recovered_records]
        assert ops == ["insert", "remove"]
        recovered.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WalRecord("insert", "a", points=[[0.1, 0.2]]))
        wal.close()
        intact = read_raw(path)
        # Simulate a crash mid-append: a header promising more bytes than
        # the file holds.
        payload = WalRecord("insert", "b", points=[[0.3, 0.4]]).to_payload()
        torn = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload[:5]
        path.write_bytes(intact + torn)
        recovered = WriteAheadLog(path)
        assert [r.sequence_id for r in recovered.recovered_records] == ["a"]
        recovered.close()
        # The tear was physically removed, so the next open is clean.
        assert read_raw(path) == intact

    def test_checksum_mismatch_truncates_from_bad_record(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WalRecord("insert", "a", points=[[0.1, 0.2]]))
        offset_after_first = path.stat().st_size
        wal.append(WalRecord("insert", "b", points=[[0.3, 0.4]]))
        wal.append(WalRecord("insert", "c", points=[[0.5, 0.6]]))
        wal.close()
        # Flip one payload byte of the second record: it and everything
        # after it must be discarded (no resynchronisation guessing).
        data = bytearray(read_raw(path))
        data[offset_after_first + _HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        recovered = WriteAheadLog(path)
        assert [r.sequence_id for r in recovered.recovered_records] == ["a"]
        recovered.close()
        assert path.stat().st_size == offset_after_first

    def test_bad_magic_is_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!!\n")
        with pytest.raises(ValueError, match="magic"):
            WriteAheadLog(path)

    def test_reset_empties_the_log(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WalRecord("remove", "a"))
        wal.reset()
        assert len(wal) == 0
        wal.append(WalRecord("remove", "b"))
        wal.close()
        recovered = WriteAheadLog(path)
        assert [r.sequence_id for r in recovered.recovered_records] == ["b"]
        recovered.close()

    def test_closed_log_refuses_writes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        assert wal.closed
        with pytest.raises(RuntimeError, match="closed"):
            wal.append(WalRecord("remove", "a"))
        with pytest.raises(RuntimeError, match="closed"):
            wal.reset()


def frame(payload):
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def flip_crc(payload):
    data = bytearray(frame(payload))
    data[4] ^= 0x01  # a CRC byte: the payload is intact, its checksum not
    return bytes(data)


#: One damaged final frame per kind the frame walk reports.
DAMAGE = {
    "torn header": b"\x07\x00\x00",
    "overrun length": _HEADER.pack(999, 0) + b"xy",
    "flipped CRC byte": flip_crc(WalRecord("remove", "z", seq=9).to_payload()),
    "CRC-valid undecodable payload": frame(b"not json"),
    "marker with a bad seq": frame(b'{"op":"checkpoint","seq":-1}'),
}


class TestOneFrameBoundary:
    """Recovery, the tail read, a shipped batch and inspection agree on
    where a damaged log stops being valid."""

    @pytest.fixture(params=sorted(DAMAGE))
    def damaged(self, request, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        wal.append(WalRecord("insert", "a", points=[[0.1, 0.2]]))
        wal.append(WalRecord("append", "a", points=[[0.3, 0.4]], length=2))
        wal.close()
        intact = read_raw(path)
        path.write_bytes(intact + DAMAGE[request.param])
        return path, intact

    def test_the_damage_is_reported(self, damaged):
        path, intact = damaged
        inspection = inspect_wal(path)
        assert inspection.torn
        assert inspection.entries[-1].error is not None
        assert inspection.valid_bytes == len(intact)
        assert [r.seq for r in inspection.records] == [1, 2]

    def test_opening_truncates_to_the_inspected_boundary(self, damaged):
        path, _ = damaged
        inspection = inspect_wal(path)
        wal = WriteAheadLog(path, fsync=False)
        wal.close()
        assert path.stat().st_size == inspection.valid_bytes
        assert tuple(wal.recovered_records) == inspection.records

    def test_the_tail_read_stops_at_the_inspected_boundary(self, damaged):
        path, _ = damaged
        damaged_bytes = read_raw(path)
        wal = WriteAheadLog(path, fsync=False)
        try:
            path.write_bytes(damaged_bytes)  # e.g. a concurrent torn append
            assert tuple(wal.read_from(0)) == inspect_wal(path).records
        finally:
            wal.close()

    def test_a_shipped_batch_rejects_the_damage(self, damaged):
        path, intact = damaged
        assert len(decode_frames(intact[len(_MAGIC) :])) == 2
        with pytest.raises(ValueError):
            decode_frames(read_raw(path)[len(_MAGIC) :])


class TestReplay:
    def test_replay_is_idempotent(self, rng):
        database = build_database(rng, count=3)
        records = [
            WalRecord(
                "insert", "new", points=rng.random((10, 2)).tolist()
            ),
            WalRecord("remove", "s0"),
            WalRecord(
                "append",
                "s1",
                points=[[0.5, 0.5]],
                length=len(database.sequence("s1")) + 1,
            ),
        ]
        applied_first = replay_into(database, records)
        ids_after_first = database.ids()
        lengths_first = {
            sid: len(database.sequence(sid)) for sid in ids_after_first
        }
        applied_second = replay_into(database, records)
        assert applied_first == 3
        assert applied_second == 0
        assert database.ids() == ids_after_first
        assert {
            sid: len(database.sequence(sid)) for sid in database.ids()
        } == lengths_first

    def test_replay_over_partial_prefix(self, rng):
        """The mid-checkpoint-crash state: snapshot already holds a prefix."""
        base = build_database(rng, count=2)
        ahead = base.clone()
        records = [
            WalRecord("insert", "x", points=rng.random((8, 2)).tolist()),
            WalRecord("remove", "s0"),
        ]
        replay_into(ahead, records[:1])  # snapshot saved after record 1
        replay_into(ahead, records)  # full replay over the partial state
        expected = base.clone()
        replay_into(expected, records)
        assert ahead.ids() == expected.ids()

    def test_replay_rejects_malformed_records(self, rng):
        database = build_database(rng, count=2)
        with pytest.raises(ValueError, match="no points"):
            replay_into(database, [WalRecord("insert", "zzz")])
        with pytest.raises(ValueError, match="unknown id"):
            replay_into(
                database,
                [WalRecord("append", "zzz", points=[[0.1, 0.2]], length=1)],
            )


class TestEngineRecovery:
    def test_engine_recovers_acknowledged_writes(self, rng, tmp_path):
        database = build_database(rng)
        config = DurabilityConfig(tmp_path / "data")
        new_points = rng.random((15, 2))
        with QueryEngine(database, workers=2, durability=config) as engine:
            engine.insert(new_points, sequence_id="durable")
            engine.remove("s0")
            # Simulate a crash: drop the engine without checkpointing by
            # bypassing close() — re-open from disk only.
            engine.durability = DurabilityConfig(
                config.directory, checkpoint_on_close=False
            )
        with QueryEngine(None, workers=2, durability=config) as recovered:
            ids = recovered.sequence_ids()
            assert "durable" in ids
            assert "s0" not in ids
            got = recovered._snapshot.database.sequence("durable").points
            np.testing.assert_allclose(got, new_points)

    def test_default_ids_after_a_remove_are_logged_as_assigned(self, rng, tmp_path):
        """An insert without an id after a remove takes a free ordinal
        (it used to collide with a stored one, on every retry); the WAL
        record names the id that was assigned, so replay gives every
        sequence the id it was acknowledged under."""
        config = DurabilityConfig(tmp_path / "data", checkpoint_on_close=False)
        blocks = [rng.random((12, 2)) for _ in range(5)]
        with QueryEngine(
            SequenceDatabase(dimension=2), workers=1, durability=config
        ) as engine:
            assert [engine.insert(block) for block in blocks[:3]] == [0, 1, 2]
            engine.remove(0)
            assert [engine.insert(block) for block in blocks[3:]] == [3, 4]
        with QueryEngine(None, workers=1, durability=config) as recovered:
            database = recovered._snapshot.database
            assert database.ids() == [1, 2, 3, 4]
            for sequence_id in database.ids():
                np.testing.assert_array_equal(
                    database.sequence(sequence_id).points, blocks[sequence_id]
                )
            assert recovered.insert(blocks[0]) == 5

    def test_recovered_search_matches_never_crashed_engine(self, rng, tmp_path):
        seed = build_database(rng)
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        extra = rng.random((25, 2))
        query = rng.random((10, 2))
        with QueryEngine(seed.clone(), workers=2, durability=config) as engine:
            engine.insert(extra, sequence_id="added")
            engine.remove("s1")
        # Ground truth: the same mutations applied without any crash.
        pristine = seed.clone()
        pristine.add(extra, sequence_id="added")
        pristine.remove("s1")
        reference = SimilaritySearch(pristine)
        with checking("contracts"):
            with QueryEngine(None, durability=config) as recovered:
                for epsilon in (0.5, 0.25):
                    got = recovered.search(query, epsilon)
                    expected = reference.search(query, epsilon)
                    assert got.answers == expected.answers
                    assert (
                        got.solution_intervals == expected.solution_intervals
                    )

    def test_double_recovery_is_deterministic(self, rng, tmp_path):
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
            engine.insert(rng.random((10, 2)), sequence_id="w2")
        versions = []
        for _ in range(2):
            with QueryEngine(None, workers=1, durability=config) as engine:
                versions.append(engine.snapshot_version)
                assert set(engine.sequence_ids()) >= {"w1", "w2"}
        assert versions[0] == versions[1]

    def test_checkpoint_rotates_the_log(self, rng, tmp_path):
        config = DurabilityConfig(tmp_path / "data")
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
            assert engine.wal_records == 1
            version = engine.checkpoint()
            assert version == engine.snapshot_version
            assert engine.wal_records == 0
            block = engine.stats()["durability"]
            assert block["enabled"] is True
            assert block["checkpoints"] == 1
            assert block["last_checkpoint_version"] == version
        # Clean close checkpoints again; restart replays an empty log.
        with QueryEngine(None, workers=1, durability=config) as engine:
            assert engine.wal_records == 0
            assert "w1" in engine.sequence_ids()

    def test_auto_checkpoint_every_n_records(self, rng, tmp_path):
        config = DurabilityConfig(tmp_path / "data", checkpoint_every=2)
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
            assert engine.stats()["durability"]["checkpoints"] == 0
            engine.insert(rng.random((10, 2)), sequence_id="w2")
            block = engine.stats()["durability"]
            assert block["checkpoints"] == 1
            assert block["wal_records"] == 0

    def test_fsync_disabled_still_recovers_cleanly(self, rng, tmp_path):
        config = DurabilityConfig(
            tmp_path / "data", fsync=False, checkpoint_on_close=False
        )
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
        with QueryEngine(None, workers=1, durability=config) as engine:
            assert "w1" in engine.sequence_ids()

    def test_database_none_without_snapshot_is_an_error(self, tmp_path):
        config = DurabilityConfig(tmp_path / "empty")
        with pytest.raises(TypeError, match="no snapshot"):
            QueryEngine(None, durability=config)

    def test_database_none_without_durability_is_an_error(self):
        with pytest.raises(TypeError, match="durability"):
            QueryEngine(None)

    def test_unloggable_write_fails_before_publishing(self, rng, tmp_path):
        """A write the WAL cannot represent is rejected, not half-applied."""
        config = DurabilityConfig(tmp_path / "data")
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            before = engine.snapshot_version
            with pytest.raises(TypeError, match="sequence ids"):
                engine.insert(rng.random((10, 2)), sequence_id=("t", 1))
            assert engine.snapshot_version == before
            assert ("t", 1) not in engine.sequence_ids()


def _batch():
    return [
        WalRecord("insert", "shipped", points=[[0.1, 0.2]] * 12, seq=7),
        WalRecord("remove", "s2", seq=8),
    ]


def _restore(engine):
    kept = [
        entry
        for entry in engine.export_sequences()["sequences"]
        if entry["id"] in ("s0", "s3")
    ]
    return engine.restore(kept)


#: (route, the call, how far the version — and the WAL seq — must move).
COMMIT_ROUTES = [
    ("insert", lambda e: e.insert([[0.5, 0.5]] * 12, sequence_id="w"), 1),
    ("append", lambda e: e.append("s0", [[0.4, 0.6]] * 5), 1),
    ("remove", lambda e: e.remove("s1"), 1),
    ("apply", lambda e: e.apply_records(_batch()), 2),
    (
        "apply-duplicate",
        lambda e: e.apply_records(_batch()) + e.apply_records(_batch()),
        4,
    ),
    ("restore", _restore, 1),
]


class TestCommitRoutes:
    """Every route that changes the corpus publishes through one commit."""

    @pytest.mark.parametrize(
        "route,call,advance", COMMIT_ROUTES, ids=[r[0] for r in COMMIT_ROUTES]
    )
    def test_route_keeps_version_on_the_wal_seq(
        self, route, call, advance, rng, tmp_path
    ):
        config = DurabilityConfig(tmp_path / "data", checkpoint_on_close=False)
        query = rng.random((8, 2))
        everything = 2.0  # beyond the unit-square diagonal: selects all ids
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="seeded")
            before = engine.snapshot_version
            assert before == engine.wal_last_seq == 1
            # Warm the ε-cache with the pre-write answer.
            stale = engine.search_detailed(query, everything)
            assert stale.result.answers == engine.sequence_ids()

            call(engine)

            version = engine.snapshot_version
            assert version == before + advance
            assert version == engine.wal_last_seq
            stats = engine.stats()
            assert stats["snapshot_version"] == version
            assert stats["durability"]["wal_last_seq"] == version
            # The cache (patched or cleared) serves the post-write answer.
            served = engine.search_detailed(query, everything)
            fresh = SimilaritySearch(engine._snapshot.database).search(
                query, everything
            )
            assert served.snapshot_version == version
            assert served.result.answers == fresh.answers
            assert served.result.solution_intervals == fresh.solution_intervals
            assert (
                served.result.solution_intervals
                != stale.result.solution_intervals
            )
            lengths = {
                entry["id"]: entry["length"]
                for entry in engine.export_sequences(include_points=False)[
                    "sequences"
                ]
            }
        # Kill-free reopen: same ids, same lengths, same version.
        with QueryEngine(None, workers=1, durability=config) as reopened:
            export = reopened.export_sequences(include_points=False)
            assert export["snapshot_version"] == version
            assert reopened.wal_last_seq == version
            assert {
                entry["id"]: entry["length"] for entry in export["sequences"]
            } == lengths

    def test_restore_checkpoints_like_every_other_checkpoint(
        self, rng, tmp_path
    ):
        """restore passes the checkpoint fault sites.

        A fault between save and reset publishes nothing *in memory*; on
        disk it leaves the restored checkpoint under the old log, which a
        crash right there recovers as a hybrid (docs/service.md records
        the window) — the retried resync is what converges.
        """
        config = DurabilityConfig(tmp_path / "data", checkpoint_on_close=False)
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
            ids = engine.sequence_ids()
            kept = [
                entry
                for entry in engine.export_sequences()["sequences"]
                if entry["id"] == "s0"
            ]
            with fault_plan(
                FaultRule("checkpoint.before-reset", "raise")
            ) as plan:
                with pytest.raises(FaultInjected):
                    engine.restore(kept)
                assert plan.fired("checkpoint.before-reset") == 1
            assert engine.sequence_ids() == ids
            assert engine.snapshot_version == engine.wal_last_seq == 1
            assert engine.stats()["failures"] == {"restore": 1}
            # What a crash at the fault would recover: the restored
            # corpus with the old log's insert replayed over it.
            crashed = tmp_path / "crashed"
            shutil.copytree(config.directory, crashed)
            with QueryEngine(
                None,
                workers=1,
                durability=DurabilityConfig(crashed, checkpoint_on_close=False),
            ) as hybrid:
                assert hybrid.sequence_ids() == ["s0", "w1"]
                assert hybrid.snapshot_version == hybrid.wal_last_seq == 1
            # The retry (a follower's next resync) converges.
            assert engine.restore(kept) == 1
            assert engine.sequence_ids() == ["s0"]
            assert engine.snapshot_version == engine.wal_last_seq == 2
            assert engine.stats()["durability"]["checkpoints"] == 1
        with QueryEngine(None, workers=1, durability=config) as reopened:
            assert reopened.sequence_ids() == ["s0"]
            assert reopened.snapshot_version == 2

    def test_failed_batch_never_wedges_the_checkpoint(self, rng, tmp_path):
        """A batch that fails mid-log leaves the WAL ahead; it self-heals.

        The first record is stamped, the second append faults: nothing
        publishes and the log is one seq ahead of the snapshot.  An
        explicit checkpoint, the auto-checkpoint and the one on close
        must all keep working in that state, and the next commit — any
        route — puts the version back on the seq.
        """
        config = DurabilityConfig(tmp_path / "data", checkpoint_every=2)

        def fail_mid_batch(engine):
            with fault_plan(FaultRule("wal.append", "raise", skip=1)):
                with pytest.raises(FaultInjected):
                    engine.apply_records(_batch())

        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="seeded")
            fail_mid_batch(engine)
            assert "shipped" not in engine.sequence_ids()
            assert (engine.snapshot_version, engine.wal_last_seq) == (1, 2)
            assert engine.checkpoint() == 1
            assert (engine.wal_records, engine.wal_last_seq) == (0, 2)
            # The follower's retry of the batch heals the invariant and
            # trips the auto-checkpoint.
            assert engine.apply_records(_batch()) == 2
            assert engine.snapshot_version == engine.wal_last_seq == 4
            assert engine.checkpoints == 2
            fail_mid_batch(engine)
            assert (engine.snapshot_version, engine.wal_last_seq) == (4, 5)
            assert engine.restore(engine.export_sequences()["sequences"])
            assert engine.snapshot_version == engine.wal_last_seq == 6
            ids = engine.sequence_ids()
            fail_mid_batch(engine)  # close checkpoints with the log ahead
        assert engine.checkpoints == 4
        with QueryEngine(None, workers=1, durability=config) as reopened:
            assert reopened.sequence_ids() == ids
            assert reopened.snapshot_version == reopened.wal_last_seq == 7


class TestCrashSafeSave:
    def test_save_is_atomic_via_replace(self, rng, tmp_path):
        database = build_database(rng, count=3)
        target = tmp_path / "corpus.npz"
        database.save(target)
        loaded = SequenceDatabase.load(target)
        assert loaded.ids() == database.ids()
        # No temp litter left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.npz"]

    def test_save_overwrite_keeps_old_archive_on_crash(self, rng, tmp_path):
        from repro.service.faults import FaultInjected, FaultRule, fault_plan

        database = build_database(rng, count=3)
        target = tmp_path / "corpus.npz"
        database.save(target)
        bigger = build_database(rng, count=5)
        with fault_plan(FaultRule("database.save.replace", "raise")):
            with pytest.raises(FaultInjected):
                bigger.save(target)
        # The old archive is intact and loadable; the temp file is gone.
        survivor = SequenceDatabase.load(target)
        assert survivor.ids() == database.ids()
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.npz"]

    def test_save_appends_npz_suffix_like_savez(self, rng, tmp_path):
        database = build_database(rng, count=2)
        database.save(tmp_path / "corpus")
        assert (tmp_path / "corpus.npz").exists()
        loaded = SequenceDatabase.load(tmp_path / "corpus.npz")
        assert loaded.ids() == database.ids()


class TestWalFilePermanence:
    def test_magic_header_present(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        assert read_raw(tmp_path / "wal.log").startswith(_MAGIC)

    def test_records_survive_process_style_reopen(self, rng, tmp_path):
        """Write with one handle, read with a brand-new one (no shared state)."""
        path = tmp_path / "wal.log"
        points = rng.random((5, 2)).tolist()
        wal = WriteAheadLog(path)
        wal.append(WalRecord("insert", "a", points=points))
        # Crash-style: no close(), only the OS-level file contents matter
        # (fsync already ran).
        os.stat(path)
        recovered = WriteAheadLog(path)
        [record] = recovered.recovered_records
        assert record.points.tobytes() == np.array(points).tobytes()
        assert record.points.shape == (5, 2)
        recovered.close()
        wal.close()
