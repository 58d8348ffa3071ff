"""Replication: WAL log shipping, the follower cursor, the repair journal.

The edge cases the replication design promises to absorb, each pinned
here: a torn WAL tail serves only its valid prefix, duplicate batch
delivery converges (apply is a no-op), a cursor ahead of the leader is
*divergence* (typed, never silently absorbed), a cursor behind the
horizon falls back to a snapshot resync, a fault (or a kill -9) at the
``wal.ship.batch`` site fails one poll without corrupting either side,
and the coordinator's journaled repairs and bounded-staleness follower
reads survive restarts and leader death.
"""

import base64
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, LocalBackend, RepairJournal
from repro.cluster.repair import JournalView
from repro.core.database import SequenceDatabase
from repro.service import (
    DurabilityConfig,
    QueryEngine,
    RepairOverflow,
    ReplicaDiverged,
    WalFollower,
    WalRecord,
    WriteAheadLog,
    decode_frames,
)
from repro.service.errors import SnapshotRequired
from repro.service.faults import FaultInjected, FaultRule, fault_plan
from repro.util.checks import checking

SRC = str(Path(__file__).resolve().parent.parent / "src")
DIMENSION = 2


@pytest.fixture
def rng():
    return np.random.default_rng(9000)


def durable_engine(directory, *, database=...):
    if database is ...:
        database = SequenceDatabase(dimension=DIMENSION)
    return QueryEngine(
        database,
        workers=1,
        durability=DurabilityConfig(directory, fsync=False),
    )


def fill(engine, rng, count, prefix="seq"):
    for ordinal in range(count):
        engine.insert(
            rng.random((10, DIMENSION)), sequence_id=f"{prefix}-{ordinal}"
        )


class TestTornTail:
    def test_torn_tail_serves_only_the_valid_prefix(self, tmp_path):
        """A crash mid-append leaves a torn final frame; tailing must ship
        exactly the records whose CRCs verify, and the log stays live."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        for ordinal in range(3):
            wal.append(
                WalRecord(
                    "insert", f"s{ordinal}", points=[[0.1 * ordinal, 0.2]]
                )
            )
        wal.close()
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)

        reopened = WriteAheadLog(path, fsync=False)
        try:
            assert len(reopened.recovered_records) == 2
            shipped = reopened.read_from(0)
            assert [record.seq for record in shipped] == [1, 2]
            assert [record.sequence_id for record in shipped] == ["s0", "s1"]
            assert reopened.last_seq == 2
            # The torn bytes are gone, not latent: the next append lands
            # cleanly and ships with the next tail read.
            reopened.append(WalRecord("insert", "s3", points=[[0.5, 0.5]]))
            assert [r.seq for r in reopened.read_from(2)] == [3]
        finally:
            reopened.close()


class TestDuplicateDelivery:
    def test_duplicate_batch_applies_as_a_noop(self, tmp_path, rng):
        """Re-shipping an already-applied batch (a retried response, a
        cursor persisted just behind the apply) must converge."""
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 4, prefix="dup")
            reply = leader.wal_tail(0)
            records = decode_frames(base64.b64decode(reply["frames"]))
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as follower:
                assert follower.apply_records(records) == 4
                assert follower.apply_records(records) == 0
                assert sorted(follower.sequence_ids()) == sorted(
                    leader.sequence_ids()
                )


class TestHandshakeRejections:
    def test_cursor_ahead_of_leader_is_divergence(self, tmp_path, rng):
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 2)
            ahead = leader.wal_tail(0)["last_seq"] + 5
            with pytest.raises(ReplicaDiverged):
                leader.wal_tail(ahead)

    def test_diverged_follower_flags_and_resyncs(self, tmp_path, rng):
        """A cursor file claiming history the leader never wrote raises
        (one-shot poll), then ``resync`` restores convergence."""
        cursor = tmp_path / "cursor.json"
        cursor.write_text(
            '{"applied_seq": 999, "leader_snapshot_version": 0}'
        )
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 3)
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica:
                follower = WalFollower(replica, leader, cursor_path=cursor)
                with pytest.raises(ReplicaDiverged):
                    follower.poll()
                assert follower.status()["diverged"] is True
                summary = follower.resync()
                assert follower.status()["diverged"] is False
                assert summary["resync"] is True
                assert sorted(replica.sequence_ids()) == sorted(
                    leader.sequence_ids()
                )

    def test_cursor_behind_horizon_triggers_snapshot_resync(
        self, tmp_path, rng
    ):
        """A checkpoint moves the horizon past a stale cursor: the tail is
        gone, the poll must fall back to a full restore and resume."""
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 3)
            leader.checkpoint()  # the records above leave the WAL
            fill(leader, rng, 2, prefix="post")
            with pytest.raises(SnapshotRequired):
                leader.wal_tail(0)
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica:
                follower = WalFollower(
                    replica, leader, cursor_path=tmp_path / "cursor.json"
                )
                summary = follower.poll()
                assert summary["resync"] is True
                assert sorted(replica.sequence_ids()) == sorted(
                    leader.sequence_ids()
                )
                # The resync cursor lands exactly at the export's version:
                # the next poll tails nothing and reports zero lag.
                summary = follower.poll()
                assert summary["count"] == 0
                assert summary["lag"] == 0


    def test_restored_leader_keeps_followers_tailing(self, tmp_path, rng):
        """A restore consumes a WAL seq like any other commit, so the
        export's version stays a valid cursor: a caught-up follower is
        told to resync (the restored state cannot be tailed), the
        resynced one tails the next write, and a restart never moves
        the version backwards."""
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 2)
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica:
                follower = WalFollower(
                    replica, leader, cursor_path=tmp_path / "cursor.json"
                )
                assert follower.poll()["applied"] == 2
                leader.restore(
                    [
                        entry
                        for entry in leader.export_sequences()["sequences"]
                        if entry["id"] == "seq-0"
                    ]
                )
                assert leader.snapshot_version == leader.wal_last_seq == 3
                summary = follower.poll()
                assert summary["resync"] is True
                assert summary["applied_seq"] == 3
                assert replica.sequence_ids() == ["seq-0"]
                fill(leader, rng, 1, prefix="post")
                summary = follower.poll()  # no ReplicaDiverged
                assert (summary["resync"], summary["applied"]) == (False, 1)
                assert replica.sequence_ids() == leader.sequence_ids()
            version = leader.snapshot_version
        with durable_engine(tmp_path / "leader", database=None) as reopened:
            assert reopened.snapshot_version == version == 4


class TestShipFaults:
    def test_batch_fault_fails_one_poll_then_recovers(self, tmp_path, rng):
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 3)
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica:
                follower = WalFollower(
                    replica, leader, cursor_path=tmp_path / "cursor.json"
                )
                with fault_plan(
                    FaultRule("wal.ship.batch", "raise", times=1)
                ):
                    with pytest.raises(FaultInjected):
                        follower.poll()
                summary = follower.poll()
                assert summary["lag"] == 0
                assert sorted(replica.sequence_ids()) == sorted(
                    leader.sequence_ids()
                )

    def test_kill_at_ship_batch_loses_nothing(self, tmp_path, rng):
        """A real ``os._exit`` at ``wal.ship.batch``: shipping is a read,
        so a leader killed mid-tail recovers every acknowledged write and
        ships the identical batch afterwards."""
        data_dir = tmp_path / "leader"
        script = f"""
import numpy as np
from repro.core.database import SequenceDatabase
from repro.service import DurabilityConfig, QueryEngine

rng = np.random.default_rng(11)
engine = QueryEngine(
    SequenceDatabase(dimension=2),
    workers=1,
    durability=DurabilityConfig({str(data_dir)!r}),
)
for n in range(3):
    engine.insert(rng.random((10, 2)), sequence_id=f"ship-{{n}}")
print("ACK", flush=True)
engine.wal_tail(0)  # REPRO_FAULTS kills the process here
print("UNREACHABLE", flush=True)
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                "PYTHONPATH": SRC,
                "PATH": "/usr/bin:/bin",
                "REPRO_FAULTS": "wal.ship.batch=kill",
            },
        )
        assert completed.returncode == 137, completed.stderr
        assert "ACK" in completed.stdout
        assert "UNREACHABLE" not in completed.stdout
        with checking("contracts"):
            with durable_engine(data_dir, database=None) as recovered:
                assert sorted(recovered.sequence_ids()) == [
                    "ship-0",
                    "ship-1",
                    "ship-2",
                ]
                reply = recovered.wal_tail(0)
                records = decode_frames(base64.b64decode(reply["frames"]))
                assert [r.sequence_id for r in records] == [
                    "ship-0",
                    "ship-1",
                    "ship-2",
                ]


class TestCursorResume:
    def test_restarted_follower_tails_only_the_delta(self, tmp_path, rng):
        replica_dir = tmp_path / "replica"
        cursor = tmp_path / "cursor.json"
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 3)
            with durable_engine(replica_dir) as replica:
                follower = WalFollower(replica, leader, cursor_path=cursor)
                assert follower.poll()["applied"] == 3
            fill(leader, rng, 2, prefix="late")
            # A new process: engine recovered from its own durability,
            # cursor re-read from disk — only the two new records ship.
            with durable_engine(replica_dir, database=None) as replica:
                follower = WalFollower(replica, leader, cursor_path=cursor)
                summary = follower.poll()
                assert summary["applied"] == 2
                assert summary["count"] == 2
                assert follower.status()["resyncs"] == 0
                assert sorted(replica.sequence_ids()) == sorted(
                    leader.sequence_ids()
                )


    def test_an_idle_poll_writes_no_cursor(self, tmp_path, rng, monkeypatch):
        with durable_engine(tmp_path / "leader") as leader:
            fill(leader, rng, 2)
            with empty_engine() as replica:
                follower = WalFollower(
                    replica, leader, cursor_path=tmp_path / "cursor.json"
                )
                assert follower.poll()["applied"] == 2
                writes = []
                persist = follower._persist_cursor
                monkeypatch.setattr(
                    follower,
                    "_persist_cursor",
                    lambda *cursor: (writes.append(cursor), persist(*cursor)),
                )
                for _ in range(2):
                    assert follower.poll()["count"] == 0
                assert writes == []
                fill(leader, rng, 1, prefix="late")
                assert follower.poll()["applied"] == 1
                assert writes == [(3, 3)]


def missed(backend, op, sequence_id, points=None):
    """The record the coordinator queues when ``backend`` misses a write."""
    return WalRecord(op, sequence_id, points=points, replica=backend)


def empty_engine():
    return QueryEngine(SequenceDatabase(dimension=DIMENSION), workers=1)


def catch_up(journal, backend, target, *, export=list, batch_limit=512):
    """The follower a coordinator drains ``backend`` with."""
    return WalFollower(
        target,
        JournalView(journal, backend, export),
        cursor_path=journal.cursor_path(backend),
        batch_limit=batch_limit,
    )


class TestRepairJournal:
    def test_pending_entries_survive_reopen(self, tmp_path):
        journal = RepairJournal(3, directory=tmp_path)
        journal.queue(missed(1, "insert", "a", [[0.1, 0.2]]))
        journal.queue(missed(1, "remove", "b"))
        journal.close()

        reopened = RepairJournal(3, directory=tmp_path)
        assert reopened.pending() == {1: 2}
        with empty_engine() as target:
            follower = catch_up(reopened, 1, target, batch_limit=1)
            assert follower.poll()["count"] == 1
            assert target.sequence_ids() == ["a"]
            entry = target._snapshot.database.sequence("a")
            assert entry.points.tobytes() == np.array([[0.1, 0.2]]).tobytes()
        reopened.close()

        # The follower's fsynced cursor is the backend's acked position.
        third = RepairJournal(3, directory=tmp_path)
        assert third.pending() == {1: 1}
        with empty_engine() as target:
            follower = catch_up(third, 1, target)
            assert follower.poll()["count"] == 1  # the remove
            assert follower.poll()["count"] == 0
        assert third.pending() == {}
        third.close()

    def test_overflow_flags_resync_and_survives_restart(self, tmp_path):
        journal = RepairJournal(2, directory=tmp_path, max_ops=2)
        journal.queue(missed(0, "insert", "a", [[0.1, 0.2]]))
        journal.queue(missed(0, "insert", "b", [[0.3, 0.4]]))
        with pytest.raises(RepairOverflow):
            journal.queue(missed(0, "insert", "c", [[0.5, 0.6]]))
        assert journal.resync_pending() == [0]
        assert journal.pending() == {}
        # Later writes queue past the horizon; the resync covers them.
        journal.queue(missed(0, "insert", "d", [[0.7, 0.8]]))
        journal.close()

        reopened = RepairJournal(2, directory=tmp_path, max_ops=2)
        assert reopened.resync_pending() == [0]
        assert reopened.pending() == {0: 1}
        # The peers' copy holds every write up to the journal's last seq.
        peers = [
            {"id": sid, "points": [[0.1, 0.2]]} for sid in ("a", "b", "c", "d")
        ]
        with empty_engine() as target:
            follower = catch_up(reopened, 0, target, export=lambda: peers)
            with pytest.raises(SnapshotRequired):
                JournalView(reopened, 0, list).wal_tail(follower.applied_seq)
            assert follower.poll()["resync"] is True
            assert follower.poll()["count"] == 0
            reopened.queue(missed(0, "remove", "a"))
            assert follower.poll()["count"] == 1  # replayed after the export
            assert sorted(target.sequence_ids()) == ["b", "c", "d"]
            follower.poll()
        assert reopened.resync_pending() == []
        assert reopened.pending() == {}
        reopened.close()

    def test_in_memory_mode_queues_and_acks(self):
        journal = RepairJournal(2)
        assert journal.cursor_path(1) is None
        journal.queue(missed(1, "insert", "x", [[0.1, 0.2]]))
        assert journal.pending() == {1: 1}
        with empty_engine() as target:
            follower = catch_up(journal, 1, target)
            assert follower.poll()["applied"] == 1
            assert follower.poll()["count"] == 0
            assert target.sequence_ids() == ["x"]
        assert journal.pending() == {}
        journal.close()

    def test_shipped_records_carry_no_replica(self):
        journal = RepairJournal(2)
        journal.queue(missed(1, "insert", "x", [[0.1, 0.2]]))
        reply = JournalView(journal, 1, list).wal_tail(0)
        (record,) = decode_frames(base64.b64decode(reply["frames"]))
        assert (record.replica, record.seq) == (None, 1)
        journal.close()


class TestCoordinatorReplication:
    def test_journaled_repair_survives_coordinator_restart(
        self, tmp_path, rng
    ):
        engines = [
            QueryEngine(SequenceDatabase(dimension=DIMENSION), workers=1)
            for _ in range(2)
        ]
        backends = [
            LocalBackend(engine, name=f"b{index}")
            for index, engine in enumerate(engines)
        ]
        journal_dir = tmp_path / "journal"
        try:
            first = ClusterCoordinator(
                list(backends),
                replication=2,
                write_quorum=1,
                journal_dir=journal_dir,
                probe_interval=3600.0,
                hedge=None,
            )
            with fault_plan(
                FaultRule("cluster.backend.1.request", "raise", times=None)
            ):
                first.insert(rng.random((10, DIMENSION)), sequence_id="x")
            assert sum(first.repair_pending().values()) == 1
            first.close()  # the crash stand-in: only the journal persists

            second = ClusterCoordinator(
                list(backends),
                replication=2,
                write_quorum=1,
                journal_dir=journal_dir,
                probe_interval=3600.0,
                hedge=None,
            )
            try:
                assert sum(second.repair_pending().values()) == 1
                second.probe()
                assert sum(second.repair_pending().values()) == 0
                assert "x" in engines[1].sequence_ids()
            finally:
                second.close()
        finally:
            for engine in engines:
                engine.close()

    def test_kill_between_apply_and_cursor_replays_once(self, tmp_path):
        """A coordinator killed at ``follower.persist`` — the backend has
        applied the missed append, its cursor is not yet written — is
        restarted over the same journal: the append replays as a no-op
        (its ``length``), so backend 1 holds base + appended points."""
        script = f"""
import numpy as np
from repro.cluster import ClusterCoordinator, LocalBackend
from repro.core.database import SequenceDatabase
from repro.service import DurabilityConfig, QueryEngine
from repro.service.faults import FaultRule, fault_plan

rng = np.random.default_rng(12)
base, extra = rng.random((20, 2)), rng.random((5, 2))
engines = []
for index in range(2):
    database = SequenceDatabase(dimension=2)
    database.add(base, sequence_id="s")
    engines.append(QueryEngine(database, workers=1, durability=DurabilityConfig(
        {str(tmp_path)!r} + f"/b{{index}}", fsync=False)))
coordinator = ClusterCoordinator(
    [LocalBackend(engine) for engine in engines], replication=2,
    write_quorum=1, journal_dir={str(tmp_path / "journal")!r}, hedge=None)
with fault_plan(FaultRule("cluster.backend.1.request", "raise", times=None)):
    coordinator.append("s", extra)
print("QUEUED", coordinator.repair_pending(), flush=True)
with fault_plan(FaultRule("follower.persist", "kill")):
    coordinator.probe()
print("UNREACHABLE", flush=True)
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 137, completed.stderr
        assert "QUEUED {1: 1}" in completed.stdout
        assert "UNREACHABLE" not in completed.stdout
        engines = [
            durable_engine(tmp_path / f"b{index}", database=None)
            for index in range(2)
        ]
        try:
            # The apply landed before the kill; the cursor did not.
            assert len(engines[1]._snapshot.database.sequence("s")) == 25
            coordinator = ClusterCoordinator(
                [LocalBackend(engine) for engine in engines],
                replication=2,
                write_quorum=1,
                journal_dir=tmp_path / "journal",
                hedge=None,
            )
            try:
                assert coordinator.repair_pending() == {1: 1}
                coordinator.probe()
                assert coordinator.repair_pending() == {}
                for engine in engines:
                    assert len(engine._snapshot.database.sequence("s")) == 25
            finally:
                coordinator.close()
        finally:
            for engine in engines:
                engine.close()

    def test_follower_serves_bounded_staleness_reads(self, tmp_path, rng):
        with durable_engine(tmp_path / "b0") as leader_engine:
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as other_engine, QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica_engine:
                follower = WalFollower(
                    replica_engine,
                    leader_engine,
                    cursor_path=tmp_path / "cursor.json",
                )
                backends = [
                    LocalBackend(leader_engine, name="b0"),
                    LocalBackend(other_engine, name="b1"),
                ]
                follower_backend = LocalBackend(
                    replica_engine, name="f0", follower=follower
                )
                with ClusterCoordinator(
                    backends,
                    replication=1,
                    followers=[(follower_backend, 0)],
                    max_lag_records=0,
                    probe_interval=3600.0,
                    hedge=None,
                ) as coordinator:
                    fill(coordinator, rng, 6, prefix="bs")
                    while follower.poll()["lag"] > 0:
                        pass
                    coordinator.probe()  # records the follower's lag (0)
                    query = rng.random((6, DIMENSION))
                    baseline = coordinator.search(query, 2.0)
                    assert baseline.complete

                    # Backend 0 dies; its shards have no other replica
                    # (replication=1) — the caught-up follower is the
                    # only read path left, and it must keep the answer
                    # complete and identical.
                    with fault_plan(
                        FaultRule(
                            "cluster.backend.0.request", "raise", times=None
                        )
                    ):
                        served = coordinator.search(query, 2.0)
                    assert served.complete
                    assert sorted(served.answers) == sorted(baseline.answers)
                    assert coordinator.stats()["follower_reads"] >= 1

    def test_stale_follower_is_not_read_eligible(self, tmp_path, rng):
        """A follower whose probed lag exceeds ``max_lag_records`` must
        not serve reads: with its leader dead the search degrades."""
        with durable_engine(tmp_path / "b0") as leader_engine:
            with QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as other_engine, QueryEngine(
                SequenceDatabase(dimension=DIMENSION), workers=1
            ) as replica_engine:
                follower = WalFollower(
                    replica_engine,
                    leader_engine,
                    cursor_path=tmp_path / "cursor.json",
                    batch_limit=2,  # one poll leaves the rest lagging
                )
                backends = [
                    LocalBackend(leader_engine, name="b0"),
                    LocalBackend(other_engine, name="b1"),
                ]
                follower_backend = LocalBackend(
                    replica_engine, name="f0", follower=follower
                )
                with ClusterCoordinator(
                    backends,
                    replication=1,
                    followers=[(follower_backend, 0)],
                    max_lag_records=0,
                    probe_interval=3600.0,
                    hedge=None,
                ) as coordinator:
                    fill(coordinator, rng, 12, prefix="stale")
                    follower.poll()  # applies 2: the rest stay lagging
                    coordinator.probe()
                    lag = coordinator.stats()["followers"][0]["lag"]
                    query = rng.random((6, DIMENSION))
                    with fault_plan(
                        FaultRule(
                            "cluster.backend.0.request", "raise", times=None
                        )
                    ):
                        served = coordinator.search(query, 2.0)
                    if lag > 0:
                        assert not served.complete
                        assert coordinator.stats()["follower_reads"] == 0
                    else:
                        # Every write landed on backend 1: nothing lagged,
                        # so the follower legitimately qualifies.
                        assert served.complete
