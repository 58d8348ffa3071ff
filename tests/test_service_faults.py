"""Chaos tests: deterministic fault injection across the serving stack.

Each test arms a :func:`repro.service.faults.fault_plan` (or the
``REPRO_FAULTS`` environment variable, for subprocess kills) and asserts
the recovery invariant the durability design promises: a fault may fail a
request, but it never corrupts state — post-recovery search results are
identical to a never-crashed engine's, verified with the
no-false-dismissal contracts enabled.
"""

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.service import (
    DeadlineExceeded,
    DurabilityConfig,
    QueryEngine,
)
from repro.service.faults import (
    FAULT_SITES,
    FaultInjected,
    FaultRule,
    active_plan,
    fault_plan,
    inject,
    parse_fault_spec,
)
from repro.util.checks import checking

SRC = str(Path(__file__).resolve().parent.parent / "src")


def build_database(rng, count=6, dimension=2):
    database = SequenceDatabase(dimension=dimension)
    for ordinal in range(count):
        length = int(rng.integers(20, 50))
        database.add(rng.random((length, dimension)), sequence_id=f"s{ordinal}")
    return database


class TestFaultSpec:
    def test_parse_grammar(self):
        rules = parse_fault_spec(
            "wal.fsync=raise, checkpoint.before-reset=kill:1,"
            "engine.worker=sleep:0.25:2:3, http.response=raise:2:1"
        )
        by_site = {rule.site: rule for rule in rules}
        assert by_site["wal.fsync"].action == "raise"
        assert by_site["wal.fsync"].times == 1
        assert by_site["checkpoint.before-reset"].action == "kill"
        assert by_site["checkpoint.before-reset"].skip == 1
        assert by_site["engine.worker"].seconds == pytest.approx(0.25)
        assert by_site["engine.worker"].times == 2
        assert by_site["engine.worker"].skip == 3
        assert by_site["http.response"].times == 2
        assert by_site["http.response"].skip == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="site=action"):
            parse_fault_spec("justasite")
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_fault_spec("x=explode")
        with pytest.raises(ValueError, match="seconds"):
            parse_fault_spec("x=sleep")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="action"):
            FaultRule("x", "explode")
        with pytest.raises(ValueError, match="times"):
            FaultRule("x", "raise", times=0)
        with pytest.raises(ValueError, match="skip"):
            FaultRule("x", "raise", skip=-1)

    def test_documented_sites_are_exposed(self):
        assert "wal.fsync" in FAULT_SITES
        assert "checkpoint.before-reset" in FAULT_SITES
        assert "database.save.replace" in FAULT_SITES
        assert "cluster.backend.request" in FAULT_SITES
        assert "cluster.health.probe" in FAULT_SITES
        assert "cluster.read-repair" in FAULT_SITES

    def test_parse_every_and_unlimited_times(self):
        rules = parse_fault_spec(
            "a=raise:0:0:2, b=sleep:0.1:2:1:3, c=raise:0"
        )
        by_site = {rule.site: rule for rule in rules}
        assert by_site["a"].times is None  # 0 means unlimited
        assert by_site["a"].skip == 0
        assert by_site["a"].every == 2
        assert by_site["b"].seconds == pytest.approx(0.1)
        assert by_site["b"].times == 2
        assert by_site["b"].skip == 1
        assert by_site["b"].every == 3
        assert by_site["c"].times is None

    def test_rejects_bad_every(self):
        with pytest.raises(ValueError, match="every"):
            FaultRule("x", "raise", every=0)


class TestFaultPlan:
    def test_inject_is_noop_without_a_plan(self):
        inject("not.a.site")  # must not raise

    def test_skip_then_fire_then_burn_out(self):
        with fault_plan(
            FaultRule("site", "raise", times=2, skip=1)
        ) as plan:
            inject("site")  # skipped
            with pytest.raises(FaultInjected):
                inject("site")
            with pytest.raises(FaultInjected):
                inject("site")
            inject("site")  # burned out
            assert plan.hits["site"] == 4
            assert plan.fired("site") == 2

    def test_unarmed_sites_are_counted_not_fired(self):
        with fault_plan(FaultRule("armed", "raise")) as plan:
            inject("other")
            assert plan.hits == {"other": 1}
            assert plan.fired("other") == 0

    def test_sleep_action_delays(self):
        with fault_plan(FaultRule("slow", "sleep", seconds=0.05)):
            started = time.monotonic()
            inject("slow")
            assert time.monotonic() - started >= 0.05

    def test_every_flaps_on_a_cadence(self):
        # every=2 with unlimited times: fail, pass, fail, pass, ...
        with fault_plan(
            FaultRule("flap", "raise", times=None, every=2)
        ) as plan:
            for hit in range(6):
                if hit % 2 == 0:
                    with pytest.raises(FaultInjected):
                        inject("flap")
                else:
                    inject("flap")
            assert plan.fired("flap") == 3

    def test_every_counts_after_skip_and_respects_times(self):
        with fault_plan(
            FaultRule("site", "raise", times=2, skip=2, every=2)
        ) as plan:
            inject("site")  # skipped
            inject("site")  # skipped
            with pytest.raises(FaultInjected):
                inject("site")  # eligible hit 0 -> fires
            inject("site")  # eligible hit 1 -> passes
            with pytest.raises(FaultInjected):
                inject("site")  # eligible hit 2 -> fires, burns out
            inject("site")
            assert plan.fired("site") == 2

    def test_custom_exception_factory(self):
        with fault_plan(
            FaultRule("site", "raise", exception=lambda: OSError("disk gone"))
        ):
            with pytest.raises(OSError, match="disk gone"):
                inject("site")

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fault_plan(
                FaultRule("site", "raise"), FaultRule("site", "sleep", seconds=0)
            ).__enter__()

    def test_env_plan_is_loaded_lazily(self, monkeypatch):
        import repro.util.faults as faults_module

        monkeypatch.setenv(faults_module.FAULTS_ENV_VAR, "env.site=raise")
        monkeypatch.setattr(faults_module, "_env_loaded", False)
        monkeypatch.setattr(faults_module, "_active", None)
        assert active_plan() is not None
        with pytest.raises(FaultInjected):
            inject("env.site")

    def test_context_plan_shadows_env_plan(self, monkeypatch):
        import repro.util.faults as faults_module

        monkeypatch.setenv(faults_module.FAULTS_ENV_VAR, "env.site=raise")
        monkeypatch.setattr(faults_module, "_env_loaded", False)
        monkeypatch.setattr(faults_module, "_active", None)
        with fault_plan(FaultRule("other", "raise")):
            inject("env.site")  # the env rule is shadowed
        with pytest.raises(FaultInjected):
            inject("env.site")  # and restored afterwards


class TestWalFaults:
    def test_fsync_failure_fails_the_write_cleanly(self, rng, tmp_path):
        """A failed fsync rejects the insert; nothing is acknowledged."""
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        seed = build_database(rng)
        query = rng.random((10, 2))
        with QueryEngine(seed.clone(), workers=1, durability=config) as engine:
            with fault_plan(FaultRule("wal.fsync", "raise")) as plan:
                with pytest.raises(FaultInjected):
                    engine.insert(rng.random((10, 2)), sequence_id="lost")
                assert plan.fired("wal.fsync") == 1
            # The failed write published nothing...
            assert "lost" not in engine.sequence_ids()
            assert engine.snapshot_version == 0
            # ...and the engine still accepts writes afterwards.
            engine.insert(rng.random((12, 2)), sequence_id="kept")
        # Recovery sees exactly the acknowledged state.
        pristine = seed.clone()
        with QueryEngine(None, workers=1, durability=config) as recovered:
            assert "lost" not in recovered.sequence_ids()
            assert "kept" in recovered.sequence_ids()
            with checking("contracts"):
                got = recovered.search(query, 0.4)
            reference = pristine
            reference.add(
                recovered._snapshot.database.sequence("kept").points,
                sequence_id="kept",
            )
            expected = SimilaritySearch(reference).search(query, 0.4)
            assert got.answers == expected.answers

    def test_crash_between_checkpoint_save_and_reset(self, rng, tmp_path):
        """The snapshot lands but the WAL survives: replay is idempotent."""
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        seed = build_database(rng)
        extra = rng.random((20, 2))
        query = rng.random((10, 2))
        with QueryEngine(seed.clone(), workers=1, durability=config) as engine:
            engine.insert(extra, sequence_id="added")
            engine.remove("s0")
            with fault_plan(FaultRule("checkpoint.before-reset", "raise")):
                with pytest.raises(FaultInjected):
                    engine.checkpoint()
            # Snapshot now contains the writes AND the WAL still holds them.
            assert engine.wal_records == 2
        pristine = seed.clone()
        pristine.add(extra, sequence_id="added")
        pristine.remove("s0")
        reference = SimilaritySearch(pristine)
        with checking("contracts"):
            with QueryEngine(None, workers=1, durability=config) as recovered:
                assert "added" in recovered.sequence_ids()
                assert "s0" not in recovered.sequence_ids()
                got = recovered.search(query, 0.4)
                expected = reference.search(query, 0.4)
                assert got.answers == expected.answers
                assert got.solution_intervals == expected.solution_intervals

    def test_crash_before_checkpoint_save(self, rng, tmp_path):
        """A checkpoint that fails before saving changes nothing on disk."""
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="w1")
            with fault_plan(FaultRule("checkpoint.before-save", "raise")):
                with pytest.raises(FaultInjected):
                    engine.checkpoint()
            assert engine.wal_records == 1
        with QueryEngine(None, workers=1, durability=config) as recovered:
            assert "w1" in recovered.sequence_ids()


class TestKillSubprocess:
    def test_kill_mid_checkpoint_loses_no_acknowledged_write(
        self, rng, tmp_path
    ):
        """A real os._exit mid-checkpoint, then recovery in this process."""
        data_dir = tmp_path / "data"
        script = f"""
import numpy as np
from repro.core.database import SequenceDatabase
from repro.service import DurabilityConfig, QueryEngine

rng = np.random.default_rng(7)
db = SequenceDatabase(dimension=2)
for i in range(4):
    db.add(rng.random((25, 2)), sequence_id=f"s{{i}}")
engine = QueryEngine(
    db, workers=1, durability=DurabilityConfig({str(data_dir)!r})
)
engine.insert(rng.random((25, 2)), sequence_id="durable")
print("ACK", flush=True)
engine.checkpoint()  # REPRO_FAULTS kills the process mid-checkpoint
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
                "REPRO_FAULTS": "checkpoint.before-reset=kill",
            },
        )
        assert completed.returncode == 137, completed.stderr
        assert "ACK" in completed.stdout
        assert "UNREACHABLE" not in completed.stdout
        with checking("contracts"):
            with QueryEngine(
                None, workers=1, durability=DurabilityConfig(data_dir)
            ) as recovered:
                assert "durable" in recovered.sequence_ids()
                assert len(recovered) == 5


class TestAdmissionFaults:
    def test_admission_delay_debits_the_deadline(self, rng):
        """A stalled admission path spends the caller's budget, not extra."""
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            with fault_plan(
                FaultRule("engine.admission.delay", "sleep", seconds=0.4)
            ) as plan:
                with pytest.raises(DeadlineExceeded):
                    engine.search(rng.random((8, 2)), 0.5, timeout=0.05)
                assert plan.fired("engine.admission.delay") == 1
            # The stall consumed no permanent capacity.
            result = engine.search(rng.random((8, 2)), 0.5)
            assert isinstance(result.answers, list)


class TestShipHandshakeFaults:
    def test_handshake_fault_fails_the_tail_not_the_leader(self, rng, tmp_path):
        """A broken handshake rejects one wal_tail; serving continues."""
        config = DurabilityConfig(
            tmp_path / "data", checkpoint_on_close=False
        )
        with QueryEngine(
            build_database(rng), workers=1, durability=config
        ) as engine:
            engine.insert(rng.random((10, 2)), sequence_id="shipped")
            with fault_plan(
                FaultRule("wal.ship.handshake", "raise")
            ) as plan:
                with pytest.raises(FaultInjected):
                    engine.wal_tail(0)
                assert plan.fired("wal.ship.handshake") == 1
            # The failed handshake left the leader fully serviceable.
            batch = engine.wal_tail(0)
            assert batch["count"] >= 1
            result = engine.search(rng.random((8, 2)), 0.5)
            assert isinstance(result.answers, list)


class TestWorkerFaults:
    def test_slow_worker_trips_the_deadline(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            with fault_plan(
                FaultRule("engine.worker", "sleep", seconds=0.4)
            ):
                with pytest.raises(DeadlineExceeded):
                    engine.search(rng.random((8, 2)), 0.5, timeout=0.05)

    def test_failed_worker_surfaces_and_recovers(self, rng):
        with QueryEngine(build_database(rng, count=3), workers=1) as engine:
            query = rng.random((8, 2))
            with fault_plan(FaultRule("engine.worker", "raise")):
                with pytest.raises(FaultInjected):
                    engine.search(query, 0.5)
            # The failure consumed no permanent capacity.
            result = engine.search(query, 0.5)
            assert isinstance(result.answers, list)
            assert engine.stats()["failures"].get("search") == 1


class TestDroppedResponses:
    def test_client_retries_through_a_dropped_response(self, rng):
        from repro.service import RetryPolicy, ServiceClient
        from repro.service.http import serve

        engine = QueryEngine(build_database(rng), workers=2, cache_size=8)
        server = serve(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout=10.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, seed=7),
        )
        try:
            with fault_plan(FaultRule("http.response", "raise")):
                health = client.healthz()
            assert health["status"] == "ok"
            stats = client.transport_stats()
            assert stats["retries"] >= 1
            assert stats["transport_errors"] >= 1
            assert server.dropped_responses >= 1
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
