"""Per-backend health tracking (repro.cluster.health)."""

import pytest

from repro.cluster.health import HealthTracker


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_tracker(n=3, threshold=3, interval=5.0):
    clock = FakeClock()
    tracker = HealthTracker(
        n, failure_threshold=threshold, probe_interval=interval, clock=clock
    )
    return tracker, clock


class TestStateMachine:
    def test_starts_up_and_usable(self):
        tracker, _ = make_tracker()
        for backend in range(3):
            assert tracker.state(backend) == "up"
            assert tracker.usable(backend)
        assert tracker.down_backends() == []

    def test_failures_walk_up_suspect_down(self):
        tracker, _ = make_tracker(threshold=3)
        assert not tracker.record_failure(0)
        assert tracker.state(0) == "suspect"
        assert tracker.usable(0)  # suspect is still routable
        assert not tracker.record_failure(0)
        went_down = tracker.record_failure(0)
        assert went_down
        assert tracker.state(0) == "down"
        assert not tracker.usable(0)
        assert tracker.down_backends() == [0]

    def test_success_resets_the_streak(self):
        tracker, _ = make_tracker(threshold=2)
        tracker.record_failure(1)
        tracker.record_success(1)
        tracker.record_failure(1)
        # Streak was reset, so one more failure is needed to go down.
        assert tracker.state(1) == "suspect"

    def test_usable_and_state_never_mutate(self):
        tracker, _ = make_tracker(threshold=1)
        tracker.record_failure(2)
        for _ in range(5):
            assert not tracker.usable(2)
            assert tracker.state(2) == "down"
        # No hidden half-open transition happened.
        assert tracker.down_backends() == [2]


class TestProbing:
    def test_probe_due_only_after_interval(self):
        tracker, clock = make_tracker(threshold=1, interval=5.0)
        tracker.record_failure(0)
        assert not tracker.probe_due(0)
        clock.advance(4.9)
        assert not tracker.probe_due(0)
        clock.advance(0.2)
        assert tracker.probe_due(0)

    def test_probe_due_is_false_for_healthy_backends(self):
        tracker, clock = make_tracker()
        clock.advance(60.0)
        assert not tracker.probe_due(0)

    def test_failed_probe_rearms_the_interval(self):
        tracker, clock = make_tracker(threshold=1, interval=5.0)
        tracker.record_failure(0)
        clock.advance(5.1)
        assert tracker.probe_due(0)
        tracker.record_probe(0, None)  # probe failed
        assert tracker.state(0) == "down"
        assert not tracker.probe_due(0)
        clock.advance(5.1)
        assert tracker.probe_due(0)

    def test_successful_probe_recovers_and_stores_info(self):
        tracker, clock = make_tracker(threshold=1)
        tracker.record_failure(1)
        clock.advance(6.0)
        came_back = tracker.record_probe(
            1,
            {
                "status": "ok",
                "degraded": False,
                "sequences": 12,
                "snapshot_version": 4,
                "wal_records": 7,
                "last_checkpoint_version": 2,
                "extraneous": "dropped",
            },
        )
        assert came_back
        assert tracker.state(1) == "up"
        snap = tracker.snapshot()[1]
        assert snap["probe"]["wal_records"] == 7
        assert snap["probe"]["last_checkpoint_version"] == 2
        assert "extraneous" not in snap["probe"]


class TestRecoveryFeed:
    def test_suspect_to_up_is_not_a_recovery(self):
        tracker, _ = make_tracker(threshold=3)
        tracker.record_failure(0)
        assert not tracker.record_success(0)
        tracker.record_failure(0)
        tracker.record_failure(0)
        tracker.record_failure(0)
        assert tracker.record_success(0)


class TestValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            HealthTracker(0)
        with pytest.raises(ValueError):
            HealthTracker(2, failure_threshold=0)
        with pytest.raises(ValueError):
            HealthTracker(2, probe_interval=-1.0)

    def test_rejects_out_of_range_backend(self):
        tracker, _ = make_tracker(n=2)
        with pytest.raises(ValueError):
            tracker.record_success(2)
        with pytest.raises(ValueError):
            tracker.usable(-1)
