"""Deadline budgets, cancellation scopes, and the adaptive limiter.

The :mod:`repro.util.budget` primitives are the transport-free core of
the request-budget layer: a :class:`Deadline` every hop debits, and the
``deadline_scope``/``checkpoint`` pair the engine's Phase 2/3 loops use
for cooperative cancellation.  :class:`AdaptiveLimiter` is the AIMD
admission gate built on top of them in the service layer.
"""

import time

import pytest

from repro.service.admission import PRIORITIES, AdaptiveLimiter
from repro.util.budget import (
    Deadline,
    OperationCancelled,
    active_deadline,
    checkpoint,
    deadline_scope,
)


class TestDeadline:
    def test_unbounded(self):
        deadline = Deadline.after(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        assert not deadline.done()
        assert deadline.clamp(1.5) == 1.5
        assert deadline.clamp(None) is None
        assert "unbounded" in repr(deadline)

    def test_bounded_budget_shrinks(self):
        deadline = Deadline.after(5.0)
        remaining = deadline.remaining()
        assert 0.0 < remaining <= 5.0
        assert deadline.clamp(10.0) <= 5.0
        assert deadline.clamp(0.001) == 0.001
        assert deadline.clamp(None) == pytest.approx(
            deadline.remaining(), abs=0.05
        )

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, budget):
        """An unbounded deadline is ``None``; NaN would never expire."""
        with pytest.raises(ValueError, match="finite"):
            Deadline.after(budget)

    def test_expired(self):
        deadline = Deadline(time.monotonic() - 0.01)
        assert deadline.expired()
        assert deadline.done()
        assert deadline.remaining() <= 0.0

    def test_cancel_latch(self):
        deadline = Deadline.after(60.0)
        assert not deadline.cancelled
        deadline.cancel()
        assert deadline.cancelled
        assert deadline.done()
        assert not deadline.expired()
        assert "cancelled" in repr(deadline)


class TestCheckpointScopes:
    def test_no_scope_is_noop(self):
        checkpoint("anywhere")

    def test_none_scope_installs_nothing(self):
        with deadline_scope(None):
            assert active_deadline() is None
            checkpoint("still fine")

    def test_healthy_deadline_passes(self):
        with deadline_scope(Deadline.after(60.0)):
            checkpoint("plenty of budget")

    def test_cancelled_deadline_raises(self):
        deadline = Deadline.after(60.0)
        deadline.cancel()
        with deadline_scope(deadline):
            with pytest.raises(OperationCancelled) as caught:
                checkpoint("phase2")
        assert caught.value.cancelled
        assert not caught.value.expired
        assert "phase2" in str(caught.value)

    def test_expired_deadline_raises(self):
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(OperationCancelled) as caught:
                checkpoint()
        assert caught.value.expired
        assert not caught.value.cancelled

    def test_innermost_deadline_governs(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(60.0)
        inner.cancel()
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
                with pytest.raises(OperationCancelled):
                    checkpoint()
            checkpoint()  # the healthy outer deadline governs again
        assert active_deadline() is None


class TestAdaptiveLimiter:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(min_limit=0, max_limit=4)
        with pytest.raises(ValueError):
            AdaptiveLimiter(min_limit=4, max_limit=2)

    def test_acquire_release_and_shed(self):
        limiter = AdaptiveLimiter(min_limit=1, max_limit=2)
        assert limiter.acquire() == 0
        assert limiter.acquire() == 1
        assert limiter.acquire() is None  # at the limit: shed
        limiter.release()
        assert limiter.inflight == 1
        assert limiter.acquire() == 1
        assert limiter.snapshot()["shed_by_priority"]["read"] == 1

    def test_unknown_priority_rejected(self):
        limiter = AdaptiveLimiter(min_limit=1, max_limit=2)
        assert "read" in PRIORITIES
        with pytest.raises(ValueError):
            limiter.acquire("bulk")
        with pytest.raises(ValueError):
            limiter.permits("bulk")

    def test_overlong_waits_shrink_to_the_floor(self):
        limiter = AdaptiveLimiter(min_limit=4, max_limit=100, cooldown=0.0)
        for _ in range(200):
            limiter.observe(1.0)
        assert limiter.effective_limit() == 4

    def test_good_waits_grow_additively_back(self):
        limiter = AdaptiveLimiter(min_limit=2, max_limit=10, cooldown=0.0)
        for _ in range(50):
            limiter.observe(1.0)
        shrunk = limiter.effective_limit()
        assert shrunk == 2
        for _ in range(500):
            limiter.observe(0.0)
        grown = limiter.effective_limit()
        assert shrunk < grown <= 10

    def test_cooldown_limits_decrease_rate(self):
        limiter = AdaptiveLimiter(min_limit=1, max_limit=100, cooldown=60.0)
        limiter.observe(1.0)
        first = limiter.effective_limit()
        assert first == 90  # one multiplicative cut: 100 * 0.9
        for _ in range(20):
            limiter.observe(1.0)
        # Still inside the cooldown: the burst counts as one signal.
        assert limiter.effective_limit() == first

    def test_priority_headroom_sheds_low_classes_first(self):
        limiter = AdaptiveLimiter(min_limit=1, max_limit=8)
        for _ in range(4):
            assert limiter.acquire() is not None
        # At 4 of 8: repair (50% headroom) sheds, writes (75%) still fit.
        assert not limiter.permits("repair")
        assert limiter.permits("write")
        for _ in range(2):
            assert limiter.acquire() is not None
        # At 6 of 8: writes shed too, reads take the last slots.
        assert not limiter.permits("write")
        assert limiter.acquire("read") is not None
        shed = limiter.snapshot()["shed_by_priority"]
        assert shed["repair"] >= 1
        assert shed["write"] >= 1
