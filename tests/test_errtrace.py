"""The swallowed-error sanitizer: violations, counters, parity."""

import numpy as np
import pytest

from repro.bench import (
    OperationMix,
    WorkloadSpec,
    generate_operations,
    run_closed_loop,
)
from repro.core.database import SequenceDatabase
from repro.service import QueryEngine
from repro.service.errors import DeadlineExceeded, ServiceError
from repro.util.budget import OperationCancelled
from repro.util.checks import check_stats, checking, reset_checks
from repro.util.errtrace import (
    SwallowedErrorViolation,
    error_stats,
    record_propagated,
    record_swallowed,
    translated,
)
from tests.test_checks import (
    assert_env_value,
    assert_scopes_nest,
    assert_visible_across_threads,
)


@pytest.fixture(autouse=True)
def _clean_state(check_env):
    """Errors off and counters cleared, before and after each test."""
    check_env(errors=None)


class TestToggle:
    def test_disabled_by_default(self):
        # Even a swallowed cancellation is a no-op with checks off.
        record_swallowed(DeadlineExceeded("late", timeout=0.1), site="t")
        assert error_stats() == {}

    def test_env_var_enables(self, check_env):
        assert_env_value("errors", check_env, "1", True)
        assert_env_value("errors", check_env, "off", False)

    def test_context_manager_nests(self):
        assert_scopes_nest("errors")

    def test_scope_is_process_wide_across_threads(self):
        assert_visible_across_threads("errors")


class TestRecordSwallowed:
    def test_cancellation_swallow_is_a_violation(self):
        with checking("errors"):
            with pytest.raises(SwallowedErrorViolation) as info:
                record_swallowed(
                    DeadlineExceeded("late", timeout=0.1), role="worker", site="loop"
                )
        assert info.value.role == "worker"
        assert info.value.site == "loop"

    def test_operation_cancelled_also_never_swallowed(self):
        with checking("errors"):
            with pytest.raises(SwallowedErrorViolation):
                record_swallowed(OperationCancelled("stop"), site="loop")

    def test_cancellation_ok_sites_count_instead(self):
        with checking("errors"):
            record_swallowed(
                DeadlineExceeded("late", timeout=0.1), site="tail", cancellation_ok=True
            )
        assert error_stats()["tail"]["swallowed"] == 1

    def test_ordinary_errors_are_counted_not_raised(self):
        with checking("errors"):
            record_swallowed(ValueError("bad"), site="loop")
            record_swallowed(ValueError("bad"), site="loop")
        assert error_stats()["loop"]["swallowed"] == 2


class TestTranslated:
    def test_returns_replacement_and_chains_cause(self):
        original = ValueError("low-level")
        replacement = ServiceError("typed")
        with checking("errors"):
            got = translated(original, replacement, site="boundary")
        assert got is replacement
        assert got.__cause__ is original
        assert error_stats()["boundary"]["translated"] == 1

    def test_missing_original_is_a_violation(self):
        with checking("errors"):
            with pytest.raises(SwallowedErrorViolation):
                translated(None, ServiceError("typed"), site="boundary")

    def test_existing_cause_is_preserved(self):
        first = KeyError("first")
        replacement = ServiceError("typed")
        replacement.__cause__ = first
        with checking("errors"):
            translated(ValueError("second"), replacement, site="b")
        assert replacement.__cause__ is first

    def test_disabled_is_passthrough(self):
        replacement = ServiceError("typed")
        assert translated(None, replacement, site="b") is replacement
        assert replacement.__cause__ is None


class TestRecordPropagated:
    def test_counts_propagations(self):
        with checking("errors"):
            record_propagated(ValueError("x"), site="http")
        assert error_stats()["http"]["propagated"] == 1
        assert error_stats()["http"]["unchained"] == 0

    def test_detects_dropped_provenance(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError:
                raise ServiceError("outer with no from")
        except ServiceError as error:
            unchained = error
        with checking("errors"):
            record_propagated(unchained, site="http")
        assert error_stats()["http"]["unchained"] == 1

    def test_explicit_from_is_chained(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError as inner:
                raise ServiceError("outer") from inner
        except ServiceError as error:
            chained = error
        with checking("errors"):
            record_propagated(chained, site="http")
        assert error_stats()["http"]["unchained"] == 0


class TestStats:
    def test_snapshot_is_a_deep_copy(self):
        with checking("errors"):
            record_swallowed(ValueError("x"), site="a")
        snapshot = error_stats()
        snapshot["a"]["swallowed"] = 99
        assert error_stats()["a"]["swallowed"] == 1

    def test_reset_clears_counters(self):
        with checking("errors"):
            record_swallowed(ValueError("x"), site="a")
        assert check_stats()["errors"] == error_stats()
        assert error_stats()["a"]["swallowed"] == 1
        reset_checks()
        assert error_stats() == {}


def build_database(rng, count=4, dimension=2):
    database = SequenceDatabase(dimension=dimension)
    for ordinal in range(count):
        database.add(
            rng.random((24, dimension)), sequence_id=f"s{ordinal}"
        )
    return database


class TestEngineParity:
    def test_engine_serves_cleanly_with_checks_on(self, rng):
        """Tier-1 parity: normal serving trips no violation."""
        with checking("errors"):
            with QueryEngine(build_database(rng), workers=2) as engine:
                result = engine.search(rng.random((8, 2)), 0.5)
                assert isinstance(result.answers, list)
                stats = engine.stats()
        assert isinstance(stats["errors"], dict)

    def test_cancellation_translation_is_counted(self, rng):
        with checking("errors"):
            with QueryEngine(build_database(rng), workers=1) as engine:
                with pytest.raises(DeadlineExceeded) as info:
                    engine.search(
                        rng.random((64, 2)), 0.5, timeout=1e-6
                    )
        # Whichever path tripped (queued-expiry or a mid-scan
        # checkpoint), the typed error chains its provenance when a
        # checkpoint produced it.
        if error_stats().get("QueryEngine._read", {}).get("translated"):
            assert isinstance(info.value.__cause__, OperationCancelled)


class TestWorkloadSwallows:
    def test_bench_worker_swallows_are_counted_under_chaos(self, rng):
        spec = WorkloadSpec(
            operations=20,
            query_pool=4,
            dimension=2,
            mix=OperationMix(search=1.0),
            epsilons=(0.2,),
        )
        operations = generate_operations(spec, seed=5)
        queries = [rng.random((10, 2)) for _ in range(spec.query_pool)]
        with checking("errors"):
            with QueryEngine(build_database(rng), workers=2) as engine:
                report = run_closed_loop(
                    engine,
                    operations,
                    queries=queries,
                    dimension=2,
                    concurrency=2,
                    seed=5,
                    faults="engine.worker=raise:5",
                )
        assert report.errors == 5
        assert error_stats()["run_closed_loop"]["swallowed"] == 5


@pytest.fixture
def rng():
    return np.random.default_rng(11)
