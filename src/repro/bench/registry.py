"""The canonical-scenario registry and run profiles.

Scenarios register themselves by name under a suite; the runner and the
CLI discover them here rather than hard-coding a list, so a later perf
PR adds its benchmark by writing one decorated function.  Registration
is import-time (importing :mod:`repro.bench.scenarios` populates the
registry), mirroring how pytest collects tests.

:class:`BenchProfile` carries every size knob a scenario needs, in one
frozen object, so ``--quick`` versus the full profile is a single choice
made once at the entry point instead of scattered flags.  The quick
profile is sized for CI: the whole suite must finish in well under two
minutes on a cold runner.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.bench.result import BenchResult
from repro.util.validation import check_positive

__all__ = [
    "BenchProfile",
    "Scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
    "suite_names",
]

#: A scenario body: profile + seed in, one result out.
ScenarioRunner = Callable[["BenchProfile", int], BenchResult]


@dataclass(frozen=True)
class BenchProfile:
    """Size knobs shared by every scenario.

    Parameters mirror the repository's data model: corpora come from
    :func:`repro.datagen.video.generate_video_corpus` (dimension 3),
    queries from :func:`repro.datagen.queries.generate_queries`.
    """

    name: str
    corpus_sequences: int
    sequence_length: tuple[int, int]
    query_count: int
    query_length: tuple[int, int]
    epsilons: tuple[float, ...]
    operations: int
    concurrency: int
    engine_workers: int
    wal_inserts: int
    cluster_backends: int
    cluster_replication: int
    cluster_queries: int
    catchup_records: int = 200
    #: Operations offered during the overload_goodput open-loop phase.
    overload_operations: int = 320
    #: Closed-loop operations used to measure healthy-load capacity.
    overload_calibration_ops: int = 80
    #: End-to-end deadline each overload search carries, seconds.
    overload_deadline_s: float = 0.75
    #: Injected per-request service time (``engine.worker`` sleep) —
    #: pins capacity at ``engine_workers / overload_service_s`` so the
    #: 2x offered rate is a real overload regardless of host speed.
    overload_service_s: float = 0.02
    #: Queue slots for the overload engine (smaller than the serving
    #: default so the run reaches admission pressure quickly).
    overload_queue_cap: int = 16
    #: Open-loop client threads (must outnumber what the offered rate
    #: needs, or generator lag would masquerade as server latency).
    overload_clients: int = 48

    def __post_init__(self) -> None:
        check_positive("corpus_sequences", self.corpus_sequences)
        check_positive("query_count", self.query_count)
        check_positive("operations", self.operations)
        check_positive("concurrency", self.concurrency)
        check_positive("engine_workers", self.engine_workers)
        check_positive("wal_inserts", self.wal_inserts)
        check_positive("cluster_backends", self.cluster_backends)
        check_positive("cluster_replication", self.cluster_replication)
        check_positive("cluster_queries", self.cluster_queries)
        check_positive("catchup_records", self.catchup_records)
        check_positive("overload_operations", self.overload_operations)
        check_positive(
            "overload_calibration_ops", self.overload_calibration_ops
        )
        check_positive("overload_deadline_s", self.overload_deadline_s)
        check_positive("overload_service_s", self.overload_service_s)
        check_positive("overload_queue_cap", self.overload_queue_cap)
        check_positive("overload_clients", self.overload_clients)
        if self.cluster_replication > self.cluster_backends:
            raise ValueError(
                "cluster_replication cannot exceed cluster_backends"
            )

    @classmethod
    def quick(cls) -> "BenchProfile":
        """The CI-sized profile: whole suite well under two minutes."""
        return cls(
            name="quick",
            corpus_sequences=32,
            sequence_length=(48, 96),
            query_count=24,
            query_length=(24, 48),
            epsilons=(0.05, 0.10, 0.15),
            operations=120,
            concurrency=4,
            engine_workers=4,
            wal_inserts=12,
            cluster_backends=3,
            cluster_replication=2,
            cluster_queries=12,
            catchup_records=200,
            overload_operations=320,
            overload_calibration_ops=80,
            overload_clients=48,
        )

    @classmethod
    def full(cls) -> "BenchProfile":
        """The trajectory-quality profile (fig10-scale workload)."""
        return cls(
            name="full",
            corpus_sequences=128,
            sequence_length=(56, 256),
            query_count=96,
            query_length=(24, 96),
            epsilons=(0.05, 0.10, 0.15, 0.20),
            operations=600,
            concurrency=8,
            engine_workers=8,
            wal_inserts=64,
            cluster_backends=4,
            cluster_replication=2,
            cluster_queries=48,
            catchup_records=5000,
            overload_operations=1200,
            overload_calibration_ops=200,
            overload_clients=96,
        )


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark: identity, description, and body."""

    suite: str
    name: str
    summary: str
    runner: ScenarioRunner

    def run(self, profile: BenchProfile, seed: int) -> BenchResult:
        """Execute the scenario and validate its result identity."""
        result = self.runner(profile, seed)
        if result.suite != self.suite or result.scenario != self.name:
            raise RuntimeError(
                f"scenario {self.suite}/{self.name} returned a result "
                f"labelled {result.suite}/{result.scenario}"
            )
        return result


# Keyed by (suite, name); insertion order is execution order.
_REGISTRY: dict[tuple[str, str], Scenario] = {}


def register_scenario(
    suite: str, name: str, summary: str
) -> Callable[[ScenarioRunner], ScenarioRunner]:
    """Class-free scenario registration: decorate the runner function."""

    def decorate(runner: ScenarioRunner) -> ScenarioRunner:
        key = (suite, name)
        if key in _REGISTRY:
            raise ValueError(
                f"scenario {suite}/{name} is already registered"
            )
        _REGISTRY[key] = Scenario(
            suite=suite, name=name, summary=summary, runner=runner
        )
        return runner

    return decorate


def _ensure_loaded() -> None:
    # Importing the scenarios module populates the registry; done lazily
    # so registry consumers (tests, the differ) need not pay for the
    # scenario bodies' heavier imports.
    import repro.bench.scenarios  # noqa: F401


def iter_scenarios(suite: str | None = None) -> Iterator[Scenario]:
    """All registered scenarios, optionally restricted to one suite."""
    _ensure_loaded()
    for (scenario_suite, _), scenario in _REGISTRY.items():
        if suite is None or scenario_suite == suite:
            yield scenario


def suite_names() -> tuple[str, ...]:
    """The distinct suites, in registration order."""
    _ensure_loaded()
    seen: dict[str, None] = {}
    for suite, _ in _REGISTRY:
        seen.setdefault(suite)
    return tuple(seen)


def scenario_names(suite: str | None = None) -> tuple[str, ...]:
    """``suite/name`` identifiers, in registration order."""
    return tuple(
        f"{scenario.suite}/{scenario.name}"
        for scenario in iter_scenarios(suite)
    )
