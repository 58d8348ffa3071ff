"""Declarative service-level objectives over benchmark results.

An SLO rule names one metric of one scenario and bounds it from below
(``floor``, e.g. minimum QPS) or above (``ceiling``, e.g. maximum p99).
Rules are plain data so they can live in code (:data:`DEFAULT_SLO_RULES`,
the generous CI floors), be parsed from the CLI (``--slo
"service/end_to_end:qps>=5"``), or be constructed by tests.

The defaults are deliberately loose — an order of magnitude below what
development hardware achieves — because the CI ``bench-gate`` is a smoke
guard against *collapse* (an accidental O(n²), a recovery path that
re-scans everything, a cluster that stops failing over), not a
microbenchmark flake trap.  Tight regression tracking is the differ's
job (:func:`repro.bench.trajectory.diff_trajectories`), which compares
like hardware against like hardware.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.bench.result import BenchResult

__all__ = [
    "DEFAULT_SLO_RULES",
    "SloRule",
    "SloViolation",
    "assert_slos",
    "check_slos",
    "parse_slo",
]


@dataclass(frozen=True)
class SloRule:
    """One bound on one metric of one scenario."""

    suite: str
    scenario: str
    metric: str
    floor: float | None = None
    ceiling: float | None = None

    def __post_init__(self) -> None:
        if self.floor is None and self.ceiling is None:
            raise ValueError(
                f"SLO {self.describe_target()} needs a floor or a ceiling"
            )

    def describe_target(self) -> str:
        """``suite/scenario:metric`` — the rule's address."""
        return f"{self.suite}/{self.scenario}:{self.metric}"

    def describe(self) -> str:
        """The rule in ``--slo`` syntax."""
        parts = []
        if self.floor is not None:
            parts.append(f"{self.describe_target()}>={self.floor:g}")
        if self.ceiling is not None:
            parts.append(f"{self.describe_target()}<={self.ceiling:g}")
        return " and ".join(parts)


class SloViolation(RuntimeError):
    """A benchmark result broke a declared objective.

    ``actual`` is ``None`` when the rule's scenario or metric was absent
    from the results — a missing measurement is a violation too, not a
    silent pass (otherwise deleting a scenario would green the gate).
    """

    def __init__(self, rule: SloRule, actual: float | None) -> None:
        if actual is None:
            message = (
                f"SLO {rule.describe()} has no measurement: scenario or "
                f"metric {rule.describe_target()} missing from results"
            )
        elif rule.floor is not None and actual < rule.floor:
            message = (
                f"SLO violated: {rule.describe_target()} = {actual:.4g} "
                f"below floor {rule.floor:g}"
            )
        else:
            message = (
                f"SLO violated: {rule.describe_target()} = {actual:.4g} "
                f"above ceiling {rule.ceiling:g}"
            )
        super().__init__(message)
        self.rule = rule
        self.actual = actual


_SLO_PATTERN = re.compile(
    r"^(?P<suite>[\w-]+)/(?P<scenario>[\w-]+):(?P<metric>[\w-]+)"
    r"(?P<op>>=|<=)(?P<value>[-+0-9.eE]+)$"
)


def parse_slo(expression: str) -> SloRule:
    """Parse ``suite/scenario:metric>=X`` (or ``<=X``) into a rule."""
    match = _SLO_PATTERN.match(expression.strip())
    if match is None:
        raise ValueError(
            f"invalid SLO {expression!r}; expected "
            "'suite/scenario:metric>=VALUE' or '...<=VALUE'"
        )
    value = float(match.group("value"))
    floor = value if match.group("op") == ">=" else None
    ceiling = value if match.group("op") == "<=" else None
    return SloRule(
        suite=match.group("suite"),
        scenario=match.group("scenario"),
        metric=match.group("metric"),
        floor=floor,
        ceiling=ceiling,
    )


#: The generous CI floors: collapse detectors, not perf targets.
DEFAULT_SLO_RULES: tuple[SloRule, ...] = (
    SloRule("engine", "single_query", "qps", floor=2.0),
    SloRule("service", "end_to_end", "qps", floor=2.0),
    SloRule("service", "end_to_end", "p99_ms", ceiling=30_000.0),
    SloRule("service", "end_to_end", "error_ratio", ceiling=0.0),
    SloRule("service", "cache_hit_ratio", "hit_ratio", floor=0.2),
    # Write-path gates, ~10x the measured values of the larger (full)
    # profile so both profiles fit: recovery replays 64 records in
    # ~170 ms, a cold follower applies ~800-1500 shipped records/s.
    SloRule("service", "wal_recovery", "recovery_ms", ceiling=2_000.0),
    # Overload acceptance: under ~2x offered load the engine must keep
    # serving at least 70% of its healthy-load QPS as within-deadline
    # completions, burn under 5% of completions on answers nobody waits
    # for, and hold p95 queue wait near the configured AIMD target
    # (0.1s in both profiles; the ceiling leaves transient headroom).
    SloRule("service", "overload_goodput", "goodput_ratio", floor=0.7),
    SloRule(
        "service", "overload_goodput", "wasted_work_ratio", ceiling=0.05
    ),
    SloRule(
        "service", "overload_goodput", "queue_wait_p95_ms", ceiling=150.0
    ),
    SloRule("cluster", "scatter_gather", "complete_ratio", floor=1.0),
    SloRule("cluster", "scatter_gather", "killed_p95_ms", ceiling=30_000.0),
    SloRule("cluster", "replica_catchup", "catchup_s", ceiling=60.0),
    SloRule("cluster", "replica_catchup", "records_per_s", floor=100.0),
)


def check_slos(
    results: Sequence[BenchResult],
    rules: Iterable[SloRule] = DEFAULT_SLO_RULES,
) -> list[SloViolation]:
    """Evaluate rules against results; return every violation.

    Rules for suites with *no results at all* are skipped — a partial
    run (``repro bench --suite engine``) must not trip the service
    floors it never measured.  Within a measured suite, a missing
    scenario or metric *is* a violation.
    """
    by_key = {
        (result.suite, result.scenario): result for result in results
    }
    measured_suites = {result.suite for result in results}
    violations: list[SloViolation] = []
    for rule in rules:
        if rule.suite not in measured_suites:
            continue
        result = by_key.get((rule.suite, rule.scenario))
        actual = (
            result.metrics.get(rule.metric) if result is not None else None
        )
        if actual is None:
            violations.append(SloViolation(rule, None))
            continue
        if rule.floor is not None and actual < rule.floor:
            violations.append(SloViolation(rule, actual))
        elif rule.ceiling is not None and actual > rule.ceiling:
            violations.append(SloViolation(rule, actual))
    return violations


def assert_slos(
    results: Sequence[BenchResult],
    rules: Iterable[SloRule] = DEFAULT_SLO_RULES,
) -> None:
    """Raise the first (most informative) violation, if any."""
    violations = check_slos(results, rules)
    if violations:
        raise violations[0]
