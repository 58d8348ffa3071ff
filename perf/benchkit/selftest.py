"""``python perf/run.py --selftest``: the harness checks itself, quickly."""

from __future__ import annotations

import math
import re
import time
from pathlib import Path

from benchkit.inputs import SPECS, Inputs, selftest_spec
from benchkit.ladder import run_traced
from benchkit.runner import run_untraced
from benchkit.stats import SampleFloor, percentile

_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_SEED = 7
_SECONDS = 0.4


def run(contract: dict, frozen: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    end_to_end = [metric["name"] for metric in contract["end_to_end"]]
    per_layer = [metric["name"] for metric in contract["per_layer"]]
    workloads = [workload["name"] for workload in contract["workloads"]]
    expect(workloads == list(SPECS), f"workloads {workloads} != {list(SPECS)}")
    for name in (*workloads, *end_to_end, *per_layer):
        expect(_NAME.fullmatch(name) is not None, f"bad name {name!r}")

    for name, full in SPECS.items():
        spec = selftest_spec(full)
        for traced, declared in ((False, end_to_end), (True, per_layer)):
            if traced:
                result = run_traced(
                    spec, _SEED, _SECONDS, out_dir / "selftest", frozen, declared
                )
            else:
                result = run_untraced(
                    spec, _SEED, _SECONDS, out_dir / "selftest", frozen
                )
            label = f"{name} ({'traced' if traced else 'untraced'})"
            expect(
                sorted(result.metrics) == sorted(declared),
                f"{label}: metrics {sorted(set(result.metrics) ^ set(declared))} "
                "differ from BENCHMARK.json",
            )
            for metric, value in {**result.metrics, **result.reported}.items():
                expect(math.isfinite(value), f"{label}: {metric} = {value}")
            expect(result.failed == 0, f"{label}: failures {result.failures}")
            expect(result.correct, f"{label}: oracle mismatch")
            if result.tracer is not None:
                expect(len(result.tracer.spans) > 0, f"{label}: no spans")
                problems.extend(
                    f"{label}: {problem}" for problem in result.tracer.check()
                )
        same = Inputs(spec, _SEED, 1.0).sha256
        expect(
            same == Inputs(spec, _SEED, 5.0).sha256,
            f"{name}: same-seed inputs hash differently",
        )
        expect(
            same != Inputs(spec, _SEED + 1, 1.0).sha256,
            f"{name}: another seed hashes the same",
        )

    try:
        percentile([1.0] * 199, 0.95, floor=200)
        problems.append("a p95 of 199 samples passed the floor of 200")
    except SampleFloor:
        pass

    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'} in {elapsed:.1f} s")
    return 1 if problems else 0
