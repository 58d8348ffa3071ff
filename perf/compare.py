#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py A B     # two result directories
    python3 perf/compare.py         # two fresh `run.py --all` passes

A directory is one result set (it holds ``result-<workload>-untraced.json``
files, as ``run.py --out`` writes them) or a parent of several.  For every
workload row and every end-to-end metric the tool prints both medians, how
much worse B is than A (direction-aware) and the bound from
``BENCHMARK.json``.  B worse by more than the bound is a ``BREACH`` and
the exit status is 1.  Where the run-to-run spread of either side exceeds
the bound the metric is ``unresolved``, not unchanged — unless every run
of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((PERF_DIR.parent / "BENCHMARK.json").read_text())


def result_sets(directory: Path) -> list[Path]:
    if any(directory.glob("result-*-untraced.json")):
        return [directory]
    return sorted(
        child
        for child in directory.iterdir()
        if child.is_dir() and any(child.glob("result-*-untraced.json"))
    )


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> one value per result set``."""
    sets = result_sets(directory)
    if not sets:
        raise SystemExit(f"compare: no result-*-untraced.json under {directory}")
    values: dict[str, dict[str, list[float]]] = {}
    for result_set in sets:
        for path in sorted(result_set.glob("result-*-untraced.json")):
            document = json.loads(path.read_text())
            row = values.setdefault(document["workload"], {})
            for name, entry in document["metrics"].items():
                row.setdefault(name, []).append(entry["value"])
            for name, value in document["reported"].items():
                row.setdefault(name, []).append(value)
    return values


def spread(values: list[float]) -> float | None:
    """Quartile distance (range, below four runs) over the median."""
    centre = statistics.median(values)
    if len(values) < 2 or centre == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(centre)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(centre)


def compare(a: dict, b: dict) -> int:
    gated = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
    lower_is_better = {name: m["better"] == "lower" for name, m in gated.items()}
    reported = {
        metric["name"]: metric["better"] == "lower"
        for metric in CONTRACT["per_layer"]
    }
    breaches = 0
    header = f"{'workload':<20} {'metric':<28} {'A':>11} {'B':>11} {'worse by':>9} {'bound':>6} {'spread':>7}  status"
    print(header)
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:<20} missing on one side")
            breaches += 1
            continue
        for name in [*gated, *(n for n in a[workload] if n not in gated)]:
            if name not in a[workload] or name not in b[workload]:
                continue
            left, right = a[workload][name], b[workload][name]
            mid_a, mid_b = statistics.median(left), statistics.median(right)
            lower = lower_is_better.get(name, reported.get(name, True))
            worse = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
            worse = worse if lower else -worse
            spreads = [s for s in (spread(left), spread(right)) if s is not None]
            widest = max(spreads, default=None)
            bound = gated[name]["bound"] if name in gated else None
            all_better = (
                max(right) < min(left) if lower else min(right) > max(left)
            )
            if bound is None:
                status = "reported"
            elif worse > bound:
                status = "BREACH"
                breaches += 1
            elif widest is not None and widest > bound and not all_better:
                status = "unresolved"
            else:
                status = "ok"
            print(
                f"{workload:<20} {name:<28} {mid_a:>11.5g} {mid_b:>11.5g} "
                f"{worse:>+9.1%} {'' if bound is None else format(bound, '.2f'):>6} "
                f"{'' if widest is None else format(widest, '.1%'):>7}  {status}"
            )
    print(f"compare: {breaches} breach(es)")
    return 1 if breaches else 0


def fresh(label: str) -> Path:
    out = PERF_DIR / "out" / f"compare-{label}"
    subprocess.run(
        [
            sys.executable,
            str(PERF_DIR / "run.py"),
            "--all",
            "--untraced-only",
            "--out",
            str(out),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        a, b = Path(argv[0]), Path(argv[1])
    elif not argv:
        a, b = fresh("a"), fresh("b")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(a), load(b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
