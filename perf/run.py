#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perf/run.py --workload core_range --seed 2000 --seconds 10 --trace 0
    python3 perf/run.py --all --seed 2000 --out perf/out
    python3 perf/run.py --selftest

``--trace 0`` (default) is the untraced pass and reports the end-to-end
metrics; ``--trace 1`` is the traced pass and reports the per-layer ones.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchkit import env

env.prepare()  # before anything imports repro

import numpy  # noqa: E402

from benchkit import selftest  # noqa: E402
from benchkit.inputs import SPECS, Inputs  # noqa: E402
from benchkit.ladder import run_traced  # noqa: E402
from benchkit.runner import PassResult, run_untraced  # noqa: E402

DEFAULT_OUT = env.PERF_DIR / "out"
FROZEN_SEEDS = (2000, 2001)


def load_contract() -> dict:
    return json.loads((env.REPO_DIR / "BENCHMARK.json").read_text())


def load_frozen_hashes() -> dict[str, dict[str, str]]:
    return json.loads((env.PERF_DIR / "input_hashes.json").read_text())


def result_path(out_dir: Path, workload: str, traced: bool) -> Path:
    return out_dir / f"result-{workload}-{'traced' if traced else 'untraced'}.json"


def to_document(result: PassResult, contract: dict) -> dict:
    """The result file: the contract's JSON line plus what explains it."""
    section = contract["per_layer" if result.traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"{result.workload}: metrics not measured: {missing}")
    bad = [n for n in units if not math.isfinite(result.metrics[n])]
    if bad:
        raise RuntimeError(f"{result.workload}: non-finite metrics: {bad}")
    return {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "pass": "traced" if result.traced else "untraced",
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "reported": result.reported,
        "samples": result.samples,
        "machine": result.machine,
        "input_sha256": result.input_sha256,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }


def print_table(document: dict, contract: dict) -> None:
    section = contract["per_layer" if document["pass"] == "traced" else "end_to_end"]
    better = {metric["name"]: metric["better"] for metric in section}
    print(
        f"== {document['workload']} ({document['pass']}, seed {document['seed']}, "
        f"{document['seconds']:g} s) =="
    )
    for name, entry in document["metrics"].items():
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']:<8} ({better[name]} is better)")
    if document["pass"] == "untraced":
        for name, value in document["reported"].items():
            print(f"  {name:<46} {value:>14.6g} (reported, not gated)")
    print(f"  samples  {document['samples']}  machine {document['machine']}")
    print(
        f"  attempted {document['attempted']}  failed {document['failed']} "
        f"{document['failures']}  correct {document['correct']}"
    )


def command_single(args: argparse.Namespace, contract: dict) -> int:
    spec, frozen = SPECS[args.workload], load_frozen_hashes()
    if args.trace:
        declared = [metric["name"] for metric in contract["per_layer"]]
        result = run_traced(
            spec, args.seed, args.seconds, args.out, frozen, declared
        )
    else:
        result = run_untraced(spec, args.seed, args.seconds, args.out, frozen)
    document = to_document(result, contract)
    args.out.mkdir(parents=True, exist_ok=True)
    result_path(args.out, args.workload, result.traced).write_text(
        json.dumps(document, indent=2) + "\n"
    )
    print_table(document, contract)
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": document["metrics"],
            }
        )
    )
    return 0


def command_all(args: argparse.Namespace, contract: dict) -> int:
    """Every workload, both passes, each in a process of its own.

    A fresh process per pass keeps ``peak_rss_mb`` (the harness's own
    high-water mark on the in-process workloads) from leaking across.
    """
    passes = (0,) if args.untraced_only else (0, 1)
    for workload in SPECS:
        for trace in passes:
            completed = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", str(args.out),
                ],
                env=env.child_environment(),
                stdout=subprocess.DEVNULL,
                check=False,
            )
            if completed.returncode != 0:
                print(f"{workload} (trace {trace}) failed", file=sys.stderr)
                return completed.returncode
            print_table(
                json.loads(result_path(args.out, workload, bool(trace)).read_text()),
                contract,
            )
    return 0


def command_hashes() -> int:
    """Print the input hashes to freeze in ``perf/input_hashes.json``."""
    hashes = {
        name: {str(seed): Inputs(spec, seed, 1.0).sha256 for seed in FROZEN_SEEDS}
        for name, spec in SPECS.items()
    }
    print(json.dumps(hashes, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(SPECS))
    mode.add_argument("--all", action="store_true", help="every workload, both passes")
    mode.add_argument("--selftest", action="store_true", help="a <= 20 s self-check")
    mode.add_argument("--hashes", action="store_true", help="print input hashes")
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"])
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--untraced-only", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.out = args.out.resolve()
    if args.selftest:
        return selftest.run(contract, load_frozen_hashes(), args.out)
    if args.hashes:
        return command_hashes()
    if args.all:
        return command_all(args, contract)
    return command_single(args, contract)


if __name__ == "__main__":
    sys.exit(main())
