"""Process environment of the harness; imports nothing from ``repro``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_DIR = PERF_DIR.parent
SRC_DIR = REPO_DIR / "src"

#: Sanitizer and fault switches; a benchmark measures the product with
#: all of them off, whatever the caller's shell has exported.
SCRUBBED_ENV = (
    "REPRO_CHECK_CONTRACTS",
    "REPRO_SYNC_CHECKS",
    "REPRO_FREEZE_CHECKS",
    "REPRO_ERROR_CHECKS",
    "REPRO_FAULTS",
)


def prepare() -> None:
    """Scrub the switches and put ``src/`` on the import path.

    Must run before ``repro`` is imported: the freeze checker reads its
    switch at import time.  Exits with status 2 when there is no program
    to measure (a directory holding only the benchmark's own files).
    """
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perf: no program to measure at {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_environment() -> dict[str, str]:
    """The environment a spawned server or harness pass runs in."""
    environment = {
        key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV
    }
    environment["PYTHONPATH"] = str(SRC_DIR)
    return environment
