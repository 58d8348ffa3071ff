"""Nearest-rank percentiles with sample-count floors."""

from __future__ import annotations

import math
from collections.abc import Sequence


class SampleFloor(RuntimeError):
    """A percentile was asked of fewer samples than it may be taken from."""


def percentile(values: Sequence[float], q: float, *, floor: int = 1) -> float:
    """Nearest-rank ``q``-quantile; raises :class:`SampleFloor` below ``floor``.

    A p95 needs at least ten samples beyond it to mean anything, hence the
    floor of 200 the workloads pass for it.
    """
    if len(values) < max(1, floor):
        raise SampleFloor(
            f"p{q * 100:g} needs >= {max(1, floor)} samples, got {len(values)}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median; 0.0 for an empty sample (layer did not run)."""
    return percentile(values, 0.5) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
