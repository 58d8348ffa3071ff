"""Shared utilities: validation, RNG plumbing, the runtime checks."""

from repro.util.checks import check_stats, checking, enabled, reset_checks
from repro.util.freeze import (
    FrozenDict,
    FrozenList,
    FrozenWriteViolation,
    deep_freeze,
    freeze,
    frozen_view,
    verify_frozen,
)
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import (
    check_dimension,
    check_fraction,
    check_positive,
    check_probability,
    check_threshold,
)

__all__ = [
    "FrozenDict",
    "FrozenList",
    "FrozenWriteViolation",
    "check_dimension",
    "check_fraction",
    "check_positive",
    "check_probability",
    "check_stats",
    "check_threshold",
    "checking",
    "deep_freeze",
    "enabled",
    "ensure_rng",
    "freeze",
    "frozen_view",
    "reset_checks",
    "spawn_rngs",
    "verify_frozen",
]
