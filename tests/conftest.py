"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.mbr import MBR
from repro.core.sequence import MultidimensionalSequence
from repro.util.checks import CONTRACTS, ERRORS, FREEZE, SYNC, reset_checks

# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


def unit_points(dimension: int, length):
    """Strategy: (length, dimension) float arrays inside the unit cube."""
    return arrays(
        dtype=np.float64,
        shape=st.tuples(length, st.just(dimension)),
        elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
    )


def unit_sequences(dimension=st.integers(1, 4), length=st.integers(1, 40)):
    """Strategy: MultidimensionalSequence in the unit cube."""
    return st.builds(
        MultidimensionalSequence,
        dimension.flatmap(lambda d: unit_points(d, length)),
    )


def mbr_pairs(dimension: int):
    """Strategy: pairs of MBRs of the same dimension in the unit cube."""

    def make_mbr(corners):
        a, b = corners
        return MBR(np.minimum(a, b), np.maximum(a, b))

    corner = arrays(
        dtype=np.float64,
        shape=(dimension,),
        elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
    )
    one = st.tuples(corner, corner).map(make_mbr)
    return st.tuples(one, one)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def rng():
    """A deterministic RNG shared by randomised (non-hypothesis) tests."""
    return np.random.default_rng(20000301)


@pytest.fixture
def check_env(monkeypatch):
    """Set runtime-check switches in the environment for one test.

    ``check_env(contracts="1", sync=None)`` sets one switch and removes
    another.  The registry reads the environment only in
    ``reset_checks()``, so it runs after the change and again once the
    test's environment is restored.
    """
    env_vars = {
        check.name: check.env_var for check in (CONTRACTS, SYNC, FREEZE, ERRORS)
    }

    def apply(**values: str | None) -> None:
        for name, value in values.items():
            if value is None:
                monkeypatch.delenv(env_vars[name], raising=False)
            else:
                monkeypatch.setenv(env_vars[name], value)
        reset_checks()

    yield apply
    monkeypatch.undo()
    reset_checks()


@pytest.fixture
def checks_off(check_env):
    """All four runtime checks off, whatever the suite's environment says:
    for tests that pin a default-off behaviour or show a silently wrong
    answer before a ``checking(...)`` scope catches it."""
    check_env(contracts=None, sync=None, freeze=None, errors=None)


@pytest.fixture
def small_sequences(rng):
    """Twelve short random 3-d sequences for integration-style tests."""
    return [
        MultidimensionalSequence(
            rng.random((int(rng.integers(20, 60)), 3)), sequence_id=i
        )
        for i in range(12)
    ]


def brute_force_within(items, query: MBR, epsilon: float):
    """Reference implementation of an index ``search_within`` probe."""
    return {
        payload
        for mbr, payload in items
        if mbr.min_distance(query) <= epsilon
    }
