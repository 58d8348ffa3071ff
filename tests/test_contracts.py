"""The lower-bound contract checker.

Three kinds of coverage:

* the ``contracts`` switch, through the helpers ``tests/test_checks.py``
  shares with the other three checks;
* the ``lower_bounds`` decorator; and
* *mutation tests*: deliberately break the ``Dnorm`` computation, the
  Phase-3 refinement, the k-NN bound and the windowed MCOST pass, and
  assert the contract net catches each — the whole
  point of the subsystem is that a bug violating Lemmas 2-3 cannot pass
  silently while checking is on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.contracts as analysis_contracts
import repro.core.distance as distance_module
import repro.core.partitioning as partitioning
import repro.core.search as search_module
from repro.analysis.contracts import (
    BoundChain,
    audit_search,
    lower_bound_chain,
)
from repro.core.contracts import ContractViolation, lower_bounds
from repro.core.database import SequenceDatabase
from repro.core.distance import normalized_distance
from repro.core.mbr import MBR
from repro.core.partitioning import partition_sequence
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import (
    IntervalSet,
    _validate_difference,
    _validate_intersection,
    _validate_union,
)
from repro.util.checks import checking
from tests.test_checks import (
    FALSY,
    TRUTHY,
    assert_env_value,
    assert_off_by_default,
    assert_restores_on_exception,
    assert_scopes_nest,
)


# ----------------------------------------------------------------------
# The "contracts" switch (shared behaviour: tests/test_checks.py)
# ----------------------------------------------------------------------
def test_contracts_disabled_by_default(check_env):
    assert_off_by_default("contracts", check_env)


@pytest.mark.parametrize("value", TRUTHY)
def test_env_var_enables_contracts(check_env, value):
    assert_env_value("contracts", check_env, value, True)


@pytest.mark.parametrize("value", FALSY)
def test_falsy_env_values_keep_contracts_off(check_env, value):
    assert_env_value("contracts", check_env, value, False)


def test_checking_contracts_scopes_and_nests(checks_off):
    assert_scopes_nest("contracts")


def test_checking_contracts_restores_on_exception(checks_off):
    assert_restores_on_exception("contracts")


def test_contract_violation_is_a_runtime_error():
    assert issubclass(ContractViolation, RuntimeError)


# ----------------------------------------------------------------------
# The lower_bounds decorator
# ----------------------------------------------------------------------
def test_lower_bounds_validator_runs_only_when_enabled(checks_off):
    calls = []

    def validator(result, x):
        calls.append((result, x))

    @lower_bounds(validator, label="doubling stays even")
    def double(x: int) -> int:
        return 2 * x

    assert double(3) == 6
    assert calls == []  # disabled: zero validator overhead

    with checking("contracts"):
        assert double(4) == 8
    assert calls == [(8, 4)]  # validator sees (result, *args)

    assert double.__name__ == "double"  # functools.wraps preserved
    assert double.__contract_label__ == "doubling stays even"
    assert double.__contract_validator__ is validator


def test_lower_bounds_label_defaults_to_validator_name():
    def my_validator(result):
        return None

    @lower_bounds(my_validator)
    def unit() -> None:
        return None

    assert unit.__contract_label__ == "my_validator"


def test_lower_bounds_propagates_validator_failure(checks_off):
    @lower_bounds(lambda result: (_ for _ in ()).throw(ContractViolation("bad")))
    def broken() -> int:
        return 1

    assert broken() == 1  # fine while checking is off
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="bad"):
            broken()


# ----------------------------------------------------------------------
# Mutation test A: a broken Dnorm kernel is caught (Lemma 2)
# ----------------------------------------------------------------------
def _dnorm_fixture():
    query_mbr = MBR.of_points([[0.0, 0.0], [0.1, 0.1]])
    data_mbrs = [MBR.of_point([0.8 + 0.01 * i, 0.8]) for i in range(5)]
    return query_mbr, data_mbrs


def test_normalized_distance_passes_contract_unmutated():
    query_mbr, data_mbrs = _dnorm_fixture()
    with checking("contracts"):
        result = normalized_distance(query_mbr, 3, data_mbrs, [1] * 5, 2)
    assert result.value > 0.0


def test_broken_dnorm_kernel_is_caught(monkeypatch, checks_off):
    query_mbr, data_mbrs = _dnorm_fixture()
    original = distance_module._weighted_window_value

    def undershooting(*args):
        return original(*args) * 0.5  # Dnorm now falls below min window Dmbr

    monkeypatch.setattr(distance_module, "_weighted_window_value", undershooting)

    # Without checking the bug passes silently ...
    normalized_distance(query_mbr, 3, data_mbrs, [1] * 5, 2)

    # ... with checking it cannot.
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="Dnorm contract violated"):
            normalized_distance(query_mbr, 3, data_mbrs, [1] * 5, 2)


# ----------------------------------------------------------------------
# Mutation test B: a false dismissal in the search is caught (Lemma 3)
# ----------------------------------------------------------------------
def _loop_corpus():
    t = np.linspace(0.0, 1.0, 60)
    base = np.stack(
        [0.5 + 0.4 * np.sin(2 * np.pi * t), 0.5 + 0.4 * np.cos(2 * np.pi * t)],
        axis=1,
    )
    return base


def _search_fixture():
    base = _loop_corpus()
    database = SequenceDatabase(dimension=2, max_points=8)
    database.add(MultidimensionalSequence(base, "target"))
    database.add(
        MultidimensionalSequence(np.full((30, 2), 0.05), "far-corner")
    )
    engine = SimilaritySearch(database)
    query = MultidimensionalSequence(base[10:40])  # exact subsequence: D = 0
    return engine, query


def test_search_passes_contract_unmutated():
    engine, query = _search_fixture()
    with checking("contracts"):
        result = engine.search(query, 0.05)
    assert "target" in result.answers


def _break_phase3(monkeypatch):
    """Make the Phase-3 kernel dismiss every pair it is handed."""
    kernel = search_module.phase3_kernel

    def dismissing(table, queries, rows, **kwargs):
        return kernel(table, queries, rows[:0], **kwargs)

    monkeypatch.setattr(search_module, "phase3_kernel", dismissing)


def test_false_dismissal_is_caught(monkeypatch, checks_off):
    engine, query = _search_fixture()
    _break_phase3(monkeypatch)

    # Silent wrong answer while checking is off: the true match vanishes.
    assert "target" not in engine.search(query, 0.05).answers

    with checking("contracts"):
        with pytest.raises(ContractViolation, match="false dismissal"):
            engine.search(query, 0.05)


def test_undershooting_phase3_kernel_is_caught(monkeypatch, checks_off):
    """Lemma 2 on Phase 3's own windows: its validator recomputes each
    window's minimum Dmbr between MBR objects, so a Dmbr block that
    undershoots (here: every Dmbr halved) cannot pass while checking is on."""
    engine, _ = _search_fixture()
    query = MultidimensionalSequence(_loop_corpus()[10:40] + 0.03)
    block = distance_module.dmbr_columns

    def halved(lows, highs, low_columns, high_columns):
        return block(lows, highs, low_columns, high_columns) * 0.5

    monkeypatch.setattr(distance_module, "dmbr_columns", halved)
    assert engine.search(query, 0.05).solution_intervals  # silently generous
    with checking("contracts"):
        with pytest.raises(
            ContractViolation, match="Dnorm contract violated in Phase 3"
        ):
            engine.search(query, 0.05)


# ----------------------------------------------------------------------
# Mutation test C: a k-NN bound that overshoots is caught
# ----------------------------------------------------------------------
def _knn_fixture():
    """Six concentric arcs of 12-60 points and a 30-point query lying on
    the third: longer than some, shorter than others.  The innermost is
    the query's fourth neighbour (D = 0.14, bound 0.085) and the fifth
    arc its fifth (D = 0.16, bound 0.051)."""
    t = np.linspace(0.0, 1.0, 60)
    circle = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
    database = SequenceDatabase(dimension=2, max_points=8)
    arcs = [(0.05, 60), (0.12, 12), (0.19, 45), (0.26, 20), (0.35, 60), (0.42, 16)]
    for ordinal, (radius, points) in enumerate(arcs):
        database.add(0.5 + radius * circle[:points], sequence_id=f"arc-{ordinal}")
    return SimilaritySearch(database), 0.5 + 0.19 * circle[5:35]


def test_knn_passes_contract_unmutated():
    engine, query = _knn_fixture()
    with checking("contracts"):
        nearest = engine.knn(query, 3)
        hits = engine.knn_subsequences(query, 3)
    assert nearest[0] == (0.0, "arc-2")
    assert (hits[0].sequence_id, hits[0].offset) == ("arc-2", 5)


def test_doubled_knn_bound_is_caught(monkeypatch, checks_off):
    engine, query = _knn_fixture()
    honest = engine.knn(query, 4)
    assert [name for _, name in honest] == ["arc-2", "arc-1", "arc-3", "arc-0"]
    bounds = SimilaritySearch._lower_bounds
    monkeypatch.setattr(
        SimilaritySearch,
        "_lower_bounds",
        lambda self, query_partition: 2.0 * bounds(self, query_partition),
    )
    # Silently wrong while checking is off: the fourth neighbour's doubled
    # bound is past the fifth's distance, so it is never refined.
    assert [name for _, name in engine.knn(query, 4)][3] == "arc-4"
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="k-NN bound"):
            engine.knn(query, 4)
        with pytest.raises(ContractViolation, match="k-NN bound"):
            engine.knn_subsequences(query, 4)


def test_knn_bound_without_its_dual_is_caught(monkeypatch, checks_off):
    """For a stored sequence shorter than the query the sequence slides
    inside the query, and only *its* points are all paired: weighting the
    query's MBRs there (the ``|S| >= |Q|`` form) counts query points the
    best alignment never matches, and overshoots."""
    engine, query = _knn_fixture()
    engine.database.add(query[8:20], sequence_id="piece")  # D = 0

    def forward_only(self, query_partition):
        return np.array(
            [
                sum(
                    segment.count * partition.mbr_distance_row(segment.mbr).min()
                    for segment in query_partition
                )
                / len(query_partition.sequence)
                for _, partition in self.database.partitions()
            ]
        )

    # Where the query is the shorter, the mutant is the bound itself.
    _, query_partition = engine._prepare(query)
    longer = engine.database.segment_table.lengths >= len(query)
    np.testing.assert_allclose(
        forward_only(engine, query_partition)[longer],
        engine._lower_bounds(query_partition)[longer],
        atol=1e-12,
    )
    monkeypatch.setattr(SimilaritySearch, "_lower_bounds", forward_only)
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="k-NN bound .* 'piece'"):
            engine.knn(query, 3)


def test_wrong_knn_answer_is_caught(monkeypatch, checks_off):
    """Sound bounds, wrong answer: an exact distance that comes back
    inflated for one sequence drops it from the head of the list."""
    engine, query = _knn_fixture()
    target = engine.database.sequence("arc-2")
    distance = search_module.sequence_distance
    monkeypatch.setattr(
        search_module,
        "sequence_distance",
        lambda a, b: distance(a, b) + (1.0 if b is target else 0.0),
    )
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="a full scan finds"):
            engine.knn(query, 3)


# ----------------------------------------------------------------------
# Mutation test D: an off-by-one boundary in the windowed MCOST pass is
# caught against the scalar pass
# ----------------------------------------------------------------------
def test_off_by_one_boundary_in_the_window_pass_is_caught(monkeypatch, checks_off):
    window_count = partitioning._window_count

    def one_early(columns, start, limit, cost_constant):
        count = window_count(columns, start, limit, cost_constant)
        return max(2, count - 1)

    monkeypatch.setattr(partitioning, "_window_count", one_early)
    points = _loop_corpus()
    head = partition_sequence(points[:30])

    # Without checking the shifted boundaries pass silently ...
    counts = partition_sequence(points).counts.tolist()
    assert counts != partitioning._scalar_pass(points.tolist(), 0.3, 64)[0]
    assert sum(counts) == len(points)

    # ... with checking neither a new partition nor a grown one can.
    with checking("contracts"):
        with pytest.raises(ContractViolation, match="partition_sequence.*counts"):
            partition_sequence(points)
        with pytest.raises(ContractViolation, match="extended_to.*counts"):
            head.extended_to(MultidimensionalSequence(points))


# ----------------------------------------------------------------------
# Analysis-level helpers
# ----------------------------------------------------------------------
def test_lower_bound_chain_orders_the_hierarchy():
    base = _loop_corpus()
    query_partition = partition_sequence(base[5:25], max_points=8)
    data_partition = partition_sequence(base, max_points=8)
    chain = lower_bound_chain(query_partition, data_partition)
    assert chain.min_dmbr <= chain.min_dnorm + 1e-9
    assert chain.min_dnorm <= chain.exact_distance + 1e-9
    assert chain.exact_distance == pytest.approx(0.0, abs=1e-9)
    assert chain.holds()


def test_lower_bound_chain_raises_on_broken_chain(monkeypatch):
    base = _loop_corpus()
    query_partition = partition_sequence(base[5:25], max_points=8)
    data_partition = partition_sequence(base, max_points=8)
    monkeypatch.setattr(
        analysis_contracts,
        "min_normalized_distance",
        lambda *args, **kwargs: -1.0,
    )
    with pytest.raises(ContractViolation, match="out of order"):
        lower_bound_chain(query_partition, data_partition)
    # verify=False returns the (broken) chain for inspection instead.
    chain = lower_bound_chain(query_partition, data_partition, verify=False)
    assert not chain.holds()


def test_bound_chain_holds_tolerance():
    assert BoundChain(1.0, 1.0, 1.0).holds()
    assert BoundChain(1.0, 0.5, 2.0).holds() is False
    assert BoundChain(0.5, 2.0, 1.0).holds() is False
    # within the round-off tolerance the chain still counts as ordered
    assert BoundChain(1.0 + 1e-12, 1.0, 1.0).holds()


def test_audit_search_counts_and_validates(monkeypatch):
    engine, query = _search_fixture()
    queries = [query, MultidimensionalSequence(_loop_corpus()[0:12])]
    assert audit_search(engine, queries, 0.05) == 2

    # audit_search enables checking itself, so a broken kernel surfaces
    # without any explicit checking("contracts") at the call site.
    _break_phase3(monkeypatch)
    with pytest.raises(ContractViolation, match="false dismissal"):
        audit_search(engine, queries, 0.05)


# ----------------------------------------------------------------------
# Interval-algebra validators
# ----------------------------------------------------------------------
def test_interval_algebra_validated_clean_under_checking():
    left = IntervalSet([(0, 5), (10, 15)])
    right = IntervalSet([(3, 12)])
    with checking("contracts"):
        assert left.union(right) == IntervalSet([(0, 15)])
        assert left.intersection(right) == IntervalSet([(3, 5), (10, 12)])
        assert left.difference(right) == IntervalSet([(0, 3), (12, 15)])


def test_union_validator_rejects_lost_input():
    left = IntervalSet([(0, 5)])
    right = IntervalSet([(10, 12)])
    wrong = IntervalSet([(0, 5)])  # lost the right operand entirely
    with pytest.raises(ContractViolation, match="union lost"):
        _validate_union(wrong, left, right)


def test_union_validator_rejects_non_canonical_result():
    left = IntervalSet([(0, 5)])
    right = IntervalSet([(4, 8)])
    corrupt = IntervalSet([(0, 8)])
    corrupt._intervals = [(0, 5), (4, 8)]  # overlapping: canonical form broken
    with pytest.raises(ContractViolation, match="canonical form broken"):
        _validate_union(corrupt, left, right)


def test_intersection_validator_rejects_escaping_result():
    left = IntervalSet([(0, 5)])
    right = IntervalSet([(3, 8)])
    wrong = IntervalSet([(0, 20)])  # not contained in either input
    with pytest.raises(ContractViolation, match="outside an input"):
        _validate_intersection(wrong, left, right)


def test_difference_validator_rejects_kept_overlap():
    left = IntervalSet([(0, 10)])
    right = IntervalSet([(4, 6)])
    wrong = IntervalSet([(0, 10)])  # failed to subtract anything
    with pytest.raises(ContractViolation, match="overlapping the subtracted"):
        _validate_difference(wrong, left, right)
