"""Unit tests for MCOST partitioning (Section 3.4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.partitioning as partitioning
from repro.core.mbr import MBR
from repro.core.partitioning import (
    DEFAULT_COST_CONSTANT,
    PartitionedSequence,
    SequenceSegment,
    _scalar_pass,
    marginal_cost,
    partition_sequence,
)
from repro.core.sequence import MultidimensionalSequence
from tests.conftest import unit_points


class TestMarginalCost:
    def test_formula(self):
        """MCOST = prod(L_k + c) / m."""
        cost = marginal_cost([0.2, 0.1], 4, 0.3)
        assert cost == pytest.approx((0.5 * 0.4) / 4)

    def test_point_mbr(self):
        cost = marginal_cost([0.0, 0.0, 0.0], 1, 0.3)
        assert cost == pytest.approx(0.3**3)

    def test_default_constant_is_paper_value(self):
        assert DEFAULT_COST_CONSTANT == pytest.approx(0.3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            marginal_cost([0.1], 0)
        with pytest.raises(ValueError):
            marginal_cost([0.1], 1, 0.0)
        with pytest.raises(ValueError):
            marginal_cost([-0.1], 1)


class TestPartitionStructure:
    def test_exact_cover(self):
        """Segments tile the sequence: contiguous, ordered, complete."""
        rng = np.random.default_rng(5)
        seq = MultidimensionalSequence(rng.random((100, 3)))
        partition = partition_sequence(seq)
        offset = 0
        for index, segment in enumerate(partition):
            assert segment.index == index
            assert segment.start == offset
            assert segment.count >= 1
            offset = segment.stop
        assert offset == len(seq)

    def test_mbrs_are_tight(self):
        rng = np.random.default_rng(6)
        seq = MultidimensionalSequence(rng.random((80, 2)))
        partition = partition_sequence(seq)
        for segment in partition:
            block = partition.segment_points(segment.index)
            expected = MBR.of_points(block)
            assert segment.mbr == expected

    def test_single_point_sequence(self):
        partition = partition_sequence([[0.5, 0.5]])
        assert len(partition) == 1
        assert partition[0].count == 1

    def test_clustered_points_share_an_mbr(self):
        """A tight cluster is cheaper as one MBR: no split inside it."""
        cluster = np.full((20, 2), 0.5) + np.linspace(0, 1e-4, 20)[:, None]
        partition = partition_sequence(cluster)
        assert len(partition) == 1

    def test_distant_jump_starts_new_mbr(self):
        """A shot-cut-sized jump must break the MBR."""
        points = np.vstack(
            [np.full((10, 2), 0.1), np.full((10, 2), 0.9)]
        ) + np.linspace(0, 1e-5, 20)[:, None]
        partition = partition_sequence(points)
        assert len(partition) >= 2
        boundary = partition.segment_of_point(9)
        assert boundary.stop == 10  # the split falls exactly at the jump

    def test_max_points_cap(self):
        cluster = np.full((50, 2), 0.5)
        partition = partition_sequence(cluster, max_points=8)
        assert all(segment.count <= 8 for segment in partition)
        assert len(partition) == pytest.approx(np.ceil(50 / 8))

    def test_no_cap_when_none(self):
        cluster = np.full((50, 2), 0.5)
        partition = partition_sequence(cluster, max_points=None)
        assert len(partition) == 1

    def test_cost_constant_controls_granularity(self):
        """A larger constant tolerates larger MBRs (fewer segments)."""
        rng = np.random.default_rng(8)
        walk = np.cumsum(rng.normal(0, 0.01, size=(300, 2)), axis=0)
        walk = (walk - walk.min()) / (walk.max() - walk.min() + 1e-12)
        fine = partition_sequence(walk, cost_constant=0.05, max_points=None)
        coarse = partition_sequence(walk, cost_constant=0.8, max_points=None)
        assert len(coarse) <= len(fine)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_sequence([[0.1]], cost_constant=0.0)
        with pytest.raises(ValueError):
            partition_sequence([[0.1]], max_points=0)

    @pytest.mark.parametrize("constant", [float("nan"), float("inf"), -1.0])
    def test_a_cost_constant_that_is_not_finite_and_positive_is_refused(
        self, rng, constant
    ):
        """NaN and infinity make every MCOST comparison false: they used to
        be accepted and grew every segment to the cap."""
        with pytest.raises(ValueError, match="cost_constant"):
            partition_sequence(rng.random((100, 3)), cost_constant=constant)
        with pytest.raises(ValueError, match="cost_constant"):
            marginal_cost([0.1], 1, constant)


class TestPartitionedSequenceApi:
    def _partition(self):
        rng = np.random.default_rng(9)
        seq = MultidimensionalSequence(rng.random((60, 3)))
        return partition_sequence(seq)

    def test_counts_match_segments(self):
        partition = self._partition()
        np.testing.assert_array_equal(
            partition.counts, [s.count for s in partition.segments]
        )

    def test_mbrs_property(self):
        partition = self._partition()
        assert partition.mbrs == [s.mbr for s in partition.segments]

    def test_segment_of_point(self):
        partition = self._partition()
        for segment in partition:
            for offset in segment.point_range():
                assert partition.segment_of_point(offset) is segment

    def test_segment_of_point_bounds(self):
        partition = self._partition()
        with pytest.raises(IndexError):
            partition.segment_of_point(-1)
        with pytest.raises(IndexError):
            partition.segment_of_point(len(partition.sequence))

    def test_mbr_distance_row_matches_scalar(self):
        partition = self._partition()
        query = MBR([0.2, 0.2, 0.2], [0.4, 0.4, 0.4])
        row = partition.mbr_distance_row(query)
        for t, segment in enumerate(partition):
            assert row[t] == pytest.approx(query.min_distance(segment.mbr))

    def test_total_cost_positive(self):
        assert self._partition().total_cost() > 0

    def test_constructor_rejects_gaps(self):
        seq = MultidimensionalSequence([[0.1], [0.2], [0.3]])
        bad = [
            SequenceSegment(0, 0, 1, MBR([0.1], [0.1])),
            SequenceSegment(1, 2, 1, MBR([0.3], [0.3])),  # gap at offset 1
        ]
        with pytest.raises(ValueError, match="tile"):
            PartitionedSequence(seq, bad)

    def test_constructor_rejects_short_cover(self):
        seq = MultidimensionalSequence([[0.1], [0.2]])
        bad = [SequenceSegment(0, 0, 1, MBR([0.1], [0.1]))]
        with pytest.raises(ValueError, match="cover"):
            PartitionedSequence(seq, bad)

    def test_constructor_rejects_misnumbered(self):
        seq = MultidimensionalSequence([[0.1]])
        bad = [SequenceSegment(3, 0, 1, MBR([0.1], [0.1]))]
        with pytest.raises(ValueError, match="index"):
            PartitionedSequence(seq, bad)

    def test_constructor_rejects_empty(self):
        seq = MultidimensionalSequence([[0.1]])
        with pytest.raises(ValueError, match="at least one segment"):
            PartitionedSequence(seq, [])


class TestGreedyBehaviour:
    def test_partition_decision_follows_mcost(self):
        """Replay the greedy rule manually and compare the boundaries."""
        rng = np.random.default_rng(10)
        points = rng.random((40, 2))
        partition = partition_sequence(points, max_points=None)

        boundaries = []
        low = points[0].copy()
        high = points[0].copy()
        count = 1
        current = marginal_cost(high - low, count)
        for offset in range(1, len(points)):
            new_low = np.minimum(low, points[offset])
            new_high = np.maximum(high, points[offset])
            new_cost = marginal_cost(new_high - new_low, count + 1)
            if new_cost > current:
                boundaries.append(offset)
                low = points[offset].copy()
                high = points[offset].copy()
                count = 1
                current = marginal_cost(high - low, count)
            else:
                low, high, count, current = new_low, new_high, count + 1, new_cost
        starts = [segment.start for segment in partition]
        assert starts == [0] + boundaries


# ----------------------------------------------------------------------
# Parity with the array formulation
# ----------------------------------------------------------------------


def reference_partition(points, cost_constant, max_points):
    """The per-point NumPy formulation the scalar pass replaced.

    Kept here as the reference: ``np.minimum`` / ``np.maximum`` for the
    running corners and ``np.prod`` for MCOST.  Returns one
    ``(start, count, low, high)`` per segment.
    """
    cells = []
    start = 0
    low = points[0].copy()
    high = points[0].copy()
    count = 1
    current_cost = marginal_cost(high - low, count, cost_constant)
    for offset in range(1, len(points)):
        point = points[offset]
        new_low = np.minimum(low, point)
        new_high = np.maximum(high, point)
        new_cost = marginal_cost(new_high - new_low, count + 1, cost_constant)
        at_capacity = max_points is not None and count >= max_points
        if new_cost > current_cost or at_capacity:
            cells.append((start, count, low, high))
            start = offset
            low = point.copy()
            high = point.copy()
            count = 1
            current_cost = marginal_cost(high - low, count, cost_constant)
        else:
            low = new_low
            high = new_high
            count += 1
            current_cost = new_cost
    cells.append((start, count, low, high))
    return cells


def assert_same_cells(partition, cells):
    """Bit-for-bit: ``==`` on floats, not ``approx``."""
    assert len(partition) == len(cells)
    for segment, (start, count, low, high) in zip(partition, cells):
        assert (segment.start, segment.count) == (start, count)
        assert segment.mbr.low_tuple == tuple(low.tolist())
        assert segment.mbr.high_tuple == tuple(high.tolist())
    assert partition.counts.tolist() == [count for _, count, _, _ in cells]
    assert partition.counts.dtype == np.int64
    np.testing.assert_array_equal(
        partition.low_matrix, np.vstack([low for _, _, low, _ in cells])
    )
    np.testing.assert_array_equal(
        partition.high_matrix, np.vstack([high for _, _, _, high in cells])
    )


def drifting_points(rng, length, dimension, step):
    """A bounded random walk: neighbouring points are close, so segments
    hold many points and the MCOST comparison decides most boundaries."""
    walk = np.cumsum(rng.normal(0.0, step, (length, dimension)), axis=0)
    return np.abs((walk + rng.random(dimension)) % 2.0 - 1.0)


#: Input families the windowed pass must partition exactly as the scalar
#: pass does, each stressing another part of it.
FAMILIES = (
    "random walk",  # segments of many points: the window pass decides
    "uniform jumps",  # one-point segments: the head check decides
    "constant runs",  # runs of one repeated point, then a jump
    "repeated points and ties",  # a 1/4 grid: equal coordinates and costs
    "signed zeros",  # -0.0 and 0.0 mixed: corner signs
)


def family_points(family, rng, length, dimension):
    if family == "random walk":
        return drifting_points(rng, length, dimension, 0.01)
    if family == "uniform jumps":
        return rng.random((length, dimension))
    if family == "constant runs":
        runs = rng.integers(1, 40, size=length)
        return np.repeat(rng.random((length, dimension)), runs, axis=0)[:length]
    if family == "repeated points and ties":
        # With c = 0.25, sides of k/4 make many costs exactly equal.
        return rng.integers(0, 4, (length, dimension)) / 4.0
    assert family == "signed zeros"
    points = drifting_points(rng, length, dimension, 0.05)
    points[rng.random(points.shape) < 0.3] = 0.0
    points[rng.random(points.shape) < 0.3] = -0.0
    return points


def bits(partition):
    """A partition exactly: starts, counts and corners as ``float.hex``
    (so ``-0.0`` is not ``0.0``), and the matrices bytewise."""
    return (
        [
            (
                segment.index,
                segment.start,
                segment.count,
                tuple(map(float.hex, segment.mbr.low_tuple)),
                tuple(map(float.hex, segment.mbr.high_tuple)),
            )
            for segment in partition
        ],
        partition.counts.tobytes(),
        partition.low_matrix.tobytes(),
        partition.high_matrix.tobytes(),
    )


def assert_is_the_scalar_pass(partition, points, cost_constant, max_points):
    """Bit for bit what the scalar pass gives ``points``."""
    counts, lows, highs = _scalar_pass(points.tolist(), cost_constant, max_points)
    assert partition.counts.tolist() == counts
    starts = np.cumsum([0, *counts[:-1]]).tolist()
    assert [(s.start, s.count) for s in partition] == list(zip(starts, counts))
    for corner, expected in (("low_tuple", lows), ("high_tuple", highs)):
        assert [tuple(map(float.hex, getattr(s.mbr, corner))) for s in partition] == [
            tuple(map(float.hex, values)) for values in expected
        ]
    assert partition.low_matrix.tobytes() == np.array(lows).tobytes()
    assert partition.high_matrix.tobytes() == np.array(highs).tobytes()


class TestScalarPassParity:
    @given(
        points=st.integers(1, 8).flatmap(
            lambda d: unit_points(d, st.integers(1, 60))
        ),
        max_points=st.sampled_from([None, 1, 7, 64]),
        cost_constant=st.sampled_from([0.05, 0.3, 1.0, 2.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_identical_segments_on_arbitrary_points(
        self, points, max_points, cost_constant
    ):
        partition = partition_sequence(
            points, cost_constant=cost_constant, max_points=max_points
        )
        assert_same_cells(
            partition, reference_partition(points, cost_constant, max_points)
        )

    @pytest.mark.parametrize("dimension", range(1, 9))
    @pytest.mark.parametrize("max_points", [None, 1, 7, 64])
    def test_identical_segments_on_drifting_streams(
        self, dimension, max_points
    ):
        rng = np.random.default_rng(100 * dimension + (max_points or 0))
        for cost_constant in (0.05, 0.3, 1.0, 2.5):
            for step in (0.002, 0.02, 0.2):
                points = drifting_points(rng, 300, dimension, step)
                partition = partition_sequence(
                    points, cost_constant=cost_constant, max_points=max_points
                )
                assert_same_cells(
                    partition,
                    reference_partition(points, cost_constant, max_points),
                )

    @pytest.mark.parametrize("max_points", [None, 1, 3, 7, 64])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_identical_segments_on_every_family(self, family, max_points):
        rng = np.random.default_rng(100 * FAMILIES.index(family) + (max_points or 0))
        for length in (1, 2, 3, 65, 129, 600):
            for dimension in (1, 3, 8):
                points = family_points(family, rng, length, dimension)
                for cost_constant in (0.25, 0.3, 1.0):
                    assert_is_the_scalar_pass(
                        partition_sequence(
                            points, cost_constant=cost_constant, max_points=max_points
                        ),
                        points,
                        cost_constant,
                        max_points,
                    )

    @pytest.mark.parametrize("family", ["slow walk", "one repeated point"])
    def test_a_5000_point_sequence_without_a_cap(self, rng, family):
        """Segments far longer than a window: the pass carries corners and
        cost from window to window."""
        if family == "slow walk":
            points = drifting_points(rng, 5000, 3, 0.0005)
        else:
            points = np.full((5000, 3), 0.5)
        partition = partition_sequence(points, max_points=None)
        assert partition.counts.max() > 4 * partitioning._WINDOW
        assert_is_the_scalar_pass(partition, points, DEFAULT_COST_CONSTANT, None)

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 64])
    def test_every_window_size_gives_the_same_partition(self, monkeypatch, window):
        """The window's size changes the work, never the partition."""
        monkeypatch.setattr(partitioning, "_WINDOW", window)
        rng = np.random.default_rng(window)
        for family in FAMILIES:
            for max_points in (None, 3, 64):
                points = family_points(family, rng, 200, 3)
                partition = partition_sequence(
                    points, cost_constant=0.25, max_points=max_points
                )
                assert_is_the_scalar_pass(partition, points, 0.25, max_points)

    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(2, 400),
        dimension=st.sampled_from([1, 3, 8]),
        cuts=st.lists(st.integers(1, 399), max_size=6),
        max_points=st.sampled_from([None, 1, 3, 7, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_growing_in_random_steps_equals_partitioning_the_whole(
        self, family, seed, length, dimension, cuts, max_points
    ):
        points = family_points(family, np.random.default_rng(seed), length, dimension)
        stops = sorted({cut for cut in cuts if cut < length} | {length})
        partition = partition_sequence(points[: stops[0]], max_points=max_points)
        for stop in stops[1:]:
            partition = partition.extended_to(
                MultidimensionalSequence(points[:stop]), max_points=max_points
            )
        whole = partition_sequence(points, max_points=max_points)
        assert bits(partition) == bits(whole)
        assert_is_the_scalar_pass(partition, points, DEFAULT_COST_CONSTANT, max_points)

    def test_segment_mbrs_build_arrays_only_on_demand(self, rng):
        partition = partition_sequence(rng.random((40, 3)))
        assert all(s.mbr._low is None for s in partition)
        first = partition[0].mbr
        np.testing.assert_array_equal(first.low, partition.low_matrix[0])
        assert first.low is first.low  # built once, then kept
        with pytest.raises(ValueError):
            first.low[0] = 0.0


class TestExtendedTo:
    @given(
        points=st.integers(1, 4).flatmap(
            lambda d: unit_points(d, st.integers(2, 60))
        ),
        cuts=st.lists(st.integers(1, 59), max_size=5),
        max_points=st.sampled_from([None, 1, 7, 64]),
        cost_constant=st.sampled_from([0.05, 0.3, 2.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_growing_in_steps_equals_partitioning_the_whole(
        self, points, cuts, max_points, cost_constant
    ):
        stops = sorted({c for c in cuts if c < len(points)} | {len(points)})
        partition = partition_sequence(
            points[: stops[0]],
            cost_constant=cost_constant,
            max_points=max_points,
        )
        for stop in stops[1:]:
            before = partition
            partition = before.extended_to(
                MultidimensionalSequence(points[:stop]), max_points=max_points
            )
            # Every closed segment is the same object, not a copy.
            assert all(
                new is old
                for new, old in zip(partition.segments, before.segments[:-1])
            )
        assert_same_cells(
            partition, reference_partition(points, cost_constant, max_points)
        )
        assert partition.cost_constant == cost_constant
        assert len(partition.sequence) == len(points)

    def test_rejects_a_shorter_sequence(self, rng):
        points = rng.random((20, 2))
        partition = partition_sequence(points)
        with pytest.raises(ValueError):
            partition.extended_to(MultidimensionalSequence(points[:10]))

