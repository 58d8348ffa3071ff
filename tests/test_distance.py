"""Unit tests for point/sequence distances (Definitions 2-3, Figure 1)."""

import time

import numpy as np
import pytest

import repro.core.distance as distance_module
from repro.core.distance import (
    mean_distance,
    point_distance,
    sequence_distance,
    sliding_mean_distances,
)
from repro.core.sequence import MultidimensionalSequence
from repro.util.budget import Deadline, OperationCancelled, deadline_scope


class TestPointDistance:
    def test_euclidean(self):
        assert point_distance([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.5)

    def test_zero_for_identical(self):
        assert point_distance([0.2, 0.7], [0.2, 0.7]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            point_distance([0.1], [0.1, 0.2])

    def test_one_dimensional(self):
        assert point_distance([0.2], [0.9]) == pytest.approx(0.7)


class TestMeanDistance:
    def test_equal_sequences_zero(self):
        seq = [[0.1, 0.2], [0.3, 0.4]]
        assert mean_distance(seq, seq) == 0.0

    def test_mean_of_pointwise(self):
        a = [[0.0, 0.0], [0.0, 0.0]]
        b = [[0.3, 0.4], [0.6, 0.8]]  # distances 0.5 and 1.0
        assert mean_distance(a, b) == pytest.approx(0.75)

    def test_accepts_sequences(self):
        a = MultidimensionalSequence([[0.1], [0.2]])
        b = MultidimensionalSequence([[0.2], [0.3]])
        assert mean_distance(a, b) == pytest.approx(0.1)

    def test_rejects_different_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            mean_distance([[0.1]], [[0.1], [0.2]])

    def test_rejects_different_dimensions(self):
        with pytest.raises(ValueError):
            mean_distance([[0.1]], [[0.1, 0.2]])

    def test_symmetry(self):
        a = [[0.1, 0.9], [0.4, 0.2]]
        b = [[0.8, 0.3], [0.2, 0.6]]
        assert mean_distance(a, b) == pytest.approx(mean_distance(b, a))


class TestFigure1Intuition:
    """Example 1: a mean (not a sum) makes long similar pairs closer than
    short dissimilar pairs."""

    def test_mean_beats_sum_semantics(self):
        # S1, S2: nine point pairs, each 0.05 apart -> sum 0.45, mean 0.05.
        s1 = [[i / 10.0, 0.2] for i in range(9)]
        s2 = [[i / 10.0, 0.25] for i in range(9)]
        # S3, S4: three point pairs, each 0.4 apart -> sum 1.2, mean 0.4.
        s3 = [[i / 10.0, 0.2] for i in range(3)]
        s4 = [[i / 10.0, 0.6] for i in range(3)]
        sum_12 = 9 * 0.05
        sum_34 = 3 * 0.4
        assert sum_12 < sum_34  # the naive sum would *not* reverse here...
        # ...so construct the paper's inversion explicitly: more points.
        s1_long = [[i / 100.0, 0.2] for i in range(90)]
        s2_long = [[i / 100.0, 0.25] for i in range(90)]
        assert 90 * 0.05 > sum_34  # summed distance calls the similar pair worse
        assert mean_distance(s1_long, s2_long) < mean_distance(s3, s4)
        assert mean_distance(s1, s2) < mean_distance(s3, s4)

    def test_mean_is_length_invariant_for_constant_offset(self):
        short = mean_distance([[0.0]] * 3, [[0.1]] * 3)
        long = mean_distance([[0.0]] * 30, [[0.1]] * 30)
        assert short == pytest.approx(long)


class TestSlidingMeanDistances:
    def test_number_of_alignments(self):
        short = [[0.1]] * 3
        long = [[0.0]] * 7
        assert sliding_mean_distances(short, long).shape == (5,)

    def test_exact_alignment_found(self):
        long = MultidimensionalSequence([[0.1], [0.5], [0.6], [0.7], [0.2]])
        short = MultidimensionalSequence([[0.5], [0.6]])
        distances = sliding_mean_distances(short, long)
        assert distances[1] == pytest.approx(0.0)
        assert np.all(distances >= 0.0)

    def test_values_match_manual_dmean(self):
        rng = np.random.default_rng(7)
        long = rng.random((10, 2))
        short = rng.random((4, 2))
        distances = sliding_mean_distances(short, long)
        for j in range(7):
            assert distances[j] == pytest.approx(
                mean_distance(short, long[j : j + 4])
            )

    def test_short_longer_than_long_rejected(self):
        with pytest.raises(ValueError, match="longer"):
            sliding_mean_distances([[0.1]] * 3, [[0.1]] * 2)

    def test_equal_lengths_single_alignment(self):
        a = [[0.1], [0.2]]
        b = [[0.3], [0.4]]
        distances = sliding_mean_distances(a, b)
        assert distances.shape == (1,)
        assert distances[0] == pytest.approx(0.2)


def window_mean_distances(short, long):
    """The window formulation ``sliding_mean_distances`` had until it became
    a per-dimension matrix kernel — kept here, unchanged, as the reference:
    one strided ``(alignments, k, n)`` tensor reduced over its last axis."""
    a = np.asarray(short, dtype=np.float64)
    b = np.asarray(long, dtype=np.float64)
    k, m = a.shape[0], b.shape[0]
    # windows[j, t, :] = long[j + t, :]; per-alignment mean of point norms.
    windows = np.lib.stride_tricks.sliding_window_view(b, (k, b.shape[1]))
    windows = windows.reshape(m - k + 1, k, b.shape[1])
    diffs = windows - a[None, :, :]
    return np.mean(np.sqrt(np.sum(diffs * diffs, axis=2)), axis=1)


def _hex(values):
    return [value.hex() for value in np.asarray(values).tolist()]


class TestKernelMatchesWindowReference:
    """The kernel returns the reference's floats, bit for bit."""

    @staticmethod
    def check_shapes(seed, dimension):
        rng = np.random.default_rng(seed)
        # Includes k = 1 and k = m.
        for k, m in [(1, 1), (1, 50), (7, 9), (50, 50), (40, 284), (130, 400)]:
            short, long = rng.random((k, dimension)), rng.random((m, dimension))
            assert _hex(sliding_mean_distances(short, long)) == _hex(
                window_mean_distances(short, long)
            ), (k, m)

    @pytest.mark.parametrize("dimension", range(1, 13))
    def test_every_dimension_and_shape(self, dimension):
        # Eight and more dimensions are where np.sum turns pairwise.
        self.check_shapes(dimension, dimension)

    @pytest.mark.parametrize("cells", [1, 64, 1000])
    def test_long_side_spanning_several_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(distance_module, "BROADCAST_CELLS", cells)
        self.check_shapes(cells, 3)

    def test_each_entry_is_the_mean_distance_of_its_alignment(self):
        rng = np.random.default_rng(11)
        for dimension in (1, 3, 9):
            short, long = rng.random((13, dimension)), rng.random((90, dimension))
            assert _hex(sliding_mean_distances(short, long)) == [
                mean_distance(short, long[j : j + 13]).hex() for j in range(78)
            ]

    def test_duplicated_points_and_strided_inputs(self):
        # Views with odd strides (a reversed, column-sliced array) and runs
        # of identical points (exact zeros inside the sums).
        rng = np.random.default_rng(5)
        wide = np.repeat(rng.random((60, 6)), 3, axis=0)[::-1, ::2]
        short = wide[20:45]
        assert _hex(sliding_mean_distances(short, wide)) == _hex(
            window_mean_distances(short, wide)
        )
        assert sliding_mean_distances(short, wide)[20] == 0.0

    def test_a_block_boundary_is_a_cancellation_point(self, monkeypatch):
        monkeypatch.setattr(distance_module, "BROADCAST_CELLS", 16)
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(OperationCancelled, match="distance.sliding"):
                sliding_mean_distances(np.zeros((4, 2)), np.zeros((40, 2)))


class TestSequenceDistance:
    def test_equal_length_is_dmean(self):
        a = [[0.0, 0.0], [1.0, 1.0]]
        b = [[0.3, 0.4], [1.0, 1.0]]
        assert sequence_distance(a, b) == pytest.approx(mean_distance(a, b))

    def test_subsequence_has_zero_distance(self):
        """Definition 3: a query cut from a sequence is at distance 0."""
        rng = np.random.default_rng(11)
        data = rng.random((30, 3))
        query = data[8:15]
        assert sequence_distance(query, data) == pytest.approx(0.0)

    def test_symmetric_across_argument_order(self):
        rng = np.random.default_rng(13)
        a = rng.random((5, 2))
        b = rng.random((12, 2))
        assert sequence_distance(a, b) == pytest.approx(sequence_distance(b, a))

    def test_minimum_over_alignments(self):
        long = [[0.0], [0.9], [0.91], [0.0]]
        short = [[0.9], [0.9]]
        expected = min(
            mean_distance(short, long[j : j + 2]) for j in range(3)
        )
        assert sequence_distance(short, long) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sequence_distance([[0.1]], [[0.1, 0.2]])

    def test_single_point_query(self):
        long = [[0.1], [0.5], [0.9]]
        assert sequence_distance([[0.52]], long) == pytest.approx(0.02)
