"""Property-based tests of the paper's correctness claims (hypothesis).

The load-bearing invariants:

* Observation 1 — ``Dmbr`` lower-bounds every point-pair distance.
* Lemma 1 — ``min Dmbr`` over MBR pairs lower-bounds ``D(Q, S)``.
* Lemmas 2-3 — ``min Dmbr <= min Dnorm <= D(Q, S)``.

These hold for *any* partitioning of the sequences into contiguous MBRs, so
they are tested over randomly generated sequences partitioned by the real
MCOST partitioner.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distance import (
    dnorm_between,
    mean_distance,
    min_normalized_distance,
    normalized_distance,
    point_distance,
    sequence_distance,
)
from repro.core.mbr import MBR
from repro.core.partitioning import partition_sequence
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import IntervalSet


def points_strategy(min_len=1, max_len=25, dims=(1, 3)):
    return st.integers(dims[0], dims[1]).flatmap(
        lambda d: arrays(
            np.float64,
            st.tuples(st.integers(min_len, max_len), st.just(d)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        )
    )


def paired_points(min_len=1, max_len=25, dims=(1, 3)):
    """Two point arrays sharing a dimension (lengths independent)."""
    return st.integers(dims[0], dims[1]).flatmap(
        lambda d: st.tuples(
            arrays(
                np.float64,
                st.tuples(st.integers(min_len, max_len), st.just(d)),
                elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
            ),
            arrays(
                np.float64,
                st.tuples(st.integers(min_len, max_len), st.just(d)),
                elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
            ),
        )
    )


TOLERANCE = 1e-9


class TestObservation1:
    @given(paired_points())
    @settings(max_examples=150, deadline=None)
    def test_dmbr_lower_bounds_every_point_pair(self, pair):
        a, b = pair
        box_a = MBR.of_points(a)
        box_b = MBR.of_points(b)
        dmbr = box_a.min_distance(box_b)
        pairwise = np.sqrt(
            np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        )
        assert dmbr <= pairwise.min() + TOLERANCE


class TestLemma1:
    @given(paired_points(min_len=2, max_len=30))
    @settings(max_examples=100, deadline=None)
    def test_min_dmbr_lower_bounds_sequence_distance(self, pair):
        q, s = pair
        query = MultidimensionalSequence(q)
        data = MultidimensionalSequence(s)
        query_partition = partition_sequence(query, max_points=5)
        data_partition = partition_sequence(data, max_points=5)
        min_dmbr = min(
            qs.mbr.min_distance(ds.mbr)
            for qs in query_partition
            for ds in data_partition
        )
        assert min_dmbr <= sequence_distance(query, data) + TOLERANCE


class TestLemmas2And3:
    @given(paired_points(min_len=2, max_len=30))
    @settings(max_examples=100, deadline=None)
    def test_lower_bound_chain(self, pair):
        """min Dmbr <= min Dnorm <= D(Q, S) for every partitioning.

        ``min_normalized_distance`` swaps the partitions in the long-query
        direction, which is what makes the chain hold for *all* length
        combinations (Lemmas 2-3 assume the query is the shorter side).
        """
        q, s = pair
        query = MultidimensionalSequence(q)
        data = MultidimensionalSequence(s)
        query_partition = partition_sequence(query, max_points=4)
        data_partition = partition_sequence(data, max_points=4)

        min_dmbr = min(
            float(data_partition.mbr_distance_row(qs.mbr).min())
            for qs in query_partition
        )
        min_dnorm = min_normalized_distance(query_partition, data_partition)
        exact = sequence_distance(query, data)
        assert min_dmbr <= min_dnorm + TOLERANCE
        assert min_dnorm <= exact + TOLERANCE

    def test_long_query_regression(self):
        """The falsifying example hypothesis found for the naive direction:
        Q = (0.5, 0, 0), S = (1, 0).  Naive Dnorm gives 0.5 > D = 0.25;
        the direction-aware bound must stay below 0.25."""
        query = MultidimensionalSequence([[0.5], [0.0], [0.0]])
        data = MultidimensionalSequence([[1.0], [0.0]])
        qp = partition_sequence(query, max_points=4)
        dp = partition_sequence(data, max_points=4)
        exact = sequence_distance(query, data)
        assert exact == 0.25
        assert min_normalized_distance(qp, dp) <= exact + TOLERANCE

    @given(paired_points(min_len=2, max_len=20))
    @settings(max_examples=60, deadline=None)
    def test_dnorm_window_weights_sum_to_query_count(self, pair):
        q, s = pair
        query = MultidimensionalSequence(q)
        data = MultidimensionalSequence(s)
        qp = partition_sequence(query, max_points=6)
        dp = partition_sequence(data, max_points=3)
        counts = dp.counts
        total = int(counts.sum())
        for qs in qp:
            for anchor in range(len(dp)):
                result = normalized_distance(
                    qs.mbr, qs.count, dp.mbrs, counts, anchor
                )
                spans = result.involved_points(counts)
                involved = sum(last - first + 1 for _, first, last in spans)
                if result.marginal_index is not None:
                    # A windowed computation weighs exactly |q_i| points.
                    assert involved == qs.count
                elif qs.count <= counts[anchor]:
                    # The anchor alone suffices: Dnorm == Dmbr.
                    assert result.window == (anchor, anchor)
                    assert involved == counts[anchor]
                else:
                    # Whole-sequence fallback: fewer points than the query.
                    assert qs.count > total
                    assert involved == total


class TestRowApiEquivalence:
    @given(paired_points(min_len=2, max_len=30))
    @settings(max_examples=100, deadline=None)
    def test_row_matches_scalar_anchors(self, pair):
        """The batched body must agree with per-anchor ``normalized_distance``
        calls, both in value and in the size of the participating window:
        at ``eps = inf`` every anchor takes its value from a reported window
        that contains it."""
        q, s = sorted(pair, key=len)  # the one with fewer points probes
        qp = partition_sequence(MultidimensionalSequence(q), max_points=4)
        dp = partition_sequence(MultidimensionalSequence(s), max_points=3)
        counts = dp.counts
        _, windows = dnorm_between(qp, dp)
        reported = list(
            zip(
                windows.instance.tolist(),
                windows.anchor.tolist(),
                windows.first.tolist(),
                windows.last.tolist(),
                windows.value.tolist(),
                (windows.stop - windows.start).tolist(),
            )
        )
        for qs in qp:
            for anchor in range(len(dp)):
                slow = normalized_distance(
                    qs.mbr, int(qs.count), dp.mbrs, counts, anchor
                )
                slow_points = sum(
                    last - first + 1
                    for _, first, last in slow.involved_points(counts)
                )
                assert any(
                    instance == qs.index
                    and first <= anchor <= last
                    and abs(value - slow.value) <= TOLERANCE
                    and points == slow_points
                    for instance, _, first, last, value, points in reported
                )
        for instance, anchor, _, _, value, points in reported:
            # The anchor a window is reported for does take that value.
            slow = normalized_distance(
                qp[instance].mbr, int(qp[instance].count), dp.mbrs, counts, anchor
            )
            assert abs(value - slow.value) <= TOLERANCE
            assert points == sum(
                last - first + 1 for _, first, last in slow.involved_points(counts)
            )


class TestDistanceProperties:
    @given(paired_points())
    @settings(max_examples=100, deadline=None)
    def test_sequence_distance_symmetric_and_nonnegative(self, pair):
        a, b = pair
        d_ab = sequence_distance(a, b)
        d_ba = sequence_distance(b, a)
        assert d_ab >= 0
        assert abs(d_ab - d_ba) <= TOLERANCE

    @given(points_strategy(min_len=2))
    @settings(max_examples=80, deadline=None)
    def test_self_distance_zero(self, pts):
        assert sequence_distance(pts, pts) <= TOLERANCE

    @given(points_strategy(min_len=3, max_len=20))
    @settings(max_examples=80, deadline=None)
    def test_subsequence_distance_zero(self, pts):
        seq = MultidimensionalSequence(pts)
        sub = seq[1 : max(2, len(seq) - 1)]
        assert sequence_distance(sub, seq) <= TOLERANCE

    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.tuples(
                *(
                    arrays(
                        np.float64,
                        (n, 2),
                        elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
                    )
                    for _ in range(3)
                )
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_dmean_triangle_inequality(self, triple):
        """Dmean is a metric on equal-length sequences (mean of metrics)."""
        a, b, c = triple
        assert mean_distance(a, c) <= (
            mean_distance(a, b) + mean_distance(b, c) + TOLERANCE
        )

    @given(paired_points(min_len=1, max_len=12))
    @settings(max_examples=80, deadline=None)
    def test_sequence_distance_bounded_by_diagonal(self, pair):
        a, b = pair
        dimension = a.shape[1]
        assert sequence_distance(a, b) <= np.sqrt(dimension) + TOLERANCE

    @given(paired_points(min_len=1, max_len=10))
    @settings(max_examples=60, deadline=None)
    def test_point_distance_consistency(self, pair):
        a, b = pair
        assert point_distance(a[0], b[0]) == mean_distance(
            a[:1], b[:1]
        )


class TestPartitioningProperties:
    @given(points_strategy(min_len=1, max_len=60))
    @settings(max_examples=80, deadline=None)
    def test_partition_is_exact_tiling(self, pts):
        partition = partition_sequence(pts, max_points=7)
        offset = 0
        for segment in partition:
            assert segment.start == offset
            assert 1 <= segment.count <= 7
            offset = segment.stop
        assert offset == pts.shape[0]

    @given(points_strategy(min_len=1, max_len=60))
    @settings(max_examples=80, deadline=None)
    def test_every_point_inside_its_mbr(self, pts):
        partition = partition_sequence(pts, max_points=None)
        for segment in partition:
            block = partition.segment_points(segment.index)
            for point in block:
                assert segment.mbr.contains_point(point)

    @given(points_strategy(min_len=2, max_len=40))
    @settings(max_examples=60, deadline=None)
    def test_mbr_distance_row_matches_scalar_api(self, pts):
        partition = partition_sequence(pts, max_points=5)
        probe = MBR.of_points(pts[: max(1, len(pts) // 2)])
        row = partition.mbr_distance_row(probe)
        for t, segment in enumerate(partition):
            assert abs(row[t] - probe.min_distance(segment.mbr)) <= TOLERANCE


class TestMbrProperties:
    @given(paired_points(min_len=1, max_len=15))
    @settings(max_examples=100, deadline=None)
    def test_union_contains_both(self, pair):
        a, b = pair
        box_a = MBR.of_points(a)
        box_b = MBR.of_points(b)
        union = box_a.union(box_b)
        assert union.contains(box_a)
        assert union.contains(box_b)

    @given(paired_points(min_len=1, max_len=15))
    @settings(max_examples=100, deadline=None)
    def test_zero_distance_iff_intersecting(self, pair):
        a, b = pair
        box_a = MBR.of_points(a)
        box_b = MBR.of_points(b)
        distance = box_a.min_distance(box_b)
        if box_a.intersects(box_b):
            assert distance == 0.0
        if distance > 0.0:
            # (The converse can underflow for denormal gaps, so only the
            # sound direction is asserted.)
            assert not box_a.intersects(box_b)

    @given(paired_points(min_len=1, max_len=15))
    @settings(max_examples=60, deadline=None)
    def test_min_distance_at_most_max_distance(self, pair):
        a, b = pair
        box_a = MBR.of_points(a)
        box_b = MBR.of_points(b)
        assert box_a.min_distance(box_b) <= box_a.max_distance(box_b) + TOLERANCE

    @given(points_strategy(min_len=1, max_len=15), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_expanded_contains_original(self, pts, epsilon):
        box = MBR.of_points(pts)
        assert box.expanded(epsilon).contains(box)


class TestIntervalSetProperties:
    interval_lists = st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda ab: (min(ab), max(ab))
        ),
        max_size=8,
    )

    @given(interval_lists, interval_lists)
    @settings(max_examples=150, deadline=None)
    def test_algebra_matches_python_sets(self, left, right):
        a = IntervalSet(left)
        b = IntervalSet(right)
        sa = {p for lo, hi in left for p in range(lo, hi)}
        sb = {p for lo, hi in right for p in range(lo, hi)}
        assert set(a) == sa
        assert set(a | b) == sa | sb
        assert set(a & b) == sa & sb
        assert set(a - b) == sa - sb
        assert len(a) == len(sa)
        assert a.issubset(b) == sa.issubset(sb)

    @given(interval_lists)
    @settings(max_examples=80, deadline=None)
    def test_canonical_form_is_disjoint_sorted(self, spans):
        si = IntervalSet(spans)
        intervals = si.intervals
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 < s2  # disjoint and non-adjacent
        assert all(s < e for s, e in intervals)
