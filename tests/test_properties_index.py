"""Property-based tests for the R-tree family: exactness vs brute force."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbr import MBR
from repro.index.bulk import bulk_load_str
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree


def boxes_strategy(dimension=2, max_count=60):
    coordinate = st.floats(0.0, 1.0, allow_nan=False, width=64)
    corner = st.tuples(*([coordinate] * dimension))

    def make(corners):
        a, b = corners
        low = np.minimum(a, b)
        high = np.maximum(a, b)
        return MBR(low, high)

    box = st.tuples(corner, corner).map(make)
    return st.lists(box, min_size=1, max_size=max_count)


def build(kind, items, dimension=2, max_entries=4):
    pairs = list(enumerate(items))
    if kind == "str":
        return bulk_load_str(
            [(mbr, i) for i, mbr in pairs], dimension, max_entries=max_entries
        )
    cls = RStarTree if kind == "rstar" else RTree
    tree = cls(dimension, max_entries=max_entries)
    for i, mbr in pairs:
        tree.insert(mbr, i)
    return tree


@pytest.mark.parametrize("kind", ["rtree", "rstar", "str"])
class TestExactness:
    @given(
        items=boxes_strategy(),
        query=boxes_strategy(max_count=1),
        epsilon=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_equals_brute_force(self, kind, items, query, epsilon):
        tree = build(kind, items)
        probe = query[0]
        expected = {
            i for i, mbr in enumerate(items)
            if mbr.min_distance(probe) <= epsilon
        }
        got = {e.payload for e in tree.search_within(probe, epsilon)}
        assert got == expected

    @given(items=boxes_strategy(), query=boxes_strategy(max_count=1))
    @settings(max_examples=60, deadline=None)
    def test_intersect_equals_brute_force(self, kind, items, query):
        tree = build(kind, items)
        probe = query[0]
        expected = {i for i, mbr in enumerate(items) if mbr.intersects(probe)}
        got = {e.payload for e in tree.search_intersect(probe)}
        assert got == expected

    @given(items=boxes_strategy(), query=boxes_strategy(max_count=1))
    @settings(max_examples=40, deadline=None)
    def test_nearest_matches_sorted_brute_force(self, kind, items, query):
        tree = build(kind, items)
        probe = query[0]
        k = min(5, len(items))
        got = [d for d, _ in tree.nearest(probe, k)]
        brute = sorted(mbr.min_distance(probe) for mbr in items)[:k]
        np.testing.assert_allclose(got, brute, atol=1e-12)

    @given(items=boxes_strategy())
    @settings(max_examples=40, deadline=None)
    def test_structure_and_size(self, kind, items):
        tree = build(kind, items)
        assert len(tree) == len(items)
        tree.check_invariants(check_min_fill=(kind != "str"))
        assert {e.payload for e in tree.entries()} == set(range(len(items)))


# ----------------------------------------------------------------------
# Layout parity with the array formulation of the geometry
# ----------------------------------------------------------------------
#
# The trees decide where an entry goes by comparing volumes, enlargements,
# overlaps and margins.  Those used to be computed with NumPy on the
# rectangles' ndarrays; they now run on plain floats.  The reference below
# is that NumPy formulation, kept here only: building the same tree under
# it must give the same nodes, in the same order, holding the same entries.


def _reference_union(self, other):
    return MBR(np.minimum(self.low, other.low), np.maximum(self.high, other.high))


def _reference_union_all(mbrs):
    items = list(mbrs)
    return MBR(
        np.min([m.low for m in items], axis=0),
        np.max([m.high for m in items], axis=0),
    )


def _reference_volume(self):
    return float(np.prod(self.high - self.low))


def _reference_intersection(self, other):
    low = np.maximum(self.low, other.low)
    high = np.minimum(self.high, other.high)
    return None if np.any(low > high) else MBR(low, high)


def _reference_overlap_volume(self, other):
    inter = _reference_intersection(self, other)
    return 0.0 if inter is None else _reference_volume(inter)


_REFERENCE_GEOMETRY = {
    "union": _reference_union,
    "union_all": staticmethod(_reference_union_all),
    "volume": _reference_volume,
    "margin": lambda self: float(np.sum(self.high - self.low)),
    "enlargement": lambda self, other: (
        _reference_volume(_reference_union(self, other)) - _reference_volume(self)
    ),
    "intersection": _reference_intersection,
    "overlap_volume": _reference_overlap_volume,
    "contains": lambda self, other: bool(
        np.all(self.low <= other.low) and np.all(other.high <= self.high)
    ),
    "center_distance_squared": lambda self, other: float(
        np.sum(((self.low + self.high) / 2.0 - (other.low + other.high) / 2.0) ** 2)
    ),
    "__eq__": lambda self, other: bool(
        np.array_equal(self.low, other.low)
        and np.array_equal(self.high, other.high)
    ),
}


@contextlib.contextmanager
def numpy_geometry():
    """Run the trees on the NumPy-per-rectangle reference geometry."""
    saved = {name: MBR.__dict__[name] for name in _REFERENCE_GEOMETRY}
    for name, implementation in _REFERENCE_GEOMETRY.items():
        setattr(MBR, name, implementation)
    try:
        yield
    finally:
        for name, implementation in saved.items():
            setattr(MBR, name, implementation)


def layout(tree):
    """Nodes in stored order: level, cached MBR, then children or entries."""

    def corners(mbr):
        return (mbr.low_tuple, mbr.high_tuple)

    def describe(node):
        if node.is_leaf:
            inside = [(e.payload, corners(e.mbr)) for e in node.children]
        else:
            inside = [describe(child) for child in node.children]
        return (node.level, node.mbr and corners(node.mbr), inside)

    return describe(tree.root)


def run_inserts(kind, dimension, boxes, max_entries):
    """Insert the boxes in order; return the layout and build counters."""
    cls = RStarTree if kind == "rstar" else RTree
    tree = cls(dimension, max_entries=max_entries)
    for payload, box in enumerate(boxes):
        tree.insert(box, payload)
    tree.check_invariants()
    return layout(tree), (tree.stats.splits, tree.stats.reinserts)


@pytest.mark.parametrize("kind", ["rtree", "rstar"])
class TestLayoutParity:
    @given(
        case=st.integers(1, 8).flatmap(
            lambda d: st.tuples(st.just(d), boxes_strategy(d, max_count=70))
        ),
        max_entries=st.sampled_from([4, 6, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_nodes_after_inserts(self, kind, case, max_entries):
        dimension, boxes = case
        with numpy_geometry():
            expected = run_inserts(kind, dimension, boxes, max_entries)
        assert run_inserts(kind, dimension, boxes, max_entries) == expected

    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8, 9])
    def test_same_nodes_on_clustered_boxes(self, kind, dimension):
        """Small boxes near each other: volumes and enlargements differ in
        the last bits only, which is where a changed operation order would
        show."""
        rng = np.random.default_rng(dimension)
        centres = rng.random((6, dimension))
        boxes = []
        for step in range(260):
            centre = centres[step % 6] + rng.normal(0.0, 0.02, dimension)
            half = rng.random(dimension) * 0.01
            boxes.append(
                MBR(np.clip(centre - half, 0, 1), np.clip(centre + half, 0, 1))
            )
        with numpy_geometry():
            expected = run_inserts(kind, dimension, boxes, 8)
        assert run_inserts(kind, dimension, boxes, 8) == expected


class TestGeometryParity:
    """Each scalar measure equals its NumPy reference bit for bit."""

    @given(
        boxes=st.integers(1, 12).flatmap(
            lambda d: st.lists(
                boxes_strategy(d, max_count=1).map(lambda b: b[0]),
                min_size=2,
                max_size=6,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_measures(self, boxes):
        a, b = boxes[0], boxes[1]
        reference = _REFERENCE_GEOMETRY
        assert a.volume() == reference["volume"](a)
        assert a.margin() == reference["margin"](a)
        assert a.enlargement(b) == reference["enlargement"](a, b)
        assert a.overlap_volume(b) == reference["overlap_volume"](a, b)
        assert a.contains(b) == reference["contains"](a, b)
        assert a.center_distance_squared(b) == reference[
            "center_distance_squared"
        ](a, b)
        assert (a == b) == reference["__eq__"](a, b)
        for ours, theirs in (
            (a.union(b), reference["union"](a, b)),
            (MBR.union_all(boxes), _reference_union_all(boxes)),
        ):
            assert ours.low_tuple == theirs.low_tuple
            assert ours.high_tuple == theirs.high_tuple
        ours, theirs = a.intersection(b), reference["intersection"](a, b)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert (ours.low_tuple, ours.high_tuple) == (
                theirs.low_tuple,
                theirs.high_tuple,
            )

    def test_derived_rectangles_hold_no_arrays_until_asked(self):
        a = MBR([0.1, 0.2], [0.3, 0.4])
        b = MBR([0.2, 0.1], [0.5, 0.3])
        union = a.union(b)
        assert union._low is None and union._high is None
        np.testing.assert_array_equal(union.low, [0.1, 0.1])
        np.testing.assert_array_equal(union.high, [0.5, 0.4])
        assert not union.low.flags.writeable
        assert union.low is union.low
