"""Minimum bounding rectangles (hyper-rectangles) and their geometry.

An MBR ``M = (L, H)`` in the n-dimensional Euclidean space is represented by
the two endpoints of its major diagonal: the low point ``L = (l1, ..., ln)``
and the high point ``H = (h1, ..., hn)`` with ``l_k <= h_k`` for every
dimension (the representation of Definition 4 in the paper, after [11]).

The central operation is :meth:`MBR.min_distance` — the paper's ``Dmbr``
(Definition 4): the minimum Euclidean distance between two hyper-rectangles,
computed per dimension as the gap between the rectangles' projections (zero
when the projections overlap).  Figure 2 of the paper illustrates the three
2-d cases: overlapping rectangles (distance 0), rectangles separated along
one axis, and rectangles separated along both axes (corner-to-corner).

The module also provides the geometric predicates and measures needed by the
R-tree substrate (volume, margin, enlargement, overlap) and by partitioning.

All rectangle-to-rectangle geometry runs on plain Python floats (the
``low_tuple`` / ``high_tuple`` corners): index maintenance evaluates it
millions of times on 2-8 numbers, where scalar arithmetic beats NumPy by
an order of magnitude.  The results are bit-identical to the NumPy
formulation — ``min``/``max`` are exact, products run left to right exactly
as ``np.prod`` does, and sums follow ``np.sum``'s pairwise order
(:func:`_numpy_order_sum`) — so tree layouts do not depend on which one
computed them.  The ``low`` / ``high`` ndarrays exist for the vectorised
row kernels and are built on first access only.

``Dmbr`` has three bodies — the scalar :meth:`MBR.min_distance`, the
row-major :func:`dmbr_rows` (one rectangle against the rows of a matrix:
:meth:`~repro.core.partitioning.PartitionedSequence.mbr_distance_row`) and
the column-major :func:`dmbr_columns` (one contiguous array per dimension:
Phase 2, Phase 3's block and the k-NN bounds) — and all three add the
squared gaps in that same ``np.sum`` order, so a threshold test gives one
verdict whichever of them evaluates it, in every dimension.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.util.budget import checkpoint
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy.typing as npt

__all__ = [
    "BROADCAST_CELLS",
    "MBR",
    "dmbr_columns",
    "dmbr_rows",
    "min_dmbr_columns",
]

#: Cells of one broadcast block of a column-major ``Dmbr`` pass (8 MB of
#: float64): the temporaries stay bounded and a cancellation checkpoint
#: falls between blocks.
BROADCAST_CELLS = 1 << 20

_Addend = TypeVar("_Addend", float, np.ndarray)


def _numpy_order_sum(values: list[_Addend]) -> _Addend:
    """Sum floats in the order ``np.sum`` adds a contiguous float64 array.

    NumPy sums fewer than 8 elements left to right and longer runs
    pairwise (eight running accumulators per block of at most 128, blocks
    halved recursively); reproducing that order keeps ``margin``, ``Dmbr``
    and the centre distances bit-identical to the ndarray formulation in
    every dimension, not just below 8.

    The values may as well be equal-shaped arrays, one per dimension
    (:func:`dmbr_columns`); a short run is then accumulated into its first
    array, which the caller must own.
    """
    size = len(values)
    if size < 8:
        total = values[0]
        for value in values[1:]:
            total += value
        return total
    if size > 128:
        half = size // 2
        half -= half % 8
        return _numpy_order_sum(values[:half]) + _numpy_order_sum(values[half:])
    lanes = values[:8]
    blocked = size - size % 8
    for start in range(8, blocked, 8):
        lanes = [lane + value for lane, value in zip(lanes, values[start:])]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for value in values[blocked:]:
        total += value
    return total


class MBR:
    """An n-dimensional minimum bounding rectangle ``(L, H)``.

    Parameters
    ----------
    low:
        The low endpoint ``L`` of the major diagonal, shape ``(n,)``.
    high:
        The high endpoint ``H``; must satisfy ``low <= high`` element-wise.

    Examples
    --------
    >>> import numpy as np
    >>> a = MBR([0.0, 0.0], [0.2, 0.2])
    >>> b = MBR([0.5, 0.0], [0.7, 0.2])
    >>> round(a.min_distance(b), 3)       # separated along the x axis only
    0.3
    """

    __slots__ = ("_low", "_high", "_low_tuple", "_high_tuple")

    def __init__(self, low: npt.ArrayLike, high: npt.ArrayLike) -> None:
        lo = np.atleast_1d(np.array(low, dtype=np.float64))
        hi = np.atleast_1d(np.array(high, dtype=np.float64))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(
                f"low/high must be 1-d arrays of equal shape, got {lo.shape} "
                f"and {hi.shape}"
            )
        if lo.size == 0:
            raise ValueError("an MBR must have dimension >= 1")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("MBR endpoints must be finite")
        if np.any(lo > hi):
            raise ValueError(f"low must be <= high element-wise: {lo} vs {hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self._low: np.ndarray | None = lo
        self._high: np.ndarray | None = hi
        self._low_tuple: tuple[float, ...] = tuple(lo.tolist())
        self._high_tuple: tuple[float, ...] = tuple(hi.tolist())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls, low: tuple[float, ...], high: tuple[float, ...]
    ) -> "MBR":
        """An MBR over corners the caller guarantees are valid; no checks.

        Contract: ``low`` and ``high`` are tuples of Python floats, of
        equal non-zero length, every value finite, ``low[k] <= high[k]``.
        That holds by construction for anything derived from valid
        rectangles or validated points with ``min`` / ``max`` (unions,
        intersections, the partitioner's running corners), which is what
        this constructor is for; it keeps the tuples by reference and
        builds no ndarray.  Input from outside the library goes through
        ``MBR(low, high)``.
        """
        mbr = object.__new__(cls)
        mbr._low = None
        mbr._high = None
        mbr._low_tuple = low
        mbr._high_tuple = high
        return mbr

    @classmethod
    def of_points(cls, points: npt.ArrayLike) -> "MBR":
        """The tightest MBR enclosing a non-empty ``(m, n)`` point array."""
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(
                f"points must be a non-empty (m, n) array, got shape {arr.shape}"
            )
        return cls(arr.min(axis=0), arr.max(axis=0))

    @classmethod
    def of_point(cls, point: npt.ArrayLike) -> "MBR":
        """The degenerate MBR of a single point (``L == H``)."""
        arr = np.atleast_1d(np.asarray(point, dtype=np.float64))
        return cls(arr, arr)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def low_tuple(self) -> tuple[float, ...]:
        """The low endpoint ``L`` as plain Python floats."""
        return self._low_tuple

    @property
    def high_tuple(self) -> tuple[float, ...]:
        """The high endpoint ``H`` as plain Python floats."""
        return self._high_tuple

    @property
    def low(self) -> np.ndarray:
        """The low endpoint ``L`` as an ndarray (read-only, built once)."""
        low = self._low
        if low is None:
            low = self._low = _frozen_vector(self._low_tuple)
        return low

    @property
    def high(self) -> np.ndarray:
        """The high endpoint ``H`` as an ndarray (read-only, built once)."""
        high = self._high
        if high is None:
            high = self._high = _frozen_vector(self._high_tuple)
        return high

    @property
    def dimension(self) -> int:
        """Dimensionality ``n`` of the space."""
        return len(self._low_tuple)

    @property
    def sides(self) -> np.ndarray:
        """Side lengths ``(h_k - l_k)`` per dimension (the paper's ``L_k``)."""
        return np.array(self._side_list(), dtype=np.float64)

    @property
    def center(self) -> np.ndarray:
        """The geometric centre ``(L + H) / 2``."""
        return np.array(self._center_list(), dtype=np.float64)

    def volume(self) -> float:
        """The hyper-volume ``prod(h_k - l_k)``."""
        product = 1.0
        for low, high in zip(self._low_tuple, self._high_tuple):
            product *= high - low
        return product

    def margin(self) -> float:
        """The margin (sum of side lengths) used by R*-tree split heuristics."""
        return _numpy_order_sum(self._side_list())

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: npt.ArrayLike) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) this MBR."""
        for low, high, value in zip(
            self._low_tuple, self._high_tuple, self._point_list(point)
        ):
            if not low <= value <= high:
                return False
        return True

    def contains(self, other: "MBR") -> bool:
        """Whether ``other`` is entirely inside this MBR."""
        self._check_compatible(other)
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            if b_low < a_low or b_high > a_high:
                return False
        return True

    def intersects(self, other: "MBR") -> bool:
        """Whether the two rectangles share at least a boundary point."""
        self._check_compatible(other)
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            if b_low > a_high or a_low > b_high:
                return False
        return True

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """The smallest MBR covering both rectangles."""
        self._check_compatible(other)
        return MBR._trusted(
            tuple(map(min, self._low_tuple, other._low_tuple)),
            tuple(map(max, self._high_tuple, other._high_tuple)),
        )

    @staticmethod
    def union_all(mbrs: Iterable["MBR"]) -> "MBR":
        """The smallest MBR covering every rectangle in a non-empty iterable."""
        items = list(mbrs)
        if not items:
            raise ValueError("union_all requires at least one MBR")
        if len(items) == 1:
            return items[0]
        dimension = len(items[0]._low_tuple)
        for item in items:
            if len(item._low_tuple) != dimension:
                raise ValueError(
                    f"dimension mismatch: {dimension} vs {item.dimension}"
                )
        return MBR._trusted(
            tuple(map(min, zip(*[item._low_tuple for item in items]))),
            tuple(map(max, zip(*[item._high_tuple for item in items]))),
        )

    def extended_with_point(self, point: npt.ArrayLike) -> "MBR":
        """The smallest MBR covering this rectangle plus one extra point."""
        values = self._point_list(point)
        if not all(map(math.isfinite, values)):
            raise ValueError("MBR endpoints must be finite")
        return MBR._trusted(
            tuple(map(min, self._low_tuple, values)),
            tuple(map(max, self._high_tuple, values)),
        )

    def intersection(self, other: "MBR") -> "MBR | None":
        """The overlap rectangle, or ``None`` when disjoint."""
        self._check_compatible(other)
        low = tuple(map(max, self._low_tuple, other._low_tuple))
        high = tuple(map(min, self._high_tuple, other._high_tuple))
        for low_k, high_k in zip(low, high):
            if low_k > high_k:
                return None
        return MBR._trusted(low, high)

    def overlap_volume(self, other: "MBR") -> float:
        """Hyper-volume of the overlap region (0.0 when disjoint)."""
        self._check_compatible(other)
        product = 1.0
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            low = a_low if a_low > b_low else b_low
            high = a_high if a_high < b_high else b_high
            if low > high:
                return 0.0
            product *= high - low
        return product

    def enlargement(self, other: "MBR") -> float:
        """Volume growth needed to absorb ``other`` (Guttman's criterion)."""
        self._check_compatible(other)
        grown = 1.0
        own = 1.0
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            own *= a_high - a_low
            grown *= (a_high if a_high > b_high else b_high) - (
                a_low if a_low < b_low else b_low
            )
        return grown - own

    def expanded(self, epsilon: float) -> "MBR":
        """This MBR grown by ``epsilon`` on every side (Minkowski sum).

        Range queries with radius ``epsilon`` around a rectangle are
        intersection queries against the expanded rectangle only in the
        L-infinity sense; for Euclidean ``Dmbr`` filtering the expansion is a
        superset filter that is then refined with :meth:`min_distance`.
        """
        epsilon = check_threshold(epsilon)
        return MBR._trusted(
            tuple(low - epsilon for low in self._low_tuple),
            tuple(high + epsilon for high in self._high_tuple),
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_distance(self, other: "MBR") -> float:
        """The paper's ``Dmbr`` (Definition 4).

        Per dimension ``k`` the contribution is::

            x_k = l_Bk - h_Ak   if l_Bk > h_Ak     (B entirely to the right)
                  l_Ak - h_Bk   if l_Ak > h_Bk     (B entirely to the left)
                  0             otherwise           (projections overlap)

        and ``Dmbr = sqrt(sum x_k^2)``.  It is the minimum Euclidean distance
        between any pair of points, one in each rectangle (Observation 1),
        and therefore a lower bound of every pointwise distance.
        """
        self._check_compatible(other)
        return self.min_distance_unchecked(other)

    def min_distance_unchecked(self, other: "MBR") -> float:
        """:meth:`min_distance` without checking ``other``.

        For a caller that has already established that ``other`` is an MBR
        of this dimension — the index probe validates its query once, not
        once per node entry.
        """
        corners = zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        )
        if len(self._low_tuple) >= 8:
            gaps = [max(bl - ah, al - bh, 0.0) for al, ah, bl, bh in corners]
            return math.sqrt(_numpy_order_sum([gap * gap for gap in gaps]))
        # np.sum adds fewer than 8 terms left to right, where skipping a
        # zero gap changes no partial sum.
        total = 0.0
        for a_low, a_high, b_low, b_high in corners:
            if b_low > a_high:
                gap = b_low - a_high
            elif a_low > b_high:
                gap = a_low - b_high
            else:
                continue
            total += gap * gap
        return math.sqrt(total)

    def min_distance_rows(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """:func:`dmbr_rows` from this rectangle: the ``(r,)`` vector of
        :meth:`min_distance` values to the rows of ``(lows, highs)``."""
        return dmbr_rows(self.low, self.high, lows, highs)

    def min_distance_to_point(self, point: npt.ArrayLike) -> float:
        """Minimum Euclidean distance from ``point`` to this rectangle."""
        squares = []
        for low, high, value in zip(
            self._low_tuple, self._high_tuple, self._point_list(point)
        ):
            gap = max(0.0, low - value, value - high)
            squares.append(gap * gap)
        return math.sqrt(_numpy_order_sum(squares))

    def max_distance(self, other: "MBR") -> float:
        """Maximum Euclidean distance between any pair of points in the MBRs.

        Not used by the paper's pruning (which needs lower bounds) but
        useful for upper-bound pruning in the k-NN extension.
        """
        self._check_compatible(other)
        squares = []
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            span = max(abs(b_high - a_low), abs(a_high - b_low))
            squares.append(span * span)
        return math.sqrt(_numpy_order_sum(squares))

    def center_distance_squared(self, other: "MBR") -> float:
        """Squared Euclidean distance between the two rectangles' centres.

        The R*-tree's forced reinsert orders a node's children by it.
        """
        self._check_compatible(other)
        squares = []
        for mine, theirs in zip(self._center_list(), other._center_list()):
            gap = mine - theirs
            squares.append(gap * gap)
        return _numpy_order_sum(squares)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return (
            self._low_tuple == other._low_tuple
            and self._high_tuple == other._high_tuple
        )

    def __hash__(self) -> int:
        return hash((self._low_tuple, self._high_tuple))

    def __repr__(self) -> str:
        low = np.array2string(self.low, precision=4, separator=", ")
        high = np.array2string(self.high, precision=4, separator=", ")
        return f"MBR(low={low}, high={high})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _side_list(self) -> list[float]:
        return [
            high - low for low, high in zip(self._low_tuple, self._high_tuple)
        ]

    def _center_list(self) -> list[float]:
        return [
            (low + high) / 2.0
            for low, high in zip(self._low_tuple, self._high_tuple)
        ]

    def _point_list(self, point: npt.ArrayLike) -> list[float]:
        """``point`` as floats, after checking it has this MBR's shape."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dimension,):
            raise ValueError(
                f"expected a point of shape ({self.dimension},), got {p.shape}"
            )
        values: list[float] = p.tolist()
        return values

    def _check_compatible(self, other: "MBR") -> None:
        if not isinstance(other, MBR):
            raise TypeError(f"expected an MBR, got {type(other).__name__}")
        if len(other._low_tuple) != len(self._low_tuple):
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )


def _frozen_vector(values: tuple[float, ...]) -> np.ndarray:
    vector = np.array(values, dtype=np.float64)
    vector.setflags(write=False)
    return vector


def dmbr_rows(
    low: np.ndarray, high: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """``Dmbr`` between ``(low, high)`` and each row of ``(lows, highs)``.

    ``lows`` / ``highs`` are ``(r, n)`` corner matrices (one partition's,
    rows of a database's segment table); ``(low, high)`` is one rectangle
    (``(n,)`` corners).  Entry ``t`` of the result is the
    :meth:`MBR.min_distance` of row ``t``, all in one pass, to the bit:
    ``np.sum`` along a row is the order the scalar method and
    :func:`dmbr_columns` reproduce.
    """
    # Same arithmetic as max(0, max(l - h_q, l_q - h))**2 summed per row,
    # written in place: two (r, n) temporaries instead of five.
    gaps = lows - high
    np.maximum(gaps, low - highs, out=gaps)
    np.maximum(gaps, 0.0, out=gaps)
    np.multiply(gaps, gaps, out=gaps)
    distances: np.ndarray = np.sum(gaps, axis=1)
    return np.sqrt(distances, out=distances)


def dmbr_columns(
    lows: np.ndarray,
    highs: np.ndarray,
    low_columns: np.ndarray,
    high_columns: np.ndarray,
) -> np.ndarray:
    """``Dmbr`` between probe rectangles and rectangles stored by column.

    ``lows`` / ``highs`` are the ``(p, n)`` corners of ``p`` probes.  The
    stored rectangles come one array per dimension — ``low_columns[k]`` is
    coordinate ``k`` of every low corner — in either of two shapes:

    * ``(n, s)``: every probe against each of ``s`` rectangles; the result
      is the ``(p, s)`` distance matrix (a flat scan);
    * ``(n, p, f)``: probe ``i`` against its own ``f`` rectangles — the
      children of the node a descent paired it with; the result is
      ``(p, f)``.

    Each dimension is one pass over contiguous memory, which is what makes
    this several times faster than :func:`dmbr_rows` on the same corners,
    and the squared gaps are added in ``np.sum``'s order, so the two agree
    to the bit.  An *empty* rectangle (``low = +inf``, ``high = -inf``: the
    padding of a packed level) is at distance ``inf`` from every probe.
    """
    squares = []
    for k in range(lows.shape[1]):
        gaps = low_columns[k] - highs[:, k, None]
        np.maximum(gaps, lows[:, k, None] - high_columns[k], out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        squares.append(np.multiply(gaps, gaps, out=gaps))
    distances: np.ndarray = _numpy_order_sum(squares)
    return np.sqrt(distances, out=distances)


def min_dmbr_columns(
    lows: np.ndarray,
    highs: np.ndarray,
    low_columns: np.ndarray,
    high_columns: np.ndarray,
    *,
    axis: int,
    site: str,
) -> np.ndarray:
    """The least ``Dmbr`` of a flat :func:`dmbr_columns` scan, per stored
    rectangle over the probes (``axis=0``) or per probe over the stored
    rectangles (``axis=1``).

    The probes are taken in blocks of :data:`BROADCAST_CELLS` matrix
    cells, with one cancellation ``checkpoint(site)`` per block.
    """
    probes, stored = len(lows), low_columns.shape[1]
    nearest = np.full(stored if axis == 0 else probes, np.inf)
    step = max(1, BROADCAST_CELLS // max(1, stored))
    for start in range(0, probes, step):
        checkpoint(site)
        block = slice(start, start + step)
        distances = dmbr_columns(lows[block], highs[block], low_columns, high_columns)
        if axis == 0:
            np.minimum(nearest, distances.min(axis=0), out=nearest)
        else:
            nearest[block] = distances.min(axis=1, initial=np.inf)
    return nearest
