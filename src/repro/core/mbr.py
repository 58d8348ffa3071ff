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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.util.validation import check_threshold

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy.typing as npt

__all__ = ["MBR"]


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
        self._low = lo
        self._high = hi
        # Plain-float copies: Dmbr is evaluated millions of times during
        # index traversal, where scalar arithmetic beats numpy by ~10x for
        # the low dimensionalities (2-8) this library works in.
        self._low_tuple = tuple(lo.tolist())
        self._high_tuple = tuple(hi.tolist())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
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
        return cls(arr, arr.copy())

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def low(self) -> np.ndarray:
        """The low endpoint ``L`` (read-only)."""
        return self._low

    @property
    def high(self) -> np.ndarray:
        """The high endpoint ``H`` (read-only)."""
        return self._high

    @property
    def dimension(self) -> int:
        """Dimensionality ``n`` of the space."""
        return self._low.shape[0]

    @property
    def sides(self) -> np.ndarray:
        """Side lengths ``(h_k - l_k)`` per dimension (the paper's ``L_k``)."""
        return self._high - self._low

    @property
    def center(self) -> np.ndarray:
        """The geometric centre ``(L + H) / 2``."""
        return (self._low + self._high) / 2.0

    def volume(self) -> float:
        """The hyper-volume ``prod(h_k - l_k)``."""
        return float(np.prod(self.sides))

    def margin(self) -> float:
        """The margin (sum of side lengths) used by R*-tree split heuristics."""
        return float(np.sum(self.sides))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: npt.ArrayLike) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) this MBR."""
        p = np.asarray(point, dtype=np.float64)
        self._check_compatible_shape(p)
        return bool(np.all(self._low <= p) and np.all(p <= self._high))

    def contains(self, other: "MBR") -> bool:
        """Whether ``other`` is entirely inside this MBR."""
        self._check_compatible(other)
        return bool(
            np.all(self._low <= other._low) and np.all(other._high <= self._high)
        )

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
        return MBR(
            np.minimum(self._low, other._low), np.maximum(self._high, other._high)
        )

    @staticmethod
    def union_all(mbrs: Iterable["MBR"]) -> "MBR":
        """The smallest MBR covering every rectangle in a non-empty iterable."""
        items = list(mbrs)
        if not items:
            raise ValueError("union_all requires at least one MBR")
        low = np.min([m.low for m in items], axis=0)
        high = np.max([m.high for m in items], axis=0)
        return MBR(low, high)

    def extended_with_point(self, point: npt.ArrayLike) -> "MBR":
        """The smallest MBR covering this rectangle plus one extra point."""
        p = np.asarray(point, dtype=np.float64)
        self._check_compatible_shape(p)
        return MBR(np.minimum(self._low, p), np.maximum(self._high, p))

    def intersection(self, other: "MBR") -> "MBR | None":
        """The overlap rectangle, or ``None`` when disjoint."""
        self._check_compatible(other)
        low = np.maximum(self._low, other._low)
        high = np.minimum(self._high, other._high)
        if np.any(low > high):
            return None
        return MBR(low, high)

    def overlap_volume(self, other: "MBR") -> float:
        """Hyper-volume of the overlap region (0.0 when disjoint)."""
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.volume()

    def enlargement(self, other: "MBR") -> float:
        """Volume growth needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).volume() - self.volume()

    def expanded(self, epsilon: float) -> "MBR":
        """This MBR grown by ``epsilon`` on every side (Minkowski sum).

        Range queries with radius ``epsilon`` around a rectangle are
        intersection queries against the expanded rectangle only in the
        L-infinity sense; for Euclidean ``Dmbr`` filtering the expansion is a
        superset filter that is then refined with :meth:`min_distance`.
        """
        epsilon = check_threshold(epsilon)
        return MBR(self._low - epsilon, self._high + epsilon)

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
        total = 0.0
        for a_low, a_high, b_low, b_high in zip(
            self._low_tuple, self._high_tuple, other._low_tuple, other._high_tuple
        ):
            if b_low > a_high:
                gap = b_low - a_high
            elif a_low > b_high:
                gap = a_low - b_high
            else:
                continue
            total += gap * gap
        return math.sqrt(total)

    def min_distance_rows(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``Dmbr`` from this rectangle to each row of ``(lows, highs)``.

        ``lows`` / ``highs`` are ``(r, n)`` corner matrices (one partition's,
        or a whole database's segment table); the result is the ``(r,)``
        vector of :meth:`min_distance` values, computed in one pass.
        """
        # Same arithmetic as max(0, max(l - h_q, l_q - h))**2 summed per row,
        # written in place: two (r, n) temporaries instead of five.
        gaps = lows - self._high
        np.maximum(gaps, self._low - highs, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        np.multiply(gaps, gaps, out=gaps)
        distances: np.ndarray = np.sum(gaps, axis=1)
        return np.sqrt(distances, out=distances)

    def min_distance_to_point(self, point: npt.ArrayLike) -> float:
        """Minimum Euclidean distance from ``point`` to this rectangle."""
        p = np.asarray(point, dtype=np.float64)
        self._check_compatible_shape(p)
        gaps = np.maximum(0.0, np.maximum(self._low - p, p - self._high))
        return float(np.sqrt(np.sum(gaps * gaps)))

    def max_distance(self, other: "MBR") -> float:
        """Maximum Euclidean distance between any pair of points in the MBRs.

        Not used by the paper's pruning (which needs lower bounds) but
        useful for upper-bound pruning in the k-NN extension.
        """
        self._check_compatible(other)
        spans = np.maximum(
            np.abs(other._high - self._low), np.abs(self._high - other._low)
        )
        return float(np.sqrt(np.sum(spans * spans)))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(
            np.array_equal(self._low, other._low)
            and np.array_equal(self._high, other._high)
        )

    def __hash__(self) -> int:
        return hash((self._low.tobytes(), self._high.tobytes()))

    def __repr__(self) -> str:
        low = np.array2string(self._low, precision=4, separator=", ")
        high = np.array2string(self._high, precision=4, separator=", ")
        return f"MBR(low={low}, high={high})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "MBR") -> None:
        if not isinstance(other, MBR):
            raise TypeError(f"expected an MBR, got {type(other).__name__}")
        if len(other._low_tuple) != len(self._low_tuple):
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def _check_compatible_shape(self, point: np.ndarray) -> None:
        if point.shape != (self.dimension,):
            raise ValueError(
                f"expected a point of shape ({self.dimension},), got {point.shape}"
            )
