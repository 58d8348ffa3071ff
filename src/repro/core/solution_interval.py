"""Solution intervals (Definition 6 and Section 3.3).

Given a query ``Q`` of ``k`` points, the *solution interval* of a data
sequence ``S`` is the set of points contained in some length-``k`` window of
``S`` whose ``Dmean`` to ``Q`` is within the threshold — i.e. exactly the
sub-streams one would play back after a video search.  The sequential scan
computes it exactly; the paper approximates it by the points participating
in every sub-threshold ``Dnorm`` computation (Example 3), trading a small
recall loss (measured at >= 98%) for a large scan reduction.

Because solution intervals are unions of contiguous point runs, they are
represented here as a canonical :class:`IntervalSet`: sorted, disjoint,
non-adjacent half-open ``[start, stop)`` integer intervals supporting the
set algebra the metrics need (union, intersection size, membership).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.contracts import ContractViolation, lower_bounds
from repro.util.checks import CONTRACTS

__all__ = ["IntervalSet"]

_Spans = list[tuple[int, int]]


def _check_canonical(label: str, intervals: _Spans) -> None:
    """Canonical form: sorted, non-empty, disjoint and non-adjacent."""
    previous_stop: int | None = None
    for start, stop in intervals:
        if stop <= start:
            raise ContractViolation(
                f"{label}: empty interval [{start}, {stop}) in canonical form"
            )
        if previous_stop is not None and start <= previous_stop:
            raise ContractViolation(
                f"{label}: interval [{start}, {stop}) overlaps or touches "
                f"its predecessor (stop {previous_stop}) — canonical form "
                f"broken"
            )
        previous_stop = stop


def _covered_by(start: int, stop: int, intervals: _Spans) -> bool:
    """Whether ``[start, stop)`` lies inside one interval of the list."""
    return any(a <= start and stop <= b for a, b in intervals)


def _disjoint_from(start: int, stop: int, intervals: _Spans) -> bool:
    return all(stop <= a or b <= start for a, b in intervals)


def _validate_union(
    result: "IntervalSet", left: "IntervalSet", right: "IntervalSet"
) -> None:
    _check_canonical("union", result._intervals)
    for start, stop in left._intervals + right._intervals:
        if not _covered_by(start, stop, result._intervals):
            raise ContractViolation(
                f"union lost the input interval [{start}, {stop})"
            )
    if len(result) > len(left) + len(right):
        raise ContractViolation(
            f"union size {len(result)} exceeds |A| + |B| = "
            f"{len(left) + len(right)}"
        )


def _validate_intersection(
    result: "IntervalSet", left: "IntervalSet", right: "IntervalSet"
) -> None:
    _check_canonical("intersection", result._intervals)
    for start, stop in result._intervals:
        if not _covered_by(start, stop, left._intervals) or not _covered_by(
            start, stop, right._intervals
        ):
            raise ContractViolation(
                f"intersection produced [{start}, {stop}) outside an input"
            )
    if len(result) > min(len(left), len(right)):
        raise ContractViolation(
            f"intersection size {len(result)} exceeds min(|A|, |B|) = "
            f"{min(len(left), len(right))}"
        )


def _validate_difference(
    result: "IntervalSet", left: "IntervalSet", right: "IntervalSet"
) -> None:
    _check_canonical("difference", result._intervals)
    for start, stop in result._intervals:
        if not _covered_by(start, stop, left._intervals):
            raise ContractViolation(
                f"difference produced [{start}, {stop}) outside the left set"
            )
        if not _disjoint_from(start, stop, right._intervals):
            raise ContractViolation(
                f"difference kept [{start}, {stop}) overlapping the "
                f"subtracted set"
            )


class IntervalSet:
    """A set of non-negative integers stored as disjoint half-open intervals.

    The canonical form keeps intervals sorted, non-overlapping and
    non-adjacent, so equality, size and iteration are all well-defined and
    cheap.

    Examples
    --------
    >>> si = IntervalSet([(0, 4), (2, 6)])
    >>> si.intervals
    [(0, 6)]
    >>> len(si)
    6
    >>> 5 in si, 6 in si
    (True, False)
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        cleaned = []
        for start, stop in intervals:
            start = int(start)
            stop = int(stop)
            if start < 0:
                raise ValueError(f"interval start must be >= 0, got {start}")
            if stop <= start:
                continue  # empty interval
            cleaned.append((start, stop))
        self._intervals = self._normalise(cleaned)

    @staticmethod
    def _normalise(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
        if not intervals:
            return []
        ordered = sorted(intervals)
        merged = [ordered[0]]
        for start, stop in ordered[1:]:
            last_start, last_stop = merged[-1]
            if start <= last_stop:  # overlapping or adjacent: coalesce
                merged[-1] = (last_start, max(last_stop, stop))
            else:
                merged.append((start, stop))
        return merged

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[int]) -> "IntervalSet":
        """Build from individual point offsets (runs are coalesced)."""
        return cls((int(p), int(p) + 1) for p in points)

    @classmethod
    def _of_canonical(cls, intervals: _Spans) -> "IntervalSet":
        """Wrap spans that are already canonical, without re-normalising.

        For a producer that sorted and merged its spans itself (Phase 3's
        :func:`~repro.core.distance.union_spans`); the spans must be
        ``int`` pairs.  The ``contracts`` check verifies the form.
        """
        if CONTRACTS.on:
            _check_canonical("canonical spans", intervals)
        result = cls.__new__(cls)
        result._intervals = intervals
        return result

    @classmethod
    def full(cls, length: int) -> "IntervalSet":
        """The complete interval ``[0, length)``."""
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        return cls([(0, length)] if length else [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> list[tuple[int, int]]:
        """The canonical sorted disjoint ``[start, stop)`` intervals."""
        return list(self._intervals)

    def __len__(self) -> int:
        return sum(stop - start for start, stop in self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __iter__(self) -> Iterator[int]:
        for start, stop in self._intervals:
            yield from range(start, stop)

    def __contains__(self, point: int) -> bool:
        point = int(point)
        for start, stop in self._intervals:
            if start <= point < stop:
                return True
            if start > point:
                return False
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(self._intervals))

    def __repr__(self) -> str:
        spans = ", ".join(f"[{a}, {b})" for a, b in self._intervals)
        return f"IntervalSet({spans})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    @lower_bounds(_validate_union, label="interval union invariants")
    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The union of the two point sets."""
        return IntervalSet(self._intervals + other._intervals)

    __or__ = union

    def add(self, start: int, stop: int) -> "IntervalSet":
        """This set plus one extra ``[start, stop)`` interval."""
        return IntervalSet(self._intervals + [(int(start), int(stop))])

    @lower_bounds(
        _validate_intersection, label="interval intersection invariants"
    )
    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """The intersection of the two point sets (two-pointer sweep)."""
        result = []
        mine = self._intervals
        theirs = other._intervals
        i = j = 0
        while i < len(mine) and j < len(theirs):
            lo = max(mine[i][0], theirs[j][0])
            hi = min(mine[i][1], theirs[j][1])
            if lo < hi:
                result.append((lo, hi))
            if mine[i][1] <= theirs[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    __and__ = intersection

    def intersection_size(self, other: "IntervalSet") -> int:
        """``len(self & other)`` without materialising the intervals twice."""
        return len(self.intersection(other))

    @lower_bounds(_validate_difference, label="interval difference invariants")
    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Points of this set not in ``other``."""
        result = []
        theirs = other._intervals
        for start, stop in self._intervals:
            cursor = start
            for t_start, t_stop in theirs:
                if t_stop <= cursor:
                    continue
                if t_start >= stop:
                    break
                if t_start > cursor:
                    result.append((cursor, min(t_start, stop)))
                cursor = max(cursor, t_stop)
                if cursor >= stop:
                    break
            if cursor < stop:
                result.append((cursor, stop))
        return IntervalSet(result)

    __sub__ = difference

    def issubset(self, other: "IntervalSet") -> bool:
        """Whether every point of this set lies in ``other``."""
        return len(self - other) == 0

    def coverage(self, length: int) -> float:
        """Fraction of ``[0, length)`` covered by this set."""
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        return len(self) / length
