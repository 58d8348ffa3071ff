"""ST-index style 1-d subsequence matching (Faloutsos et al. — reference [5]).

The paper's own method generalises this one, so having it in-repo both
documents the lineage and provides the 1-d comparison point.  The FRM'94
pipeline:

1. A sliding window of width ``w`` runs over each data series; every window
   becomes a point whose coordinates are the first ``fc`` orthonormal-DFT
   coefficients — a *trail* in feature space.
2. Each trail is partitioned into MBRs (here with the very MCOST
   partitioner of Section 3.4.3, which the paper modified from FRM) and the
   MBRs are stored in an R-tree — the "ST-index".
3. A query of length ``l >= w`` is cut into ``p = floor(l / w)`` disjoint
   windows.  If some data subsequence matches the query within ``eps``
   (Euclidean over the full length), then at least one query window is
   within ``eps / sqrt(p)`` of its corresponding data window in feature
   space, so probing the index with the reduced radius yields candidates
   with **no false dismissals**; candidates are post-filtered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.mbr import MBR
from repro.core.partitioning import partition_sequence
from repro.core.sequence import MultidimensionalSequence
from repro.index.rtree import RTree
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.core.packed import IndexStats

__all__ = ["STIndexSubsequenceMatcher", "SubsequenceMatch", "window_features"]


def window_features(
    series: np.ndarray, window: int, n_coefficients: int
) -> np.ndarray:
    """Feature trail: orthonormal-DFT head of every sliding window.

    Returns an array of shape ``(len(series) - window + 1, 2 * fc)``; row
    ``j`` describes ``series[j : j + window]``.
    """
    series = np.asarray(series, dtype=np.float64).reshape(-1)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if n_coefficients < 1 or 2 * n_coefficients > 2 * window:
        raise ValueError(
            f"n_coefficients must be in [1, {window}], got {n_coefficients}"
        )
    if series.size < window:
        raise ValueError(
            f"series of length {series.size} shorter than window {window}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series, window)
    spectrum = np.fft.fft(windows, axis=1) / np.sqrt(window)
    head = spectrum[:, :n_coefficients]
    features = np.empty((windows.shape[0], 2 * n_coefficients))
    features[:, 0::2] = head.real
    features[:, 1::2] = head.imag
    return features


@dataclass(frozen=True)
class SubsequenceMatch:
    """One exact subsequence hit: where, and at what Euclidean distance."""

    sequence_id: object
    offset: int
    distance: float


class STIndexSubsequenceMatcher:
    """Subsequence matching for 1-d series with an ST-index.

    Parameters
    ----------
    window:
        Sliding-window width ``w``; queries must be at least this long.
    n_coefficients:
        DFT coefficients kept per window.
    max_points:
        MCOST partitioning cap for trail MBRs.
    max_entries:
        R-tree node capacity.

    Notes
    -----
    Distances are Euclidean over raw values (the FRM convention).  Data
    series may have arbitrary lengths ``>= window``.
    """

    def __init__(
        self,
        window: int = 16,
        *,
        n_coefficients: int = 2,
        max_points: int | None = 64,
        max_entries: int = 16,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.n_coefficients = n_coefficients
        self.max_points = max_points
        self._index = RTree(
            dimension=2 * n_coefficients, max_entries=max_entries
        )
        self._series: dict[object, np.ndarray] = {}
        #: per sequence: segment point-offset spans of the trail partition
        self._trail_segments: dict[object, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(
        self, series: npt.ArrayLike, sequence_id: object = None
    ) -> object:
        """Index one data series; returns its id."""
        values = np.asarray(series, dtype=np.float64).reshape(-1)
        if values.size < self.window:
            raise ValueError(
                f"series of length {values.size} shorter than window "
                f"{self.window}"
            )
        if sequence_id is None:
            sequence_id = len(self._series)
        if sequence_id in self._series:
            raise KeyError(f"sequence id {sequence_id!r} already stored")
        self._series[sequence_id] = values

        trail = window_features(values, self.window, self.n_coefficients)
        trail_sequence = MultidimensionalSequence(
            trail, validate_unit_cube=False
        )
        partition = partition_sequence(
            trail_sequence, max_points=self.max_points
        )
        spans = []
        for segment in partition:
            spans.append((segment.start, segment.stop))
            self._index.insert(segment.mbr, (sequence_id, segment.index))
        self._trail_segments[sequence_id] = spans
        return sequence_id

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, query: npt.ArrayLike, epsilon: float
    ) -> list[SubsequenceMatch]:
        """All exact subsequence matches within Euclidean ``epsilon``.

        Returns one :class:`SubsequenceMatch` per (sequence, offset) whose
        window ``series[offset : offset + len(query)]`` is within
        ``epsilon`` of the query.
        """
        epsilon = check_threshold(epsilon)
        values = np.asarray(query, dtype=np.float64).reshape(-1)
        if values.size < self.window:
            raise ValueError(
                f"query of length {values.size} shorter than window "
                f"{self.window}"
            )
        candidate_offsets = self._candidate_offsets(values, epsilon)
        matches = []
        query_length = values.size
        for sequence_id, offsets in sorted(
            candidate_offsets.items(), key=lambda kv: str(kv[0])
        ):
            series = self._series[sequence_id]
            for offset in sorted(offsets):
                if offset + query_length > series.size:
                    continue
                block = series[offset : offset + query_length]
                distance = float(np.sqrt(np.sum((block - values) ** 2)))
                if distance <= epsilon:
                    matches.append(
                        SubsequenceMatch(sequence_id, offset, distance)
                    )
        return matches

    def _candidate_offsets(
        self, values: np.ndarray, epsilon: float
    ) -> dict[object, set[int]]:
        """Index probes for the p disjoint query windows (FRM lemma)."""
        pieces = values.size // self.window
        radius = epsilon / np.sqrt(pieces)
        candidates: dict[object, set[int]] = {}
        for piece in range(pieces):
            start = piece * self.window
            feature = window_features(
                values[start : start + self.window],
                self.window,
                self.n_coefficients,
            )[0]
            probe = MBR.of_point(feature)
            for entry in self._index.search_within(probe, radius):
                sequence_id, segment_index = entry.payload
                span = self._trail_segments[sequence_id][segment_index]
                bucket = candidates.setdefault(sequence_id, set())
                for trail_offset in range(span[0], span[1]):
                    match_offset = trail_offset - start
                    if match_offset >= 0:
                        bucket.add(match_offset)
        return candidates

    @property
    def index_stats(self) -> IndexStats:
        """Access counters of the underlying R-tree."""
        return self._index.stats
