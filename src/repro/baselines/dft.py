"""DFT whole-sequence matching (Agrawal, Faloutsos & Swami — reference [1]).

The paper's related work (§2): "They introduced the Discrete Fourier
Transform (DFT) to map time sequences to the frequency domain ... Each
sequence, whose dimensionality is reduced by using DFT, is mapped to a
lower-dimensional point in the frequency domain, and is indexed and stored
using the R* tree.  This technique, however, has a restriction that a
database sequence and a query sequence should be of equal length."

This is the F-index: an *orthonormal* DFT is an isometry, so the Euclidean
distance between the first ``fc`` coefficient pairs lower-bounds the true
Euclidean distance between the series — searching the index with the query
radius yields a candidate set with no false dismissals, which is then
post-filtered exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.mbr import MBR
from repro.index.rstar import RStarTree
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.core.packed import IndexStats

__all__ = ["DftWholeMatcher", "dft_features"]


def dft_features(series: np.ndarray, n_coefficients: int) -> np.ndarray:
    """The first ``n_coefficients`` orthonormal-DFT coefficients, as reals.

    The transform is ``fft(x) / sqrt(len(x))`` (unitary convention), so by
    Parseval the feature-space distance over any coefficient subset
    lower-bounds the time-domain Euclidean distance.  Real and imaginary
    parts are interleaved into a ``2 * n_coefficients`` vector.
    """
    series = np.asarray(series, dtype=np.float64).reshape(-1)
    if n_coefficients < 1:
        raise ValueError(f"n_coefficients must be >= 1, got {n_coefficients}")
    if series.size < n_coefficients:
        raise ValueError(
            f"series of length {series.size} has fewer than "
            f"{n_coefficients} coefficients"
        )
    spectrum = np.fft.fft(series) / np.sqrt(series.size)
    head = spectrum[:n_coefficients]
    features = np.empty(2 * n_coefficients)
    features[0::2] = head.real
    features[1::2] = head.imag
    return features


class DftWholeMatcher:
    """Whole-sequence matching of equal-length 1-d series via an F-index.

    Parameters
    ----------
    length:
        The common length of every stored and query series (the method's
        defining restriction).
    n_coefficients:
        DFT coefficients kept per series (feature dimension is twice this).
    max_entries:
        Node capacity of the underlying R*-tree.

    Notes
    -----
    Distances are plain Euclidean over the series values (the Agrawal et
    al. convention), not the paper's ``Dmean``; divide thresholds by
    ``sqrt(length)`` to translate between the two.
    """

    def __init__(
        self, length: int, *, n_coefficients: int = 3, max_entries: int = 16
    ) -> None:
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        if n_coefficients < 1 or n_coefficients > length:
            raise ValueError(
                f"n_coefficients must be in [1, {length}], got {n_coefficients}"
            )
        self.length = length
        self.n_coefficients = n_coefficients
        self._index = RStarTree(
            dimension=2 * n_coefficients, max_entries=max_entries
        )
        self._series: dict[object, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._series)

    def add(
        self, series: npt.ArrayLike, sequence_id: object = None
    ) -> object:
        """Index one series of the configured length; returns its id."""
        values = np.asarray(series, dtype=np.float64).reshape(-1)
        if values.size != self.length:
            raise ValueError(
                f"series length {values.size} != configured length "
                f"{self.length}"
            )
        if sequence_id is None:
            sequence_id = len(self._series)
        if sequence_id in self._series:
            raise KeyError(f"sequence id {sequence_id!r} already stored")
        self._series[sequence_id] = values
        features = dft_features(values, self.n_coefficients)
        self._index.insert(MBR.of_point(features), sequence_id)
        return sequence_id

    def candidates(self, query: npt.ArrayLike, epsilon: float) -> set:
        """The index pre-filter: ids within ``epsilon`` in feature space.

        Guaranteed to be a superset of the true answers (lower-bounding
        feature distance), so the only errors are false positives.
        """
        epsilon = check_threshold(epsilon)
        values = np.asarray(query, dtype=np.float64).reshape(-1)
        if values.size != self.length:
            raise ValueError(
                f"query length {values.size} != configured length "
                f"{self.length}"
            )
        features = dft_features(values, self.n_coefficients)
        hits = self._index.search_within(MBR.of_point(features), epsilon)
        return {entry.payload for entry in hits}

    def search(self, query: npt.ArrayLike, epsilon: float) -> set:
        """Exact whole-matching: candidates post-filtered in the time domain."""
        epsilon = check_threshold(epsilon)
        values = np.asarray(query, dtype=np.float64).reshape(-1)
        answers = set()
        for sequence_id in self.candidates(values, epsilon):
            stored = self._series[sequence_id]
            if float(np.sqrt(np.sum((stored - values) ** 2))) <= epsilon:
                answers.add(sequence_id)
        return answers

    @property
    def index_stats(self) -> IndexStats:
        """Access counters of the underlying R*-tree."""
        return self._index.stats
