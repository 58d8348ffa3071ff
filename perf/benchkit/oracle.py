"""Correctness against the sequential-scan oracle, outside the timed phase.

Lemmas 1-3 promise no false dismissals: every sequence the exact scan
finds within the threshold must be among the answers.  Extra answers are
false hits (``Dnorm`` is a lower bound), counted but not wrong.  kNN is
exact, so its distances must equal the brute-force ones.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.baselines.sequential import SequentialScan
from repro.core import sequence_distance

#: The product treats a distance within this of the threshold as a tie it
#: may resolve either way; the oracle scans just inside it.
_BOUNDARY = 1e-9
_DISTANCE_TOLERANCE = 1e-9


@dataclass
class OracleReport:
    checks: int = 0
    wrong: int = 0
    answers: int = 0
    false_hits: int = 0

    def merge(self, other: "OracleReport") -> None:
        self.checks += other.checks
        self.wrong += other.wrong
        self.answers += other.answers
        self.false_hits += other.false_hits


def check_ranges(
    search: Callable[[np.ndarray, float], Iterable[object]],
    sequences: Mapping[object, np.ndarray],
    pairs: Iterable[tuple[np.ndarray, float]],
) -> OracleReport:
    """``search(query, eps)`` answers must contain the exact scan's."""
    scan = SequentialScan(sequences)
    report = OracleReport()
    for query, epsilon in pairs:
        answers = {str(sid) for sid in search(query, epsilon)}
        exact = {
            str(sid)
            for sid in scan.scan(
                query, epsilon * (1.0 - _BOUNDARY), find_intervals=False
            ).answers
        }
        report.checks += 1
        report.wrong += bool(exact - answers)
        report.answers += len(answers)
        report.false_hits += len(answers - exact)
    return report


def check_knn(
    knn: Callable[[np.ndarray, int], list[tuple[float, object]]],
    sequences: Mapping[object, np.ndarray],
    queries: Iterable[np.ndarray],
    k: int,
) -> OracleReport:
    """``knn(query, k)`` distances must equal the brute-force top-k."""
    report = OracleReport()
    for query in queries:
        exact = sorted(
            sequence_distance(query, points) for points in sequences.values()
        )[:k]
        found = [distance for distance, _ in knn(query, k)]
        report.checks += 1
        report.wrong += len(found) != len(exact) or not np.allclose(
            found, exact, rtol=0.0, atol=_DISTANCE_TOLERANCE
        )
    return report
