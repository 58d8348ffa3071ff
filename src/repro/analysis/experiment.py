"""The experiment harness: Table 2's parameter grid and Figures 6-10.

The paper's protocol (Section 4):

* two corpora — 1600 synthetic (fractal) and 1408 video sequences — of
  arbitrary lengths 56-512, all 3-dimensional;
* thresholds 0.05 to 0.50 in steps of 0.05 ("enough coverage for the low
  and high selectivity in the [0,1)^3 cube");
* 20 randomly selected queries per threshold, metrics averaged.

:class:`ExperimentConfig` captures the grid (with ``paper_synthetic`` /
``paper_video`` presets and scaled-down smoke variants);
:class:`ExperimentRunner` executes it, producing one
:class:`ThresholdMetrics` row per threshold — the exact series plotted in
Figures 6-10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.analysis.metrics import (
    pruning_rate,
    recall,
    response_time_ratio,
    solution_interval_pruning_rate,
)
from repro.baselines.sequential import SequentialScan
from repro.core.database import SequenceDatabase
from repro.core.search import SimilaritySearch
from repro.core.sequence import MultidimensionalSequence
from repro.core.solution_interval import IntervalSet
from repro.datagen.fractal import generate_fractal_corpus
from repro.datagen.queries import generate_queries
from repro.datagen.video import generate_video_corpus
from repro.util.rng import ensure_rng
from repro.util.validation import check_threshold

__all__ = ["ExperimentConfig", "ExperimentRunner", "QueryMetrics", "ThresholdMetrics"]

#: Table 2's threshold grid: 0.05 through 0.50.
PAPER_THRESHOLDS = tuple(round(0.05 * i, 2) for i in range(1, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameter set (Table 2 + partitioning knobs)."""

    dataset: str = "fractal"  # "fractal" or "video"
    n_sequences: int = 1600
    length_range: tuple[int, int] = (56, 512)
    dimension: int = 3
    thresholds: tuple[float, ...] = PAPER_THRESHOLDS
    queries_per_threshold: int = 20
    query_length_range: tuple[int, int] = (32, 128)
    query_noise: float = 0.01
    cost_constant: float = 0.3
    max_points: int | None = 64
    seed: int = 2000

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_synthetic(cls, **overrides: object) -> "ExperimentConfig":
        """Table 2's synthetic column: 1600 fractal sequences."""
        return replace(cls(dataset="fractal", n_sequences=1600), **overrides)

    @classmethod
    def paper_video(cls, **overrides: object) -> "ExperimentConfig":
        """Table 2's video column: 1408 streams."""
        return replace(
            cls(dataset="video", n_sequences=1408, seed=2001), **overrides
        )

    @classmethod
    def smoke_synthetic(cls, **overrides: object) -> "ExperimentConfig":
        """A fast, shape-preserving scale-down for CI-sized runs."""
        return replace(
            cls(
                dataset="fractal",
                n_sequences=200,
                queries_per_threshold=5,
                thresholds=(0.05, 0.15, 0.30, 0.50),
            ),
            **overrides,
        )

    @classmethod
    def smoke_video(cls, **overrides: object) -> "ExperimentConfig":
        """The video counterpart of :meth:`smoke_synthetic`."""
        return replace(
            cls(
                dataset="video",
                n_sequences=200,
                queries_per_threshold=5,
                thresholds=(0.05, 0.15, 0.30, 0.50),
                seed=2001,
            ),
            **overrides,
        )

    def validate(self) -> None:
        if self.dataset not in ("fractal", "video"):
            raise ValueError(f"unknown dataset kind {self.dataset!r}")
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        if self.queries_per_threshold < 1:
            raise ValueError("queries_per_threshold must be >= 1")
        if not self.thresholds:
            raise ValueError("at least one threshold is required")
        if any(t < 0 for t in self.thresholds):
            raise ValueError("thresholds must be >= 0")


@dataclass(frozen=True)
class QueryMetrics:
    """Per-query raw measurements (aggregated into ThresholdMetrics)."""

    epsilon: float
    n_relevant: int
    n_candidates: int
    n_answers: int
    pr_dmbr: float
    pr_dnorm: float
    answer_recall: float
    si_total_points: int
    si_candidate_points: int
    si_exact_points: int
    si_covered_points: int
    method_seconds: float
    scan_seconds: float


@dataclass(frozen=True)
class ThresholdMetrics:
    """One row of the Figures 6-10 series: averages at one threshold."""

    epsilon: float
    queries: int
    pr_dmbr: float
    pr_dnorm: float
    answer_recall: float
    si_pruning: float
    si_recall: float
    response_ratio: float
    mean_relevant: float
    mean_candidates: float
    mean_answers: float
    method_seconds: float
    scan_seconds: float


class ExperimentRunner:
    """Builds a corpus once and sweeps the threshold grid over it.

    Parameters
    ----------
    config:
        The experiment grid.
    corpus:
        Optional pre-built corpus (list of sequences); generated from the
        config's dataset kind when omitted.

    Examples
    --------
    >>> config = ExperimentConfig.smoke_synthetic(n_sequences=50)
    >>> runner = ExperimentRunner(config)
    >>> rows = runner.run()
    >>> len(rows) == len(config.thresholds)
    True
    """

    def __init__(
        self,
        config: ExperimentConfig,
        corpus: list[MultidimensionalSequence] | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self.corpus = corpus if corpus is not None else self._build_corpus()
        self.database = SequenceDatabase(
            dimension=config.dimension,
            cost_constant=config.cost_constant,
            max_points=config.max_points,
        )
        for sequence in self.corpus:
            self.database.add(sequence)
        # Pre-processing (§3.4.1) ends with the index built, so that no
        # timed query derives it.
        _ = self.database.index
        self.engine = SimilaritySearch(self.database)
        self.scanner = SequentialScan.from_database(self.database)

    def _build_corpus(self) -> list[MultidimensionalSequence]:
        config = self.config
        if config.dataset == "video":
            return generate_video_corpus(
                config.n_sequences,
                length_range=config.length_range,
                seed=config.seed,
            )
        return generate_fractal_corpus(
            config.n_sequences,
            dimension=config.dimension,
            length_range=config.length_range,
            seed=config.seed,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *, verbose: bool = False) -> list[ThresholdMetrics]:
        """Sweep every configured threshold with fresh random queries."""
        rows = []
        for ordinal, epsilon in enumerate(self.config.thresholds):
            row = self.run_threshold(epsilon, query_seed_offset=ordinal)
            rows.append(row)
            if verbose:
                print(
                    f"eps={row.epsilon:.2f}  PR_mbr={row.pr_dmbr:.3f}  "
                    f"PR_norm={row.pr_dnorm:.3f}  SI={row.si_pruning:.3f}  "
                    f"recall={row.si_recall:.3f}  ratio={row.response_ratio:.1f}"
                )
        return rows

    def run_threshold(
        self, epsilon: float, *, query_seed_offset: int = 0
    ) -> ThresholdMetrics:
        """Run the paper's 20-query average at one threshold."""
        epsilon = check_threshold(epsilon)
        config = self.config
        workload = generate_queries(
            {sid: self.database.sequence(sid) for sid in self.database.ids()},
            config.queries_per_threshold,
            length_range=config.query_length_range,
            noise=config.query_noise,
            seed=ensure_rng(config.seed + 7919 * (query_seed_offset + 1)),
        )
        per_query = [self.measure_query(query, epsilon) for query in workload]
        return self._aggregate(epsilon, per_query)

    def measure_query(
        self, query: MultidimensionalSequence, epsilon: float
    ) -> QueryMetrics:
        """All Figure 6-10 raw numbers for one (query, threshold) pair."""
        epsilon = check_threshold(epsilon)
        started = time.perf_counter()
        result = self.engine.search(query, epsilon, find_intervals=True)
        method_seconds = time.perf_counter() - started

        scan = self.scanner.scan(query, epsilon, find_intervals=True)

        total = len(self.database)
        relevant = scan.answers
        pr_mbr = pruning_rate(total, len(result.candidates), len(relevant))
        pr_norm = pruning_rate(total, len(result.answers), len(relevant))
        answer_recall = recall(set(result.answers), relevant)

        # Solution-interval accounting over the selected (answer) sequences.
        si_total = si_candidate = si_exact = si_covered = 0
        for sequence_id in result.answers:
            length = len(self.database.sequence(sequence_id))
            approx = result.solution_intervals.get(sequence_id, IntervalSet())
            exact = scan.solution_intervals.get(sequence_id, IntervalSet())
            si_total += length
            si_candidate += len(approx)
            si_exact += len(exact)
            si_covered += approx.intersection_size(exact)

        return QueryMetrics(
            epsilon=epsilon,
            n_relevant=len(relevant),
            n_candidates=len(result.candidates),
            n_answers=len(result.answers),
            pr_dmbr=pr_mbr,
            pr_dnorm=pr_norm,
            answer_recall=answer_recall,
            si_total_points=si_total,
            si_candidate_points=si_candidate,
            si_exact_points=si_exact,
            si_covered_points=si_covered,
            method_seconds=method_seconds,
            scan_seconds=scan.seconds,
        )

    @staticmethod
    def _aggregate(
        epsilon: float, per_query: list[QueryMetrics]
    ) -> ThresholdMetrics:
        n = len(per_query)
        si_total = sum(m.si_total_points for m in per_query)
        si_candidate = sum(m.si_candidate_points for m in per_query)
        si_exact = sum(m.si_exact_points for m in per_query)
        si_covered = sum(m.si_covered_points for m in per_query)
        method_seconds = sum(m.method_seconds for m in per_query)
        scan_seconds = sum(m.scan_seconds for m in per_query)
        return ThresholdMetrics(
            epsilon=epsilon,
            queries=n,
            pr_dmbr=sum(m.pr_dmbr for m in per_query) / n,
            pr_dnorm=sum(m.pr_dnorm for m in per_query) / n,
            answer_recall=sum(m.answer_recall for m in per_query) / n,
            si_pruning=solution_interval_pruning_rate(
                si_total, si_candidate, si_exact
            ),
            si_recall=(si_covered / si_exact) if si_exact else 1.0,
            response_ratio=response_time_ratio(scan_seconds, method_seconds),
            mean_relevant=sum(m.n_relevant for m in per_query) / n,
            mean_candidates=sum(m.n_candidates for m in per_query) / n,
            mean_answers=sum(m.n_answers for m in per_query) / n,
            method_seconds=method_seconds,
            scan_seconds=scan_seconds,
        )
