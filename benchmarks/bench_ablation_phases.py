"""Ablation — how much does each pruning phase contribute?

The algorithm prunes twice: Phase 2 with ``Dmbr`` through the index, then
Phase 3 with ``Dnorm`` over the survivors.  This bench separates their
contributions (candidates vs answers vs ground truth) across the threshold
sweep, and measures what Phase 3 costs on top of Phase 2.
"""

from benchmarks.conftest import publish
from repro.analysis.report import format_table
from repro.core.packed import FANOUT
from repro.core.partitioning import partition_sequence
from repro.datagen.queries import generate_queries


def test_ablation_phase_contributions(benchmark, synthetic_runner):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    corpus = {
        sid: synthetic_runner.database.sequence(sid)
        for sid in synthetic_runner.database.ids()
    }
    total = len(corpus)
    queries = generate_queries(corpus, 6, seed=1234)

    database = synthetic_runner.database
    mean_segments = database.segment_count / max(1, len(database))

    rows = []
    for epsilon in (0.05, 0.15, 0.30):
        candidates = answers = relevant = 0
        phase2_seconds = phase3_seconds = 0.0
        method_work = scan_work = 0
        for query in queries:
            result = synthetic_runner.engine.search(
                query, epsilon, find_intervals=False
            )
            scan = synthetic_runner.scanner.scan(
                query, epsilon, find_intervals=False
            )
            candidates += len(result.candidates)
            answers += len(result.answers)
            relevant += len(scan.answers)
            phase2_seconds += result.stats.phase2_seconds
            phase3_seconds += result.stats.phase3_seconds
            # Element-operation accounting, substrate-independent:
            # the scan computes one point distance per (alignment, query
            # point); the method tests one rectangle per node child during
            # probes (FANOUT per node of the database's index) plus one
            # O(1) window evaluation per Dnorm anchor.
            k = len(query)
            scan_work += sum(
                max(0, len(corpus[sid]) - k + 1) * k for sid in corpus
            )
            method_work += (
                result.stats.node_accesses * FANOUT
                + result.stats.dnorm_evaluations
                + int(result.stats.dmbr_rows * mean_segments)
            )
        rows.append(
            [
                epsilon,
                candidates / len(queries),
                answers / len(queries),
                relevant / len(queries),
                phase2_seconds,
                phase3_seconds,
                scan_work / max(1, method_work),
            ]
        )

    publish(
        "ablation_phases",
        format_table(
            [
                "epsilon",
                "after_phase2",
                "after_phase3",
                "relevant",
                "phase2_s",
                "phase3_s",
                "work_ratio",
            ],
            rows,
        )
        + f"\n(database: {total} sequences; Phase 3 can only shrink the "
        f"candidate set, never below the relevant set; work_ratio = scan "
        f"element ops / method ops, independent of numpy vectorisation)",
    )

    for epsilon, candidates, answers, relevant, _, _, work_ratio in rows:
        assert relevant <= answers <= candidates
        assert work_ratio > 1.0, "the method must do less raw work"


def test_phase2_only_benchmark(benchmark, synthetic_runner):
    """Index probe cost alone (Phase 1 + 2, no Dnorm, no intervals)."""
    corpus = {
        sid: synthetic_runner.database.sequence(sid)
        for sid in synthetic_runner.database.ids()
    }
    query = generate_queries(corpus, 1, seed=4321)[0]
    database = synthetic_runner.database

    def phase2():
        return database.candidate_rows(partition_sequence(query), 0.15)[0]

    rows = benchmark(phase2)
    assert len(rows) <= len(database)


def test_full_search_benchmark(benchmark, synthetic_runner):
    corpus = {
        sid: synthetic_runner.database.sequence(sid)
        for sid in synthetic_runner.database.ids()
    }
    query = generate_queries(corpus, 1, seed=4321)[0]
    benchmark(synthetic_runner.engine.search, query, 0.15)
