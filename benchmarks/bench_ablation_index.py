"""Ablation — R-tree variants behind the Phase-2 probe.

The paper allows "the R-tree or its variants" for index construction.  This
bench compares the three implementations shipped here — Guttman R-tree,
R*-tree and STR bulk loading, each built beside the database by
:func:`repro.index.build_tree` — on build time and on the node accesses a
Phase-2 probe costs, using identical corpora and probes.
"""

import time

from benchmarks.conftest import publish
from repro.analysis.report import format_table
from repro.core.database import SequenceDatabase
from repro.core.partitioning import partition_sequence
from repro.datagen.queries import generate_queries
from repro.datagen.video import generate_video_corpus
from repro.index import TREE_KINDS, build_tree

EPSILON = 0.1


def _build(kind, corpus):
    """Partition and index the corpus: the database, then its tree."""
    started = time.perf_counter()
    database = SequenceDatabase(dimension=3)
    for sequence in corpus:
        database.add(sequence)
    return build_tree(database, kind), time.perf_counter() - started


def test_ablation_index_variants(benchmark):
    corpus = benchmark.pedantic(
        generate_video_corpus,
        rounds=1,
        iterations=1,
        args=(150,),
        kwargs=dict(length_range=(56, 256), seed=88),
    )
    queries = generate_queries(corpus, 10, seed=99)

    rows = []
    accesses_by_kind = {}
    for kind in TREE_KINDS:
        index, build_seconds = _build(kind, corpus)
        index.stats.reset_query_counters()
        hits = 0
        for query in queries:
            for segment in partition_sequence(query):
                hits += len(index.search_within(segment.mbr, EPSILON))
        accesses_by_kind[kind] = index.stats.node_accesses
        rows.append(
            [kind, build_seconds, index.height, index.stats.node_accesses, hits]
        )

    publish(
        "ablation_index_variants",
        format_table(
            ["variant", "build_s", "height", "node_accesses", "entry_hits"],
            rows,
        ),
    )

    # All variants must return identical hit counts (same entries, same
    # probe) — the hits column is the 5th field of each row.
    assert len({row[4] for row in rows}) == 1
    # The packed tree should not be taller than the dynamic ones.
    heights = {row[0]: row[2] for row in rows}
    assert heights["str"] <= max(heights["rtree"], heights["rstar"])


def test_index_build_benchmark(benchmark):
    corpus = generate_video_corpus(60, length_range=(56, 128), seed=101)

    def build():
        database = SequenceDatabase(dimension=3)
        for sequence in corpus:
            database.add(sequence)
        return database, build_tree(database)

    database, tree = benchmark(build)
    assert len(database) == 60 and len(tree) == database.segment_count


def test_str_bulk_build_benchmark(benchmark):
    corpus = generate_video_corpus(60, length_range=(56, 128), seed=101)

    def build():
        database = SequenceDatabase(dimension=3)
        for sequence in corpus:
            database.add(sequence)
        return build_tree(database, "str")

    index = benchmark(build)
    assert len(index) > 0
