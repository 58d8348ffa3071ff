"""Quickstart: index a corpus of multidimensional sequences and search it.

Covers the whole public API in one page:

1. build a :class:`~repro.SequenceDatabase` (partitioning + MBR index);
2. run the three-phase range search of the paper for one query;
3. read the answers, the approximate solution intervals and the search
   statistics;
4. run the k-nearest-sequences extension.

Run with::

    python examples/quickstart.py
"""

from repro import SequenceDatabase, SimilaritySearch
from repro.datagen import generate_queries, generate_video_corpus


def main() -> None:
    # 1. A corpus of 200 simulated video streams (3-d colour features).
    corpus = generate_video_corpus(200, length_range=(56, 256), seed=7)
    # The MBRs are indexed as an STR-packed tree held in flat arrays; the
    # paper's R-trees are built beside a database by repro.index.build_tree.
    database = SequenceDatabase(dimension=3)
    for stream in corpus:
        database.add(stream)  # ids come from the sequences themselves
    print(f"indexed {len(database)} sequences "
          f"({database.point_count} points, "
          f"{database.segment_count} MBRs, "
          f"index height {len(database.index.base.levels)})")

    # 2. A query: a perturbed scene cut from one of the streams.
    workload = generate_queries(
        {sid: database.sequence(sid) for sid in database.ids()},
        count=1,
        length_range=(40, 80),
        noise=0.01,
        seed=13,
    )
    query = workload[0]
    source_id, start, length = workload.sources[0]
    print(f"\nquery: {length} frames cut from {source_id!r} at offset {start}")

    # 3. Range search with threshold 0.1 in the unit cube.
    engine = SimilaritySearch(database)
    result = engine.search(query, epsilon=0.1)
    print(f"\nepsilon=0.1:"
          f"\n  Phase 2 (Dmbr) kept {len(result.candidates)} candidates"
          f"\n  Phase 3 (Dnorm) kept {len(result.answers)} answers")
    for sequence_id in result.answers[:5]:
        interval = result.solution_intervals[sequence_id]
        spans = ", ".join(f"[{a}:{b})" for a, b in interval.intervals[:4])
        print(f"  {sequence_id!r}: play frames {spans}"
              + (" ..." if len(interval.intervals) > 4 else ""))
    stats = result.stats
    print(f"  ({stats.query_segments} query MBRs, "
          f"{stats.node_accesses} index node accesses, "
          f"{stats.total_seconds * 1000:.1f} ms)")

    # 4. The k-NN extension: the five most similar streams, exactly.
    print("\n5 nearest streams (exact sliding distance):")
    for distance, sequence_id in engine.knn(query, k=5):
        print(f"  {sequence_id!r}: D = {distance:.4f}")


if __name__ == "__main__":
    main()
