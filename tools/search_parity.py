"""Parity of ``SimilaritySearch`` between two checkouts of this repo.

Builds the ``core_range`` benchmark inputs (``perf/benchkit/inputs.py``:
N=500 video corpus, 600 queries, seed 2000), runs every query at the three
benchmark thresholds with solution intervals on and off, plus ``knn`` for
the first 100 queries, and requires the other checkout to produce the
*same* ``candidates``, ``answers``, ``solution_intervals``, ``dmbr_rows``,
``dnorm_evaluations``, ``node_accesses`` and ``(distance, id)`` lists —
not merely sound ones.  Forty more queries of 96-256 points go through the
same searches (the corpus holds 56-512 points a sequence, so a large share
of their candidates take the long-query role swap); ``explain`` and
``min_normalized_distance`` are compared for 100 (query, id) pairs, floats
as ``float.hex()``; and a ``QueryEngine(cache_size=128)`` replays searches,
60 inserts/appends, then the same searches again, every response compared
(answers, intervals, cache outcome) — which is what reaches the ε-cache's
refine and write-patch paths.  What the searches run on is compared too:
every sequence's segments (start, count and MBR corners, bit for bit) and
the R-tree as stored — each node's level and rectangle and each leaf's
entries, in order.

Usage::

    python tools/search_parity.py --against /path/to/other/checkout
    python tools/search_parity.py --against ../parent --queries 60   # quicker

Each side runs in its own interpreter with only its own ``src/`` on the
import path; ``--dump FILE`` is that child mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["main"]

_CORPUS_SIZE = 500
_QUERY_POOL = 600
_KNN_QUERIES = 100
_KNN_K = 5
_EPSILONS = (0.05, 0.10, 0.20)
_LONG_QUERIES = 40
_EXPLAIN_PAIRS = 100
_CACHED_QUERIES = (40, 10)  # short, long
_WRITES = 60


def _dump(path: Path, seed: int, queries: int) -> None:
    """Run every search on the importable ``repro`` and write the outcomes."""
    from repro.core import SequenceDatabase, SimilaritySearch
    from repro.datagen import generate_queries, generate_video_corpus

    corpus = generate_video_corpus(
        _CORPUS_SIZE, length_range=(56, 512), seed=seed
    )
    pool = generate_queries(
        corpus, _QUERY_POOL, length_range=(16, 64), noise=0.01, seed=seed + 1
    ).queries[:queries]
    database = SequenceDatabase(3)
    for sequence in corpus:
        database.add(sequence)
    search = SimilaritySearch(database)

    long_pool = generate_queries(
        corpus, _LONG_QUERIES, length_range=(96, 256), noise=0.01, seed=seed + 2
    ).queries
    searches = []
    for query in [*pool, *long_pool]:
        for epsilon in _EPSILONS:
            for find_intervals in (True, False):
                result = search.search(
                    query.points, epsilon, find_intervals=find_intervals
                )
                searches.append(
                    [*_outcome(result), result.stats.node_accesses]
                )
    knn = [
        [
            [distance.hex(), sid]
            for distance, sid in search.knn(query.points, _KNN_K)
        ]
        for query in pool[:_KNN_QUERIES]
    ]
    path.write_text(
        json.dumps(
            {
                "searches": searches,
                "knn": knn,
                "explain": _explanations(search, [*long_pool, *pool]),
                "replay": _cache_replay(corpus, pool, long_pool, seed),
                "segments": _segment_digests(database),
                "tree": _tree_layout(database.index.root),
            }
        )
    )


def _outcome(result: Any) -> list[Any]:
    """What one search answered and what it cost."""
    return [
        result.candidates,
        result.answers,
        {
            str(sid): interval.intervals
            for sid, interval in result.solution_intervals.items()
        },
        result.stats.dmbr_rows,
        result.stats.dnorm_evaluations,
    ]


def _explanations(search: Any, queries: list[Any]) -> list[list[Any]]:
    """``explain`` and ``min_normalized_distance`` for (query, id) pairs:
    query ``i`` against the ``i``-th and the ``7 i``-th stored sequence."""
    from repro.core import min_normalized_distance, partition_sequence

    database = search.database
    ids = list(database.ids())
    rows = []
    for index, query in enumerate(queries[: _EXPLAIN_PAIRS // 2]):
        for sid in (ids[index % len(ids)], ids[7 * index % len(ids)]):
            found = search.explain(query.points, 0.1, sid)
            rows.append(
                [
                    found.long_query,
                    found.min_dmbr.hex(),
                    found.min_dnorm.hex(),
                    found.exact_distance.hex(),
                    found.best_probe_segment,
                    found.best_anchor,
                    list(found.best_window),
                    min_normalized_distance(
                        partition_sequence(
                            query.points,
                            cost_constant=database.cost_constant,
                            max_points=database.max_points,
                        ),
                        database.partition(sid),
                    ).hex(),
                ]
            )
    return rows


def _cache_replay(
    corpus: list[Any], pool: list[Any], long_pool: list[Any], seed: int
) -> list[list[Any]]:
    """Every response of one engine with a result cache: each cached query
    at descending thresholds (a miss, then refines), a run of inserts and
    appends that patch the cached entries, and the same searches again."""
    from repro.core import SequenceDatabase
    from repro.datagen import generate_video_corpus
    from repro.service import QueryEngine

    database = SequenceDatabase(3)
    for sequence in corpus:
        database.add(sequence)
    ids = list(database.ids())
    short, long = _CACHED_QUERIES
    requests = [
        (query.points, epsilon, index % 3 != 0)
        for index, query in enumerate([*pool[:short], *long_pool[:long]])
        for epsilon in sorted(_EPSILONS, reverse=True)
    ]
    written = generate_video_corpus(
        _WRITES // 2, length_range=(56, 256), seed=seed + 3
    )
    responses = []
    engine = QueryEngine(database, workers=1, cache_size=128)
    try:
        for round_ in range(2):
            for points, epsilon, find_intervals in requests:
                response = engine.search_detailed(
                    points, epsilon, find_intervals=find_intervals
                )
                responses.append(
                    [
                        response.cache,
                        response.snapshot_version,
                        *_outcome(response.result),
                    ]
                )
            if round_ == 0:
                for index, sequence in enumerate(written):
                    half = len(sequence) // 2
                    name = f"written-{index}"
                    engine.insert(sequence.points[:half], sequence_id=name)
                    # The rest continues it, or an old sequence.
                    engine.append(
                        name if index % 2 == 0 else ids[index],
                        sequence.points[half:],
                    )
    finally:
        engine.close()
    return responses


def _segment_digests(database: Any) -> dict[str, str]:
    """Per sequence: a digest of its segments' starts, counts and corners."""
    digests = {}
    for sequence_id, partition in database.partitions():
        digest = hashlib.sha256()
        for segment in partition:
            digest.update(f"{segment.start}:{segment.count};".encode())
        digest.update(partition.low_matrix.tobytes())
        digest.update(partition.high_matrix.tobytes())
        digests[str(sequence_id)] = digest.hexdigest()
    return digests


def _tree_layout(root: Any) -> list[list[Any]]:
    """The tree in stored (depth-first, child-order) form, one row per node:
    level, rectangle corners, and the leaf's entries or the child count."""
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        corners = (
            []
            if node.mbr is None
            else [x.hex() for x in (*node.mbr.low.tolist(), *node.mbr.high.tolist())]
        )
        if node.is_leaf:
            inside: Any = [
                [str(entry.payload.sequence_id), entry.payload.segment_index]
                for entry in node.children
            ]
        else:
            inside = len(node.children)
            stack.extend(reversed(node.children))
        rows.append([node.level, corners, inside])
    return rows


def _run_side(root: Path, out: Path, seed: int, queries: int) -> None:
    subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--dump",
            str(out),
            "--seed",
            str(seed),
            "--queries",
            str(queries),
        ],
        check=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        timeout=1800,
    )


def main(argv: list[str] | None = None) -> int:
    """Compare this checkout with ``--against``; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="the other checkout's root")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=_QUERY_POOL)
    args = parser.parse_args(argv)
    if args.dump is not None:
        _dump(args.dump, args.seed, args.queries)
        return 0
    if args.against is None:
        parser.error("--against is required")

    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="repro-parity-") as tmp:
        sides: dict[str, Any] = {}
        other: Path = args.against.resolve()
        for name, root in (("this", here), ("other", other)):
            out = Path(tmp) / f"{name}.json"
            _run_side(root, out, args.seed, args.queries)
            sides[name] = json.loads(out.read_text())
    fields = (
        "candidates",
        "answers",
        "solution_intervals",
        "dmbr_rows",
        "dnorm_evaluations",
        "node_accesses",
    )
    differing = 0
    segments, other_segments = sides["this"]["segments"], sides["other"]["segments"]
    for sequence_id in sorted(segments.keys() | other_segments.keys()):
        if segments.get(sequence_id) != other_segments.get(sequence_id):
            differing += 1
            if differing <= 10:
                print(f"sequence {sequence_id}: segments differ")
    tree, other_tree = sides["this"]["tree"], sides["other"]["tree"]
    if len(tree) != len(other_tree):
        differing += 1
        print(f"tree: {len(tree)} nodes != {len(other_tree)} nodes")
    for index, (node, other_node) in enumerate(zip(tree, other_tree)):
        if node != other_node:
            differing += 1
            if differing <= 10:
                print(f"tree node {index} differs: {node!r} != {other_node!r}")
    for index, (mine, theirs) in enumerate(
        zip(sides["this"]["searches"], sides["other"]["searches"], strict=True)
    ):
        for field, a, b in zip(fields, mine, theirs):
            if a != b:
                differing += 1
                if differing <= 10:
                    print(f"search {index}: {field} differs: {a!r} != {b!r}")
    for kind in ("knn", "explain", "replay"):
        for index, (mine, theirs) in enumerate(
            zip(sides["this"][kind], sides["other"][kind], strict=True)
        ):
            if mine != theirs:
                differing += 1
                if differing <= 10:
                    print(f"{kind} {index} differs: {mine!r} != {theirs!r}")
    print(
        f"{len(sides['this']['segments'])} sequences, "
        f"{len(sides['this']['tree'])} tree nodes, "
        f"{len(sides['this']['searches'])} searches, "
        f"{len(sides['this']['knn'])} knn calls, "
        f"{len(sides['this']['explain'])} explanations, "
        f"{len(sides['this']['replay'])} cached responses: "
        f"{differing} differences"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
