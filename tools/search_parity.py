"""Parity of ``SimilaritySearch`` between two checkouts of this repo, and
between the database's index and the paper's R-tree within this one.

Builds the ``core_range`` benchmark inputs (``perf/benchkit/inputs.py``:
N=500 video corpus, 600 queries, seed 2000) in a default
``SequenceDatabase``, runs every query at the three benchmark thresholds
with solution intervals on and off, plus ``knn`` for all of them and
``knn_subsequences`` (overlaps excluded and not) for the first 100, and
requires the other checkout to *return* the same: ``candidates``,
``answers``, ``solution_intervals``, ``dmbr_rows``, ``dnorm_evaluations``
and ``(distance, id[, offset])`` lists, in order — not merely sound ones.
Forty more queries of 96-256 points go through the same searches and both
k-NN calls (the corpus holds 56-512 points a sequence, so a large share of
their candidates take the long-query role swap, and ``knn`` the dual of
its lower bound); ``explain`` and ``min_normalized_distance`` are
compared for 100 (query, id) pairs, floats as ``float.hex()``; and a
``QueryEngine(cache_size=128)`` replays searches, 60 writes (inserts,
appends to new and to old ids, removes), then the same searches again,
every response compared (answers, intervals, cache outcome) — which is
what reaches the ε-cache's refine and write-patch paths and, in the
index, the delta, the masking of rewritten rows and a re-pack.
What the searches run on is compared too: every sequence's segments
(counts and MBR corners as ``float.hex()``).  So are the partitions MCOST
builds of every query's Phase 1 (the long ones included) and of every
sequence the cached engine stores after its write replay, where appends
re-partition only the last segment (``PartitionedSequence.extended_to``);
the engine's stored partitions are read off ``engine._snapshot.database``,
the one private attribute used.

How the database's index is laid out and how many nodes a probe visits
are *not* compared: they are whatever the packed index makes them.  They
are compared for the paper's Guttman R-tree built beside the database —
the tree as stored (each node's level and rectangle and each leaf's
entries, in order) and, per (query, threshold), the candidates and
``node_accesses`` of one ``search_within`` per query MBR.  The tree is
built here, with API every checkout has (``RTree(n).extend`` over the
stored segments in insertion order, keyed by ``SegmentKey``), which on
this add-only corpus is the order a checkout that maintained its tree
write by write inserted them in — so the two must agree to the node.

A last section needs no other checkout: the database's index against the
R-tree, same corpus, same 3 840 searches — identical candidate sets —
and again after each of a run of writes, where a new tree is built over
the database after every write (the price of the paper's static model:
most of this section's minute).

Usage::

    python tools/search_parity.py --against /path/to/other/checkout
    python tools/search_parity.py --against ../parent --queries 60   # quicker

Each side runs in its own interpreter with only its own ``src/`` on the
import path and the four runtime-check switches of
:mod:`repro.util.checks` from the caller's environment
(``REPRO_CHECK_CONTRACTS=1`` validates both sides' searches as they run);
``--dump FILE`` is that child mode (``--cross-kind`` adds the last
section's after-writes half, which only this checkout is asked for).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["main"]

#: The switches of repro.util.checks, passed on to both sides.
_CHECK_SWITCHES = (
    "REPRO_CHECK_CONTRACTS",
    "REPRO_SYNC_CHECKS",
    "REPRO_FREEZE_CHECKS",
    "REPRO_ERROR_CHECKS",
)

_CORPUS_SIZE = 500
_QUERY_POOL = 600
_KNN_SUBSEQUENCE_QUERIES = 100
_KNN_K = 5
_EPSILONS = (0.05, 0.10, 0.20)
_LONG_QUERIES = 40
_EXPLAIN_PAIRS = 100
_CACHED_QUERIES = (40, 10)  # short, long
_WRITES = 60


def _dump(path: Path, seed: int, queries: int, cross_kind: bool) -> None:
    """Run every search on the importable ``repro`` and write the outcomes."""
    from repro.core import SequenceDatabase, SimilaritySearch, partition_sequence
    from repro.datagen import generate_queries, generate_video_corpus

    corpus = generate_video_corpus(
        _CORPUS_SIZE, length_range=(56, 512), seed=seed
    )
    pool = generate_queries(
        corpus, _QUERY_POOL, length_range=(16, 64), noise=0.01, seed=seed + 1
    ).queries[:queries]
    long_pool = generate_queries(
        corpus, _LONG_QUERIES, length_range=(96, 256), noise=0.01, seed=seed + 2
    ).queries
    database = SequenceDatabase(3)
    for sequence in corpus:
        database.add(sequence)
    tree = _tree(database)
    search = SimilaritySearch(database)
    replay, replayed = _cache_replay(corpus, pool, long_pool, seed)

    searches = [
        _outcome(search.search(query.points, epsilon, find_intervals=find_intervals))
        for query in [*pool, *long_pool]
        for epsilon in _EPSILONS
        for find_intervals in (True, False)
    ]
    knn = [
        [
            [distance.hex(), sid]
            for distance, sid in search.knn(query.points, _KNN_K)
        ]
        for query in [*pool, *long_pool]
    ]
    knn_subsequences = [
        [
            [hit.distance.hex(), hit.sequence_id, hit.offset, hit.length]
            for hit in search.knn_subsequences(
                query.points, _KNN_K, exclude_overlapping=exclude_overlapping
            )
        ]
        for query in [*pool[:_KNN_SUBSEQUENCE_QUERIES], *long_pool]
        for exclude_overlapping in (True, False)
    ]
    dumped = {
        "searches": searches,
        "knn": knn,
        "knn_subsequences": knn_subsequences,
        "explain": _explanations(search, [*long_pool, *pool]),
        "replay": replay,
        "segments": {
            str(sequence_id): _partition_bits(partition)
            for sequence_id, partition in database.partitions()
        },
        "phase1": [
            _partition_bits(
                partition_sequence(
                    query.points,
                    cost_constant=database.cost_constant,
                    max_points=database.max_points,
                )
            )
            for query in [*pool, *long_pool]
        ],
        "replayed": replayed,
        "rtree": {
            "tree": _tree_layout(tree.root),
            "probes": _tree_probes(database, tree, [*pool, *long_pool]),
        },
    }
    if cross_kind:
        # Last: the writes change the database.
        sample = [*pool[: _CACHED_QUERIES[0]], *long_pool[: _CACHED_QUERIES[1]]]
        dumped["after_writes"] = _write_directly(database, sample, seed)
    path.write_text(json.dumps(dumped))


def _tree(database: Any) -> Any:
    """The paper's R-tree over what ``database`` stores: one leaf entry per
    segment, keyed by ``SegmentKey``, inserted in insertion order."""
    from repro.core.database import SegmentKey
    from repro.index import RTree

    tree = RTree(database.dimension)
    tree.extend(
        (segment.mbr, SegmentKey(sequence_id, segment.index))
        for sequence_id, partition in database.partitions()
        for segment in partition
    )
    return tree


def _probes(database: Any, queries: list[Any]) -> list[list[Any]]:
    """Phase 2 of each (query, threshold) through the database's index:
    the candidates and what the probe cost in node accesses."""
    from repro.core import SimilaritySearch

    search = SimilaritySearch(database)
    probes = []
    for query in queries:
        for epsilon in _EPSILONS:
            result = search.search(query.points, epsilon, find_intervals=False)
            probes.append([result.candidates, result.stats.node_accesses])
    return probes


def _tree_probes(database: Any, tree: Any, queries: list[Any]) -> list[list[Any]]:
    """Phase 2 of each (query, threshold) through ``tree``, one
    ``search_within`` per MBR of the query's Phase-1 partition: the
    candidates, in insertion order, and the node accesses spent."""
    from repro.core import partition_sequence

    probes = []
    for query in queries:
        partition = partition_sequence(
            query.points,
            cost_constant=database.cost_constant,
            max_points=database.max_points,
        )
        for epsilon in _EPSILONS:
            before = tree.stats.node_accesses
            found = {
                entry.payload.sequence_id
                for segment in partition
                for entry in tree.search_within(segment.mbr, epsilon)
            }
            probes.append(
                [
                    [sid for sid in database.ids() if sid in found],
                    tree.stats.node_accesses - before,
                ]
            )
    return probes


def _writes(ids: list[Any], seed: int) -> list[tuple[str, Any, Any]]:
    """A run of writes over a corpus holding ``ids``: per written sequence
    an insert of its first half, an append of the rest to it or to an old
    id, and now and then the removal of an old id."""
    from repro.datagen import generate_video_corpus

    written = generate_video_corpus(
        _WRITES // 2, length_range=(56, 256), seed=seed + 3
    )
    writes: list[tuple[str, Any, Any]] = []
    for index, sequence in enumerate(written):
        half = len(sequence) // 2
        name = f"written-{index}"
        writes.append(("insert", name, sequence.points[:half]))
        writes.append(
            ("append", name if index % 2 == 0 else ids[index], sequence.points[half:])
        )
        if index % 6 == 2:  # the run ends on writes no removal follows
            writes.append(("remove", ids[100 + index], None))
    return writes


def _write_directly(
    database: Any, queries: list[Any], seed: int
) -> dict[str, list[list[Any]]]:
    """Apply the writes to the database, probing it and a tree built anew
    over it after every one with a few of ``queries`` in turn: the
    database's index is then seen with a delta of every size the run
    produces, with rewritten rows masked, and just after a removal made it
    pack anew; the R-tree is each time one built from scratch, the
    reference no write history can skew."""
    probes: dict[str, list[list[Any]]] = {"default": [], "rtree": []}
    writes = _writes(list(database.ids()), seed)
    for number, (verb, sequence_id, points) in enumerate(writes):
        asked = [queries[(3 * number + k) % len(queries)] for k in range(3)]
        if verb == "insert":
            database.add(points, sequence_id=sequence_id)
        elif verb == "append":
            database.append_points(sequence_id, points)
        else:
            database.remove(sequence_id)
        probes["default"].extend(_probes(database, asked))
        probes["rtree"].extend(_tree_probes(database, _tree(database), asked))
    return probes


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
) -> tuple[list[list[Any]], dict[str, list[Any]]]:
    """Every response of one engine with a result cache: each cached query
    at descending thresholds (a miss, then refines), a run of inserts,
    appends and removes that patch the cached entries, and the same
    searches again; and the partition of every sequence the engine stores
    at the end."""
    from repro.core import SequenceDatabase
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
                for verb, sequence_id, points in _writes(ids, seed):
                    if verb == "insert":
                        engine.insert(points, sequence_id=sequence_id)
                    elif verb == "append":
                        engine.append(sequence_id, points)
                    else:
                        engine.remove(sequence_id)
        stored = {
            str(sequence_id): _partition_bits(partition)
            for sequence_id, partition in engine._snapshot.database.partitions()
        }
    finally:
        engine.close()
    return responses, stored


def _partition_bits(partition: Any) -> list[Any]:
    """A partition exactly: its segment counts and corners as ``float.hex``."""
    return [
        partition.counts.tolist(),
        [[value.hex() for value in row] for row in partition.low_matrix.tolist()],
        [[value.hex() for value in row] for row in partition.high_matrix.tolist()],
    ]


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


def _run_side(
    root: Path, out: Path, seed: int, queries: int, cross_kind: bool
) -> None:
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
            *(["--cross-kind"] if cross_kind else []),
        ],
        check=True,
        # Only that side's src/ on the path; the runtime-check switches
        # reach both sides, and no other REPRO_* setting does.
        env={
            **{k: os.environ[k] for k in _CHECK_SWITCHES if k in os.environ},
            "PYTHONPATH": str(root / "src"),
            "PATH": "/usr/bin:/bin",
        },
        timeout=1800,
    )


class _Differences:
    """Counts differences and prints the first ten."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        if self.count <= 10:
            print(message)

    def compare(self, what: str, mine: list[Any], theirs: list[Any]) -> None:
        """Item by item; a length mismatch is an error, not a difference."""
        for index, (a, b) in enumerate(zip(mine, theirs, strict=True)):
            if a != b:
                self.add(f"{what} {index} differs: {a!r} != {b!r}")


def main(argv: list[str] | None = None) -> int:
    """Compare this checkout with ``--against``; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="the other checkout's root")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--cross-kind", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=_QUERY_POOL)
    args = parser.parse_args(argv)
    if args.dump is not None:
        _dump(args.dump, args.seed, args.queries, args.cross_kind)
        return 0
    if args.against is None:
        parser.error("--against is required")

    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="repro-parity-") as tmp:
        sides: dict[str, Any] = {}
        other: Path = args.against.resolve()
        for name, root in (("this", here), ("other", other)):
            out = Path(tmp) / f"{name}.json"
            _run_side(root, out, args.seed, args.queries, name == "this")
            sides[name] = json.loads(out.read_text())
    this, that = sides["this"], sides["other"]

    # 1. What a search returns against the other checkout.
    returned = _Differences()
    for sequence_id in sorted(this["segments"].keys() | that["segments"].keys()):
        if this["segments"].get(sequence_id) != that["segments"].get(sequence_id):
            returned.add(f"sequence {sequence_id}: segments differ")
    fields = (
        "candidates",
        "answers",
        "solution_intervals",
        "dmbr_rows",
        "dnorm_evaluations",
    )
    for index, (mine, theirs) in enumerate(
        zip(this["searches"], that["searches"], strict=True)
    ):
        for field, a, b in zip(fields, mine, theirs, strict=True):
            if a != b:
                returned.add(f"search {index}: {field} differs: {a!r} != {b!r}")
    for kind in ("knn", "knn_subsequences", "explain", "replay"):
        returned.compare(kind, this[kind], that[kind])
    print(
        f"returned results: {len(this['segments'])} sequences, "
        f"{len(this['searches'])} searches, {len(this['knn'])} knn and "
        f"{len(this['knn_subsequences'])} knn_subsequences calls, "
        f"{len(this['explain'])} explanations, "
        f"{len(this['replay'])} cached responses: "
        f"{returned.count} differences"
    )

    # 2. The partitions MCOST builds: each query's Phase 1, and what the
    # engine stores after the write replay (appends grow partitions).
    partitions = _Differences()
    partitions.compare("query partition", this["phase1"], that["phase1"])
    for sequence_id in sorted(this["replayed"].keys() | that["replayed"].keys()):
        if this["replayed"].get(sequence_id) != that["replayed"].get(sequence_id):
            partitions.add(f"sequence {sequence_id} after the replay differs")
    print(
        f"MCOST partitions (counts, corners as float.hex): "
        f"{len(this['phase1'])} query partitions, {len(this['replayed'])} "
        f"sequences stored after the write replay: {partitions.count} differences"
    )

    # 3. The R-tree built beside the database, as stored and as probed,
    # against the other checkout's.
    layout = _Differences()
    tree, other_tree = this["rtree"]["tree"], that["rtree"]["tree"]
    if len(tree) != len(other_tree):
        layout.add(f"tree: {len(tree)} nodes != {len(other_tree)} nodes")
    for index, (node, other_node) in enumerate(zip(tree, other_tree)):
        if node != other_node:
            layout.add(f"tree node {index} differs: {node!r} != {other_node!r}")
    layout.compare("rtree probe", this["rtree"]["probes"], that["rtree"]["probes"])
    print(
        f"R-tree built beside the database: {len(tree)} tree nodes, "
        f"{len(this['rtree']['probes'])} probes (candidates, node accesses): "
        f"{layout.count} differences"
    )

    # 4. The database's index against the R-tree, within this checkout:
    # the static corpus, then a tree rebuilt after each write.
    cross = _Differences()
    after = this["after_writes"]
    for what, packed, tree_side in (
        # A probe per (query, epsilon); a search per (query, epsilon, intervals).
        *(
            (f"search {index}", outcome[0], this["rtree"]["probes"][index // 2][0])
            for index, outcome in enumerate(this["searches"])
        ),
        *(
            (f"probe {index} during the writes", mine[0], theirs[0])
            for index, (mine, theirs) in enumerate(
                zip(after["default"], after["rtree"], strict=True)
            )
        ),
    ):
        if packed != tree_side:
            cross.add(
                f"{what}: only the database's index has "
                f"{[sid for sid in packed if sid not in tree_side]!r}, only "
                f"rtree has {[sid for sid in tree_side if sid not in packed]!r}"
            )
    print(
        f"database index vs R-tree: candidate sets of {len(this['searches'])} "
        f"searches, and of {len(after['default'])} probes during the write "
        f"replay (a new tree per write): {cross.count} differences"
    )
    return 1 if returned.count + partitions.count + layout.count + cross.count else 0


if __name__ == "__main__":
    sys.exit(main())
