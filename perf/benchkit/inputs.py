"""Seeded inputs: workload specs, corpus, query pool, op streams, write pools.

Everything a run feeds the product is a pure function of ``(spec, seed)``:
the op stream of client ``c`` depends only on the seed and ``c``, never on
thread interleaving or on how many ops the clock allowed, so a slower
build executes a *prefix* of the same stream.  ``input_sha256`` hashes
corpus, query pool, op streams and the head of every write pool, and the
harness refuses to report when it differs from the hash frozen in
``perf/input_hashes.json`` — a later change to ``repro.datagen`` cannot
silently change the workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.datagen import (
    generate_queries,
    generate_video_corpus,
    generate_video_sequence,
)

KIND_SEARCH, KIND_KNN, KIND_INSERT, KIND_APPEND = range(4)
KIND_NAMES = ("search", "knn", "insert", "append")
WRITE_KINDS = (KIND_INSERT, KIND_APPEND)

DIMENSION = 3
EPSILONS = (0.05, 0.10, 0.20)
KNN_K = 5
CORPUS_LENGTHS = (56, 512)
QUERY_LENGTHS = (16, 64)
QUERY_NOISE = 0.01
APPEND_LENGTHS = (16, 64)
#: Frames generated past a written sequence's inserted prefix; appends
#: deliver them in order, so an append is the stream's own continuation.
APPEND_RESERVE = 256
ZIPF_S = 1.1
#: Share of a query's requests that ask for a tighter threshold than its home.
TIGHTER_SHARE = 0.2
#: Ops generated per client; reads wrap around past it, writes never do
#: (they draw payloads from the write pool by their own counter).
OPS_PER_CLIENT = 16384
#: Write-pool sequences per client that enter the input hash.
HASHED_WRITES = 32
#: Writes are serialised by one lock and cost >= 20 ms each, so a client
#: cannot consume more than this many pool sequences per second.
WRITES_PER_SECOND = 30


@dataclass(frozen=True)
class Spec:
    """The frozen shape of one workload."""

    name: str
    corpus_size: int
    query_pool: int
    clients: int
    #: Search / knn / insert / append ops per block of ``sum(mix)`` ops.
    #: Every block holds exactly these counts in a seeded order, so the
    #: share of (far slower) writes does not wander from seed to seed.
    mix: tuple[int, int, int, int]
    #: ``"unique"``: every (query, eps) key once per pass over the pool,
    #: the same query never closer than ``query_pool`` ops (caches miss).
    #: ``"zipf"``: queries drawn Zipf(1.1), so hits, refines and misses occur.
    keys: str
    warmup_ops: int
    #: The traced pass runs the boundary ladder on every k-th read.
    trace_every: int
    #: Oracle-checked (query, eps) pairs and exact-kNN checks per run.
    range_checks: int
    knn_checks: int = 6
    #: Fewest read latencies a p95 may be taken from.
    p95_floor: int = 200

    @property
    def writes(self) -> bool:
        return self.mix[KIND_INSERT] > 0 or self.mix[KIND_APPEND] > 0


# Sizes are frozen here.  They are what fits the driver's budget of about
# 35 s per run (set-up included) on the 2-core reference box; ISSUE 11's
# N=1000 needs ~20 s of `add` alone.  See perf/README.md, "Sizes".
SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="core_range",
            corpus_size=500,
            query_pool=600,
            clients=1,
            mix=(15, 1, 0, 0),
            keys="unique",
            warmup_ops=50,
            trace_every=4,
            range_checks=24,
        ),
        Spec(
            name="serve_read",
            corpus_size=300,
            query_pool=400,
            clients=2,
            mix=(1, 0, 0, 0),
            keys="zipf",
            warmup_ops=150,
            trace_every=6,
            range_checks=12,
        ),
        Spec(
            name="serve_mixed_durable",
            corpus_size=300,
            query_pool=400,
            clients=2,
            mix=(8, 0, 1, 1),
            keys="zipf",
            warmup_ops=150,
            trace_every=4,
            range_checks=12,
        ),
        Spec(
            name="cluster_scatter",
            corpus_size=160,
            query_pool=600,
            clients=1,
            mix=(17, 1, 2, 0),
            keys="unique",
            warmup_ops=50,
            trace_every=3,
            range_checks=12,
        ),
    )
}


def selftest_spec(spec: Spec) -> Spec:
    """The same workload at a size the self-test can run in seconds."""
    return replace(
        spec,
        corpus_size=16,
        query_pool=144,
        warmup_ops=10,
        range_checks=2,
        knn_checks=1,
        p95_floor=20,
    )


@dataclass(frozen=True)
class WriteSequence:
    """One pool sequence: insert ``points[:length]``, append the rest."""

    sequence_id: str
    points: np.ndarray
    length: int


class Inputs:
    """Everything one run feeds the product."""

    def __init__(self, spec: Spec, seed: int, seconds: float) -> None:
        self.spec = spec
        self.seed = seed
        self.corpus = generate_video_corpus(
            spec.corpus_size, length_range=CORPUS_LENGTHS, seed=seed
        )
        workload = generate_queries(
            self.corpus,
            spec.query_pool,
            length_range=QUERY_LENGTHS,
            noise=QUERY_NOISE,
            seed=seed + 1,
        )
        self.queries = [query.points for query in workload.queries]
        self.ops = [
            _op_stream(spec, seed, client) for client in range(spec.clients)
        ]
        pool = max(HASHED_WRITES, int(WRITES_PER_SECOND * seconds) + 1)
        self.write_pools = [
            [_write_sequence(seed, client, k) for k in range(pool)]
            if spec.writes
            else []
            for client in range(spec.clients)
        ]
        self.sha256 = self._digest()

    def sequences(self) -> dict[str, np.ndarray]:
        """The base corpus as ``id -> points`` (the oracle's view)."""
        return {seq.sequence_id: seq.points for seq in self.corpus}

    @property
    def corpus_points(self) -> int:
        return sum(len(seq) for seq in self.corpus)

    def _digest(self) -> str:
        digest = hashlib.sha256(self.spec.name.encode())
        for seq in self.corpus:
            digest.update(str(seq.sequence_id).encode())
            digest.update(np.ascontiguousarray(seq.points).tobytes())
        for query in self.queries:
            digest.update(np.ascontiguousarray(query).tobytes())
        for ops in self.ops:
            digest.update(ops.tobytes())
        for pool in self.write_pools:
            for written in pool[:HASHED_WRITES]:
                digest.update(written.sequence_id.encode())
                digest.update(str(written.length).encode())
                digest.update(np.ascontiguousarray(written.points).tobytes())
        return digest.hexdigest()


_LENGTH_BLOCK = 16
_OP_DTYPE = np.dtype(
    [("kind", np.uint8), ("query", np.uint16), ("eps", np.uint8), ("aux", np.uint32)]
)


def _op_stream(spec: Spec, seed: int, client: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, client]))
    count = OPS_PER_CLIENT
    ops = np.zeros(count, dtype=_OP_DTYPE)
    block = np.repeat(np.arange(4), spec.mix)
    ops["kind"] = rng.permuted(
        np.tile(block, (count // len(block) + 1, 1)), axis=1
    ).ravel()[:count]
    ops["aux"] = rng.integers(0, 2**31, size=count)
    pool = spec.query_pool
    if spec.keys == "unique":
        # Position j reads query perm[j % pool]; its eps index advances by
        # one each pass, from a per-query offset, so thresholds are mixed
        # within a pass and a query repeats exactly `pool` ops later.
        order = rng.permutation(pool)
        offset = rng.integers(0, len(EPSILONS), size=pool)
        position = np.arange(count)
        query = order[position % pool]
        ops["query"] = query
        ops["eps"] = (position // pool + offset[query]) % len(EPSILONS)
    elif spec.keys == "zipf":
        # Query popularity is Zipf over one seeded ranking all clients
        # share (their draws from it are their own).  Each query has a
        # home threshold, cycling with its rank, that most of its requests
        # use; the rest ask for a tighter one.  The cache keeps a query's
        # widest result, so home requests become exact hits, tighter ones
        # refines, and the tail of the ranking misses — in shares that do
        # not depend on which sibling key happens to be asked first
        # (drawing (query, eps) keys independently makes a hot key flip
        # from hit to refine for good at a random moment of the run).
        weights = 1.0 / np.arange(1, pool + 1) ** ZIPF_S
        ranked = np.random.default_rng(
            np.random.SeedSequence([seed, 5])
        ).permutation(pool)
        rank = rng.choice(pool, size=count, p=weights / weights.sum())
        home = rank % len(EPSILONS)
        tighter = rng.random(count) < TIGHTER_SHARE
        ops["query"] = ranked[rank]
        ops["eps"] = np.where(
            tighter, (rng.random(count) * home).astype(np.int64), home
        )
    else:
        raise ValueError(f"unknown key order {spec.keys!r}")
    return ops


def _write_sequence(seed: int, client: int, ordinal: int) -> WriteSequence:
    # Lengths are stratified like op kinds: every block of writes spans
    # the corpus's length range evenly, in a seeded order.
    block, slot = divmod(ordinal, _LENGTH_BLOCK)
    order = np.random.default_rng(
        np.random.SeedSequence([seed, 3, client, block])
    ).permutation(_LENGTH_BLOCK)
    length = int(np.linspace(*CORPUS_LENGTHS, _LENGTH_BLOCK)[order[slot]])
    sequence_id = f"w{client}-{ordinal}"
    stream = generate_video_sequence(
        length + APPEND_RESERVE,
        seed=np.random.SeedSequence([seed, 6, client, ordinal]),
        sequence_id=sequence_id,
    )
    return WriteSequence(sequence_id, stream.points, length)


def append_length(aux: int) -> int:
    """The chunk length an append op draws from its ``aux`` field."""
    low, high = APPEND_LENGTHS
    return low + (aux >> 8) % (high - low + 1)
