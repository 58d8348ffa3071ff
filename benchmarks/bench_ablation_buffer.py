"""Ablation — disk-era behaviour: buffer pool I/O and the MCOST cost model.

The paper's MCOST cost function (§3.4.3) estimates an MBR's *disk access*
count as ``prod_k (L_k + Q_k + eps)`` — the probability that a query
rectangle expanded by the threshold intersects it in the unit space.  Two
measurements ground that 2000-era model in this repo's simulated substrate:

* **Buffer sweep** — physical reads of a probe batch under LRU pools of
  increasing size (the inclusion property is asserted: more buffer, never
  more misses).
* **Cost-model validation** — per-segment MCOST access estimates against
  measured hit frequencies over random probes; the model must correlate
  positively with reality, which is what justifies partitioning on it.
"""

import numpy as np

from benchmarks.conftest import publish
from repro.analysis.report import format_table
from repro.core.database import SequenceDatabase
from repro.core.mbr import MBR
from repro.core.partitioning import marginal_cost
from repro.datagen.video import generate_video_corpus
from repro.index import build_tree
from repro.index.paging import PageStore, attach_page_store, detach_page_store

QUERY_SIDE = 0.15
EPSILON = 0.15
PROBES = 200


def _database():
    """The corpus and the R-tree over it: pages are R-tree nodes."""
    corpus = generate_video_corpus(120, length_range=(56, 256), seed=303)
    database = SequenceDatabase(dimension=3)
    for stream in corpus:
        database.add(stream)
    return database, build_tree(database)


def _probe_boxes(rng, count):
    lows = rng.random((count, 3)) * (1.0 - QUERY_SIDE)
    return [MBR(low, low + QUERY_SIDE) for low in lows]


def test_ablation_buffer_pool(benchmark):
    _, index = benchmark.pedantic(_database, rounds=1, iterations=1)
    rng = np.random.default_rng(304)
    probes = _probe_boxes(rng, PROBES)

    rows = []
    previous_misses = None
    for pages in (4, 16, 64, 256, 4096):
        store = PageStore(buffer_pages=pages)
        attach_page_store(index, store)
        for probe in probes:
            index.search_within(probe, EPSILON)
        detach_page_store(index)
        rows.append(
            [
                pages,
                store.stats.logical_reads,
                store.stats.physical_reads,
                store.stats.hit_rate,
            ]
        )
        if previous_misses is not None:
            assert store.stats.physical_reads <= previous_misses
        previous_misses = store.stats.physical_reads

    publish(
        "ablation_buffer_pool",
        format_table(
            ["buffer_pages", "logical", "physical", "hit_rate"], rows
        )
        + "\n(LRU inclusion: larger pools never miss more)",
    )


def test_mcost_model_predicts_access_frequency(benchmark):
    """The partitioning cost model vs measured reality."""
    database, index = benchmark.pedantic(_database, rounds=1, iterations=1)
    rng = np.random.default_rng(305)
    probes = _probe_boxes(rng, PROBES)

    # Measured: how often each segment MBR is returned by a probe.
    hits: dict = {}
    for probe in probes:
        for entry in index.search_within(probe, EPSILON):
            key = (entry.payload.sequence_id, entry.payload.segment_index)
            hits[key] = hits.get(key, 0) + 1

    predicted = []
    measured = []
    for sequence_id, partition in database.partitions():
        for segment in partition:
            # MCOST's DA term with the probe's actual Q_k + eps.
            estimate = marginal_cost(
                segment.mbr.sides, 1, QUERY_SIDE + EPSILON
            )
            predicted.append(min(1.0, estimate))
            measured.append(
                hits.get((sequence_id, segment.index), 0) / PROBES
            )
    predicted = np.array(predicted)
    measured = np.array(measured)

    correlation = float(np.corrcoef(predicted, measured)[0, 1])
    ratio = float(measured.mean() / predicted.mean())

    # Robust monotonicity check: bucket segments into quintiles of the
    # predicted access probability; measured frequency must rise from the
    # bottom to the top bucket.  (Plain correlation is diluted because the
    # uniform-space model knows the MBR's *size* but not its *location*,
    # and clustered corpora make location matter — which is worth seeing.)
    order = np.argsort(predicted)
    buckets = np.array_split(measured[order], 5)
    bucket_means = [float(b.mean()) for b in buckets]

    publish(
        "ablation_mcost_model",
        f"segments={predicted.size}  predicted access prob mean="
        f"{predicted.mean():.3f}  measured={measured.mean():.3f}  "
        f"(ratio {ratio:.2f})  correlation={correlation:.3f}\n"
        f"measured frequency by predicted-cost quintile: "
        + ", ".join(f"{m:.3f}" for m in bucket_means)
        + "\n(the MCOST intersection-probability model must rank segments "
        "correctly for the greedy partitioning to optimise the right thing; "
        "absolute levels drift because the uniform-space model ignores "
        "data clustering)",
    )
    assert correlation > 0.0
    assert bucket_means[-1] > bucket_means[0]
    # Same order of magnitude overall.
    assert 0.1 < ratio < 10.0
