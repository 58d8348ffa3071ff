"""The four systems under test, each behind the same small handle.

A workload builds its system from the seeded inputs (timed as
``setup_s``), hands every client thread a handle with ``search`` / ``knn``
/ ``insert`` / ``append``, and tears everything down in ``close``.  Only
public product functions are called: ``repro.core``, ``repro.service``,
``repro.cluster`` and the ``python -m repro serve`` CLI.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
from collections.abc import Callable
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster import ClusterCoordinator, LocalBackend
from repro.core import SequenceDatabase, SimilaritySearch
from repro.service import QueryEngine, ServiceClient

from benchkit.inputs import DIMENSION, Inputs, Spec
from benchkit.server import Server
from benchkit.spans import Tracer

#: ``op_id`` of spans recorded outside the op stream (set-up, fixtures).
SETUP_OP = -1
_SERVER_WORKERS = "2"
_CLIENT_TIMEOUT_S = 60.0


class Refused(RuntimeError):
    """The system answered, but declined to answer in full."""


#: Set-up loops call the workload's ``tick`` after this many sequences.
TICK_EVERY = 64


def build_database(
    sequences: list,
    tracer: Tracer | None = None,
    tick: Callable[[], object] = lambda: None,
) -> SequenceDatabase:
    """``SequenceDatabase.add`` one sequence at a time, default index."""
    database = SequenceDatabase(DIMENSION)
    for position, sequence in enumerate(sequences, start=1):
        with _span(tracer, "core.database.add", "core.database"):
            database.add(sequence)
        if position % TICK_EVERY == 0:
            tick()
    return database


def make_scratch(out_dir: Path, prefix: str) -> Path:
    """A fresh temporary directory under ``<out>/tmp`` (inside the checkout)."""
    parent = out_dir / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=parent))


def _span(tracer: Tracer | None, name: str, layer: str) -> Any:
    return nullcontext() if tracer is None else tracer.span(SETUP_OP, name, layer)


class Workload:
    """Base: the in-process parts every workload shares."""

    #: Layer the outermost call of an op belongs to (names its span).
    outer_layer = ""

    def __init__(self, spec: Spec, out_dir: Path) -> None:
        self.spec = spec
        self.out_dir = out_dir
        #: The harness-side database the oracle, the mirror engines and
        #: the ladder run on; None where set-up does not need one.
        self.database: SequenceDatabase | None = None
        #: Called now and then during set-up (the machine-speed sampler).
        self.tick: Callable[[], object] = lambda: None

    def setup(self, inputs: Inputs, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def handle(self, client: int) -> Any:
        raise NotImplementedError

    def outer_name(self, verb: str) -> str:
        """Span name of the outermost call of a ``verb`` op."""
        return f"{self.outer_layer}.{verb}"

    def peak_rss_mb(self) -> float:
        """Peak resident set of the serving process (here: the harness)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def engine_stats(self) -> list[dict]:
        """``stats()`` blocks of the engines serving this workload."""
        return []

    def after_timed(self, acked: dict[str, int], user_points: int) -> dict:
        """Work after the timed phase; returns extra end-to-end values."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# core_range
# ----------------------------------------------------------------------
class _CoreHandle:
    def __init__(self, search: SimilaritySearch) -> None:
        self._search = search

    def search(self, query: np.ndarray, epsilon: float) -> tuple[list, Any]:
        result = self._search.search(query, epsilon, find_intervals=True)
        return result.answers, result

    def knn(self, query: np.ndarray, k: int) -> list:
        return self._search.knn(query, k)


class CoreRange(Workload):
    """One thread calling ``SimilaritySearch`` directly."""

    outer_layer = "core.search"

    def setup(self, inputs: Inputs, tracer: Tracer | None) -> None:
        self.database = build_database(inputs.corpus, tracer, self.tick)
        self._search = SimilaritySearch(self.database)

    def handle(self, client: int) -> _CoreHandle:
        return _CoreHandle(self._search)

    def outer_name(self, verb: str) -> str:
        # The outer call is the core boundary itself, so it takes the
        # name the inner rung has on every other workload.
        return "core.search.range" if verb == "search" else f"core.search.{verb}"


# ----------------------------------------------------------------------
# serve_read / serve_mixed_durable
# ----------------------------------------------------------------------
class _ServeHandle:
    def __init__(self, url: str) -> None:
        self.client = ServiceClient(url, timeout=_CLIENT_TIMEOUT_S)

    def search(self, query: np.ndarray, epsilon: float) -> tuple[list, Any]:
        payload = self.client.search(query, epsilon, find_intervals=True)
        return payload["answers"], payload

    def knn(self, query: np.ndarray, k: int) -> list:
        return self.client.knn(query, k)

    def insert(self, sequence_id: str, points: np.ndarray) -> None:
        self.client.insert(points, sequence_id=sequence_id)

    def append(self, sequence_id: str, points: np.ndarray) -> None:
        self.client.append(sequence_id, points)


class ServeRead(Workload):
    """A ``repro serve --workers 2`` subprocess, two HTTP clients."""

    outer_layer = "service.client"

    def __init__(self, spec: Spec, out_dir: Path) -> None:
        super().__init__(spec, out_dir)
        self.tmp = make_scratch(out_dir, spec.name)
        self.corpus_path = self.tmp / "corpus.npz"
        self._server: Server | None = None

    @property
    def server(self) -> Server:
        if self._server is None:
            raise RuntimeError("the server is not running")
        return self._server

    def setup(self, inputs: Inputs, tracer: Tracer | None) -> None:
        self.database = build_database(inputs.corpus, tracer, self.tick)
        with _span(tracer, "core.database.save", "core.database"):
            self.database.save(self.corpus_path)
        self._server = Server(self.server_arguments(), self.tmp / "serve.log")

    def server_arguments(self) -> list[str]:
        return ["--corpus", str(self.corpus_path), "--workers", _SERVER_WORKERS]

    def handle(self, client: int) -> _ServeHandle:
        return _ServeHandle(self.server.url)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def engine_stats(self) -> list[dict]:
        return [dict(ServiceClient(self.server.url).stats())]

    def close(self) -> None:
        try:
            if self._server is not None:
                self._server.stop()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


class ServeMixedDurable(ServeRead):
    """The same server with a WAL (fsync per append), then ``kill -9``."""

    def server_arguments(self) -> list[str]:
        return [*super().server_arguments(), "--data-dir", str(self.tmp / "data")]

    def after_timed(self, acked: dict[str, int], user_points: int) -> dict:
        """Kill, restart from the data directory alone, audit every ack."""
        data = self.tmp / "data"
        wal_bytes = (data / "wal.log").stat().st_size
        stored = (data / "snapshot.npz").stat().st_size + wal_bytes
        self.server.kill()
        self._server = Server(
            ["--data-dir", str(data), "--workers", _SERVER_WORKERS],
            self.tmp / "serve.log",
        )
        recovered = {
            str(entry["id"]): int(entry["length"])
            for entry in ServiceClient(
                self.server.url, timeout=_CLIENT_TIMEOUT_S
            ).export_sequences(include_points=False)["sequences"]
        }
        lost = sum(recovered.get(sid) != length for sid, length in acked.items())
        return {
            "recovery_s": self.server.healthy_after_s,
            "stored_bytes_per_user_byte": stored / (user_points * DIMENSION * 8),
            "wal_bytes": wal_bytes,
            "acked_writes_checked": len(acked),
            "lost_writes": lost,
        }


# ----------------------------------------------------------------------
# cluster_scatter
# ----------------------------------------------------------------------
class _ClusterHandle:
    def __init__(self, coordinator: ClusterCoordinator) -> None:
        self._coordinator = coordinator

    def search(self, query: np.ndarray, epsilon: float) -> tuple[list, Any]:
        result = self._coordinator.search(query, epsilon, find_intervals=True)
        if not result.complete:
            raise Refused(f"partial result, shards {result.missing_shards} missing")
        return result.answers, result

    def knn(self, query: np.ndarray, k: int) -> list:
        return self._coordinator.knn(query, k).neighbors

    def insert(self, sequence_id: str, points: np.ndarray) -> None:
        self._coordinator.insert(points, sequence_id=sequence_id)


class ClusterScatter(Workload):
    """A coordinator over three in-process backends, replication 2."""

    outer_layer = "cluster.coordinator"
    BACKENDS = 3

    def setup(self, inputs: Inputs, tracer: Tracer | None) -> None:
        self.engines = [
            QueryEngine(SequenceDatabase(DIMENSION), workers=2)
            for _ in range(self.BACKENDS)
        ]
        self.backends = [
            LocalBackend(engine, name=f"backend-{index}")
            for index, engine in enumerate(self.engines)
        ]
        self.coordinator = ClusterCoordinator(
            self.backends, replication=2, hedge=None, probe_interval=3600.0
        )
        for position, sequence in enumerate(inputs.corpus, start=1):
            with _span(tracer, "cluster.coordinator.ingest", "cluster.coordinator"):
                self.coordinator.insert(
                    sequence.points, sequence_id=sequence.sequence_id
                )
            if position % TICK_EVERY == 0:
                self.tick()
        if tracer is not None:
            # The ladder's inner rungs need the union corpus in one
            # database; only the traced pass pays for building it.
            self.database = build_database(inputs.corpus, tracer)

    def handle(self, client: int) -> _ClusterHandle:
        return _ClusterHandle(self.coordinator)

    def engine_stats(self) -> list[dict]:
        return [backend.stats() for backend in self.backends]

    def close(self) -> None:
        self.coordinator.close()
        for engine in self.engines:
            engine.close()


WORKLOADS: dict[str, type[Workload]] = {
    "core_range": CoreRange,
    "serve_read": ServeRead,
    "serve_mixed_durable": ServeMixedDurable,
    "cluster_scatter": ClusterScatter,
}
