"""CI smoke test for the cluster serving layer — with real failures.

Boots three durable ``repro serve`` backends (empty, data-dir recovery)
and a ``repro cluster-serve`` coordinator attached to them, then walks
the failure ladder end to end:

1. insert a corpus through the coordinator and verify a complete search;
2. ``kill -9`` one backend and require *failover* — same answers,
   still ``complete=true`` (every shard keeps a live replica);
3. write while that backend is down (quorum 1) so a repair is queued;
4. kill a second backend and require *typed degradation* — search
   returns ``complete=false`` naming exactly the shard whose replicas
   are both dead, and kNN raises ``ShardUnavailable`` (fail closed);
5. restart the first backend on its old port (WAL recovery), force a
   probe, and require *read-repair* — the missed write shows up on the
   restarted backend and the cluster serves complete results again;
6. SIGINT everything and require clean shutdown banners.

A second, short leg boots the *self-contained* mode — ``repro
cluster-serve --corpus`` over in-process ``LocalBackend``s, which the
coordinator searches in a plain loop on the request's own thread — and
requires ``/search`` and ``/knn`` parity with a single node, a write
visible to the next search, ``hedges == 0`` with the default (enabled)
hedge policy, and the same clean shutdown.

Usage::

    PYTHONPATH=src python tools/cluster_smoke.py
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Any

__all__ = ["main"]

_BANNER = re.compile(r"http://([\d.]+):(\d+)")

DIMENSION = 2
CORPUS_SIZE = 10
REPLICATION = 2


def _popen(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def _await_banner(process: subprocess.Popen, what: str) -> tuple[str, int]:
    if process.stdout is None:
        raise RuntimeError(f"{what}: stdout was not captured")
    banner = process.stdout.readline()
    match = _BANNER.search(banner)
    if match is None:
        raise RuntimeError(f"{what}: no address banner in {banner!r}")
    return match.group(1), int(match.group(2))


def _start_backend(data_dir: Path, port: int) -> tuple[subprocess.Popen, int]:
    process = _popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--data-dir",
            str(data_dir),
            "--port",
            str(port),
            "--workers",
            "2",
        ]
    )
    _, bound = _await_banner(process, f"backend {data_dir.name}")
    return process, bound


def _stop_cleanly(process: subprocess.Popen, what: str) -> None:
    process.send_signal(signal.SIGINT)
    deadline = time.monotonic() + 15
    while process.poll() is None and time.monotonic() < deadline:
        time.sleep(0.1)
    if process.poll() != 0:
        raise RuntimeError(f"{what} did not exit cleanly ({process.poll()})")
    tail = process.stdout.read() if process.stdout else ""
    if "shut down cleanly" not in tail:
        raise RuntimeError(f"{what}: missing shutdown banner in {tail!r}")


def _post(base_url: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10.0) as reply:
        return dict(json.loads(reply.read()))


def _in_process_leg(tmp: Path, corpus: dict, rng: Any) -> None:
    """``cluster-serve --corpus``: in-process shards, one request thread."""
    from repro.core.database import SequenceDatabase
    from repro.service import QueryEngine
    from repro.service.client import ServiceClient
    from repro.service.http import search_payload

    database = SequenceDatabase(DIMENSION)
    for sequence_id, points in corpus.items():
        database.add(points, sequence_id=sequence_id)
    database.save(tmp / "corpus.npz")
    single = QueryEngine(database, workers=1, cache_size=0)
    coordinator: subprocess.Popen | None = _popen(
        [
            sys.executable,
            "-m",
            "repro",
            "cluster-serve",
            "--corpus",
            str(tmp / "corpus.npz"),
            "--local-backends",
            "3",
            "--replication",
            str(REPLICATION),
            "--probe-interval",
            "30",
            "--port",
            "0",
        ]
    )
    try:
        host, port = _await_banner(coordinator, "in-process coordinator")
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
        query = rng.random((8, DIMENSION))
        for epsilon in (0.3, 0.45):
            expected = json.loads(
                json.dumps(
                    search_payload(
                        single.search_detailed(query, epsilon),
                        find_intervals=True,
                    )
                )
            )
            reply = client.search(query, epsilon)
            if not reply["complete"] or any(
                reply[key] != expected[key]
                for key in ("answers", "candidates", "intervals")
            ):
                raise RuntimeError(
                    f"in-process search differs from a single node: {reply}"
                )
        if client.knn(query, 3) != single.knn(query, 3):
            raise RuntimeError("in-process knn differs from a single node")
        fresh = rng.random((20, DIMENSION))
        client.insert(fresh, "fresh")
        if "fresh" not in client.search(fresh[:8], 0.05)["answers"]:
            raise RuntimeError("an insert was not visible to the next search")
        stats = client.stats()
        if stats["hedges"] != 0 or stats["backend_calls"] <= 0:
            raise RuntimeError(
                "in-process shards must be searched without hedging: "
                f"hedges={stats['hedges']} calls={stats['backend_calls']}"
            )
        _stop_cleanly(coordinator, "in-process coordinator")
        coordinator = None
    finally:
        single.close()
        if coordinator is not None and coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait(timeout=10)


def main() -> int:
    """Run the smoke sequence; returns a process exit code."""
    import numpy as np

    from repro.cluster import ShardRouter
    from repro.core.database import SequenceDatabase
    from repro.service.client import ServiceClient
    from repro.service.errors import ShardUnavailable

    router = ShardRouter(num_backends=3, replication=REPLICATION)
    rng = np.random.default_rng(4000)
    corpus = {
        f"seq-{i}": rng.random((20, DIMENSION)) for i in range(CORPUS_SIZE)
    }
    # A write id whose replicas include backend 1 but not backend 2: it
    # must survive backend 1's death (step 3) and must not land on the
    # backend that stays dead (step 4), so read-repair alone (step 5)
    # makes it fully replicated.
    repair_id = next(
        f"repair-{n}"
        for n in range(1000)
        if 1 in router.placement(f"repair-{n}").replicas
        and 2 not in router.placement(f"repair-{n}").replicas
    )
    # The only shard both backend 1 and backend 2 replicate: the one
    # search must name as missing once both are dead.
    dead_shard = [
        shard
        for shard in range(router.num_shards)
        if set(router.replicas_of(shard)) <= {1, 2}
    ]

    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as tmp:
        data_dirs = [Path(tmp) / f"backend-{i}" for i in range(3)]
        for data_dir in data_dirs:
            data_dir.mkdir()
            # An empty snapshot lets `repro serve --data-dir` boot with
            # no corpus; all data then arrives through the coordinator.
            SequenceDatabase(DIMENSION).save(data_dir / "snapshot.npz")

        backends: list[subprocess.Popen | None] = []
        ports: list[int] = []
        coordinator: subprocess.Popen | None = None
        try:
            for data_dir in data_dirs:
                process, port = _start_backend(data_dir, 0)
                backends.append(process)
                ports.append(port)

            coordinator = _popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "cluster-serve",
                    *(
                        arg
                        for port in ports
                        for arg in ("--backend", f"http://127.0.0.1:{port}")
                    ),
                    "--replication",
                    str(REPLICATION),
                    "--write-quorum",
                    "1",
                    "--probe-interval",
                    "30",  # probes are forced via POST /probe below
                    "--port",
                    "0",
                ]
            )
            host, port = _await_banner(coordinator, "coordinator")
            base_url = f"http://{host}:{port}"
            client = ServiceClient(base_url, timeout=10.0)

            # 1. Populate through the coordinator; a wide search sees all.
            for sequence_id, points in corpus.items():
                client.insert(points, sequence_id)
            query = rng.random((8, DIMENSION))
            reply = client.search(query, 2.5)
            if not reply["complete"] or reply["missing_shards"]:
                raise RuntimeError(f"baseline search degraded: {reply}")
            baseline = sorted(reply["answers"])
            if baseline != sorted(corpus):
                raise RuntimeError(f"baseline answers wrong: {baseline}")

            # 2. kill -9 backend 1: every shard keeps a replica, so the
            # coordinator must fail over and stay complete.
            backends[1].kill()
            backends[1].wait(timeout=10)
            reply = client.search(query, 2.5)
            if not reply["complete"] or sorted(reply["answers"]) != baseline:
                raise RuntimeError(f"failover search degraded: {reply}")

            # 3. Write while backend 1 is down (quorum 1 admits it); the
            # coordinator must queue a repair for the dead replica.
            client.insert(corpus["seq-0"] * 0.5, repair_id)
            stats = client.stats()
            if stats["repairs_queued"] < 1:
                raise RuntimeError(f"no repair queued: {stats}")

            # 4. Kill backend 2 as well: the shard replicated only on
            # backends 1 and 2 is now gone — degradation must be typed.
            backends[2].kill()
            backends[2].wait(timeout=10)
            reply = client.search(query, 2.5)
            if reply["complete"] or reply["missing_shards"] != dead_shard:
                raise RuntimeError(
                    f"expected partial result missing {dead_shard}: {reply}"
                )
            try:
                client.knn(query, 3)
            except ShardUnavailable as error:
                if list(error.missing_shards) != dead_shard:
                    raise RuntimeError(
                        f"knn named wrong shards: {error.missing_shards}"
                    ) from error
            else:
                raise RuntimeError("knn over a dead shard did not fail closed")

            # 5. Restart backend 1 on its old port: WAL recovery restores
            # its acknowledged writes, and a forced probe must replay the
            # queued repair onto it.
            process, _ = _start_backend(data_dirs[1], ports[1])
            backends[1] = process
            _post(base_url, "/probe", {})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sum(client.stats()["repair_pending"].values()) == 0:
                    break
                time.sleep(0.2)
                _post(base_url, "/probe", {})
            else:
                raise RuntimeError("read-repair never drained")
            restarted = ServiceClient(
                f"http://127.0.0.1:{ports[1]}", timeout=10.0
            )
            repaired = restarted.search(corpus["seq-0"] * 0.5, 0.05)
            if repair_id not in repaired["answers"]:
                raise RuntimeError(
                    f"repaired write missing on restarted backend: {repaired}"
                )

            reply = client.search(query, 2.5)
            if not reply["complete"] or sorted(reply["answers"]) != sorted(
                baseline + [repair_id]
            ):
                raise RuntimeError(f"post-repair search degraded: {reply}")
            health = client.healthz()
            if health["unavailable_shards"]:
                raise RuntimeError(f"shards still unavailable: {health}")

            # 6. Everything still alive shuts down cleanly.
            _stop_cleanly(coordinator, "coordinator")
            coordinator = None
            _stop_cleanly(backends[0], "backend 0")
            _stop_cleanly(backends[1], "backend 1 (restarted)")
            backends[0] = backends[1] = None
        finally:
            for process in [coordinator, *[b for b in backends if b]]:
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)

        _in_process_leg(Path(tmp), corpus, rng)

    print(
        "cluster smoke OK: scatter-gather parity, failover past a kill -9, "
        "typed partial results, write-quorum + read-repair, clean shutdown; "
        "in-process mode: single-node parity, write visibility, no hedges"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
