"""CI crash-recovery smoke test: kill -9 loses no acknowledged write.

The full durability loop, through the real CLI and real processes:

1. generate a tiny corpus and boot ``python -m repro serve --data-dir``
   (WAL enabled) on a free port;
2. insert sequences and remove one through :class:`ServiceClient` — each
   acknowledgement means the record is fsynced in the WAL;
3. ``SIGKILL`` the server (no drain, no checkpoint, no atexit), then
   ``python -m repro wal-inspect`` the log it left: exit 0 (no torn
   tail) and one valid record per acknowledged mutation — the read-only
   inspection agrees with what recovery is about to replay;
4. restart from the same data directory **without** ``--corpus`` and with
   ``REPRO_CHECK_CONTRACTS=1``, and require every acknowledged mutation
   to be visible;
5. tier-1 parity: a range search against the recovered server must return
   exactly what a never-crashed in-process engine returns on the same
   logical state;
6. restart from a ``snapshot.npz`` in the older per-sequence archive
   layout (one ``sequence_<i>`` member each): parity again, then
   ``SIGTERM`` — the checkpoint written on close must be in the current
   layout (one point block plus stored segment counts), and a second boot
   from it must give the same answers.

Usage::

    PYTHONPATH=src python tools/crash_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = ["main"]

_BANNER = re.compile(r"http://([\d.]+):(\d+)")
_RECORDS = re.compile(r"(\d+) valid record\(s\)")


def _generate_corpus(path: Path) -> None:
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "generate",
            "--dataset",
            "fractal",
            "--sequences",
            "10",
            "--out",
            str(path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"corpus generation failed:\n{completed.stderr}")


def _boot(arguments: list[str], env: dict[str, str]) -> tuple:
    """Start ``repro serve``; returns (process, base_url)."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    if server.stdout is None:
        server.kill()
        raise RuntimeError("server stdout was not captured")
    banner = server.stdout.readline()
    match = _BANNER.search(banner)
    if match is None:
        server.kill()
        raise RuntimeError(f"no address banner in: {banner!r}")
    return server, f"http://{match.group(1)}:{match.group(2)}"


def _inspect_wal(wal: Path, acknowledged: int, env: dict[str, str]) -> None:
    """``repro wal-inspect`` must find a clean log of ``acknowledged`` records."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "wal-inspect", str(wal)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"wal-inspect exited {completed.returncode} on the killed "
            f"server's log:\n{completed.stdout}{completed.stderr}"
        )
    match = _RECORDS.search(completed.stdout)
    if match is None or int(match.group(1)) != acknowledged:
        raise RuntimeError(
            f"wal-inspect found {match and match.group(1)} record(s), "
            f"{acknowledged} mutations were acknowledged:\n{completed.stdout}"
        )


def _stop(server: subprocess.Popen, signum: int, what: str) -> None:
    """Signal ``server`` and require a clean exit within 15 s."""
    server.send_signal(signum)
    deadline = time.monotonic() + 15
    while server.poll() is None and time.monotonic() < deadline:
        time.sleep(0.1)
    if server.poll() != 0:
        raise RuntimeError(
            f"{what} did not exit cleanly (returncode={server.poll()})"
        )


def _write_old_layout(database, path: Path) -> None:
    """``database`` as archives were written before the point block: one
    compressed ``sequence_<i>`` member per sequence beside ``_meta``, which
    then also named an index kind and its node capacity (ignored now)."""
    import json

    import numpy as np

    ids = database.ids()
    meta = {
        "dimension": database.dimension,
        "cost_constant": database.cost_constant,
        "max_points": database.max_points,
        "index_kind": "rtree",
        "max_entries": 16,
        "ids": [[type(i).__name__, str(i)] for i in ids],
    }
    members = {
        f"sequence_{ordinal}": database.sequence(sequence_id).points
        for ordinal, sequence_id in enumerate(ids)
    }
    members["_meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **members)


def _old_layout_leg(tmp: Path, corpus: Path, env: dict[str, str]) -> None:
    """Boot from an old-layout snapshot, then from the checkpoint that
    boot wrote on close: the same answers as a never-crashed engine, and
    the second archive in the current layout."""
    import numpy as np

    from repro.core.database import SequenceDatabase
    from repro.core.search import SimilaritySearch
    from repro.service.client import ServiceClient

    reference = SequenceDatabase.load(corpus)
    data_dir = tmp / "old-layout"
    data_dir.mkdir()
    snapshot = data_dir / "snapshot.npz"
    _write_old_layout(reference, snapshot)
    queries = np.random.default_rng(2001).random((3, 25, reference.dimension))
    search = SimilaritySearch(reference)
    expected = [
        list(search.search(query, epsilon).answers)
        for query in queries
        for epsilon in (0.5, 0.25)
    ]
    for boot in ("old-layout snapshot", "its checkpoint"):
        server, base_url = _boot(["--data-dir", str(data_dir)], env)
        try:
            client = ServiceClient(base_url, timeout=10.0)
            stats = client.stats()
            if stats["snapshot_version"] != stats["durability"]["wal_last_seq"]:
                raise RuntimeError(
                    f"boot from the {boot}: snapshot version "
                    f"{stats['snapshot_version']} != WAL seq {stats['durability']}"
                )
            served = [
                client.search(query, epsilon)["answers"]
                for query in queries
                for epsilon in (0.5, 0.25)
            ]
            if served != expected:
                raise RuntimeError(
                    f"parity failure after a boot from the {boot}: served "
                    f"{served}, expected {expected}"
                )
            client.close()
            _stop(server, signal.SIGTERM, f"server booted from the {boot}")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
        with np.load(snapshot) as archive:
            layout = sorted(archive.files)
        if layout != [
            "_meta", "point_offsets", "points", "segment_counts", "segment_offsets"
        ]:
            raise RuntimeError(f"checkpoint on close wrote members {layout}")


def main() -> int:
    """Run the crash-recovery sequence; returns a process exit code."""
    import numpy as np

    from repro.core.database import SequenceDatabase
    from repro.core.search import SimilaritySearch
    from repro.service.client import RetryPolicy, ServiceClient

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")

    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        corpus = Path(tmp) / "corpus.npz"
        data_dir = Path(tmp) / "data"
        _generate_corpus(corpus)

        server, base_url = _boot(
            ["--corpus", str(corpus), "--data-dir", str(data_dir)], env
        )
        rng = np.random.default_rng(2000)
        inserted: dict[str, list] = {}
        acknowledged = 0
        try:
            client = ServiceClient(base_url, timeout=10.0)
            health = client.healthz()
            if not health["durable"]:
                raise RuntimeError(f"server is not durable: {health}")
            dimension = int(health["dimension"])
            for ordinal in range(3):
                points = rng.random((20, dimension))
                sequence_id = f"crash-{ordinal}"
                client.insert(points, sequence_id=sequence_id)
                inserted[sequence_id] = points.tolist()
                acknowledged += 1
            client.remove("crash-1")
            del inserted["crash-1"]
            acknowledged += 1
            # Every call above returned 200: all three inserts and the
            # remove are acknowledged, hence fsynced in the WAL.
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=15)
        if server.poll() == 0:
            raise RuntimeError("server survived SIGKILL?")
        _inspect_wal(data_dir / "wal.log", acknowledged, env)

        # Restart purely from the data directory, contracts armed.
        env_checked = dict(env)
        env_checked["REPRO_CHECK_CONTRACTS"] = "1"
        server, base_url = _boot(["--data-dir", str(data_dir)], env_checked)
        try:
            client = ServiceClient(
                base_url,
                timeout=10.0,
                retry=RetryPolicy(max_attempts=3, seed=0),
            )
            health = client.healthz()
            expected_count = 10 + len(inserted)
            if health["sequences"] != expected_count:
                raise RuntimeError(
                    f"recovered {health['sequences']} sequences, expected "
                    f"{expected_count}: an acknowledged write was lost"
                )

            # Acknowledged inserts are findable; the removed one is not.
            for sequence_id, points in inserted.items():
                reply = client.search(points, 0.05)
                if sequence_id not in reply["answers"]:
                    raise RuntimeError(
                        f"recovered server cannot find {sequence_id!r}"
                    )
            probe = client.search(np.asarray(inserted["crash-0"]), 0.05)
            if "crash-1" in probe["answers"]:
                raise RuntimeError("removed sequence came back after recovery")

            # Tier-1 parity: recovered HTTP answers == never-crashed engine.
            reference = SequenceDatabase.load(corpus)
            for sequence_id, points in inserted.items():
                reference.add(points, sequence_id=sequence_id)
            search = SimilaritySearch(reference)
            query = rng.random((25, dimension))
            for epsilon in (0.5, 0.25):
                served = client.search(query, epsilon)
                expected = search.search(query, epsilon)
                if served["answers"] != list(expected.answers):
                    raise RuntimeError(
                        f"parity failure at epsilon={epsilon}: served "
                        f"{served['answers']}, expected {expected.answers}"
                    )

            _stop(server, signal.SIGINT, "recovered server")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

        _old_layout_leg(Path(tmp), corpus, env_checked)

    print(
        "crash smoke OK: kill -9 mid-serve, wal-inspect counts every "
        "acknowledged write, restart from WAL, all "
        "acknowledged writes present, search parity with a never-crashed "
        "engine (contracts on); an old-layout snapshot boots with parity "
        "and is checkpointed in the current layout"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
