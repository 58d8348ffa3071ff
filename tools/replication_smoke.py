"""CI replication smoke test: log shipping and the durable repair journal.

Two phases, both through the real CLI and real processes:

**Phase 1 — follower catch-up past a kill -9.**  Boot a durable leader
and two ``repro serve --follow`` followers.  Stream inserts through the
leader, ``SIGKILL`` one follower mid-stream, keep writing, then restart
it from the same data directory with ``REPRO_CHECK_CONTRACTS=1``.  The
restarted follower must catch up **via log shipping alone** (its durable
cursor resumes; zero snapshot resyncs) to exact corpus parity with both
the leader and the follower that never crashed, and it must keep
rejecting direct writes (``FollowerReadOnly``).

**Phase 2 — repair journal survives a coordinator restart.**  Boot three
durable backends and a ``repro cluster-serve`` coordinator with
``--journal-dir``.  Kill a backend, write through the coordinator
(quorum 1) — an insert and an append — so both are journaled, then
``SIGKILL`` the coordinator itself.  Restart the backend and a *new*
coordinator over the same journal directory, armed with
``REPRO_FAULTS="follower.persist=kill"``: the queued repairs must be
visible before any probe (recovered from disk, not memory), and the
first drain dies after the backend applied the batch but before its
cursor was written.  A third coordinator over the same journal drains
again: the replay is idempotent, so the restarted backend holds the
insert and exactly the base plus appended points.

Usage::

    PYTHONPATH=src python tools/replication_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

__all__ = ["main"]

_BANNER = re.compile(r"http://([\d.]+):(\d+)")

DIMENSION = 2
STREAM_SIZE = 12
KILL_AFTER = 6  # follower B dies after this many leader inserts
POLL_INTERVAL = "0.1"
CATCHUP_DEADLINE = 30.0


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env.update(extra)
    return env


def _popen(argv: list[str], env: dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _await_banner(process: subprocess.Popen, what: str) -> tuple[str, int]:
    if process.stdout is None:
        raise RuntimeError(f"{what}: stdout was not captured")
    banner = process.stdout.readline()
    match = _BANNER.search(banner)
    if match is None:
        raise RuntimeError(f"{what}: no address banner in {banner!r}")
    return match.group(1), int(match.group(2))


def _stop_cleanly(process: subprocess.Popen, what: str) -> None:
    process.send_signal(signal.SIGINT)
    deadline = time.monotonic() + 15
    while process.poll() is None and time.monotonic() < deadline:
        time.sleep(0.1)
    if process.poll() != 0:
        raise RuntimeError(f"{what} did not exit cleanly ({process.poll()})")


def _kill_hard(process: subprocess.Popen, what: str) -> None:
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=10)
    if process.poll() == 0:
        raise RuntimeError(f"{what} survived SIGKILL?")


def _post(base_url: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10.0) as reply:
        return dict(json.loads(reply.read()))


def _corpus_fingerprint(export: dict) -> list[tuple]:
    """A comparable identity for a full export: sorted (id, points)."""
    return sorted(
        (str(entry["id"]), json.dumps(entry["points"]))
        for entry in export["sequences"]
    )


def _await_caught_up(client, leader, what: str) -> dict:
    """Poll ``/healthz`` until the follower has applied the leader's last
    record.

    The target is read from the leader, not from the follower's own
    ``lag``: a restarted follower reports ``lag == 0`` with the cursor it
    persisted before it has polled once.  A durable leader publishes
    ``snapshot_version == wal_last_seq`` after every commit, so its
    ``/healthz`` ``snapshot_version`` is the sequence number to reach.
    """
    target = leader.healthz()["snapshot_version"]
    deadline = time.monotonic() + CATCHUP_DEADLINE
    status: dict = {}
    while time.monotonic() < deadline:
        status = dict(client.healthz()["replication"])
        if status["applied_seq"] == target:
            return status
        time.sleep(0.2)
    raise RuntimeError(f"{what} never reached seq {target}: {status}")


def _phase_one(tmp: Path) -> None:
    """Leader + two followers; one follower dies and resumes by shipping."""
    import numpy as np

    from repro.core.database import SequenceDatabase
    from repro.service.client import ServiceClient
    from repro.service.errors import FollowerReadOnly

    leader_dir = tmp / "leader"
    follower_dirs = [tmp / "follower-a", tmp / "follower-b"]
    for directory in (leader_dir, *follower_dirs):
        directory.mkdir()
    # An empty snapshot lets the leader boot durable with no corpus.
    SequenceDatabase(DIMENSION).save(leader_dir / "snapshot.npz")

    def start_serve(argv: list[str], what: str, env: dict) -> tuple:
        process = _popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *argv],
            env,
        )
        host, port = _await_banner(process, what)
        return process, f"http://{host}:{port}"

    def start_follower(
        directory: Path, leader_url: str, what: str, env: dict
    ) -> tuple:
        return start_serve(
            [
                "--data-dir",
                str(directory),
                "--follow",
                leader_url,
                "--poll-interval",
                POLL_INTERVAL,
            ],
            what,
            env,
        )

    rng = np.random.default_rng(5000)
    stream = {
        f"ship-{n}": rng.random((16, DIMENSION)) for n in range(STREAM_SIZE)
    }
    processes: list[subprocess.Popen | None] = [None, None, None]
    try:
        leader_proc, leader_url = start_serve(
            ["--data-dir", str(leader_dir)], "leader", _env()
        )
        processes[0] = leader_proc
        fa_proc, fa_url = start_follower(
            follower_dirs[0], leader_url, "follower A", _env()
        )
        processes[1] = fa_proc
        fb_proc, fb_url = start_follower(
            follower_dirs[1], leader_url, "follower B", _env()
        )
        processes[2] = fb_proc

        leader = ServiceClient(leader_url, timeout=10.0)
        items = list(stream.items())
        for sequence_id, points in items[:KILL_AFTER]:
            leader.insert(points, sequence_id=sequence_id)

        # kill -9 follower B mid-stream: no drain, no cursor flush beyond
        # what each applied batch already persisted.
        _kill_hard(fb_proc, "follower B")
        processes[2] = None
        for sequence_id, points in items[KILL_AFTER:]:
            leader.insert(points, sequence_id=sequence_id)

        # Restart from the same data directory, contracts armed: the
        # durable cursor must resume the tail exactly where it stopped.
        fb_proc, fb_url = start_follower(
            follower_dirs[1],
            leader_url,
            "follower B (restarted)",
            _env(REPRO_CHECK_CONTRACTS="1"),
        )
        processes[2] = fb_proc

        follower_a = ServiceClient(fa_url, timeout=10.0)
        follower_b = ServiceClient(fb_url, timeout=10.0)
        status_a = _await_caught_up(follower_a, leader, "follower A")
        status_b = _await_caught_up(follower_b, leader, "follower B (restarted)")
        if status_b["resyncs"] != 0:
            raise RuntimeError(
                "restarted follower fell back to a snapshot resync "
                f"instead of log shipping: {status_b}"
            )
        if status_a["applied_seq"] != status_b["applied_seq"]:
            raise RuntimeError(
                f"followers disagree on applied_seq: {status_a} vs {status_b}"
            )

        # Exact parity: crashed follower == never-crashed follower == leader.
        reference = _corpus_fingerprint(leader.export_sequences())
        if len(reference) != STREAM_SIZE:
            raise RuntimeError(f"leader lost writes: {len(reference)}")
        for client, what in ((follower_a, "follower A"), (follower_b, "follower B")):
            fingerprint = _corpus_fingerprint(client.export_sequences())
            if fingerprint != reference:
                raise RuntimeError(f"{what} diverged from the leader corpus")

        # Followers stay read-only even after a restart.
        try:
            follower_b.insert(rng.random((4, DIMENSION)), sequence_id="forbidden")
        except FollowerReadOnly:
            pass
        else:
            raise RuntimeError("restarted follower accepted a direct write")

        _stop_cleanly(fb_proc, "follower B (restarted)")
        _stop_cleanly(fa_proc, "follower A")
        _stop_cleanly(leader_proc, "leader")
        processes = [None, None, None]
    finally:
        for process in processes:
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _phase_two(tmp: Path) -> None:
    """The journaled repair outlives a SIGKILL'd coordinator."""
    import numpy as np

    from repro.cluster import ShardRouter
    from repro.core.database import SequenceDatabase
    from repro.service.client import ServiceClient

    replication = 2
    journal_dir = tmp / "journal"
    data_dirs = [tmp / f"backend-{i}" for i in range(3)]
    for data_dir in data_dirs:
        data_dir.mkdir()
        SequenceDatabase(DIMENSION).save(data_dir / "snapshot.npz")

    router = ShardRouter(num_backends=3, replication=replication)
    rng = np.random.default_rng(6000)
    corpus = {f"seq-{n}": rng.random((12, DIMENSION)) for n in range(8)}
    # A write placed on backend 1 (among others): its repair is what the
    # journal must carry across the coordinator crash.
    repair_id = next(
        f"repair-{n}"
        for n in range(1000)
        if 1 in router.placement(f"repair-{n}").replicas
    )
    repair_points = rng.random((12, DIMENSION))
    # A corpus sequence on backend 1 that it misses an append to.
    append_id = next(
        sequence_id
        for sequence_id in corpus
        if 1 in router.placement(sequence_id).replicas
    )
    append_points = rng.random((7, DIMENSION))

    def start_backend(data_dir: Path, port: int) -> tuple:
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
            ],
            _env(),
        )
        _, bound = _await_banner(process, f"backend {data_dir.name}")
        return process, bound

    def start_coordinator(ports: list[int], env: dict) -> tuple:
        process = _popen(
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
                str(replication),
                "--write-quorum",
                "1",
                "--probe-interval",
                "30",  # probes are forced via POST /probe below
                "--journal-dir",
                str(journal_dir),
                "--port",
                "0",
            ],
            env,
        )
        host, port = _await_banner(process, "coordinator")
        return process, f"http://{host}:{port}"

    backends: list[subprocess.Popen | None] = []
    ports: list[int] = []
    coordinator: subprocess.Popen | None = None
    try:
        for data_dir in data_dirs:
            process, port = start_backend(data_dir, 0)
            backends.append(process)
            ports.append(port)
        coordinator, base_url = start_coordinator(ports, _env())
        client = ServiceClient(base_url, timeout=10.0)

        for sequence_id, points in corpus.items():
            client.insert(points, sequence_id=sequence_id)

        # Backend 1 dies; the quorum-1 writes queue journaled repairs.
        _kill_hard(backends[1], "backend 1")
        client.insert(repair_points, sequence_id=repair_id)
        stats = client.stats()
        if stats["repairs_queued"] < 1:
            raise RuntimeError(f"no repair queued: {stats}")
        if sum(stats["repair_pending"].values()) < 1:
            raise RuntimeError(f"no repair pending: {stats}")
        client.append(append_id, append_points)
        if client.stats()["repair_pending"].get("1") != 2:
            raise RuntimeError(f"append not journaled: {client.stats()}")

        # The coordinator itself dies with the repair still queued.
        _kill_hard(coordinator, "coordinator")
        coordinator = None

        # Restart the backend (WAL recovery on its old port), then a NEW
        # coordinator over the same journal directory, set to die in the
        # middle of its first drain.
        process, _ = start_backend(data_dirs[1], ports[1])
        backends[1] = process
        coordinator, base_url = start_coordinator(
            ports,
            _env(REPRO_CHECK_CONTRACTS="1", REPRO_FAULTS="follower.persist=kill"),
        )
        client = ServiceClient(base_url, timeout=10.0)

        # Before any probe: the pending repair came back from disk.
        stats = client.stats()
        if sum(stats["repair_pending"].values()) < 1:
            raise RuntimeError(
                f"journaled repair lost across coordinator restart: {stats}"
            )

        try:
            _post(base_url, "/probe", {})
        except OSError:
            pass  # the coordinator died mid-drain, as armed
        if coordinator.wait(timeout=15) != 137:
            raise RuntimeError(
                f"coordinator survived its mid-drain kill ({coordinator.poll()})"
            )
        coordinator, base_url = start_coordinator(
            ports, _env(REPRO_CHECK_CONTRACTS="1")
        )
        client = ServiceClient(base_url, timeout=10.0)
        if client.stats()["repair_pending"].get("1") != 2:
            raise RuntimeError(
                f"mid-drain kill lost the cursor's position: {client.stats()}"
            )

        _post(base_url, "/probe", {})
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if sum(client.stats()["repair_pending"].values()) == 0:
                break
            time.sleep(0.2)
            _post(base_url, "/probe", {})
        else:
            raise RuntimeError("recovered repair never drained")

        restarted = ServiceClient(
            f"http://127.0.0.1:{ports[1]}", timeout=10.0
        )
        repaired = restarted.search(repair_points, 0.05)
        if repair_id not in repaired["answers"]:
            raise RuntimeError(
                f"repaired write missing on restarted backend: {repaired}"
            )
        lengths = {
            entry["id"]: entry["length"]
            for entry in restarted.export_sequences()["sequences"]
        }
        if lengths[append_id] != 12 + len(append_points):
            raise RuntimeError(
                f"replayed append is not idempotent: {append_id} holds "
                f"{lengths[append_id]} points, expected "
                f"{12 + len(append_points)}"
            )

        _stop_cleanly(coordinator, "coordinator (restarted)")
        coordinator = None
        for index in (0, 1, 2):
            _stop_cleanly(backends[index], f"backend {index}")
            backends[index] = None
    finally:
        for process in [coordinator, *[b for b in backends if b]]:
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def main() -> int:
    """Run both replication phases; returns a process exit code."""
    with tempfile.TemporaryDirectory(prefix="repro-replication-") as tmp:
        root = Path(tmp)
        phase_one = root / "shipping"
        phase_two = root / "journal"
        phase_one.mkdir()
        phase_two.mkdir()
        _phase_one(phase_one)
        print(
            "phase 1 OK: kill -9'd follower resumed its durable cursor and "
            "reached leader parity by log shipping alone (0 resyncs)"
        )
        _phase_two(phase_two)
        print(
            "phase 2 OK: journaled repairs survived a coordinator SIGKILL "
            "and a kill mid-drain, and replayed once onto the restarted "
            "backend"
        )
    print(
        "replication smoke OK: follower catch-up past kill -9, durable "
        "repair journal across coordinator restart"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
