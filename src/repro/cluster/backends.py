"""Backend adapters: anything with the :class:`ServiceClient` surface.

The coordinator is transport-agnostic: a *backend* is any object exposing
``healthz`` / ``stats`` / ``search`` / ``knn`` / ``insert`` / ``append``
/ ``remove`` and, to catch up, ``apply_records`` / ``restore`` /
``export_sequences``, with :class:`~repro.service.client.ServiceClient` semantics
(same payload shapes, same typed errors).  Over the wire that is a
``ServiceClient``; in-process it is :class:`LocalBackend`, which wraps a
:class:`~repro.service.engine.QueryEngine` directly — no sockets.  Every
response it returns still passes through a JSON round trip, so results
are byte-identical to what the HTTP path produces; the points it is
given do not — they reach the engine as the caller's float64 array,
which the point codec would return bit for bit anyway.  Chaos and
property tests run hundreds of cluster configurations against
``LocalBackend`` in the time one real server would take to boot.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.service.engine import QueryEngine
from repro.service.http import (
    healthz_payload,
    knn_payload,
    search_payload,
    write_payload,
)
from repro.util.validation import check_threshold

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.service.follower import WalFollower
    from repro.service.wal import WalRecord

__all__ = ["Backend", "LocalBackend"]


@runtime_checkable
class Backend(Protocol):
    """The client surface the coordinator requires of every backend.

    Optional: a class attribute ``in_process = True`` declares that calls
    are plain CPU work in this interpreter; the coordinator then makes
    them on its caller's thread instead of handing them to a pool.
    """

    def healthz(self) -> dict:
        """Liveness probe payload."""
        ...

    def stats(self) -> dict:
        """The backend's metrics block."""
        ...

    def search(
        self,
        points: "npt.ArrayLike",
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
    ) -> dict:
        """Range search payload (answers, candidates, intervals)."""
        ...

    def knn(
        self,
        points: "npt.ArrayLike",
        k: int,
        *,
        timeout: float | None = None,
    ) -> list[tuple[float, object]]:
        """The local ``k`` nearest as ``(distance, sequence_id)``."""
        ...

    def insert(
        self, points: "npt.ArrayLike", sequence_id: object = None
    ) -> object:
        """Insert a sequence; returns its id."""
        ...

    def append(self, sequence_id: object, points: "npt.ArrayLike") -> dict:
        """Extend a stored sequence; the reply carries its new ``length``."""
        ...

    def remove(self, sequence_id: object) -> dict:
        """Remove a sequence."""
        ...

    def apply_records(self, records: "list[WalRecord]") -> int:
        """Replay a batch of logged writes idempotently; the count applied."""
        ...

    def restore(self, sequences: list[dict]) -> dict:
        """Replace the corpus with an exported one (snapshot resync)."""
        ...

    def export_sequences(self, *, include_points: bool = True) -> dict:
        """The full corpus, as a snapshot resync donor."""
        ...


def _round_trip(payload: dict) -> Any:
    """Force payloads through JSON so local == HTTP byte-for-byte."""
    return json.loads(json.dumps(payload, default=str))


class LocalBackend:
    """A :class:`QueryEngine` speaking the :class:`ServiceClient` dialect.

    Every response passes through ``json.dumps``/``loads`` to reproduce
    the wire transport exactly — interval maps keyed by
    ``str(sequence_id)``, tuples decayed to lists, numpy scalars to
    floats — so a coordinator cannot tell a local backend from a remote
    one, and parity tests exercise the same code paths either way.
    """

    #: Searched in a plain loop on the coordinator caller's thread.
    in_process = True

    def __init__(
        self,
        engine: QueryEngine,
        *,
        name: str = "local",
        follower: "WalFollower | None" = None,
    ) -> None:
        self.engine = engine
        self.name = name
        #: When this backend is a WAL-shipping replica, its follower loop
        #: — surfaced as the ``replication`` block of ``healthz()`` so a
        #: coordinator can gate bounded-staleness reads on its lag.
        self.follower = follower

    def healthz(self) -> dict:
        """Liveness probe: same payload as the HTTP ``/healthz`` route."""
        return dict(
            _round_trip(healthz_payload(self.engine, follower=self.follower))
        )

    def stats(self) -> dict:
        """The engine's metrics block (JSON round-tripped)."""
        return dict(_round_trip(self.engine.stats()))

    def search(
        self,
        points: "npt.ArrayLike",
        epsilon: float,
        *,
        find_intervals: bool = True,
        timeout: float | None = None,
    ) -> dict:
        """Range search, transport-shaped like ``ServiceClient.search``."""
        epsilon = check_threshold(epsilon)
        response = self.engine.search_detailed(
            np.asarray(points, dtype=np.float64),
            epsilon,
            find_intervals=find_intervals,
            timeout=timeout,
            on_caller=True,
        )
        return dict(
            _round_trip(search_payload(response, find_intervals=find_intervals))
        )

    def knn(
        self,
        points: "npt.ArrayLike",
        k: int,
        *,
        timeout: float | None = None,
    ) -> list[tuple[float, object]]:
        """Local kNN, shaped like ``ServiceClient.knn``."""
        neighbors = self.engine.knn(
            np.asarray(points, dtype=np.float64), k, timeout=timeout, on_caller=True
        )
        payload = _round_trip(knn_payload(neighbors))
        return [
            (float(entry["distance"]), entry["sequence_id"])
            for entry in payload["neighbors"]
        ]

    def insert(
        self, points: "npt.ArrayLike", sequence_id: object = None
    ) -> object:
        """Insert a sequence; returns its id (JSON round-tripped)."""
        written = self.engine.insert(
            np.asarray(points, dtype=np.float64), sequence_id=sequence_id
        )
        return _round_trip({"sequence_id": written})["sequence_id"]

    def append(self, sequence_id: object, points: "npt.ArrayLike") -> dict:
        """Extend a stored sequence; the reply carries its new ``length``."""
        length = self.engine.append(sequence_id, np.asarray(points, dtype=np.float64))
        payload = write_payload(self.engine, sequence_id=sequence_id, length=length)
        return dict(_round_trip(payload))

    def remove(self, sequence_id: object) -> dict:
        """Remove a sequence."""
        self.engine.remove(sequence_id)
        return dict(
            _round_trip(write_payload(self.engine, sequence_id=sequence_id))
        )

    # -- replication surface (mirrors ServiceClient's) -----------------
    def apply_records(self, records: "list[WalRecord]") -> int:
        """Replay a shipped batch through the engine (``/wal/apply``)."""
        return self.engine.apply_records(records)

    def wal_tail(
        self,
        after_seq: int,
        *,
        snapshot_version: int | None = None,
        limit: int = 512,
    ) -> dict:
        """Tail the engine's WAL, shaped like ``ServiceClient.wal_tail``."""
        return dict(
            _round_trip(
                self.engine.wal_tail(
                    after_seq, snapshot_version=snapshot_version, limit=limit
                )
            )
        )

    def export_sequences(self, *, include_points: bool = True) -> dict:
        """Full-corpus export for snapshot resync (transport-shaped)."""
        return dict(
            _round_trip(
                self.engine.export_sequences(include_points=include_points)
            )
        )

    def restore(self, sequences: list[dict]) -> dict:
        """Replace the engine's corpus with an exported one."""
        restored = self.engine.restore(sequences)
        return dict(_round_trip(write_payload(self.engine, restored=restored)))
