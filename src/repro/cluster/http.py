"""The coordinator's HTTP/JSON endpoint — same dialect as ``repro serve``.

A :class:`ClusterServer` speaks the exact wire protocol of a single
backend (:mod:`repro.service.http`), so an unmodified
:class:`~repro.service.client.ServiceClient` pointed at a coordinator
works verbatim — including typed error rebuilding: a shard with no live
replica surfaces as a 503 whose body names ``ShardUnavailable`` and the
missing shard list, and a failed write quorum as ``WriteQuorumFailed``.

Differences from a single backend, all additive:

* ``/search`` bodies accept ``fail_closed`` and responses carry
  ``complete`` + ``missing_shards`` (the partial-result contract).
* ``/knn`` responses carry the same two fields; by default a missing
  shard raises (fail-closed) rather than degrading.
* ``/probe`` (POST) runs one health sweep over the backends and returns
  per-backend outcomes — ``repro cluster-serve`` hits it on a timer.
* ``/healthz`` reports cluster liveness (``ok`` / ``degraded`` /
  ``partial``) instead of engine internals.
"""

from __future__ import annotations

from typing import cast

from repro.cluster.coordinator import ClusterCoordinator
from repro.service.http import (
    DrainingHTTPServer,
    JsonRequestHandler,
    knn_payload,
    read_points,
    required_field,
)
from repro.util.validation import check_threshold

__all__ = ["ClusterHandler", "ClusterServer", "serve_cluster"]


class ClusterHandler(JsonRequestHandler):
    """Dispatches the cluster route table against ``self.server.coordinator``."""

    server_version = "repro-cluster/1.0"

    get_routes = {"/healthz": "_healthz", "/stats": "_stats"}
    post_routes = {
        "/search": "_search",
        "/knn": "_knn",
        "/insert": "_insert",
        "/append": "_append",
        "/remove": "_remove",
        "/probe": "_probe",
    }

    @property
    def coordinator(self) -> ClusterCoordinator:
        """The coordinator owned by the enclosing :class:`ClusterServer`."""
        return cast("ClusterServer", self.server).coordinator

    # ------------------------------------------------------------------
    # Route bodies
    # ------------------------------------------------------------------
    def _healthz(self, body: dict) -> dict:
        return self.coordinator.healthz()

    def _stats(self, body: dict) -> dict:
        return self.coordinator.stats()

    def _probe(self, body: dict) -> dict:
        outcomes = self.coordinator.probe()
        return {
            "probed": len(outcomes),
            "reachable": sorted(i for i, ok in outcomes.items() if ok),
            "unreachable": sorted(i for i, ok in outcomes.items() if not ok),
        }

    def _search(self, body: dict) -> dict:
        epsilon = check_threshold(float(required_field(body, "epsilon")))
        find_intervals = bool(body.get("find_intervals", True))
        timeout = body.get("timeout")
        result = self.coordinator.search(
            read_points(body),
            epsilon,
            find_intervals=find_intervals,
            timeout=None if timeout is None else float(timeout),
            fail_closed=bool(body.get("fail_closed", False)),
        )
        payload = {
            "answers": result.answers,
            "candidates": result.candidates,
            "complete": result.complete,
            "missing_shards": list(result.missing_shards),
            "stats": result.stats,
            "snapshot_versions": result.snapshot_versions,
        }
        if find_intervals:
            payload["intervals"] = result.intervals
        return payload

    def _knn(self, body: dict) -> dict:
        timeout = body.get("timeout")
        result = self.coordinator.knn(
            read_points(body),
            int(required_field(body, "k")),
            timeout=None if timeout is None else float(timeout),
            fail_closed=bool(body.get("fail_closed", True)),
        )
        return {
            **knn_payload(result.neighbors),
            "complete": result.complete,
            "missing_shards": list(result.missing_shards),
        }

    def _insert(self, body: dict) -> dict:
        sequence_id = self.coordinator.insert(
            read_points(body), sequence_id=body.get("sequence_id")
        )
        return {
            "sequence_id": sequence_id,
            "shard": self.coordinator.router.shard_of(sequence_id),
        }

    def _append(self, body: dict) -> dict:
        sequence_id = required_field(body, "sequence_id")
        self.coordinator.append(sequence_id, read_points(body))
        return {
            "sequence_id": sequence_id,
            "shard": self.coordinator.router.shard_of(sequence_id),
        }

    def _remove(self, body: dict) -> dict:
        sequence_id = required_field(body, "sequence_id")
        self.coordinator.remove(sequence_id)
        return {
            "sequence_id": sequence_id,
            "shard": self.coordinator.router.shard_of(sequence_id),
        }


class ClusterServer(DrainingHTTPServer):
    """A threading HTTP server bound to one :class:`ClusterCoordinator`.

    Like :class:`~repro.service.http.ServiceServer`, the server does not
    own its coordinator's lifecycle (nor the backends behind it); callers
    drain the server first, then close the coordinator.
    """

    def __init__(
        self,
        address: tuple[str, int],
        coordinator: ClusterCoordinator,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ClusterHandler, verbose=verbose)
        self.coordinator = coordinator


def serve_cluster(
    coordinator: ClusterCoordinator,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ClusterServer:
    """Bind a :class:`ClusterServer` (``port=0`` picks a free port).

    Returns the bound server without starting its accept loop — call
    ``serve_forever()`` on a thread, or use ``repro cluster-serve`` which
    adds the probe timer and signal-driven graceful drain.
    """
    return ClusterServer((host, port), coordinator, verbose=verbose)
