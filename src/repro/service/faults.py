"""Fault injection for the serving layer: the named sites and the seam.

The mechanism lives in :mod:`repro.util.faults` (the ``util`` layer, so
``core.database`` can hit sites without importing upward); this module is
the serving-facing surface and the registry of every site the subsystem
instruments.  Chaos tests arm them with :func:`fault_plan` or the
``REPRO_FAULTS`` environment variable — see the table:

==========================  ============================================
site                        where it fires
==========================  ============================================
``wal.append``              before a WAL record's bytes are written
``wal.fsync``               after flush, before ``os.fsync`` of the log
``checkpoint.before-save``  checkpoint taken, before the snapshot save
``checkpoint.before-reset`` snapshot saved, before the WAL truncate —
                            the mid-checkpoint kill-point
``database.save.replace``   snapshot temp file written, before the
                            atomic ``os.replace`` into place
``engine.admission.delay``  in ``_read``, after the request's
                            deadline is stamped but before admission —
                            a sleep here simulates queue stall and
                            debits the request's budget
``engine.worker``           on the worker thread, before the request
                            body runs (slow / failed execution)
``http.response``           before an HTTP response is written
                            (dropped-response injection)
``cluster.backend.request``  before the coordinator calls any backend
                            (backend-down / slow-shard injection)
``cluster.backend.slow``    same dispatch point, fired after
                            ``cluster.backend.request`` — a sleep here
                            stalls the sub-call *before* its budget is
                            computed, so the stall debits the
                            coordinator's remaining deadline
``cluster.health.probe``    before the coordinator probes a backend's
                            ``/healthz``
``cluster.read-repair``     before each catch-up poll of a lagging
                            backend (one batch of its journaled writes,
                            or a snapshot resync)
``wal.ship.handshake``      on the leader, before a ``/wal/tail``
                            handshake is validated (divergence /
                            horizon checks)
``wal.ship.batch``          handshake accepted, before the shipped
                            batch is read and framed — the
                            mid-replication kill-point
``follower.apply``          on the follower, batch decoded and CRC-
                            verified, before it is applied locally
``follower.persist``        batch applied to the target, before the
                            follower's cursor is written — the
                            mid-drain kill-point
==========================  ============================================

The coordinator additionally fires *per-backend* dynamic sites —
``cluster.backend.<i>.request`` and ``cluster.backend.<i>.probe`` for
backend index ``i`` — so a chaos plan can take down exactly one replica
(``cluster.backend.2.request=raise:0`` keeps backend 2 dark forever,
``...=raise:0:0:2`` makes it flap).  Dynamic sites are not enumerable in
advance and therefore not part of :data:`FAULT_SITES`.

All static sites are listed in :data:`FAULT_SITES`; tests iterate it to
assert instrumentation does not silently disappear.
"""

from __future__ import annotations

from repro.util.faults import (
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_plan,
    inject,
    parse_fault_spec,
)

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_plan",
    "inject",
    "parse_fault_spec",
]

#: Every injection site the serving subsystem instruments.
FAULT_SITES: tuple[str, ...] = (
    "wal.append",
    "wal.fsync",
    "checkpoint.before-save",
    "checkpoint.before-reset",
    "database.save.replace",
    "engine.admission.delay",
    "engine.worker",
    "http.response",
    "cluster.backend.request",
    "cluster.backend.slow",
    "cluster.health.probe",
    "cluster.read-repair",
    "wal.ship.handshake",
    "wal.ship.batch",
    "follower.apply",
    "follower.persist",
)
