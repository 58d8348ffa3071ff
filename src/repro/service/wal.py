"""The write-ahead log: fsynced, checksummed mutation records.

The serving engine's snapshots live in memory; without a log, a crash
between an acknowledged ``insert`` and the next explicit ``save()`` loses
the write silently — the worst possible failure for an index whose whole
value is the Lemma 1-3 *no-false-dismissal* guarantee.  The WAL closes the
window: every mutation is appended (and fsynced) *before* the engine
publishes the snapshot that acknowledges it, so the on-disk pair

    ``snapshot.npz``  (last checkpoint)  +  ``wal.log``  (records since)

can always reconstruct the acknowledged state.

**Record format.**  The file starts with an 10-byte magic header; each
record is ``<u32 length><u32 crc32(payload)><payload>`` (little-endian),
the payload being one UTF-8 JSON object::

    {"op": "insert"|"append"|"remove", "id": [type, repr],
     "points": {"shape": [n, d], "f8": "<base64>"}, "seq": N}

**The point codec.**  Every JSON boundary a point array crosses — this
log, shipped batches, the HTTP routes, the export — carries it as above:
little-endian float64 bytes, row-major, in base64, beside the shape
(:func:`encode_points`).  :func:`decode_points` reads that form or the
nested list older logs and ``curl`` bodies carry (for one release),
and refuses a shape that is not 1-D or 2-D, a byte count that does not
match it, bad base64, unknown keys and NaN or ±inf.

**Sequence numbers.**  Every appended record is stamped with a monotonic
``seq`` (1-based, per log file).  Seqs survive checkpoint truncation: a
:meth:`WriteAheadLog.reset` leaves behind one *checkpoint marker* frame
(``{"op": "checkpoint", "seq": N}``) recording the last stamped seq, so
the next open resumes the counter instead of restarting at 1.  The marker
is bookkeeping, not a mutation: it never appears in
:attr:`~WriteAheadLog.recovered_records`, never counts toward
``len(log)`` and is never replayed.  The greatest seq truncated away is
the log's :meth:`~WriteAheadLog.horizon` — the oldest *shippable* record
has ``seq == horizon + 1``, and a replica whose applied cursor is below
the horizon can no longer catch up by tailing (it needs a snapshot
resync).  Logs written before seqs existed load fine: their records are
assigned positional seqs ``1..n`` with horizon 0.

**Log shipping.**  :meth:`WriteAheadLog.read_from` returns the records
after a given seq without blocking the writer; :func:`encode_frames` /
:func:`decode_frames` ship them in the on-disk CRC framing, so a follower
verifies every record with the checksum that protects it on disk.

**One frame walk.**  Every reader — recovery on open, the tail read, a
shipped batch and :func:`inspect_wal` — is a loop over one walk that
yields a :class:`WalEntryInfo` per frame and ends at the first damaged
one (torn header, overrunning length, CRC mismatch, undecodable payload,
checkpoint marker with a bad seq), so all four agree on where a log
stops being valid.  Every writer frames through one function.

**Torn tails.**  A crash mid-append leaves a short or corrupt final
record.  On open, everything before the walk's damaged entry is
recovered and the file is truncated back to that boundary — recovery
proceeds instead of refusing to start, and the truncation can only
discard a record that was never acknowledged (the engine acknowledges
only after a successful fsync).

**Idempotent replay.**  :func:`replay_into` applies records so that
replaying the same log twice — or replaying over a snapshot that already
contains a prefix of it, the state a crash *between* checkpoint save and
WAL reset leaves behind — converges to the same state: an ``insert`` of a
present id is skipped, a ``remove`` of an absent id is skipped, and an
``append`` carries the post-append point count so an already-applied
extension is recognised and skipped.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.util.faults import inject
from repro.util.sync import TracedLock

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.core.database import SequenceDatabase

__all__ = [
    "DurabilityConfig",
    "WalEntryInfo",
    "WalInspection",
    "WalRecord",
    "WriteAheadLog",
    "decode_frames",
    "decode_points",
    "encode_frames",
    "encode_points",
    "inspect_wal",
    "replay_into",
]

#: File signature; the trailing newline keeps `head wal.log` readable.
_MAGIC = b"REPROWAL1\n"

#: Per-record header: little-endian payload length then CRC32.
_HEADER = struct.Struct("<II")

#: The ``op`` of a checkpoint marker frame (bookkeeping, never replayed).
_CHECKPOINT_OP = "checkpoint"


#: The keys of an encoded point array.
_POINT_KEYS = {"shape", "f8"}


def encode_points(points: "npt.ArrayLike") -> dict[str, Any]:
    """``{"shape": [n, d], "f8": base64 of little-endian float64, row-major}``."""
    data = np.ascontiguousarray(points, dtype="<f8")
    return {"shape": list(data.shape), "f8": base64.b64encode(data.tobytes()).decode()}


def decode_points(value: Any) -> "npt.NDArray[np.float64]":
    """A read-only float64 point array from either wire form, or any array.

    Breaking a decode rule (module docstring) is a ``ValueError``.  A
    read-only float64 array is returned as is; anything else is copied.
    """
    if isinstance(value, dict):
        shape = value.get("shape")
        if set(value) != _POINT_KEYS or not isinstance(shape, list) or any(
            type(size) is not int or size < 0 for size in shape
        ):
            raise ValueError(f"points need f8 and a shape list only: {value!r:.60}")
        try:
            data = base64.b64decode(value["f8"], validate=True)
        except (binascii.Error, TypeError) as error:
            raise ValueError(f"encoded points carry no base64: {error}") from error
        if len(data) != 8 * math.prod(shape):
            raise ValueError(f"{len(data)} bytes are not float64 points of {shape}")
        array = np.frombuffer(data, dtype="<f8").reshape(shape)
    elif (
        isinstance(value, np.ndarray)
        and value.dtype == np.float64
        and not value.flags.writeable
    ):
        array = value
    else:
        array = np.array(value, dtype=np.float64)
        array.flags.writeable = False
    if array.ndim not in (1, 2):
        raise ValueError(f"points must be a 1-D or 2-D array, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError("points must be finite (no NaN or infinity)")
    return array


@dataclass(frozen=True, eq=False)
class WalRecord:
    """One logged mutation.

    ``points`` is a read-only float64 array for ``insert``/``append``
    (:func:`decode_points` normalises what is passed) and ``None`` for
    ``remove``; records are equal when their fields are and their points
    bit-identical.  ``length`` is the post-append point count used to
    make ``append`` replay idempotent.
    ``seq`` is the log-assigned monotonic sequence number (``None`` until
    :meth:`WriteAheadLog.append` stamps it — each log stamps its own seq
    space, so records shipped from another log are re-stamped locally).
    ``replica`` optionally tags the record with a backend index (the
    cluster repair journal uses it to address one queued op to one
    replica); :func:`replay_into` ignores it.
    """

    op: str
    sequence_id: object
    points: "npt.NDArray[np.float64] | None" = None
    length: int | None = None
    seq: int | None = None
    replica: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ("insert", "append", "remove"):
            raise ValueError(f"op must be insert/append/remove, got {self.op!r}")
        kind = type(self.sequence_id)
        if not issubclass(kind, (str, int)) or kind is bool:
            raise TypeError(f"logged sequence ids must be str/int: {kind.__name__}")
        for name, least in (("seq", 1), ("replica", 0)):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < least):
                raise ValueError(f"{name} must be None or an int >= {least}: {value!r}")
        if self.points is not None:
            object.__setattr__(self, "points", decode_points(self.points))

    def _key(self) -> tuple[object, ...]:
        points = self.points
        rows = None if points is None else (points.shape, points.tobytes())
        return (self.op, self.sequence_id, rows, self.length, self.seq, self.replica)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def to_payload(self) -> bytes:
        """Serialise to the on-disk JSON payload."""
        body: dict[str, Any] = {
            "op": self.op,
            "id": [type(self.sequence_id).__name__, str(self.sequence_id)],
        }
        if self.points is not None:
            body["points"] = encode_points(self.points)
        for name in ("length", "seq", "replica"):
            if getattr(self, name) is not None:
                body[name] = getattr(self, name)
        return json.dumps(body, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        """Rebuild a record from its JSON payload."""
        return cls.from_body(json.loads(payload))

    @classmethod
    def from_body(cls, body: Any) -> "WalRecord":
        """Rebuild a record from its parsed JSON payload (either point form)."""
        type_name, raw = body["id"]
        sequence_id: object = int(raw) if type_name == "int" else raw
        return cls(
            op=body["op"],
            sequence_id=sequence_id,
            points=body.get("points"),
            length=body.get("length"),
            seq=body.get("seq"),
            replica=body.get("replica"),
        )


@dataclass(frozen=True)
class DurabilityConfig:
    """Where and how a :class:`~repro.service.engine.QueryEngine` persists.

    Parameters
    ----------
    directory:
        Data directory holding ``snapshot.npz`` (the last checkpoint) and
        ``wal.log`` (records since).  Created if missing.
    fsync:
        Fsync the log after every record (the durable default).  Turning
        it off trades the crash window for write latency — acknowledged
        writes may be lost on power failure, never corrupted.
    checkpoint_every:
        Auto-checkpoint (snapshot save + WAL reset) after this many WAL
        records; ``0`` checkpoints only on :meth:`QueryEngine.checkpoint`
        and close.
    checkpoint_on_close:
        Checkpoint during a clean ``close()`` so restarts replay nothing.
    """

    directory: str | Path
    fsync: bool = True
    checkpoint_every: int = 0
    checkpoint_on_close: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    @property
    def snapshot_path(self) -> Path:
        """The checkpoint archive inside :attr:`directory`."""
        return Path(self.directory) / "snapshot.npz"

    @property
    def wal_path(self) -> Path:
        """The write-ahead log inside :attr:`directory`."""
        return Path(self.directory) / "wal.log"


@dataclass(frozen=True)
class WalEntryInfo:
    """One frame of the log, as the frame walk (and :func:`inspect_wal`) sees it.

    ``record`` is the decoded mutation when the slot is intact; a torn or
    corrupt slot has ``record=None`` and ``error`` naming what is wrong
    (torn header, length overrun, CRC mismatch, undecodable payload — a
    checkpoint marker with a bad seq included).  A checkpoint marker slot
    has ``record=None`` and ``checkpoint_seq`` set to the seq the marker
    preserves across the truncation.
    """

    offset: int
    length: int
    crc_ok: bool
    record: WalRecord | None = None
    error: str | None = None
    checkpoint_seq: int | None = None

    @property
    def seq(self) -> int | None:
        """The record's seq, or the one the checkpoint marker carries."""
        return self.checkpoint_seq if self.record is None else self.record.seq


@dataclass(frozen=True)
class WalInspection:
    """A read-only forensic scan of a WAL file (``repro wal-inspect``).

    Unlike opening a :class:`WriteAheadLog`, inspection never truncates:
    it reports exactly what is on disk — every valid record, plus the
    torn or corrupt tail entry if one exists — so an operator can look at
    a crashed node's log before recovery rewrites it.  ``horizon`` and
    ``last_seq`` bound the file's shippable seq range: a follower whose
    cursor is outside ``[horizon, last_seq]`` cannot catch up from this
    log.
    """

    path: Path
    size: int
    magic_ok: bool
    valid_bytes: int
    entries: tuple[WalEntryInfo, ...] = ()
    horizon: int = 0
    last_seq: int = 0

    @property
    def torn(self) -> bool:
        """Whether trailing bytes fail to parse as a complete record."""
        return self.valid_bytes < self.size

    @property
    def records(self) -> tuple[WalRecord, ...]:
        """The decodable records, in log order."""
        return tuple(
            entry.record for entry in self.entries if entry.record is not None
        )

    @property
    def clean(self) -> bool:
        """Whether the whole file parses: good magic and no torn tail."""
        return self.magic_ok and not self.torn


def _frame(payload: bytes) -> bytes:
    """One frame: ``<u32 length><u32 crc32(payload)><payload>``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _entry(data: bytes, offset: int, last_seq: int | None) -> WalEntryInfo:
    """The frame at ``offset``: intact, or damaged with ``error`` saying why.

    A record without a stored seq is stamped ``last_seq + 1`` unless
    ``last_seq`` is ``None``.
    """
    if offset + _HEADER.size > len(data):
        trailing = len(data) - offset
        error = f"torn header: {trailing} trailing byte(s), header needs {_HEADER.size}"
        return WalEntryInfo(offset, trailing, False, error=error)
    length, crc = _HEADER.unpack_from(data, offset)
    payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
    if len(payload) < length:
        error = (
            f"torn record: framed length {length} overruns end of file by "
            f"{length - len(payload)} byte(s)"
        )
        return WalEntryInfo(offset, length, False, error=error)
    if zlib.crc32(payload) != crc:
        error = "CRC mismatch: payload bytes are corrupt"
        return WalEntryInfo(offset, length, False, error=error)
    try:
        body = json.loads(payload)
        if isinstance(body, dict) and body.get("op") == _CHECKPOINT_OP:
            seq = body.get("seq")
            if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
                raise ValueError(f"checkpoint marker carries a bad seq: {seq!r}")
            return WalEntryInfo(offset, length, True, checkpoint_seq=seq)
        record = WalRecord.from_body(body)
    except (ValueError, KeyError, TypeError) as error:
        return WalEntryInfo(offset, length, True, error=f"undecodable payload: {error}")
    if record.seq is None and last_seq is not None:
        record = replace(record, seq=last_seq + 1)
    return WalEntryInfo(offset, length, True, record=record)


def _walk(
    data: bytes, offset: int, *, stamp: bool = True
) -> Iterator[WalEntryInfo]:
    """Every frame of ``data`` from ``offset`` on, up to the first damaged one.

    The one frame walk (module docstring).  With ``stamp`` a record
    without a stored seq (logs written before seqs existed) gets the next
    positional one.
    """
    last_seq = 0
    while offset < len(data):
        entry = _entry(data, offset, last_seq if stamp else None)
        yield entry
        if entry.error is not None:
            return
        last_seq = max(last_seq, entry.seq or 0)
        offset += _HEADER.size + entry.length


def _scan(path: Path) -> WalInspection:
    """:func:`inspect_wal` of a file that must be a WAL."""
    scan = inspect_wal(path)
    if not scan.magic_ok:
        raise ValueError(f"{path} is not a repro WAL (bad magic header)")
    return scan


class WriteAheadLog:
    """An append-only, CRC-verified record log with torn-tail recovery.

    Opening scans the whole file: valid records are exposed as
    :attr:`recovered_records` (seq-stamped), a torn or corrupt tail is
    truncated at the last valid record boundary, and the seq counter
    resumes from the greatest seq seen (checkpoint markers included).
    Appends go through one file handle kept at end-of-file; each is
    flushed and (by default) fsynced before :meth:`append` returns.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        existing = self.path.exists() and self.path.stat().st_size > 0
        scan = (
            _scan(self.path)
            if existing
            else WalInspection(self.path, size=0, magic_ok=True, valid_bytes=0)
        )
        self._recovered = list(scan.records)
        self._horizon, self._last_seq = scan.horizon, scan.last_seq
        mode = "r+b" if existing else "w+b"
        self._handle = open(self.path, mode)  # noqa: SIM115 (long-lived)
        if not existing:
            self._handle.write(_MAGIC)
        elif scan.torn:
            self._handle.truncate(scan.valid_bytes)
        if not existing or scan.torn:
            self._handle.flush()
            self._sync()
        self._handle.seek(0, os.SEEK_END)
        self._records = len(self._recovered)
        self._closed = False
        # The engine serialises appends behind its writer lock, but the
        # log is also poked from shutdown paths and inspection helpers;
        # its own lock makes the file-handle state safe regardless of
        # who calls.  Holding it across the fsync is deliberate — the
        # durability barrier *is* the critical section.
        self._lock = TracedLock("wal.log")

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: WalRecord) -> int:
        """Write, flush and fsync one record; returns the record count.

        The record is stamped with the log's next seq (any seq it already
        carries — e.g. one assigned by a leader's log and shipped here —
        is replaced: seq spaces are per-log).  On any failure the file is
        truncated back to its pre-record length, so a failed append never
        leaves a torn record for the next append to bury mid-file, and
        the seq counter is not advanced.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("write-ahead log is closed")
            next_seq = self._last_seq + 1
            payload = replace(record, seq=next_seq).to_payload()
            start = self._handle.tell()
            try:
                inject("wal.append")
                self._handle.write(_frame(payload))
                self._handle.flush()
                self._sync()
            except Exception:
                try:
                    self._handle.truncate(start)
                    self._handle.seek(start)
                except OSError:  # pragma: no cover - double fault
                    pass
                raise
            self._records += 1
            self._last_seq = next_seq
            return self._records

    def _sync(self) -> None:
        inject("wal.fsync")
        if self.fsync:
            os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    # Tail reads (log shipping)
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """The seq of the most recently stamped record (0 when none ever)."""
        with self._lock:
            return self._last_seq

    def horizon(self) -> int:
        """The greatest seq truncated away by a checkpoint (0 if none).

        Records with ``seq > horizon()`` are still on disk and shippable;
        a follower whose applied cursor is below the horizon cannot catch
        up by tailing and needs a snapshot resync.
        """
        with self._lock:
            return self._horizon

    def read_from(
        self, after_seq: int, *, limit: int | None = None
    ) -> list[WalRecord]:
        """The records with ``seq > after_seq``, in log order.

        The records :func:`inspect_wal` finds, so lock-free like it: the
        file is re-read in one ``read_bytes`` call, and tailing a live log
        never blocks (or deadlocks with) its writer.  A torn tail —
        including the half-written frame of a concurrent append — ends
        the batch at the boundary recovery would truncate to; the missing
        record is simply picked up by the next call.  Checkpoint markers
        are skipped.  ``limit`` caps the batch size.
        """
        if after_seq < 0:
            raise ValueError(f"after_seq must be >= 0, got {after_seq}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 or None, got {limit}")
        batch = [
            record
            for record in _scan(self.path).records
            if (record.seq or 0) > after_seq
        ]
        return batch[:limit]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def recovered_records(self) -> list[WalRecord]:
        """The records recovered by the opening scan (a copy)."""
        return list(self._recovered)

    def __len__(self) -> int:
        """Records in the log (recovered plus appended since open)."""
        with self._lock:
            return self._records

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def reset(self, seq: int = 0) -> None:
        """Truncate to an empty log (after a successful checkpoint).

        Leaves a checkpoint marker recording the last stamped seq, so the
        counter — and the :meth:`horizon` — survive a restart: every seq
        up to and including ``last_seq`` is now only reachable through
        the checkpoint snapshot, never by tailing this log.  ``seq``
        moves the counter forward to the seq the checkpointed state is
        published at — a checkpoint that *replaces* the logged history
        (a snapshot restore) consumes a seq without appending a record.
        The counter never moves back: a ``seq`` behind ``last_seq`` is
        ignored.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("write-ahead log is closed")
            self._last_seq = max(self._last_seq, seq)
            self._handle.seek(len(_MAGIC))
            self._handle.truncate(len(_MAGIC))
            if self._last_seq > 0:
                marker = {"op": _CHECKPOINT_OP, "seq": self._last_seq}
                self._handle.write(
                    _frame(json.dumps(marker, separators=(",", ":")).encode())
                )
            self._handle.flush()
            self._sync()
            self._records = 0
            self._recovered = []
            self._horizon = self._last_seq

    def close(self) -> None:
        """Close the underlying file handle."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._handle.close()


# ----------------------------------------------------------------------
# Shipped-batch framing (the wire format of /wal/tail)
# ----------------------------------------------------------------------
def encode_frames(records: Iterable[WalRecord]) -> bytes:
    """Frame seq-stamped records for shipping (same framing as on disk).

    Each record becomes ``<u32 length><u32 crc32(payload)><payload>``, so
    a follower verifies shipped bytes with the same CRC that protects the
    leader's log.  Records must carry their seq — a batch without seqs
    cannot advance a follower's cursor.
    """
    frames: list[bytes] = []
    for record in records:
        if record.seq is None:
            raise ValueError(
                f"cannot ship a record without a seq: {record.op} of "
                f"{record.sequence_id!r}"
            )
        frames.append(_frame(record.to_payload()))
    return b"".join(frames)


def decode_frames(data: bytes) -> list[WalRecord]:
    """Decode a shipped batch, verifying every frame's CRC.

    Strict where the recovery scan is lenient: a shipped batch was framed
    in full by the leader, so *any* damaged entry of the frame walk (tear,
    CRC mismatch, undecodable payload), checkpoint marker or missing seq
    is corruption in transit and raises :class:`ValueError` — the
    follower drops the batch and re-tails instead of applying a damaged
    prefix.
    """
    records: list[WalRecord] = []
    for entry in _walk(data, 0, stamp=False):
        if entry.error is not None:
            raise ValueError(f"damaged shipped batch: {entry.error}")
        if entry.record is None:
            raise ValueError("shipped batch carries a checkpoint marker")
        if entry.record.seq is None:
            raise ValueError("shipped record carries no seq")
        records.append(entry.record)
    return records


def inspect_wal(path: str | Path) -> WalInspection:
    """Scan a WAL file without opening (or repairing) it.

    The entries are the frame walk's, the one every reader of the log
    shares: each reports its offset, framed length, CRC verdict and
    decoded record (seq-stamped, positionally for legacy records); the
    first damaged entry is included with its ``error`` and ends the scan
    — exactly the boundary :class:`WriteAheadLog` truncates to on open
    and :meth:`~WriteAheadLog.read_from` stops at.  Checkpoint markers
    appear as entries with ``checkpoint_seq`` set and feed the reported
    ``[horizon, last_seq]`` seq range.

    Strictly read-only: the file is read in one ``read_bytes`` call, no
    lock is taken and no byte is written — a torn tail is *reported*,
    never repaired — so ``repro wal-inspect`` is safe against the live
    log of a running engine and can never block on (or dead-lock with)
    its writer.  ``test_wal_inspect.py`` pins this contract.
    """
    wal_path = Path(path)
    data = wal_path.read_bytes()
    if not data.startswith(_MAGIC):
        return WalInspection(
            path=wal_path, size=len(data), magic_ok=False, valid_bytes=0
        )
    entries = tuple(_walk(data, len(_MAGIC)))
    damaged = bool(entries) and entries[-1].error is not None
    markers = [e.checkpoint_seq for e in entries if e.checkpoint_seq is not None]
    return WalInspection(
        path=wal_path,
        size=len(data),
        magic_ok=True,
        valid_bytes=entries[-1].offset if damaged else len(data),
        entries=entries,
        horizon=markers[-1] if markers else 0,
        last_seq=max((entry.seq or 0 for entry in entries), default=0),
    )


def replay_into(database: "SequenceDatabase", records: list[WalRecord]) -> int:
    """Apply ``records`` to ``database`` idempotently; returns applied count.

    Records already reflected in the database — an insert whose id is
    present, a remove whose id is absent, an append whose target already
    has at least the recorded point count — are skipped, so replaying a
    log over a snapshot that contains any prefix of it converges to the
    same state (the invariant a crash between checkpoint save and WAL
    reset relies on).  The same skip rules make duplicate *shipped*
    batches harmless: a follower that re-applies records below its cursor
    converges instead of double-applying.
    """
    applied = 0
    for record in records:
        if record.op == "insert":
            if record.sequence_id in database:
                continue
            if record.points is None:
                raise ValueError(
                    f"insert record for {record.sequence_id!r} has no points"
                )
            database.add(record.points, sequence_id=record.sequence_id)
        elif record.op == "remove":
            if record.sequence_id not in database:
                continue
            database.remove(record.sequence_id)
        else:  # append
            if record.sequence_id not in database:
                raise ValueError(
                    f"append record for unknown id {record.sequence_id!r}"
                )
            if record.points is None or record.length is None:
                raise ValueError(
                    f"append record for {record.sequence_id!r} is incomplete"
                )
            if len(database.sequence(record.sequence_id)) >= record.length:
                continue
            database.append_points(record.sequence_id, record.points)
        applied += 1
    return applied
