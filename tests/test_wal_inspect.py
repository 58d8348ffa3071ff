"""Read-only WAL inspection (`inspect_wal`) and the `wal-inspect` CLI."""

import threading

import pytest

from repro.cli import main
from repro.service.wal import WalRecord, WriteAheadLog, inspect_wal


def write_wal(path, records):
    wal = WriteAheadLog(path, fsync=False)
    for record in records:
        wal.append(record)
    wal.close()


@pytest.fixture
def wal_path(tmp_path):
    path = tmp_path / "wal.log"
    write_wal(
        path,
        [
            WalRecord("insert", "a", points=[[0.1, 0.2]]),
            WalRecord("append", "a", points=[[0.3, 0.4]], length=2),
            WalRecord("remove", "a"),
        ],
    )
    return path


class TestInspectWal:
    def test_clean_log_round_trips_every_record(self, wal_path):
        inspection = inspect_wal(wal_path)
        assert inspection.magic_ok
        assert inspection.clean
        assert not inspection.torn
        assert inspection.valid_bytes == inspection.size
        assert [r.op for r in inspection.records] == [
            "insert",
            "append",
            "remove",
        ]
        assert inspection.records[1].length == 2
        assert all(entry.crc_ok for entry in inspection.entries)

    def test_flipped_payload_byte_is_a_crc_mismatch(self, wal_path):
        data = bytearray(wal_path.read_bytes())
        data[-2] ^= 0xFF  # inside the last record's JSON payload
        wal_path.write_bytes(bytes(data))
        inspection = inspect_wal(wal_path)
        assert inspection.torn
        assert not inspection.clean
        assert len(inspection.records) == 2  # first two still valid
        tail = inspection.entries[-1]
        assert not tail.crc_ok
        assert tail.error is not None and "crc" in tail.error.lower()

    def test_truncated_record_is_a_torn_tail(self, wal_path):
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])
        inspection = inspect_wal(wal_path)
        assert inspection.torn
        assert len(inspection.records) == 2
        assert inspection.valid_bytes < inspection.size

    def test_garbage_file_fails_the_magic_check(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"this is not a wal at all")
        inspection = inspect_wal(path)
        assert not inspection.magic_ok
        assert inspection.valid_bytes == 0
        assert not inspection.clean
        assert inspection.records == ()

    def test_empty_log_is_clean(self, tmp_path):
        path = tmp_path / "fresh.log"
        WriteAheadLog(path, fsync=False).close()
        inspection = inspect_wal(path)
        assert inspection.magic_ok
        assert inspection.clean
        assert inspection.records == ()


class TestReadOnlyContract:
    """Pins the contract in the ``inspect_wal`` docstring: strictly
    read-only — no lock taken, no byte written — so ``wal-inspect`` is
    safe against the live log of a running engine."""

    def test_inspect_completes_while_writer_lock_is_held(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        try:
            wal.append(WalRecord("insert", "a", points=[[0.1, 0.2]]))
            before = path.read_bytes()
            results = []
            # Hold the log's own lock (as a mid-append writer would) and
            # require inspection to finish anyway: it must not block on it.
            with wal._lock:
                worker = threading.Thread(
                    target=lambda: results.append(inspect_wal(path)),
                    daemon=True,
                )
                worker.start()
                worker.join(timeout=5.0)
                assert not results or results[0] is not None
                assert not worker.is_alive(), (
                    "inspect_wal blocked on the writer lock"
                )
            inspection = results[0]
            assert inspection.clean
            assert [r.op for r in inspection.records] == ["insert"]
            assert path.read_bytes() == before
        finally:
            wal.close()

    def test_torn_tail_is_reported_never_repaired(self, wal_path):
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])
        truncated = wal_path.read_bytes()
        inspection = inspect_wal(wal_path)
        assert inspection.torn
        assert wal_path.read_bytes() == truncated


class TestWalInspectCli:
    def test_clean_log_exits_zero(self, wal_path, capsys):
        assert main(["wal-inspect", str(wal_path)]) == 0
        out = capsys.readouterr().out
        assert "3 valid record(s)" in out
        assert "clean" in out

    def test_records_flag_dumps_each_entry(self, wal_path, capsys):
        assert main(["wal-inspect", str(wal_path), "--records"]) == 0
        out = capsys.readouterr().out
        assert "insert" in out and "append" in out and "remove" in out
        assert "id='a'" in out

    def test_records_flag_names_a_repair_records_replica(
        self, tmp_path, capsys
    ):
        # The coordinator's repairs.log addresses each record to a backend.
        path = tmp_path / "repairs.log"
        write_wal(
            path,
            [
                WalRecord("remove", "a", replica=2),
                WalRecord("append", "b", points=[[0.3, 0.4]], length=5),
            ],
        )
        assert main(["wal-inspect", str(path), "--records"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if "crc=ok" in line
        ]
        (removed,) = [line for line in lines if " remove " in line]
        (appended,) = [line for line in lines if " append " in line]
        assert removed.endswith("id='a' replica=2")
        assert appended.endswith("length=5")
        assert "replica=" not in appended

    def test_corrupt_tail_exits_nonzero_and_says_corrupt(
        self, wal_path, capsys
    ):
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])
        assert main(["wal-inspect", str(wal_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_bad_magic_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "junk.log"
        path.write_bytes(b"garbage")
        assert main(["wal-inspect", str(path)]) == 1
        assert "bad magic" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["wal-inspect", str(tmp_path / "absent.log")]) == 2
        assert "no such file" in capsys.readouterr().err
