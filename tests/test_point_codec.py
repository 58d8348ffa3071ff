"""The point codec: one wire form for every point array, and its refusals.

``encode_points`` / ``decode_points`` (``repro.service.wal``) carry points
through the HTTP routes, the WAL, shipped batches and the corpus export.
A round trip through JSON must be bit-identical; every decode rule is a
``ValueError`` in-process and a 400 over a real server; and the nested-list
form older logs and ``curl`` bodies carry still reads — the checked-in
``data/wal_list_form.log`` was written by the list-form ``to_payload``.
"""

import base64
import json
import re
import shutil
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cli import main
from repro.core.database import SequenceDatabase
from repro.service import QueryEngine, WalRecord, WriteAheadLog, replay_into
from repro.service.http import serve
from repro.service.wal import decode_points, encode_points

LIST_FORM_WAL = Path(__file__).parent / "data" / "wal_list_form.log"


def f8(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


point_arrays = st.one_of(
    st.integers(0, 6).map(lambda n: (n,)),
    st.tuples(st.integers(0, 6), st.integers(1, 4)),
).flatmap(
    lambda shape: arrays(
        np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)
    )
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(point_arrays)
    @example(np.array([[-0.0, 0.0], [5e-324, -5e-324]]))
    @example(np.array([[1e308, -1e308], [2.2250738585072014e-308, 1.0]]))
    @example(np.array([-0.0, 5e-324, 1e308]))
    @example(np.empty((0, 3)))
    @example(np.empty((0,)))
    def test_json_round_trip_is_bit_identical(self, points):
        wire = json.loads(json.dumps(encode_points(points)))
        decoded = decode_points(wire)
        assert decoded.shape == points.shape
        assert decoded.tobytes() == points.tobytes()
        assert decoded.dtype == np.float64 and not decoded.flags.writeable

    def test_a_read_only_float64_array_is_not_copied(self):
        points = np.array([[0.1, 0.2]])
        points.flags.writeable = False
        assert decode_points(points) is points

    def test_a_callers_writable_array_is_copied_not_frozen(self):
        points = np.array([[0.1, 0.2]])
        decoded = decode_points(points)
        assert points.flags.writeable and not decoded.flags.writeable
        points[0, 0] = 0.9
        assert decoded[0, 0] == 0.1

    def test_records_compare_bit_for_bit(self):
        listed = WalRecord("insert", "a", points=[[0.0, 0.5]])
        assert listed == WalRecord("insert", "a", points=np.array([[0.0, 0.5]]))
        assert listed != WalRecord("insert", "a", points=[[-0.0, 0.5]])
        assert hash(listed) == hash(WalRecord.from_payload(listed.to_payload()))


#: One row per decode rule: (name, wire value).
REFUSALS = [
    ("3-D shape", {"shape": [1, 1, 2], "f8": f8(0.1, 0.2)}),
    ("0-D shape", {"shape": [], "f8": f8(0.1)}),
    ("3-D list", [[[0.1, 0.2]]]),
    ("scalar list", 0.5),
    ("negative shape", {"shape": [-1, 2], "f8": f8(0.1, 0.2)}),
    ("bytes short of the shape", {"shape": [2, 2], "f8": f8(0.1, 0.2, 0.3)}),
    ("bytes past the shape", {"shape": [1, 2], "f8": f8(0.1, 0.2, 0.3)}),
    ("bad base64", {"shape": [1, 2], "f8": "not*base64!"}),
    ("unknown key", {"shape": [1, 2], "f8": f8(0.1, 0.2), "dtype": "f4"}),
    ("missing key", {"shape": [1, 2]}),
    ("NaN bytes", {"shape": [1, 2], "f8": f8(0.1, float("nan"))}),
    ("+inf bytes", {"shape": [1, 2], "f8": f8(float("inf"), 0.2)}),
    ("-inf bytes", {"shape": [1, 2], "f8": f8(0.1, float("-inf"))}),
    ("NaN list", [[0.1, float("nan")]]),
]


@pytest.fixture(scope="module")
def server_url():
    database = SequenceDatabase(2)
    database.add(np.random.default_rng(0).random((20, 2)), sequence_id="s0")
    engine = QueryEngine(database, workers=1)
    server = serve(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    engine.close()


def post(url, body):
    """Raw POST returning ``(status, reply body)``."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


refusals = pytest.mark.parametrize(
    "wire", [wire for _, wire in REFUSALS], ids=[name for name, _ in REFUSALS]
)


class TestRefusals:
    @refusals
    def test_decode_raises_value_error(self, wire):
        with pytest.raises(ValueError):
            decode_points(wire)
        with pytest.raises(ValueError):
            WalRecord.from_body({"op": "insert", "id": ["str", "a"], "points": wire})

    @pytest.mark.parametrize("route", ["/search", "/insert"])
    @refusals
    def test_server_answers_400(self, server_url, route, wire):
        status, reply = post(server_url + route, {"points": wire, "epsilon": 0.5})
        assert status == 400
        assert reply["error"]["type"] == "ValueError"

    def test_both_forms_answer_the_same_over_http(self, server_url):
        query = np.random.default_rng(1).random((6, 2))
        body = {"epsilon": 0.6, "find_intervals": True}
        url = server_url + "/search"
        _, listed = post(url, {**body, "points": query.tolist()})
        _, encoded = post(url, {**body, "points": encode_points(query)})
        assert listed["answers"] == encoded["answers"]
        assert listed["intervals"] == encoded["intervals"]


def recovered(path):
    """The records a log recovers on open."""
    log = WriteAheadLog(path, fsync=False)
    records = log.recovered_records
    log.close()
    return records


def logs(tmp_path):
    """A copy of the list-form fixture and the same records in codec form."""
    old = tmp_path / "list.log"
    shutil.copyfile(LIST_FORM_WAL, old)
    new = tmp_path / "codec.log"
    log = WriteAheadLog(new, fsync=False)
    for record in recovered(old):
        log.append(record)  # today's to_payload
    log.close()
    return old, new


class TestListFormWal:
    def test_the_fixture_is_in_the_list_form(self):
        data = LIST_FORM_WAL.read_bytes()
        assert data.count(b'"points":[[') == 4 and b'"f8"' not in data

    def test_it_recovers_bit_identical_to_the_codec_form(self, tmp_path):
        old_path, new_path = logs(tmp_path)
        assert b'"f8"' in new_path.read_bytes()
        old, new = recovered(old_path), recovered(new_path)
        assert [record.seq for record in old] == [1, 2, 3, 4, 5]
        assert new == old
        assert old[0].points.tobytes() == np.array(
            [[0.1, 1 / 3], [5e-324, 1.0], [-0.0, 0.7]]
        ).tobytes()

        from_old, from_new = SequenceDatabase(2), SequenceDatabase(2)
        assert replay_into(from_old, old) == replay_into(from_new, new) == 5
        assert sorted(from_old.ids()) == sorted(from_new.ids()) == ["a", "b"]
        for sid in ("a", "b"):
            assert (
                from_old.sequence(sid).points.tobytes()
                == from_new.sequence(sid).points.tobytes()
            )
        assert np.signbit(from_old.sequence("a").points[2, 0])

    def test_wal_inspect_prints_the_same_records(self, tmp_path, capsys):
        def record_lines(path):
            assert main(["wal-inspect", str(path), "--records"]) == 0
            out = capsys.readouterr().out.splitlines()
            return [re.sub(r"@\d+\s+", "", line) for line in out if "crc=ok" in line]

        old_path, new_path = logs(tmp_path)
        old, new = record_lines(old_path), record_lines(new_path)
        assert old == new
        extents = [re.findall(r"points=\d+|length=\d+", line) for line in old]
        assert extents == [
            ["points=3"],
            ["points=2"],
            ["points=2", "length=5"],
            [],
            ["points=1"],
        ]
