"""The repository linter: one positive and one negative case per rule.

Fixture modules are written under a temporary ``src/repro/<layer>/`` tree so
the engine classifies them as library code; non-library fixtures go under a
``tests/`` directory of the same temporary root.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tools.repro_lint.engine import lint_file, lint_paths, main
from tools.repro_lint.rules import (
    ALL_RULES,
    LAYER_ALLOWED_IMPORTS,
    VALIDATION_HELPERS,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_module(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes_in(path: Path) -> set:
    return {violation.rule for violation in lint_file(path)}


# ----------------------------------------------------------------------
# REP100 — syntax errors
# ----------------------------------------------------------------------
def test_rep100_syntax_error(tmp_path):
    path = write_module(tmp_path, "src/repro/core/broken.py", "def f(:\n")
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["REP100"]
    assert "syntax error" in violations[0].message


# ----------------------------------------------------------------------
# REP101 — bare assert in library code
# ----------------------------------------------------------------------
def test_rep101_flags_bare_assert_in_library(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/asserts.py",
        '''
        """Doc."""
        __all__ = []


        def f(x: int) -> int:
            assert x > 0
            return x
        ''',
    )
    assert "REP101" in codes_in(path)


def test_rep101_ignores_test_code_and_raises(tmp_path):
    test_path = write_module(
        tmp_path,
        "tests/test_something.py",
        "def test_x():\n    assert 1 + 1 == 2\n",
    )
    assert "REP101" not in codes_in(test_path)

    raising = write_module(
        tmp_path,
        "src/repro/core/raises.py",
        '''
        """Doc."""
        __all__ = []


        def f(x: int) -> int:
            if x <= 0:
                raise ValueError("x must be positive")
            return x
        ''',
    )
    assert "REP101" not in codes_in(raising)


# ----------------------------------------------------------------------
# REP102 — mutable default arguments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "[x for x in ()]"])
def test_rep102_flags_mutable_defaults(tmp_path, default):
    path = write_module(
        tmp_path,
        "src/repro/core/defaults.py",
        f'''
        """Doc."""
        __all__ = []


        def f(items: object = {default}) -> object:
            return items
        ''',
    )
    assert "REP102" in codes_in(path)


def test_rep102_applies_outside_library_and_accepts_none(tmp_path):
    # The rule is not library-only: helper code in tests is covered too.
    in_tests = write_module(
        tmp_path,
        "tests/helper.py",
        "def make(acc=[]):\n    return acc\n",
    )
    assert "REP102" in codes_in(in_tests)

    clean = write_module(
        tmp_path,
        "src/repro/core/none_default.py",
        '''
        """Doc."""
        __all__ = []


        def f(items: "list | None" = None, *, tag: str = "x") -> list:
            return [] if items is None else items
        ''',
    )
    assert "REP102" not in codes_in(clean)


# ----------------------------------------------------------------------
# REP103 — __all__ required in library modules
# ----------------------------------------------------------------------
def test_rep103_requires_module_all(tmp_path):
    missing = write_module(
        tmp_path,
        "src/repro/util/surface.py",
        '"""Doc."""\n\nVALUE = 1\n',
    )
    assert "REP103" in codes_in(missing)

    declared = write_module(
        tmp_path,
        "src/repro/util/surface_ok.py",
        '"""Doc."""\n\n__all__ = ["VALUE"]\n\nVALUE = 1\n',
    )
    assert "REP103" not in codes_in(declared)

    non_library = write_module(tmp_path, "tests/no_all.py", "VALUE = 1\n")
    assert "REP103" not in codes_in(non_library)


# ----------------------------------------------------------------------
# REP104 — float equality on distance-like values
# ----------------------------------------------------------------------
def test_rep104_flags_distance_equality(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/eq.py",
        '''
        """Doc."""
        __all__ = []


        def f(dist: float, dnorm_value: float) -> bool:
            return dist == 0.25 or dnorm_value != 0.5
        ''',
    )
    assert "REP104" in codes_in(path)


def test_rep104_allows_ordering_and_non_distance_ints(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/ordering.py",
        '''
        """Doc."""
        __all__ = []


        def f(dist: float, epsilon: float, count: int) -> bool:
            return dist <= epsilon and count == 3
        ''',
    )
    assert "REP104" not in codes_in(path)


# ----------------------------------------------------------------------
# REP105 — layered architecture
# ----------------------------------------------------------------------
def test_rep105_core_must_not_import_index(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/uses_index.py",
        '''
        """Doc."""
        from repro.index.rtree import RTree

        __all__ = []
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP105"]
    assert len(violations) == 1
    assert "'core' may not import" in violations[0].message


def test_rep105_util_must_not_import_core(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/util/uses_core.py",
        '''
        """Doc."""
        import repro.core.mbr

        __all__ = []
        ''',
    )
    assert "REP105" in codes_in(path)


def test_rep105_relative_imports_resolve_to_layers(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/util/relative.py",
        '''
        """Doc."""
        from ..core import mbr

        __all__ = []
        ''',
    )
    assert "REP105" in codes_in(path)


def test_rep105_layer_may_not_import_composition_root(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/uses_top.py",
        '''
        """Doc."""
        from repro import cli

        __all__ = []
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP105"]
    assert violations and "top-level" in violations[0].message


def test_rep105_allowed_imports_stay_clean(tmp_path):
    analysis = write_module(
        tmp_path,
        "src/repro/analysis/ok.py",
        '''
        """Doc."""
        from repro.baselines.sequential import SequentialScan
        from repro.core.mbr import MBR
        from repro.util.rng import ensure_rng

        __all__ = []
        ''',
    )
    assert "REP105" not in codes_in(analysis)

    top = write_module(
        tmp_path,
        "src/repro/cli.py",
        '''
        """Doc."""
        from repro.analysis.experiment import ExperimentRunner
        from repro.index.rtree import RTree

        __all__ = []
        ''',
    )
    assert "REP105" not in codes_in(top)


def test_rep105_layer_map_matches_architecture():
    # Every layer may import itself and util; the map is acyclic.
    for layer, allowed in LAYER_ALLOWED_IMPORTS.items():
        assert layer in allowed
        assert "util" in allowed
    assert "index" not in LAYER_ALLOWED_IMPORTS["core"]


# ----------------------------------------------------------------------
# REP106 — epsilon parameters must be validated
# ----------------------------------------------------------------------
def test_rep106_flags_unvalidated_epsilon(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/eps.py",
        '''
        """Doc."""
        __all__ = []


        def search(query: object, epsilon: float) -> float:
            return epsilon * 2.0
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP106"]
    assert violations and "search()" in violations[0].message


def test_rep106_accepts_validation_helpers(tmp_path):
    assert "check_threshold" in VALIDATION_HELPERS
    path = write_module(
        tmp_path,
        "src/repro/core/eps_ok.py",
        '''
        """Doc."""
        from repro.util.validation import check_threshold

        __all__ = []


        def search(query: object, epsilon: float) -> float:
            epsilon = check_threshold(epsilon)
            return epsilon * 2.0
        ''',
    )
    assert "REP106" not in codes_in(path)


def test_rep106_exempts_private_functions_and_stubs(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/eps_exempt.py",
        '''
        """Doc."""
        from typing import Protocol

        __all__ = []


        def _inner(epsilon: float) -> float:
            return epsilon


        class Searcher(Protocol):
            def search_within(self, query: object, epsilon: float) -> set:
                """Interface only."""
                ...
        ''',
    )
    assert "REP106" not in codes_in(path)


# ----------------------------------------------------------------------
# REP107 — full annotations in library code
# ----------------------------------------------------------------------
def test_rep107_flags_missing_annotations(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/anno.py",
        '''
        """Doc."""
        __all__ = []


        def f(x, y: int):
            return x + y
        ''',
    )
    messages = [v.message for v in lint_file(path) if v.rule == "REP107"]
    assert any("unannotated parameter(s): x" in m for m in messages)
    assert any("no return annotation" in m for m in messages)


def test_rep107_self_and_cls_are_exempt(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/anno_ok.py",
        '''
        """Doc."""
        __all__ = []


        class Box:
            def __init__(self, value: int) -> None:
                self.value = value

            @classmethod
            def empty(cls) -> "Box":
                return cls(0)
        ''',
    )
    assert "REP107" not in codes_in(path)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def test_disable_comment_suppresses_one_rule_on_one_line(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/suppressed.py",
        '''
        """Doc."""
        __all__ = []


        def f(x: int) -> int:
            assert x > 0  # repro-lint: disable=REP101
            assert x < 10
            return x
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP101"]
    assert len(violations) == 1  # only the un-suppressed assert remains


def test_disable_comment_accepts_multiple_codes(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/multi_suppress.py",
        '''
        """Doc."""
        __all__ = []


        def f(acc: list = []) -> list:  # repro-lint: disable=REP102, REP107
            return acc
        ''',
    )
    assert codes_in(path) == set()


# ----------------------------------------------------------------------
# Engine and CLI
# ----------------------------------------------------------------------
def test_lint_paths_sorts_and_recurses(tmp_path):
    write_module(tmp_path, "src/repro/core/zz.py", "assert True\n")
    write_module(tmp_path, "src/repro/core/aa.py", "assert True\n")
    violations = lint_paths([tmp_path / "src"])
    files = [v.path.name for v in violations if v.rule == "REP101"]
    assert files == sorted(files)


def test_main_exit_codes(tmp_path, capsys):
    clean = write_module(
        tmp_path, "src/repro/core/ok.py", '"""Doc."""\n\n__all__ = []\n'
    )
    dirty = write_module(tmp_path, "src/repro/core/bad.py", "assert True\n")

    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REP101" in out and "bad.py" in out

    # --select runs only the chosen rules; unknown codes are a usage error.
    assert main(["--select", "REP103", str(dirty)]) == 1
    assert main(["--select", "REP101", str(clean)]) == 0
    assert main(["--select", "REP999", str(clean)]) == 2

    # a missing path is a usage error, not a clean run
    assert main([str(tmp_path / "no_such_dir")]) == 2


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out


def test_violation_render_is_location_prefixed(tmp_path):
    path = write_module(tmp_path, "src/repro/core/loc.py", "assert True\n")
    rendered = lint_file(path)[0].render()
    assert rendered.startswith(f"{path}:1:")
    assert "REP101" in rendered


# ----------------------------------------------------------------------
# REP200 — shared attributes mutated under the owning class's lock
# ----------------------------------------------------------------------
LOCKED_CLASS_HEADER = '''
    """Doc."""
    from repro.util.sync import TracedLock

    __all__ = []


    class Widget:
        def __init__(self) -> None:
            self._lock = TracedLock("widget.lock")
            self._count = 0
'''


def test_rep200_seeded_unguarded_write_is_caught(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/widget.py",
        LOCKED_CLASS_HEADER
        + '''
        def bump(self) -> None:
            self._count += 1
        ''',
    )
    assert "REP200" in codes_in(path)


def test_rep200_guarded_write_is_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/widget.py",
        LOCKED_CLASS_HEADER
        + '''
        def bump(self) -> None:
            with self._lock:
                self._count += 1
        ''',
    )
    assert "REP200" not in codes_in(path)


def test_rep200_locked_suffix_and_waiver_are_exempt(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/widget.py",
        LOCKED_CLASS_HEADER
        + '''
        def _bump_locked(self) -> None:
            self._count += 1

        def close(self) -> None:
            self._count = -1  # thread-safe: monotonic latch
        ''',
    )
    assert "REP200" not in codes_in(path)


def test_rep200_lockless_class_is_externally_synchronised(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/window.py",
        '''
        """Doc."""

        __all__ = []


        class Window:
            def __init__(self) -> None:
                self._count = 0

            def bump(self) -> None:
                self._count += 1
        ''',
    )
    assert "REP200" not in codes_in(path)


def test_rep200_does_not_apply_outside_concurrent_layers(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/widget.py",
        '''
        """Doc."""
        import threading

        __all__ = []


        class Widget:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._count = 0

            def bump(self) -> None:
                self._count += 1
        ''',
    )
    assert codes_in(path) & {"REP200", "REP203"} == set()


# ----------------------------------------------------------------------
# REP201 — declared module lock order
# ----------------------------------------------------------------------
def test_rep201_flags_inverted_declared_order(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/engine.py",
        '''
        """Doc."""
        from repro.util.sync import TracedLock

        __all__ = []


        class Engine:
            def __init__(self) -> None:
                self._write_lock = TracedLock("engine.write")
                self._trace_lock = TracedLock("engine.trace")

            def bad(self) -> None:
                with self._trace_lock:
                    with self._write_lock:
                        pass

            def good(self) -> None:
                with self._write_lock:
                    with self._trace_lock:
                        pass
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP201"]
    assert len(violations) == 1
    assert "self._write_lock" in violations[0].message


def test_rep201_flags_undeclared_nesting(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/undeclared.py",
        '''
        """Doc."""
        from repro.util.sync import TracedLock

        __all__ = []


        class Thing:
            def __init__(self) -> None:
                self._a_lock = TracedLock("thing.a")
                self._b_lock = TracedLock("thing.b")

            def nest(self) -> None:
                with self._a_lock:
                    with self._b_lock:
                        pass
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP201"]
    assert len(violations) == 1
    assert "MODULE_LOCK_ORDER" in violations[0].message


# ----------------------------------------------------------------------
# REP202 — blocking calls under a lock
# ----------------------------------------------------------------------
def test_rep202_flags_sleep_under_lock(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/sleepy.py",
        '''
        """Doc."""
        import time

        from repro.util.sync import TracedLock

        __all__ = []


        class Sleepy:
            def __init__(self) -> None:
                self._lock = TracedLock("sleepy.lock")

            def nap(self) -> None:
                with self._lock:
                    time.sleep(0.5)

            def fine(self) -> None:
                with self._lock:
                    pass
                time.sleep(0.5)
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP202"]
    assert len(violations) == 1
    assert "time.sleep" in violations[0].message


_POOLED_TRANSPORT = '''
    """Doc."""
    import http.client
    import select

    from repro.util.sync import TracedLock

    __all__ = []


    class Pool:
        def __init__(self) -> None:
            self._pool_lock = TracedLock("client.pool")
            self._pool: list[http.client.HTTPConnection] = []

        def exchange(self) -> bytes:
            {body}
'''


def test_rep202_flags_socket_io_under_the_pool_lock(tmp_path):
    """The calls that replaced ``urlopen``: idle check, dial, send, receive."""
    path = write_module(
        tmp_path,
        "src/repro/service/pooled_bad.py",
        _POOLED_TRANSPORT.format(
            body="""with self._pool_lock:
                connection = self._pool.pop()
                if select.select([connection.sock], [], [], 0)[0]:
                    connection.connect()
                connection.request("GET", "/healthz")
                raw = connection.getresponse().read()
                self._pool.append(connection)
            return raw"""
        ),
    )
    violations = [v for v in lint_file(path) if v.rule == "REP202"]
    assert sorted(v.message.split("()")[0].split()[-1] for v in violations) == [
        "connection.connect",
        "connection.getresponse",
        "connection.request",
        "select.select",
    ]


def test_rep202_accepts_a_pool_lock_held_only_to_pop_and_push(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/pooled_good.py",
        _POOLED_TRANSPORT.format(
            body="""with self._pool_lock:
                connection = self._pool.pop()
            if select.select([connection.sock], [], [], 0)[0]:
                connection.connect()
            connection.request("GET", "/healthz")
            raw = connection.getresponse().read()
            with self._pool_lock:
                self._pool.append(connection)
            return raw"""
        ),
    )
    assert codes_in(path) & {"REP100", "REP202"} == set()


# ----------------------------------------------------------------------
# REP203 — raw threading primitives in service/cluster
# ----------------------------------------------------------------------
def test_rep203_flags_raw_lock_and_allows_semaphore(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/cluster/raw.py",
        '''
        """Doc."""
        import threading

        __all__ = []


        class Raw:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._cond = threading.Condition()
                self._slots = threading.Semaphore(4)
                self._flag = threading.Event()
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP203"]
    assert len(violations) == 2  # Lock + Condition; Semaphore/Event exempt


def test_rep203_counts_from_threading_imports(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/bare.py",
        '''
        """Doc."""
        from threading import Lock

        __all__ = []


        def make() -> Lock:
            return Lock()
        ''',
    )
    assert "REP203" in codes_in(path)


# ----------------------------------------------------------------------
# REP204 — condition discipline
# ----------------------------------------------------------------------
def test_rep204_flags_notify_without_lock(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/condy.py",
        '''
        """Doc."""
        from repro.util.sync import TracedCondition

        __all__ = []


        class Condy:
            def __init__(self) -> None:
                self._cond = TracedCondition(name="condy.cond")

            def bad(self) -> None:
                self._cond.notify()

            def good(self) -> None:
                with self._cond:
                    self._cond.notify_all()
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP204"]
    assert len(violations) == 1
    assert "notify" in violations[0].message


# ----------------------------------------------------------------------
# REP205 — lexical self-deadlock
# ----------------------------------------------------------------------
def test_rep205_flags_reentered_lock(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/reenter.py",
        LOCKED_CLASS_HEADER
        + '''
        def bad(self) -> None:
            with self._lock:
                with self._lock:
                    pass
        ''',
    )
    assert "REP205" in codes_in(path)


# ----------------------------------------------------------------------
# REP206 — manual acquire without finally release
# ----------------------------------------------------------------------
def test_rep206_requires_finally_release(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/manual.py",
        LOCKED_CLASS_HEADER
        + '''
        def leak(self) -> bool:
            if not self._lock.acquire(blocking=False):
                return False
            self._count += 1  # thread-safe: lock held via manual acquire
            self._lock.release()
            return True

        def safe(self) -> bool:
            if not self._lock.acquire(blocking=False):
                return False
            try:
                return True
            finally:
                self._lock.release()
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP206"]
    assert [v.line for v in violations] == [
        min(v.line for v in violations)
    ]  # only leak() is flagged, not safe()


# ----------------------------------------------------------------------
# --format json (CI problem-matcher input)
# ----------------------------------------------------------------------
def test_main_format_json_emits_json_lines(tmp_path, capsys):
    import json as json_module

    dirty = write_module(
        tmp_path, "src/repro/core/bad.py", "assert True\n"
    )
    assert main(["--format", "json", str(dirty)]) == 1
    out = capsys.readouterr().out
    records = [
        json_module.loads(line) for line in out.splitlines() if line.strip()
    ]
    assert records, "expected at least one JSON record"
    for record in records:
        assert list(record) == ["file", "line", "col", "code", "summary"]
    assert records[0]["code"] == "REP101"
    assert records[0]["file"].endswith("bad.py")
    assert records[0]["line"] == 1


# ----------------------------------------------------------------------
# The repository itself passes its own gate
# ----------------------------------------------------------------------
def test_repository_is_lint_clean():
    violations = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert violations == [], "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# REP300 — in-place writes to snapshot-derived values
# ----------------------------------------------------------------------
def test_rep300_seeded_partition_matrix_write_is_caught(tmp_path):
    # The real-shape regression: before the freeze fix, nothing stopped
    # an in-place accumulation on the shared partition matrices.
    path = write_module(
        tmp_path,
        "src/repro/core/partitioning.py",
        '''
        """Doc."""
        __all__ = []


        class PartitionedSequence:
            def rescale(self, factor: float) -> None:
                self._low_matrix *= factor
                self._counts[0] += 1
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP300"]
    assert len(violations) == 2


def test_rep300_item_write_through_parameter(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/boxes.py",
        '''
        """Doc."""
        from repro.core.mbr import MBR

        __all__ = []


        def widen(box: MBR, amount: float) -> None:
            box.low[0] -= amount
        ''',
    )
    assert "REP300" in codes_in(path)


def test_rep300_segment_table_writes_are_caught(tmp_path):
    # The table's arrays are shared by every reader of a snapshot, like the
    # partition matrices they are concatenated from.
    path = write_module(
        tmp_path,
        "src/repro/core/tablewrites.py",
        '''
        """Doc."""
        from repro.core.database import SegmentTable

        __all__ = []


        def shift(table: SegmentTable) -> None:
            table.lows += 1.0
            table.point_offsets[0] = 1
            offsets = table.sequence_offsets
            offsets[1:] -= 1
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP300"]
    assert len(violations) == 3


def test_rep300_packed_index_writes_are_caught(tmp_path):
    # A packed base is shared by every snapshot since it was packed.
    path = write_module(
        tmp_path,
        "src/repro/core/packedwrites.py",
        '''
        """Doc."""
        from repro.core.packed import PackedBase, PackedIndex

        __all__ = []


        def renumber(base: PackedBase, index: PackedIndex) -> None:
            base.entry_row += 1
            lows, highs = base.levels[0]
            lows[0, 0] = 0.0
            index.delta_rows[0] = 0
            index.base.row_entries[0] = 0
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP300"]
    assert len(violations) == 4


def test_rep300_copies_are_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/clean300.py",
        '''
        """Doc."""
        import numpy as np

        from repro.core.mbr import MBR

        __all__ = []


        def widen(box: MBR, amount: float) -> np.ndarray:
            low = np.array(box.low)
            low[0] -= amount
            return low
        ''',
    )
    assert "REP300" not in codes_in(path)


# ----------------------------------------------------------------------
# REP301 — mutating methods on tracked values
# ----------------------------------------------------------------------
def test_rep301_seeded_cache_patch_shape_is_caught(tmp_path):
    # The real-shape bug apply_write exists to avoid: patching a shared
    # entry's sets in place instead of publishing a patched copy.
    path = write_module(
        tmp_path,
        "src/repro/service/cache.py",
        '''
        """Doc."""
        __all__ = []


        class EpsilonCache:
            def apply_write(self, sequence_id: object, entry: object) -> None:
                entry.candidates.discard(sequence_id)
                entry.intervals.pop(sequence_id, None)
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP301"]
    assert len(violations) == 2


def test_rep301_copy_then_mutate_is_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/cache.py",
        '''
        """Doc."""
        __all__ = []


        class EpsilonCache:
            def apply_write(self, sequence_id: object, entry: object) -> set:
                candidates = set(entry.candidates)
                candidates.discard(sequence_id)
                return candidates
        ''',
    )
    assert "REP301" not in codes_in(path)


# ----------------------------------------------------------------------
# REP302 — tracked containers returned across public boundaries
# ----------------------------------------------------------------------
def test_rep302_public_return_of_registered_container(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/partitioning.py",
        '''
        """Doc."""
        __all__ = []


        class PartitionedSequence:
            def segments(self) -> list:
                return self._segments

            def _segments_internal(self) -> list:
                return self._segments
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP302"]
    assert len(violations) == 1  # the private accessor is exempt


def test_rep302_copied_return_is_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/partitioning.py",
        '''
        """Doc."""
        __all__ = []


        class PartitionedSequence:
            def segments(self) -> list:
                return list(self._segments)
        ''',
    )
    assert "REP302" not in codes_in(path)


# ----------------------------------------------------------------------
# REP303 — aliases escaping into self state
# ----------------------------------------------------------------------
def test_rep303_asarray_alias_stored_on_self(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/index/cacheing.py",
        '''
        """Doc."""
        import numpy as np

        from repro.core.mbr import MBR

        __all__ = []


        class RowCache:
            def remember(self, box: MBR) -> None:
                self._last_low = np.asarray(box.low)

            def remember_copy(self, box: MBR) -> None:
                self._safe_low = np.array(box.low)
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP303"]
    assert len(violations) == 1
    assert "_last_low" in violations[0].message


def test_rep303_slice_alias_stored_on_self(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/slicer.py",
        '''
        """Doc."""
        from repro.core.sequence import MultidimensionalSequence

        __all__ = []


        class Slicer:
            def keep(self, seq: MultidimensionalSequence) -> None:
                self._window = seq.points[0:8]
        ''',
    )
    assert "REP303" in codes_in(path)


# ----------------------------------------------------------------------
# REP304 — constructor capture of caller-owned mutables
# ----------------------------------------------------------------------
def test_rep304_flags_uncopied_capture_and_accepts_copies(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/capture.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        class Holder:
            def __init__(self, points: np.ndarray, ids: list) -> None:
                self._points = points
                self._ids = list(ids)
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP304"]
    assert len(violations) == 1
    assert "'points'" in violations[0].message


def test_rep304_immutable_parameters_are_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/capture_ok.py",
        '''
        """Doc."""
        __all__ = []


        class Holder:
            def __init__(self, name: str, limit: int) -> None:
                self._name = name
                self._limit = limit
        ''',
    )
    assert "REP304" not in codes_in(path)


# ----------------------------------------------------------------------
# REP305 — dtype narrowing on distance-critical arrays
# ----------------------------------------------------------------------
def test_rep305_flags_float32_cast_on_distances(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/narrow.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        def compact(distances: np.ndarray) -> np.ndarray:
            return distances.astype(np.float32)
        ''',
    )
    assert "REP305" in codes_in(path)


def test_rep305_allows_narrowing_non_distance_data(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/narrow_ok.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        def pack(colors: np.ndarray) -> np.ndarray:
            return colors.astype(np.float32)


        def keep_precision(distances: np.ndarray) -> np.ndarray:
            return distances.astype(np.float64)
        ''',
    )
    assert "REP305" not in codes_in(path)


# ----------------------------------------------------------------------
# REP306 — writeability re-enabled outside repro.util.freeze
# ----------------------------------------------------------------------
def test_rep306_flags_setflags_and_flags_writeable(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/index/unfreezer.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        def thaw(arr: np.ndarray) -> None:
            arr.setflags(write=True)
            arr.flags.writeable = True
        ''',
    )
    violations = [v for v in lint_file(path) if v.rule == "REP306"]
    assert len(violations) == 2


def test_rep306_freeze_module_itself_is_exempt():
    path = REPO_ROOT / "src" / "repro" / "util" / "freeze.py"
    assert "REP306" not in codes_in(path)


# ----------------------------------------------------------------------
# REP307 — waivers need reasons; reasoned waivers suppress
# ----------------------------------------------------------------------
def test_rep307_bare_waiver_flagged_and_does_not_suppress(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/waivers.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        def thaw(arr: np.ndarray) -> None:
            arr.setflags(write=True)  # alias-ok
        ''',
    )
    codes = codes_in(path)
    assert "REP307" in codes
    assert "REP306" in codes  # a bare waiver waives nothing


def test_reasoned_alias_ok_waiver_suppresses(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/core/waived.py",
        '''
        """Doc."""
        import numpy as np

        __all__ = []


        def thaw(arr: np.ndarray) -> None:
            arr.setflags(write=True)  # alias-ok: scratch buffer owned here
        ''',
    )
    codes = codes_in(path)
    assert "REP306" not in codes
    assert "REP307" not in codes


def test_rep3xx_does_not_apply_to_test_code(tmp_path):
    path = write_module(
        tmp_path,
        "tests/helper_alias.py",
        '''
        import numpy as np


        def thaw(arr: np.ndarray) -> None:
            arr.setflags(write=True)
        ''',
    )
    assert codes_in(path) & {"REP300", "REP306"} == set()


# ----------------------------------------------------------------------
# REP400 — broad excepts re-raise or carry a reasoned waiver
# ----------------------------------------------------------------------
def test_rep400_flags_silent_broad_except(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/swallow.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except Exception:
                return 0
        ''',
    )
    assert "REP400" in codes_in(path)


def test_rep400_bare_except_flagged_reraise_and_waiver_clean(tmp_path):
    bare = write_module(
        tmp_path,
        "src/repro/service/bare.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except:
                return 0
        ''',
    )
    assert "REP400" in codes_in(bare)

    clean = write_module(
        tmp_path,
        "src/repro/service/cleanup.py",
        '''
        """Doc."""
        __all__ = []


        def f(resource: object) -> int:
            try:
                return 1
            except Exception:
                del resource
                raise
        ''',
    )
    assert "REP400" not in codes_in(clean)

    waived = write_module(
        tmp_path,
        "src/repro/service/waived.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except Exception:  # error-ok: probe loop outlives bad sweeps
                return 0
        ''',
    )
    assert "REP400" not in codes_in(waived)


def test_rep400_exempt_outside_library(tmp_path):
    path = write_module(
        tmp_path,
        "tests/test_x.py",
        "def f():\n    try:\n        return 1\n    except Exception:\n"
        "        return 0\n",
    )
    assert "REP400" not in codes_in(path)


# ----------------------------------------------------------------------
# REP401 — cancellation/budget errors always propagate
# ----------------------------------------------------------------------
def test_rep401_flags_absorbed_cancellation(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/eat.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except DeadlineExceeded:
                return 0
        ''',
    )
    assert "REP401" in codes_in(path)


def test_rep401_translation_with_raise_is_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/translate.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except OperationCancelled as error:
                raise DeadlineExceeded("budget spent") from error
        ''',
    )
    assert "REP401" not in codes_in(path)


def test_rep401_catches_tuple_spelling(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/tupled.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except (ValueError, OperationCancelled):
                return 0
        ''',
    )
    assert "REP401" in codes_in(path)


# ----------------------------------------------------------------------
# REP402 — typed translations chain provenance with 'from'
# ----------------------------------------------------------------------
def test_rep402_flags_unchained_taxonomy_raise(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/unchained.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except ValueError:
                raise ServiceError("rebuilt without provenance")
        ''',
    )
    assert "REP402" in codes_in(path)


def test_rep402_from_clause_is_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/chained.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except ValueError as error:
                raise ServiceError("rebuilt") from error
        ''',
    )
    assert "REP402" not in codes_in(path)


def test_rep402_ignores_non_taxonomy_raises(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/plain.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except ValueError:
                raise ValueError("re-validated, not a translation")
        ''',
    )
    assert "REP402" not in codes_in(path)


# ----------------------------------------------------------------------
# REP403 — public request-layer APIs raise only taxonomy errors
# ----------------------------------------------------------------------
def test_rep403_flags_untyped_public_raise(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/custom.py",
        '''
        """Doc."""
        __all__ = []


        def lookup(key: str) -> int:
            raise CustomSearchError(f"no {key}")
        ''',
    )
    assert "REP403" in codes_in(path)


def test_rep403_taxonomy_private_and_core_exempt(tmp_path):
    typed = write_module(
        tmp_path,
        "src/repro/service/typed.py",
        '''
        """Doc."""
        __all__ = []


        def lookup(key: str) -> int:
            raise ServiceError(f"no {key}")
        ''',
    )
    assert "REP403" not in codes_in(typed)

    private = write_module(
        tmp_path,
        "src/repro/service/private.py",
        '''
        """Doc."""
        __all__ = []


        def _helper(key: str) -> int:
            raise CustomSearchError(f"no {key}")
        ''',
    )
    assert "REP403" not in codes_in(private)

    core = write_module(
        tmp_path,
        "src/repro/core/free.py",
        '''
        """Doc."""
        __all__ = []


        def lookup(key: str) -> int:
            raise CustomSearchError(f"no {key}")
        ''',
    )
    assert "REP403" not in codes_in(core)


def test_error_taxonomy_is_the_service_errors_module():
    # REP403's allowed set is spelled out in the linter; it must name
    # exactly the exceptions ``repro.service.errors`` exports.
    from repro.service import errors
    from tools.repro_lint.errorpaths import ERROR_TAXONOMY

    exported = {
        name
        for name in errors.__all__
        if isinstance(getattr(errors, name), type)
        and issubclass(getattr(errors, name), BaseException)
    }
    assert ERROR_TAXONOMY == exported


# ----------------------------------------------------------------------
# REP404 — no retry loops around non-idempotent writes
# ----------------------------------------------------------------------
def test_rep404_flags_retried_insert(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/cluster/retry.py",
        '''
        """Doc."""
        __all__ = []


        def drain(backend: object, entries: list) -> None:
            for entry in entries:
                try:
                    backend.insert(entry)
                except ValueError:
                    continue
        ''',
    )
    assert "REP404" in codes_in(path)


def test_rep404_bookkeeping_and_reraising_loops_clean(tmp_path):
    bookkeeping = write_module(
        tmp_path,
        "src/repro/cluster/lists.py",
        '''
        """Doc."""
        __all__ = []


        def gather(entries: list) -> list:
            pending: list = []
            for entry in entries:
                try:
                    pending.append(entry)
                except ValueError:
                    continue
            return pending
        ''',
    )
    assert "REP404" not in codes_in(bookkeeping)

    reraising = write_module(
        tmp_path,
        "src/repro/cluster/strict.py",
        '''
        """Doc."""
        __all__ = []


        def drain(backend: object, entries: list) -> None:
            for entry in entries:
                try:
                    backend.insert(entry)
                except ValueError as error:
                    raise ServiceError("replay failed") from error
        ''',
    )
    assert "REP404" not in codes_in(reraising)


def test_rep404_waivable_on_the_call_line(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/cluster/idempotent.py",
        '''
        """Doc."""
        __all__ = []


        def drain(backend: object, entries: list) -> None:
            for entry in entries:
                try:
                    backend.insert(entry)  # error-ok: duplicate KeyError proves the write landed
                except ValueError:
                    continue
        ''',
    )
    assert "REP404" not in codes_in(path)


# ----------------------------------------------------------------------
# REP405 — finally/__exit__ control flow that masks exceptions
# ----------------------------------------------------------------------
def test_rep405_flags_return_in_finally(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/mask.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            finally:
                return 0
        ''',
    )
    assert "REP405" in codes_in(path)


def test_rep405_flags_exit_returning_true(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/ctx.py",
        '''
        """Doc."""
        __all__ = []


        class Scope:
            """Doc."""

            def __exit__(self, exc_type, exc, tb) -> bool:
                return True
        ''',
    )
    assert "REP405" in codes_in(path)


def test_rep405_plain_cleanup_finally_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/tidy.py",
        '''
        """Doc."""
        __all__ = []


        def f(lock: object) -> int:
            try:
                return 1
            finally:
                release(lock)
        ''',
    )
    assert "REP405" not in codes_in(path)


# ----------------------------------------------------------------------
# REP406 — inject sites and FAULT_SITES stay in lockstep
# ----------------------------------------------------------------------
FAULTS_FIXTURE = '''
"""Doc."""
__all__ = ["FAULT_SITES"]

FAULT_SITES = (
    "engine.worker",
    "wal.fsync",
)
'''


def test_rep406_flags_unregistered_inject_literal(tmp_path):
    write_module(tmp_path, "src/repro/service/faults.py", FAULTS_FIXTURE)
    path = write_module(
        tmp_path,
        "src/repro/service/hot.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> None:
            inject("engine.worker")
            inject("never.registered")
        ''',
    )
    assert "REP406" in codes_in(path)


def test_rep406_flags_dead_registry_entry(tmp_path):
    write_module(
        tmp_path,
        "src/repro/service/hot.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> None:
            inject("engine.worker")
        ''',
    )
    faults = write_module(
        tmp_path, "src/repro/service/faults.py", FAULTS_FIXTURE
    )
    violations = [v for v in lint_file(faults) if v.rule == "REP406"]
    assert len(violations) == 1
    assert "wal.fsync" in violations[0].message


def test_rep406_dynamic_sites_exempt(tmp_path):
    write_module(tmp_path, "src/repro/service/faults.py", FAULTS_FIXTURE)
    path = write_module(
        tmp_path,
        "src/repro/cluster/dynamic.py",
        '''
        """Doc."""
        __all__ = []


        def f(index: int) -> None:
            inject(f"cluster.backend.{index}.request")
        ''',
    )
    assert "REP406" not in codes_in(path)


# ----------------------------------------------------------------------
# REP407 — every # error-ok waiver carries a reason
# ----------------------------------------------------------------------
def test_rep407_flags_bare_error_ok(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/barewaiver.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except Exception:  # error-ok
                return 0
        ''',
    )
    codes = codes_in(path)
    # A bare waiver both fails REP407 and waives nothing (REP400 stays).
    assert "REP407" in codes
    assert "REP400" in codes


def test_rep407_reasoned_waiver_clean(tmp_path):
    path = write_module(
        tmp_path,
        "src/repro/service/reasoned.py",
        '''
        """Doc."""
        __all__ = []


        def f() -> int:
            try:
                return 1
            except Exception:  # error-ok: tail loop must survive restarts
                return 0
        ''',
    )
    assert "REP407" not in codes_in(path)


# ----------------------------------------------------------------------
# The --fault-coverage audit mode
# ----------------------------------------------------------------------
def test_fault_coverage_fails_on_unexercised_site(tmp_path, capsys):
    write_module(tmp_path, "src/repro/service/faults.py", FAULTS_FIXTURE)
    write_module(
        tmp_path,
        "tests/test_chaos.py",
        "def test_worker_fault():\n"
        "    arm('engine.worker')\n",
    )
    code = main(
        ["--fault-coverage", str(tmp_path / "src"), str(tmp_path / "tests")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "wal.fsync" in captured.out
    assert "unexercised" in captured.err


def test_fault_coverage_passes_when_every_site_exercised(tmp_path):
    write_module(tmp_path, "src/repro/service/faults.py", FAULTS_FIXTURE)
    write_module(
        tmp_path,
        "tests/test_chaos.py",
        "def test_faults():\n"
        "    arm('engine.worker')\n"
        "    arm('wal.fsync')\n",
    )
    code = main(
        ["--fault-coverage", str(tmp_path / "src"), str(tmp_path / "tests")]
    )
    assert code == 0


def test_fault_coverage_errors_without_a_registry(tmp_path, capsys):
    write_module(
        tmp_path, "tests/test_chaos.py", "def test_x():\n    pass\n"
    )
    code = main(["--fault-coverage", str(tmp_path / "tests")])
    assert code == 2
    assert "no FAULT_SITES registry" in capsys.readouterr().err


def test_fault_coverage_clean_on_the_real_repo():
    """The acceptance criterion: every registered site has a chaos test."""
    code = main(
        [
            "--fault-coverage",
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "tools"),
        ]
    )
    assert code == 0


# ----------------------------------------------------------------------
# The rule table carries waiver syntax and matches the documentation
# ----------------------------------------------------------------------
def test_list_rules_shows_waiver_column(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "# alias-ok: <reason>" in out
    assert "# thread-safe: <reason>" in out
    assert "# error-ok: <reason>" in out
    assert "# repro-lint: disable=REP101" in out


def test_every_rule_is_documented():
    docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text(
        encoding="utf-8"
    )
    for rule in ALL_RULES:
        assert rule.code in docs, f"{rule.code} missing from static_analysis.md"
        assert rule.waiver_syntax.split(":")[0] in docs


def test_rule_codes_are_unique_and_sorted_by_family():
    codes = [rule.code for rule in ALL_RULES]
    assert len(codes) == len(set(codes))
    aliasing = [c for c in codes if c.startswith("REP3")]
    assert aliasing == [f"REP30{i}" for i in range(8)]
    errorpaths = [c for c in codes if c.startswith("REP4")]
    assert errorpaths == [f"REP40{i}" for i in range(8)]


# ----------------------------------------------------------------------
# Benchmarks and examples pass the gate too (CI parity)
# ----------------------------------------------------------------------
def test_benchmarks_and_examples_are_lint_clean():
    violations = lint_paths(
        [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
    )
    assert violations == [], "\n".join(v.render() for v in violations)
