"""The one switch behind the four runtime checks (``repro.util.checks``).

What each check *does* is pinned beside its module (``test_contracts``,
``test_sync``, ``test_freeze``, ``test_errtrace``); this file pins the
switch they share: off by default, the environment grammar, nesting,
restore on exception, and a scope every thread sees.  Each behaviour is
one ``assert_*`` helper; ``test_switch`` runs them all for every check,
and the modules' own toggle tests call them for their one name.
"""

import threading

import pytest

from repro.util.checks import check_stats, checking, enabled, reset_checks
from repro.util.sync import TracedLock, lock_order_edges

NAMES = ("contracts", "sync", "freeze", "errors")
TRUTHY = ("1", "true", "YES", " on ")
FALSY = ("", "0", "false", "off")


def assert_off_by_default(name, check_env):
    check_env(**{name: None})
    assert not enabled(name)


def assert_env_value(name, check_env, value, expected):
    check_env(**{name: value})
    assert enabled(name) is expected, value


def assert_scopes_nest(name):
    assert not enabled(name)
    with checking(name):
        assert enabled(name)
        with checking(name):
            assert enabled(name)
        assert enabled(name)  # the outer scope still holds it
    assert not enabled(name)


def assert_restores_on_exception(name):
    assert not enabled(name)
    with pytest.raises(RuntimeError, match="boom"):
        with checking(name):
            raise RuntimeError("boom")
    assert not enabled(name)


def assert_visible_across_threads(name):
    seen = []
    with checking(name):
        worker = threading.Thread(target=lambda: seen.append(enabled(name)))
        worker.start()
        worker.join()
    assert seen == [True]


@pytest.mark.parametrize("name", NAMES)
def test_switch(name, check_env):
    assert_off_by_default(name, check_env)
    for value in TRUTHY:
        assert_env_value(name, check_env, value, True)
    for value in FALSY:
        assert_env_value(name, check_env, value, False)
    assert_scopes_nest(name)
    assert_restores_on_exception(name)
    assert_visible_across_threads(name)

    check_env(**{name: "1"})
    with checking(name):
        pass
    assert enabled(name)  # a scope ends on the environment's value


def test_a_scope_names_only_its_checks(checks_off):
    with checking("sync", "freeze"):
        assert [enabled(name) for name in NAMES] == [False, True, True, False]
    assert not any(enabled(name) for name in NAMES)


def test_unknown_names_are_refused(checks_off):
    with pytest.raises(ValueError, match="contracts"):
        enabled("lock-order")
    with pytest.raises(ValueError):
        with checking():
            pass
    with pytest.raises(ValueError):
        with checking("sync", "typo"):
            pass
    assert not enabled("sync")  # a refused scope switches nothing on


def test_reset_clears_what_the_checks_recorded(checks_off):
    outer, inner = TracedLock("reset.outer"), TracedLock("reset.inner")
    with checking("sync"):
        with outer, inner:
            pass
        assert lock_order_edges() == {"reset.outer": ("reset.inner",)}
        assert check_stats()["sync"]["reset.inner"]["acquisitions"] == 1
        reset_checks()
        assert enabled("sync")  # open scopes stay in force
        assert lock_order_edges() == {}
    assert check_stats() == {"sync": {}, "errors": {}}
