"""Concurrency-discipline rules (REP200–REP206).

The serving (``repro.service``) and cluster (``repro.cluster``) layers are
the multithreaded half of the codebase, so they carry extra obligations
that the rest of the library does not:

* shared attributes are mutated only under the class's own lock (REP200),
* lexically nested lock acquisitions follow the declared per-module order
  table (REP201) — the runtime sanitizer in :mod:`repro.util.sync` checks
  the *dynamic* cross-module order, this rule checks what is visible in
  the source,
* no blocking I/O or sleeping while a lock is held (REP202),
* locks are constructed through :mod:`repro.util.sync` so they are
  traceable (REP203),
* condition variables are signalled/awaited only under their own lock
  (REP204),
* no self-deadlocks (REP205) and no ``acquire()`` without a
  ``finally``-path ``release()`` (REP206).

A mutation that is safe *without* the lock for a documented reason is
waived with a ``# thread-safe: <reason>`` comment on the offending line;
the reason is mandatory.  Classes that declare no lock attributes are
treated as externally synchronised (their callers hold a lock) and are
exempt from REP200.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from tools.repro_lint.model import (
    Checker,
    ModuleContext,
    Rule,
    Violation,
    in_library_scope,
    waived,
)

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHODS",
    "CONCURRENCY_RULE_SPECS",
    "MODULE_LOCK_ORDER",
]

# Layers whose library modules carry the concurrency obligations.  The
# bench layer qualifies because its load generator runs worker threads
# against shared cursors.
_CONCURRENT_LAYERS = frozenset({"service", "cluster", "bench"})

# The declared intra-module lock acquisition order: while holding a lock,
# a thread may only take locks that appear *later* in its module's tuple.
# Cross-module order (engine.write -> cache.entries, drain -> health) is
# the runtime sanitizer's job; see docs/concurrency.md for the full
# global table.
MODULE_LOCK_ORDER: dict[str, tuple[str, ...]] = {
    "repro.service.engine": (
        "_write_lock",
        "_trace_lock",
    ),
    "repro.cluster.coordinator": (
        "_order_lock",
        "_latency_lock",
        "_lag_lock",
        "_counters_lock",
    ),
}

# Dotted callables that block (I/O, sleeping, subprocesses): calling any
# of these while a lock is held turns every peer of that lock into a
# convoy behind the slow operation.
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "os.fsync",
        "os.fdatasync",
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "select.select",
        "urllib.request.urlopen",
    }
)

# Methods that block whatever they are called on: the socket I/O of an
# ``http.client`` connection (``repro.service.client``'s pooled transport).
BLOCKING_METHODS: frozenset[str] = frozenset(
    {"connect", "request", "getresponse"}
)

# Constructors that produce a lock-like guard when assigned to ``self``.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "TracedLock", "TracedRLock"}
)
_CONDITION_FACTORIES = frozenset({"Condition", "TracedCondition"})
_RAW_FACTORIES = frozenset({"Lock", "RLock", "Condition"})
_CONDITION_METHODS = frozenset({"wait", "wait_for", "notify", "notify_all"})

# ``# thread-safe: <reason>`` waives any REP2xx finding on its line.
_WAIVER = "thread-safe"


def _call_factory_name(node: ast.expr) -> str | None:
    """``Lock`` for ``threading.Lock()`` / ``TracedLock("x")`` / ``Lock()``."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _contains_lock_factory(node: ast.expr, factories: frozenset[str]) -> bool:
    """Whether ``node`` is (or builds a container of) a lock-ish call."""
    for child in ast.walk(node):
        if isinstance(child, ast.expr):
            name = _call_factory_name(child)
            if name in factories:
                return True
    return False


def _self_attr(node: ast.expr) -> str | None:
    """``"_lock"`` for the expression ``self._lock``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guard_attr(node: ast.expr) -> str | None:
    """The ``self`` attribute a with-item guards: ``self._lock`` or
    ``self._drain_locks[i]`` both guard via their attribute name."""
    direct = _self_attr(node)
    if direct is not None:
        return direct
    if isinstance(node, ast.Subscript):
        return _self_attr(node.value)
    return None


def _identifier(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _looks_lockish(node: ast.expr, lock_attrs: frozenset[str]) -> bool:
    """Heuristic: the expression denotes a lock (for REP202/205/206)."""
    attr = _guard_attr(node)
    if attr is not None and attr in lock_attrs:
        return True
    name = _identifier(node)
    if name is None and isinstance(node, ast.Subscript):
        name = _identifier(node.value)
    return name is not None and "lock" in name.lower()


@dataclass
class _ClassInfo:
    """Lock topology of one class, read off its ``__init__``."""

    node: ast.ClassDef
    lock_attrs: frozenset[str] = frozenset()
    condition_attrs: frozenset[str] = frozenset()


def _classify(node: ast.ClassDef) -> _ClassInfo:
    locks: set[str] = set()
    conditions: set[str] = set()
    for method in node.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name != "__init__":
            continue
        for statement in ast.walk(method):
            if not isinstance(statement, ast.Assign):
                continue
            for target in statement.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if _contains_lock_factory(statement.value, _LOCK_FACTORIES):
                    locks.add(attr)
                elif _contains_lock_factory(
                    statement.value, _CONDITION_FACTORIES
                ):
                    conditions.add(attr)
    return _ClassInfo(
        node=node,
        lock_attrs=frozenset(locks | conditions),
        condition_attrs=frozenset(conditions),
    )


def _module_classes(context: ModuleContext) -> list[_ClassInfo]:
    return [
        _classify(node)
        for node in ast.walk(context.tree)
        if isinstance(node, ast.ClassDef)
    ]


@dataclass
class _WithFrame:
    """One entered with-item: the guarded attr (if a self lock) and the
    raw expression dump (for same-expression REP205 detection)."""

    attr: str | None
    dump: str
    node: ast.With
    lockish: bool


def _methods_of(info: _ClassInfo) -> Iterator[ast.FunctionDef]:
    for statement in info.node.body:
        if isinstance(statement, ast.FunctionDef):
            yield statement


def _walk_withs(
    body: list[ast.stmt],
    lock_attrs: frozenset[str],
    stack: list[_WithFrame],
) -> Iterator[tuple[ast.stmt, tuple[_WithFrame, ...]]]:
    """Yield every statement with the with-frames lexically above it.

    Nested function definitions get a *fresh* stack: their bodies run
    later, on whichever thread calls them, not under the locks held at
    definition time.
    """
    for statement in body:
        yield statement, tuple(stack)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk_withs(statement.body, lock_attrs, [])
            continue
        if isinstance(statement, ast.With):
            frames = [
                _WithFrame(
                    attr=_guard_attr(item.context_expr),
                    dump=ast.dump(item.context_expr),
                    node=statement,
                    lockish=_looks_lockish(item.context_expr, lock_attrs),
                )
                for item in statement.items
            ]
            stack.extend(frames)
            yield from _walk_withs(statement.body, lock_attrs, stack)
            del stack[len(stack) - len(frames) :]
            continue
        for child_body in _child_bodies(statement):
            yield from _walk_withs(child_body, lock_attrs, stack)


def _child_bodies(statement: ast.stmt) -> Iterator[list[ast.stmt]]:
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(statement, field_name, None)
        if isinstance(value, list) and value and isinstance(
            value[0], ast.stmt
        ):
            yield value
    handlers = getattr(statement, "handlers", None)
    if handlers:
        for handler in handlers:
            yield handler.body


def _own_calls(statement: ast.stmt) -> Iterator[ast.Call]:
    """Call nodes belonging to this statement itself.

    Nested statements (with/if/try bodies, inner defs) are yielded
    separately by :func:`_walk_withs` with their own frame stacks, so
    descending into them here would double-count their calls under the
    wrong frames.
    """
    pending: list[ast.AST] = [statement]
    while pending:
        node = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                continue
            pending.append(child)
        if isinstance(node, ast.Call):
            yield node


def _check_guarded_mutation(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP200: shared attributes are written under the class's own lock.

    Applies to classes that declare lock attributes (classes without any
    are externally synchronised by convention).  Exempt: ``__init__``
    (no concurrent access before construction completes), methods whose
    name ends in ``_locked`` (the caller holds the lock — that is the
    naming contract), and lines carrying a ``# thread-safe: <reason>``
    waiver.
    """
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for info in _module_classes(context):
        if not info.lock_attrs:
            continue
        for method in _methods_of(info):
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            for statement, frames in _walk_withs(
                method.body, info.lock_attrs, []
            ):
                targets: list[ast.expr]
                if isinstance(statement, ast.Assign):
                    targets = statement.targets
                elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                    targets = [statement.target]
                else:
                    continue
                mutated = [
                    attr
                    for attr in (_self_attr(target) for target in targets)
                    if attr is not None and attr not in info.lock_attrs
                ]
                if not mutated:
                    continue
                guarded = any(
                    frame.attr in info.lock_attrs
                    for frame in frames
                    if frame.attr is not None
                )
                if guarded or waived(context, statement.lineno, _WAIVER):
                    continue
                yield rule.violation(
                    context,
                    statement,
                    f"{info.node.name}.{method.name}() writes "
                    f"self.{mutated[0]} without holding one of the "
                    f"class's locks "
                    f"({', '.join(sorted(info.lock_attrs))}); guard it, "
                    "rename the method *_locked, or waive with "
                    "'# thread-safe: <reason>'",
                )


def _check_lock_order(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP201: nested acquisitions follow the module's declared order.

    Any pair of the class's own locks that nests lexically must be
    declared in :data:`MODULE_LOCK_ORDER` and nest in declaration order.
    The runtime sanitizer covers orders this rule cannot see (locks
    reached through method calls or other objects).
    """
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    order = MODULE_LOCK_ORDER.get(context.module_name or "", ())
    rank = {name: index for index, name in enumerate(order)}
    for info in _module_classes(context):
        if not info.lock_attrs:
            continue
        for method in _methods_of(info):
            for statement, frames in _walk_withs(
                method.body, info.lock_attrs, []
            ):
                if not isinstance(statement, ast.With):
                    continue
                inner = [
                    _guard_attr(item.context_expr)
                    for item in statement.items
                ]
                held = [
                    frame.attr
                    for frame in frames
                    if frame.attr is not None
                    and frame.attr in info.lock_attrs
                    and frame.node is not statement
                ]
                for attr in inner:
                    if attr is None or attr not in info.lock_attrs:
                        continue
                    for held_attr in held:
                        if attr not in rank or held_attr not in rank:
                            yield rule.violation(
                                context,
                                statement,
                                f"nested acquisition self.{held_attr} -> "
                                f"self.{attr} is not declared in "
                                "MODULE_LOCK_ORDER (tools/repro_lint/"
                                "concurrency.py); declare the order so "
                                "inversions are detectable",
                            )
                        elif rank[attr] <= rank[held_attr]:
                            yield rule.violation(
                                context,
                                statement,
                                f"lock-order violation: self.{attr} "
                                f"acquired while holding "
                                f"self.{held_attr}, but the declared "
                                f"order for {context.module_name} is "
                                f"{' -> '.join(order)}",
                            )


def _dotted_name(node: ast.expr) -> str | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _check_blocking_under_lock(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP202: no blocking call (fsync, sleep, sockets, subprocess) while
    a lock is lexically held."""
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for info in _module_classes(context):
        for method in _methods_of(info):
            for statement, frames in _walk_withs(
                method.body, info.lock_attrs, []
            ):
                if not any(frame.lockish for frame in frames):
                    continue
                for node in _own_calls(statement):
                    name = _dotted_name(node.func)
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in BLOCKING_METHODS
                    ):
                        name = name or f"<connection>.{node.func.attr}"
                    elif name not in BLOCKING_CALLS:
                        continue
                    if not waived(context, node.lineno, _WAIVER):
                        holder = next(
                            frame for frame in frames if frame.lockish
                        )
                        yield rule.violation(
                            context,
                            node,
                            f"blocking call {name}() while holding a "
                            f"lock (with at line "
                            f"{holder.node.lineno}); move the slow "
                            "operation outside the critical section",
                        )


def _check_raw_primitives(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP203: service/cluster construct locks via ``repro.util.sync``.

    Raw ``threading.Lock``/``RLock``/``Condition`` are invisible to the
    runtime lock-order sanitizer; ``Semaphore`` and ``Event`` have no
    traced wrapper (they are not order-relevant) and stay raw.
    """
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name: str | None = None
        if isinstance(node.func, ast.Attribute):
            if _dotted_name(node.func.value) == "threading":
                name = node.func.attr
        elif isinstance(node.func, ast.Name) and node.func.id in _RAW_FACTORIES:
            # Bare names count only when imported from threading.
            if _imports_from_threading(context, node.func.id):
                name = node.func.id
        if name in _RAW_FACTORIES and not waived(context, node.lineno, _WAIVER):
            traced = {
                "Lock": "TracedLock",
                "RLock": "TracedRLock",
                "Condition": "TracedCondition",
            }[name]
            yield rule.violation(
                context,
                node,
                f"raw threading.{name}() in the {context.layer} layer; "
                f"use repro.util.sync.{traced}(name) so the runtime "
                "sanitizer can see it",
            )


def _imports_from_threading(context: ModuleContext, symbol: str) -> bool:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            if any(alias.name == symbol for alias in node.names):
                return True
    return False


def _check_condition_discipline(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP204: ``wait``/``notify`` on a condition only under its lock."""
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for info in _module_classes(context):
        if not info.condition_attrs:
            continue
        for method in _methods_of(info):
            for statement, frames in _walk_withs(
                method.body, info.lock_attrs, []
            ):
                for node in _own_calls(statement):
                    func = node.func
                    if not (
                        isinstance(func, ast.Attribute)
                        and func.attr in _CONDITION_METHODS
                    ):
                        continue
                    cond_attr = _self_attr(func.value)
                    if (
                        cond_attr is None
                        or cond_attr not in info.condition_attrs
                    ):
                        continue
                    held = any(
                        frame.attr == cond_attr for frame in frames
                    )
                    if not held:
                        yield rule.violation(
                            context,
                            node,
                            f"self.{cond_attr}.{func.attr}() outside "
                            f"'with self.{cond_attr}:'; waking or "
                            "waiting without the condition's lock "
                            "races the predicate",
                        )


def _check_self_deadlock(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP205: the same lock expression entered twice on one thread."""
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for info in _module_classes(context):
        for method in _methods_of(info):
            for statement, frames in _walk_withs(
                method.body, info.lock_attrs, []
            ):
                if not isinstance(statement, ast.With):
                    continue
                for item in statement.items:
                    if not _looks_lockish(
                        item.context_expr, info.lock_attrs
                    ):
                        continue
                    dump = ast.dump(item.context_expr)
                    for frame in frames:
                        if frame.node is statement:
                            continue
                        if frame.lockish and frame.dump == dump:
                            yield rule.violation(
                                context,
                                statement,
                                "re-entering a lock already held by "
                                "this thread (outer with at line "
                                f"{frame.node.lineno}): guaranteed "
                                "self-deadlock on a non-reentrant "
                                "lock",
                            )


def _check_manual_acquire(
    rule: "Rule", context: ModuleContext
) -> Iterator[Violation]:
    """REP206: a manual ``acquire()`` pairs with ``release()`` in a
    ``finally`` in the same function (else an exception leaks the lock).
    """
    if not in_library_scope(context, _CONCURRENT_LAYERS):
        return
    for info in _module_classes(context):
        for method in _methods_of(info):
            acquires: list[ast.Call] = []
            has_finally_release = False
            for node in ast.walk(method):
                if isinstance(node, ast.Try):
                    for final_statement in node.finalbody:
                        for child in ast.walk(final_statement):
                            if (
                                isinstance(child, ast.Call)
                                and isinstance(child.func, ast.Attribute)
                                and child.func.attr == "release"
                            ):
                                has_finally_release = True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                    and _looks_lockish(node.func.value, info.lock_attrs)
                ):
                    acquires.append(node)
            for node in acquires:
                if has_finally_release or waived(context, node.lineno, _WAIVER):
                    continue
                yield rule.violation(
                    context,
                    node,
                    "manual lock acquire() without a release() in a "
                    "finally block in the same function; prefer "
                    "'with', or guarantee the release",
                )


# (code, summary, checker) triples; tools.repro_lint.rules wraps these
# into Rule objects so this module never imports Rule at runtime.
CONCURRENCY_RULE_SPECS: tuple[tuple[str, str, Checker], ...] = (
    (
        "REP200",
        "shared attributes are mutated under the owning class's lock",
        _check_guarded_mutation,
    ),
    (
        "REP201",
        "nested lock acquisitions follow the declared module lock order",
        _check_lock_order,
    ),
    (
        "REP202",
        "no blocking calls (fsync/sleep/socket/subprocess) under a lock",
        _check_blocking_under_lock,
    ),
    (
        "REP203",
        "service/cluster locks are built via repro.util.sync, not threading",
        _check_raw_primitives,
    ),
    (
        "REP204",
        "condition wait/notify only while holding the condition's lock",
        _check_condition_discipline,
    ),
    (
        "REP205",
        "no re-entry of a lock already held (lexical self-deadlock)",
        _check_self_deadlock,
    ),
    (
        "REP206",
        "manual acquire() pairs with release() in a finally",
        _check_manual_acquire,
    ),
)
