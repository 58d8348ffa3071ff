"""Error-path & cancellation discipline rules (REP400–REP407).

PR 3 built deterministic fault injection and PR 9 threaded
``Deadline``/``OperationCancelled`` through every layer — but none of
that matters if a ``try/except`` somewhere quietly eats the failure.
This family is the static half of the error-flow gate (the runtime half
is :mod:`repro.util.errtrace`): an intra-procedural pass over every
``try`` statement, raise site and fault-injection literal.

**Rules.**

* REP400 — a broad or bare ``except`` (``except:``, ``except
  Exception``, ``except BaseException``) that neither re-raises (a bare
  ``raise`` somewhere in the handler) nor carries a reasoned
  ``# error-ok: <reason>`` waiver.  Cleanup-then-reraise blocks are
  fine; silent absorption is not.
* REP401 — an ``except`` clause that names a cancellation/budget type
  (``OperationCancelled``, ``DeadlineExceeded``) and contains no
  ``raise`` at all: cancellation must always propagate (translating it,
  as the engine does with ``raise DeadlineExceeded(...) from error``,
  counts as propagation).
* REP402 — a typed-error translation that drops provenance: ``raise
  TypedError(...)`` lexically inside an ``except`` handler without a
  ``from`` clause.
* REP403 — a public function in the request-path layers (``service``,
  ``cluster``, ``bench``) raising an exception class outside the
  ``errors.py`` taxonomy and the documented caller-error builtins
  (``ValueError``/``KeyError``/``TypeError``/… and ``RuntimeError`` for
  internal invariants).
* REP404 — a retry-shaped loop (a loop containing a ``try`` whose
  handler swallows) whose protected body calls a non-idempotent
  mutation (``insert``/``append``/``remove``/``apply_records``) on a
  service-ish receiver: retrying an un-acked write can double-apply it.
* REP405 — a ``finally`` block containing ``return``/``raise``/
  ``break``/``continue`` (each masks an in-flight exception), or an
  ``__exit__`` returning ``True`` (swallows every exception in the
  ``with`` body).
* REP406 — fault-site registry drift: an ``inject("<literal>")`` whose
  site is not in ``FAULT_SITES`` (``src/repro/service/faults.py``), and
  — checked on the registry module itself — a ``FAULT_SITES`` entry no
  ``inject`` call in the tree ever fires.  Dynamic per-backend sites
  (f-strings) are exempt by design.
* REP407 — a bare ``# error-ok`` waiver without a reason.

A finding that is safe for a documented reason is waived with
``# error-ok: <reason>`` on the offending line; the reason is mandatory
(REP407).  Like the other families, the pass is lexical and
intra-procedural — the runtime sanitizer checks what actually happens.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

from tools.repro_lint.model import (
    Checker,
    Event,
    ModuleContext,
    Rule,
    Violation,
    bare_waiver_checker,
    emit_events,
)

__all__ = [
    "ALLOWED_PUBLIC_RAISES",
    "CANCELLATION_TYPES",
    "ERRORPATH_RULE_SPECS",
    "ERROR_TAXONOMY",
    "NON_IDEMPOTENT_METHODS",
    "fault_registry",
    "parse_fault_registry",
    "injected_literals",
]

#: The serving layer's typed-error taxonomy (``repro.service.errors``).
ERROR_TAXONOMY: frozenset[str] = frozenset(
    {
        "DeadlineExceeded",
        "EngineClosed",
        "FollowerReadOnly",
        "HeadersTooLarge",
        "Overloaded",
        "RepairOverflow",
        "ReplicaDiverged",
        "ServiceError",
        "ShardUnavailable",
        "SnapshotRequired",
        "UnsupportedMethod",
        "WriteQuorumFailed",
    }
)

#: Cancellation/budget types an ``except`` may never absorb (REP401).
CANCELLATION_TYPES: frozenset[str] = frozenset(
    {"DeadlineExceeded", "OperationCancelled"}
)

#: What a *public* service/cluster/bench function may raise: the typed
#: taxonomy, the documented caller-error builtins (bad input, unknown
#: id, duplicate id), cancellation, chaos injection, and
#: ``RuntimeError`` for internal invariant failures.
ALLOWED_PUBLIC_RAISES: frozenset[str] = ERROR_TAXONOMY | frozenset(
    {
        "FaultInjected",
        "IndexError",
        "KeyError",
        "NotImplementedError",
        "OperationCancelled",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
    }
)

#: Mutating calls that are not idempotent at the serving API (REP404):
#: re-sending one after an ambiguous failure can double-apply it.
#: ``_send_write`` is the coordinator's one record -> backend dispatch,
#: which forwards to exactly these.
NON_IDEMPOTENT_METHODS: frozenset[str] = frozenset(
    {"_send_write", "add", "apply_records", "append", "insert", "remove"}
)

# Receiver base names that look like a stateful serving target (the
# heuristic that keeps ``pending.append(...)`` bookkeeping out of
# REP404's blast radius).
_STATEFUL_RECEIVERS = frozenset(
    {
        "backend",
        "client",
        "coordinator",
        "database",
        "db",
        "engine",
        "follower",
        "leader",
        "node",
        "self",
        "server",
        "target",
    }
)

_BROAD_NAMES = frozenset({"BaseException", "Exception"})

# Layers whose public surface is the request path (REP403/REP404).
_REQUEST_LAYERS = frozenset({"bench", "cluster", "service"})


def _last_name(node: ast.expr) -> str | None:
    """``DeadlineExceeded`` for both bare and dotted spellings."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _handler_names(handler: ast.ExceptHandler) -> frozenset[str]:
    """The exception class names one handler clause catches."""
    if handler.type is None:
        return frozenset()
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = {_last_name(node) for node in nodes}
    return frozenset(name for name in names if name is not None)


def _walk_no_defs(nodes: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class scopes."""
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler contains a bare ``raise``."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in _walk_no_defs(handler.body)
    )


def _raises_anything(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) for node in _walk_no_defs(handler.body)
    )


def _receiver_base(node: ast.expr) -> str | None:
    """``self`` for ``self._wal.append``, ``target`` for ``target.insert``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# Fault-site registry resolution (REP406 and the --fault-coverage mode)
# ----------------------------------------------------------------------
def _src_root(path: Path) -> Path | None:
    """The ``src`` directory above a linted file, if any."""
    parts = path.parts
    if "src" not in parts:
        return None
    return Path(*parts[: parts.index("src") + 1])


def parse_fault_registry(tree: ast.AST) -> dict[str, int] | None:
    """``{site: lineno}`` from a module's ``FAULT_SITES`` assignment."""
    for node in ast.walk(tree):
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            value = node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "FAULT_SITES"):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        sites: dict[str, int] = {}
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                sites[element.value] = element.lineno
        return sites
    return None


@lru_cache(maxsize=8)
def fault_registry(src_root: str) -> dict[str, int] | None:
    """The ``FAULT_SITES`` registry of one source tree, or ``None``.

    Parsed from ``<src_root>/repro/service/faults.py`` so the linter
    never imports the package it is checking (CI runs it without the
    package installed).
    """
    path = Path(src_root) / "repro" / "service" / "faults.py"
    if not path.is_file():
        return None
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None
    return parse_fault_registry(tree)


def _inject_site(node: ast.Call) -> str | None:
    """The literal site of an ``inject("...")`` call; None if dynamic."""
    name = _last_name(node.func)
    if name != "inject" or not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def _is_inject_call(node: ast.Call) -> bool:
    return _last_name(node.func) == "inject" and bool(node.args)


@lru_cache(maxsize=8)
def injected_literals(src_root: str) -> frozenset[str]:
    """Every literal fault site fired by ``inject`` under a source tree."""
    sites: set[str] = set()
    for path in sorted(Path(src_root).rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, OSError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                site = _inject_site(node)
                if site is not None:
                    sites.add(site)
    return frozenset(sites)


# ----------------------------------------------------------------------
# Event collection (one pass per module, shared by all eight rules)
# ----------------------------------------------------------------------
def _handler_events(tree: ast.AST, events: list[Event]) -> None:
    """REP400/REP401/REP402 over every ``except`` clause."""
    seen_raises: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            names = _handler_names(handler)
            broad = handler.type is None or bool(names & _BROAD_NAMES)
            if broad and not _reraises(handler):
                caught = ", ".join(sorted(names)) if names else "everything"
                events.append(
                    (
                        "REP400",
                        handler,
                        f"broad except ({caught}) neither re-raises nor "
                        "carries an '# error-ok: <reason>' waiver; narrow "
                        "it to the expected types or state why swallowing "
                        "is safe",
                    )
                )
            cancellation = names & CANCELLATION_TYPES
            if cancellation and not _raises_anything(handler):
                events.append(
                    (
                        "REP401",
                        handler,
                        f"except clause absorbs "
                        f"{'/'.join(sorted(cancellation))} without raising; "
                        "cancellation/budget errors must propagate (a "
                        "typed translation with 'from' counts)",
                    )
                )
            for inner in _walk_no_defs(handler.body):
                if not isinstance(inner, ast.Raise) or id(inner) in seen_raises:
                    continue
                if not isinstance(inner.exc, ast.Call):
                    continue
                raised = _last_name(inner.exc.func)
                if raised in ERROR_TAXONOMY and inner.cause is None:
                    seen_raises.add(id(inner))
                    events.append(
                        (
                            "REP402",
                            inner,
                            f"raise {raised}(...) inside an except handler "
                            "without 'from'; chain the caught original so "
                            "provenance survives the translation",
                        )
                    )


def _public_raise_events(context: ModuleContext, events: list[Event]) -> None:
    """REP403 over public request-layer functions."""
    if context.layer not in _REQUEST_LAYERS:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        for inner in _walk_no_defs(node.body):
            if not isinstance(inner, ast.Raise):
                continue
            if not isinstance(inner.exc, ast.Call):
                continue
            raised = _last_name(inner.exc.func)
            if raised is None or raised in ALLOWED_PUBLIC_RAISES:
                continue
            if not raised[:1].isupper():
                # A lowercase name is an error-factory helper
                # (``raise self._overloaded_error(op)``), not a class;
                # what the factory raises is checked at its definition.
                continue
            events.append(
                (
                    "REP403",
                    inner,
                    f"public {context.layer} API '{node.name}' raises "
                    f"{raised}, outside the repro.service.errors taxonomy; "
                    "callers can only handle typed failures",
                )
            )


def _retry_events(context: ModuleContext, events: list[Event]) -> None:
    """REP404: retry-shaped loops around non-idempotent mutations."""
    if context.layer not in _REQUEST_LAYERS:
        return
    seen_calls: set[int] = set()
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.While, ast.For)):
            continue
        for stmt in _walk_no_defs(node.body):
            if not isinstance(stmt, ast.Try):
                continue
            if not any(
                not _raises_anything(handler) for handler in stmt.handlers
            ):
                continue
            for call in _walk_no_defs(stmt.body):
                if not isinstance(call, ast.Call) or id(call) in seen_calls:
                    continue
                if not isinstance(call.func, ast.Attribute):
                    continue
                if call.func.attr not in NON_IDEMPOTENT_METHODS:
                    continue
                receiver = _receiver_base(call.func.value)
                if receiver not in _STATEFUL_RECEIVERS:
                    continue
                seen_calls.add(id(call))
                events.append(
                    (
                        "REP404",
                        call,
                        f"loop retries past a swallowed failure around "
                        f"non-idempotent '{receiver}"
                        f".{call.func.attr}(...)'; an un-acked write may "
                        "double-apply on retry",
                    )
                )


def _masking_events(tree: ast.AST, events: list[Event]) -> None:
    """REP405: finally blocks and __exit__ bodies that mask exceptions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and node.finalbody:
            for inner in _walk_no_defs(node.finalbody):
                if isinstance(inner, (ast.Return, ast.Raise)):
                    kind = "return" if isinstance(inner, ast.Return) else "raise"
                elif isinstance(inner, (ast.Break, ast.Continue)):
                    kind = (
                        "break" if isinstance(inner, ast.Break) else "continue"
                    )
                else:
                    continue
                events.append(
                    (
                        "REP405",
                        inner,
                        f"'{kind}' inside a finally block discards any "
                        "in-flight exception; move it out of the finally",
                    )
                )
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__exit__"
        ):
            for inner in _walk_no_defs(node.body):
                if (
                    isinstance(inner, ast.Return)
                    and isinstance(inner.value, ast.Constant)
                    and inner.value.value is True
                ):
                    events.append(
                        (
                            "REP405",
                            inner,
                            "__exit__ returning True swallows every "
                            "exception raised in the with body",
                        )
                    )


def _fault_site_events(context: ModuleContext, events: list[Event]) -> None:
    """REP406: inject literals vs the FAULT_SITES registry, both ways."""
    root = _src_root(context.path)
    if root is None:
        return
    registry = fault_registry(str(root))
    if registry is None:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        site = _inject_site(node)
        if site is not None and site not in registry:
            events.append(
                (
                    "REP406",
                    node,
                    f"inject site '{site}' is not registered in "
                    "FAULT_SITES (repro/service/faults.py); chaos plans "
                    "and the coverage audit cannot see it",
                )
            )
    if context.module_name == "repro.service.faults":
        fired = injected_literals(str(root))
        for site, line in sorted(registry.items()):
            if site in fired:
                continue
            events.append(
                (
                    "REP406",
                    _SyntheticNode(line),
                    f"FAULT_SITES entry '{site}' is never fired by any "
                    "inject(...) call under src/; dead registry entries "
                    "hide lost instrumentation",
                )
            )


class _SyntheticNode(ast.AST):
    """A position-only stand-in for registry entries without AST nodes."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.col_offset = 0


@lru_cache(maxsize=16)
def _module_events(context: ModuleContext) -> tuple[Event, ...]:
    events: list[Event] = []
    _handler_events(context.tree, events)
    _public_raise_events(context, events)
    _retry_events(context, events)
    _masking_events(context.tree, events)
    _fault_site_events(context, events)
    return tuple(events)


def _emit(rule: Rule, context: ModuleContext, code: str) -> Iterator[Violation]:
    return emit_events(rule, context, code, _module_events, "error-ok")


def _check_broad_except(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP400: broad/bare excepts that swallow without a reason."""
    yield from _emit(rule, context, "REP400")


def _check_swallowed_cancellation(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP401: handlers that absorb cancellation/budget types."""
    yield from _emit(rule, context, "REP401")


def _check_unchained_translation(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP402: typed-error raises inside handlers without ``from``."""
    yield from _emit(rule, context, "REP402")


def _check_public_taxonomy(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP403: public request-layer APIs raising untyped exceptions."""
    yield from _emit(rule, context, "REP403")


def _check_retried_mutation(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP404: retry loops wrapping non-idempotent mutations."""
    yield from _emit(rule, context, "REP404")


def _check_masking_finally(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP405: finally/__exit__ control flow that masks exceptions."""
    yield from _emit(rule, context, "REP405")


def _check_fault_registry(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP406: fault-site literals drifting from FAULT_SITES."""
    yield from _emit(rule, context, "REP406")


ERRORPATH_RULE_SPECS: tuple[tuple[str, str, Checker], ...] = (
    (
        "REP400",
        "broad excepts re-raise or carry a reasoned waiver",
        _check_broad_except,
    ),
    (
        "REP401",
        "cancellation/budget errors always propagate out of handlers",
        _check_swallowed_cancellation,
    ),
    (
        "REP402",
        "typed-error translations chain provenance with 'from'",
        _check_unchained_translation,
    ),
    (
        "REP403",
        "public service/cluster/bench APIs raise only taxonomy errors",
        _check_public_taxonomy,
    ),
    (
        "REP404",
        "no retry loops around non-idempotent insert/append/remove",
        _check_retried_mutation,
    ),
    (
        "REP405",
        "no return/raise inside finally; no __exit__ returning True",
        _check_masking_finally,
    ),
    (
        "REP406",
        "inject sites and the FAULT_SITES registry stay in lockstep",
        _check_fault_registry,
    ),
    (
        "REP407",
        "every # error-ok waiver carries a reason",
        bare_waiver_checker("error-ok"),
    ),
)
