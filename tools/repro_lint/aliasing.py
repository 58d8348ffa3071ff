"""Snapshot-immutability & aliasing rules (REP300–REP307).

The engine's published snapshots are shared lock-free: readers, the
ε-cache and cluster merge all alias the same NumPy arrays, segment lists
and cache entries.  That is only sound if everything behind a publish
boundary is immutable — one in-place ``+=`` on a shared matrix silently
corrupts answers for every later request.  This family is the static
half of the gate (the runtime half is :mod:`repro.util.freeze`): an
intra-procedural dataflow pass that tracks values derived from
snapshot/frozen sources and flags writes to them.

**Tracked sources.** Per-module registries below: ``self`` attributes
registered as frozen (``engine._snapshot``, a sequence's ``_points``, a
partition's MBR matrices and segment list …), parameters/locals whose
annotation names a frozen type (``_Snapshot``, ``CacheEntry``,
``PartitionedSequence``, ``MBR`` …), and parameters/locals *registered
by name* (``snapshot``, ``entry``).  Tracking propagates through
assignment, attribute access, subscripting (views), and aliasing calls
(``np.asarray``, ``.ravel()``, ``.reshape()``, ``.items()`` …); it stops
at copies (``np.array``, ``.copy()``, ``list()``/``dict()``/``set()``,
``sorted()``, ``.tolist()``) and at the :mod:`repro.util.freeze`
constructors, which hand ownership to the runtime sanitizer.

**Rules.**

* REP300 — in-place mutation of a tracked array/view/container
  (``x += …``, ``x[i] = …``, ``del x[i]``).
* REP301 — mutating method (``.sort()``, ``.append()``, ``.update()``,
  ``.resize()`` …) called on a tracked value.
* REP302 — a public function returns a tracked mutable container
  without copying or freezing it (frozen *arrays* are read-only at rest
  and safe to return; raw segment/record lists are not).
* REP303 — an alias of a tracked array (``np.asarray``, ``ravel``,
  slicing …) stored into ``self.*`` state without a copy/freeze.
* REP304 — a constructor captures a caller-owned mutable parameter
  (``list``/``dict``/``set``/``ndarray``-annotated) without a defensive
  copy.
* REP305 — a dtype-narrowing cast (``float32``/``float16``) on a
  distance-like value; the paper's Dmbr ≤ Dnorm ≤ D pruning chain is a
  float64 contract.
* REP306 — re-enabling writeability (``setflags(write=True)``,
  ``.flags.writeable = True``) anywhere outside ``repro.util.freeze``.
* REP307 — a bare ``# alias-ok`` waiver without a reason.

A finding that is safe for a documented reason is waived with
``# alias-ok: <reason>`` on the offending line; the reason is mandatory
(REP307).  Like the other families, the pass is heuristic and
intra-procedural: it checks what is lexically visible, and the runtime
``verify_frozen`` boundaries check what actually happens.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from functools import lru_cache

from tools.repro_lint.model import (
    DISTANCE_LEXICON,
    Checker,
    Event,
    ModuleContext,
    Rule,
    Violation,
    bare_waiver_checker,
    emit_events,
)

__all__ = [
    "ALIASING_RULE_SPECS",
    "FROZEN_ATTR_KINDS",
    "FROZEN_PARAM_NAMES",
    "FROZEN_TYPE_NAMES",
    "MUTATING_METHODS",
    "NARROW_DTYPES",
]

_KIND_ARRAY = "array"
_KIND_CONTAINER = "container"
_KIND_STRUCT = "struct"

#: Per-module ``self`` attributes that hold published/frozen state, with
#: their kind: ``array`` (a read-only ndarray — sharing is safe, writing
#: is not), ``container`` (a mutable Python container backing published
#: state — must be copied before crossing a public boundary), ``struct``
#: (an immutable object root whose interior is tracked).
FROZEN_ATTR_KINDS: dict[str, dict[str, str]] = {
    "repro.service.engine": {"_snapshot": _KIND_STRUCT},
    "repro.core.sequence": {"_points": _KIND_ARRAY},
    "repro.core.mbr": {"_low": _KIND_ARRAY, "_high": _KIND_ARRAY},
    "repro.core.partitioning": {
        "_counts": _KIND_ARRAY,
        "_low_matrix": _KIND_ARRAY,
        "_high_matrix": _KIND_ARRAY,
        "_segments": _KIND_CONTAINER,
        "_sequence": _KIND_STRUCT,
    },
    "repro.core.database": {
        "_table": _KIND_STRUCT,
        "_index": _KIND_STRUCT,
        "_stale": _KIND_STRUCT,
        "lows": _KIND_ARRAY,
        "highs": _KIND_ARRAY,
        "low_columns": _KIND_ARRAY,
        "high_columns": _KIND_ARRAY,
        "counts": _KIND_ARRAY,
        "point_offsets": _KIND_ARRAY,
        "sequence_offsets": _KIND_ARRAY,
        "lengths": _KIND_ARRAY,
    },
    "repro.core.packed": {
        "base": _KIND_STRUCT,
        "entry_row": _KIND_ARRAY,
        "entry_segment": _KIND_ARRAY,
        "row_entries": _KIND_ARRAY,
        "delta_rows": _KIND_ARRAY,
        "_delta_lows": _KIND_ARRAY,
        "_delta_highs": _KIND_ARRAY,
        "_delta_row": _KIND_ARRAY,
        "_delta_segment": _KIND_ARRAY,
    },
    "repro.service.wal": {"_recovered": _KIND_CONTAINER},
}

#: Annotations that mark a parameter/local as snapshot-bearing.
FROZEN_TYPE_NAMES: frozenset[str] = frozenset(
    {
        "_Snapshot",
        "CacheEntry",
        "MBR",
        "MultidimensionalSequence",
        "PackedBase",
        "PackedIndex",
        "PartitionedSequence",
        "SegmentTable",
        "SequenceSegment",
    }
)

#: Names registered as snapshot-bearing wherever they appear (parameters,
#: locals, loop targets) — the shared-entry idiom of the cache/engine.
FROZEN_PARAM_NAMES: dict[str, str] = {
    "snapshot": _KIND_STRUCT,
    "entry": _KIND_STRUCT,
}

#: Methods that mutate their receiver in place.
MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "add",
        "append",
        "byteswap",
        "clear",
        "discard",
        "extend",
        "fill",
        "insert",
        "itemset",
        "partition_inplace",
        "pop",
        "popitem",
        "put",
        "remove",
        "resize",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: dtype spellings that narrow below the float64 distance contract.
NARROW_DTYPES: frozenset[str] = frozenset(
    {"float16", "float32", "half", "single", "f2", "f4", "<f2", "<f4"}
)

# Calls that return an independent copy — tracking stops.
_COPY_CALLS = frozenset(
    {"dict", "frozenset", "list", "set", "sorted", "tuple"}
)
# The freeze constructors hand ownership to the runtime sanitizer.
_FREEZE_CALLS = frozenset(
    {"deep_freeze", "deepcopy", "freeze", "frozen_view", "verify_frozen"}
)
# Methods returning an independent copy of the receiver.
_COPY_METHODS = frozenset({"astype", "clone", "copy", "flatten", "tolist"})
# Methods returning an alias/view over the receiver's buffer.
_ALIAS_METHODS = frozenset(
    {"diagonal", "ravel", "reshape", "squeeze", "swapaxes", "transpose", "view"}
)
# Dict/collection view methods: iterating them yields shared members.
_VIEW_METHODS = frozenset({"get", "items", "keys", "values"})
# Array attributes that alias the same buffer.
_ARRAY_VIEW_ATTRS = frozenset({"T", "base", "data", "flat", "imag", "real"})
# Attribute names that hold ndarrays on the repo's frozen types
# (MBR.low/high, sequence .points, partition matrices): reading one off
# a tracked struct yields a tracked *array*, so slices/aliases of it are
# array-kind too.
_ARRAY_ATTR_NAMES = frozenset(
    {
        "_counts",
        "_high",
        "_high_matrix",
        "_low",
        "_low_matrix",
        "_points",
        "counts",
        "high",
        "high_matrix",
        "highs",
        "lengths",
        "low",
        "low_matrix",
        "lows",
        "point_offsets",
        "points",
        "sequence_offsets",
    }
)
# numpy helpers that alias their argument (no copy guarantee).
_NP_ALIASING = frozenset(
    {
        "asanyarray",
        "asarray",
        "ascontiguousarray",
        "atleast_1d",
        "atleast_2d",
        "atleast_3d",
        "ravel",
        "reshape",
        "squeeze",
        "transpose",
    }
)
# Annotation tokens marking a parameter as a caller-owned mutable.
_MUTABLE_ANNOTATIONS = frozenset(
    {
        "ArrayLike",
        "MutableMapping",
        "MutableSequence",
        "NDArray",
        "bytearray",
        "dict",
        "list",
        "ndarray",
        "set",
    }
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _np_call(func: ast.expr) -> str | None:
    """``asarray`` for ``np.asarray``/``numpy.asarray`` calls, else None."""
    dotted = _dotted(func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    if head in ("np", "numpy") and tail in _NP_ALIASING:
        return tail
    return None


def _annotation_tokens(annotation: ast.expr | None) -> frozenset[str]:
    if annotation is None:
        return frozenset()
    return frozenset(_IDENTIFIER.findall(ast.unparse(annotation)))


def _frozen_annotation(annotation: ast.expr | None) -> bool:
    """True when an annotation *is* a frozen type (``MBR``, ``MBR | None``).

    A container of frozen elements (``list[MBR]``) is a caller-owned
    container, not a frozen value, so it does not seed tracking.
    """
    meaningful = _annotation_tokens(annotation) - {"None", "Optional"}
    return len(meaningful) == 1 and meaningful <= FROZEN_TYPE_NAMES


def _is_distance_like(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        identifier = node.id
    elif isinstance(node, ast.Attribute):
        identifier = node.attr
    else:
        return False
    tokens = identifier.lower().split("_")
    return any(token in DISTANCE_LEXICON for token in tokens)


def _is_narrow_dtype(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in NARROW_DTYPES
    if isinstance(node, ast.Name):
        return node.id in NARROW_DTYPES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in NARROW_DTYPES
    return False


class _Env:
    """The per-function tracking environment of the dataflow pass."""

    __slots__ = ("attr_kinds", "names")

    def __init__(self, attr_kinds: dict[str, str]) -> None:
        self.attr_kinds = attr_kinds
        self.names: dict[str, str] = {}

    def bind(self, target: ast.expr, kind: str | None) -> None:
        """Record the tracking kind a binding gives its target name(s)."""
        if isinstance(target, ast.Name):
            if kind is None:
                self.names.pop(target.id, None)
            else:
                self.names[target.id] = kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = _KIND_STRUCT if kind is not None else None
            for item in target.elts:
                self.bind(item, element)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, kind)


def _classify(expr: ast.expr | None, env: _Env) -> str | None:
    """The tracking kind of an expression's value, or None if untracked."""
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        kind = env.names.get(expr.id)
        if kind is not None:
            return kind
        return FROZEN_PARAM_NAMES.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return env.attr_kinds.get(expr.attr)
        base = _classify(expr.value, env)
        if base is None:
            return None
        if base == _KIND_ARRAY and expr.attr in _ARRAY_VIEW_ATTRS:
            return _KIND_ARRAY
        if expr.attr in _ARRAY_ATTR_NAMES:
            return _KIND_ARRAY
        return _KIND_STRUCT
    if isinstance(expr, ast.Subscript):
        base = _classify(expr.value, env)
        if base is None:
            return None
        return _KIND_ARRAY if base == _KIND_ARRAY else _KIND_STRUCT
    if isinstance(expr, ast.Call):
        if _np_call(expr.func) is not None:
            if any(_classify(arg, env) is not None for arg in expr.args):
                return _KIND_ARRAY
            return None
        if isinstance(expr.func, ast.Attribute):
            receiver = _classify(expr.func.value, env)
            if receiver is None:
                return None
            method = expr.func.attr
            if method in _COPY_METHODS:
                return None
            if method in _ALIAS_METHODS:
                return _KIND_ARRAY if receiver == _KIND_ARRAY else _KIND_STRUCT
            if method in _VIEW_METHODS:
                return _KIND_STRUCT
            return None
        return None
    if isinstance(expr, ast.IfExp):
        return _classify(expr.body, env) or _classify(expr.orelse, env)
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            kind = _classify(value, env)
            if kind is not None:
                return kind
        return None
    if isinstance(expr, (ast.Await, ast.Starred)):
        return _classify(expr.value, env)
    if isinstance(expr, ast.NamedExpr):
        return _classify(expr.value, env)
    return None


def _describe(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return "<expression>"


_COMPOUND = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _all_args(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    args = node.args
    collected = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        collected.append(args.vararg)
    if args.kwarg is not None:
        collected.append(args.kwarg)
    return collected


def _function_defs(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _seed_env(
    func: ast.FunctionDef | ast.AsyncFunctionDef, context: ModuleContext
) -> _Env:
    env = _Env(FROZEN_ATTR_KINDS.get(context.module_name or "", {}))
    for arg in _all_args(func):
        kind: str | None = None
        if _frozen_annotation(arg.annotation):
            kind = _KIND_STRUCT
        if arg.arg in FROZEN_PARAM_NAMES:
            kind = FROZEN_PARAM_NAMES[arg.arg]
        if kind is not None:
            env.names[arg.arg] = kind
    return env


def _mutable_params(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> frozenset[str]:
    """Parameter names annotated as caller-owned mutable containers/arrays."""
    mutable: set[str] = set()
    for arg in _all_args(func):
        if arg.arg in ("self", "cls"):
            continue
        if _annotation_tokens(arg.annotation) & _MUTABLE_ANNOTATIONS:
            mutable.add(arg.arg)
    return frozenset(mutable)


def _param_alias(expr: ast.expr, params: frozenset[str]) -> str | None:
    """The mutable parameter an expression aliases without copying, if any."""
    if isinstance(expr, ast.Name):
        return expr.id if expr.id in params else None
    if isinstance(expr, ast.Call) and _np_call(expr.func) is not None:
        for arg in expr.args:
            hit = _param_alias(arg, params)
            if hit is not None:
                return hit
        return None
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in _ALIAS_METHODS:
            return _param_alias(expr.func.value, params)
    return None


def _expression_events(
    root: ast.AST, env: _Env, events: list[Event], module_name: str | None
) -> None:
    """Events detectable from any expression inside one statement."""
    for node in ast.walk(root):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if method in MUTATING_METHODS:
            receiver = _classify(node.func.value, env)
            if receiver is not None:
                events.append(
                    (
                        "REP301",
                        node,
                        f"mutating method .{method}() on tracked "
                        f"snapshot-derived value "
                        f"'{_describe(node.func.value)}'; copy before "
                        "mutating",
                    )
                )
        if method == "setflags" and module_name != "repro.util.freeze":
            for keyword in node.keywords:
                if (
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value in (True, 1)
                ):
                    events.append(
                        (
                            "REP306",
                            node,
                            "setflags(write=True) re-enables writes on a "
                            "frozen array; only repro.util.freeze manages "
                            "writeability",
                        )
                    )


def _narrowing_events(root: ast.AST, events: list[Event]) -> None:
    """REP305: dtype-narrowing casts on distance-like values."""
    targets: list[ast.expr] = []
    if isinstance(root, ast.Assign):
        targets = list(root.targets)
    elif isinstance(root, (ast.AnnAssign, ast.AugAssign)):
        targets = [root.target]
    target_is_distance = any(_is_distance_like(t) for t in targets)
    for node in ast.walk(root):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, ast.Call):
            continue
        narrow_args = [a for a in node.args if _is_narrow_dtype(a)]
        narrow_kwargs = [
            k.value
            for k in node.keywords
            if k.arg == "dtype" and _is_narrow_dtype(k.value)
        ]
        if not narrow_args and not narrow_kwargs:
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            source_is_distance = _is_distance_like(node.func.value)
        else:
            source_is_distance = any(
                _is_distance_like(arg) for arg in node.args
            )
        if source_is_distance or target_is_distance:
            events.append(
                (
                    "REP305",
                    node,
                    "dtype-narrowing cast on a distance-like value; the "
                    "Dmbr <= Dnorm <= D pruning chain is a float64 "
                    "contract (Lemmas 1-3)",
                )
            )


def _walk_body(
    body: list[ast.stmt],
    env: _Env,
    events: list[Event],
    context: ModuleContext,
    public: bool,
    in_init: bool,
    mutable_params: frozenset[str],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested defs are scanned as their own functions
        if isinstance(stmt, _COMPOUND):
            # Compound statements: scan only header expressions here;
            # the recursion below covers the bodies exactly once.
            headers: list[ast.expr] = []
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                headers = [stmt.iter]
            elif isinstance(stmt, (ast.While, ast.If)):
                headers = [stmt.test]
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                headers = [item.context_expr for item in stmt.items]
            for header in headers:
                _expression_events(header, env, events, context.module_name)
                _narrowing_events(header, events)
        else:
            _expression_events(stmt, env, events, context.module_name)
            _narrowing_events(stmt, events)
        if isinstance(stmt, ast.Assign):
            value_kind = _classify(stmt.value, env)
            for target in stmt.targets:
                _assign_events(
                    target, stmt.value, value_kind, env, events,
                    in_init, mutable_params,
                )
                if isinstance(target, (ast.Name, ast.Tuple, ast.List, ast.Starred)):
                    env.bind(target, value_kind)
        elif isinstance(stmt, ast.AnnAssign):
            kind = _classify(stmt.value, env)
            if _frozen_annotation(stmt.annotation):
                kind = kind or _KIND_STRUCT
            if stmt.value is not None:
                _assign_events(
                    stmt.target, stmt.value, _classify(stmt.value, env),
                    env, events, in_init, mutable_params,
                )
            if isinstance(stmt.target, ast.Name):
                env.bind(stmt.target, kind)
        elif isinstance(stmt, ast.AugAssign):
            if _classify(stmt.target, env) is not None:
                events.append(
                    (
                        "REP300",
                        stmt,
                        f"in-place mutation of tracked snapshot-derived "
                        f"value '{_describe(stmt.target)}' "
                        "(augmented assignment); copy before mutating",
                    )
                )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    if _classify(target.value, env) is not None:
                        events.append(
                            (
                                "REP300",
                                stmt,
                                f"in-place deletion from tracked value "
                                f"'{_describe(target.value)}'; copy before "
                                "mutating",
                            )
                        )
        elif isinstance(stmt, ast.Return):
            kind = _classify(stmt.value, env)
            if public and kind == _KIND_CONTAINER:
                events.append(
                    (
                        "REP302",
                        stmt,
                        f"public function returns tracked mutable container "
                        f"'{_describe(stmt.value) if stmt.value else ''}' "
                        "without copy()/freeze(); callers could mutate "
                        "shared snapshot state",
                    )
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterated = _classify(stmt.iter, env)
            element = None
            if iterated is not None:
                element = (
                    _KIND_ARRAY if iterated == _KIND_ARRAY else _KIND_STRUCT
                )
            env.bind(stmt.target, element)
            _walk_body(
                stmt.body + stmt.orelse, env, events, context, public,
                in_init, mutable_params,
            )
        elif isinstance(stmt, (ast.If, ast.While)):
            _walk_body(
                stmt.body + stmt.orelse, env, events, context, public,
                in_init, mutable_params,
            )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    env.bind(
                        item.optional_vars,
                        _classify(item.context_expr, env),
                    )
            _walk_body(
                stmt.body, env, events, context, public, in_init,
                mutable_params,
            )
        elif isinstance(stmt, ast.Try):
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            for handler in stmt.handlers:
                blocks = blocks + handler.body
            _walk_body(
                blocks, env, events, context, public, in_init, mutable_params
            )


def _assign_events(
    target: ast.expr,
    value: ast.expr,
    value_kind: str | None,
    env: _Env,
    events: list[Event],
    in_init: bool,
    mutable_params: frozenset[str],
) -> None:
    if isinstance(target, ast.Subscript):
        if _classify(target.value, env) is not None:
            events.append(
                (
                    "REP300",
                    target,
                    f"in-place item assignment into tracked value "
                    f"'{_describe(target.value)}'; copy before mutating",
                )
            )
        return
    if not isinstance(target, ast.Attribute):
        return
    if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
        # `x.flags.writeable = True` unfreezes through the flags proxy.
        if (
            target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
            and isinstance(value, ast.Constant)
            and value.value in (True, 1)
        ):
            events.append(
                (
                    "REP306",
                    target,
                    "flags.writeable = True re-enables writes on a frozen "
                    "array; only repro.util.freeze manages writeability",
                )
            )
        return
    if in_init:
        captured = _param_alias(value, mutable_params)
        if captured is not None:
            events.append(
                (
                    "REP304",
                    target,
                    f"constructor captures caller-owned mutable parameter "
                    f"'{captured}' into self.{target.attr} without a "
                    "defensive copy",
                )
            )
            return
    if value_kind in (_KIND_ARRAY, _KIND_CONTAINER):
        events.append(
            (
                "REP303",
                target,
                f"alias of tracked snapshot-derived value "
                f"'{_describe(value)}' escapes into self.{target.attr} "
                "without copy()/freeze()",
            )
        )


@lru_cache(maxsize=16)
def _module_events(context: ModuleContext) -> tuple[Event, ...]:
    events: list[Event] = []
    for func in _function_defs(context.tree):
        env = _seed_env(func, context)
        public = not func.name.startswith("_")
        in_init = func.name == "__init__"
        mutable_params = _mutable_params(func) if in_init else frozenset()
        _walk_body(
            func.body, env, events, context, public, in_init, mutable_params
        )
    return tuple(events)


def _emit(rule: Rule, context: ModuleContext, code: str) -> Iterator[Violation]:
    return emit_events(rule, context, code, _module_events, "alias-ok")


def _check_inplace_mutation(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP300: in-place writes to tracked arrays/views/containers."""
    yield from _emit(rule, context, "REP300")


def _check_mutating_methods(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP301: mutating method calls on tracked values."""
    yield from _emit(rule, context, "REP301")


def _check_returned_containers(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP302: tracked mutable containers returned across public boundaries."""
    yield from _emit(rule, context, "REP302")


def _check_escaping_aliases(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP303: tracked aliases stored into ``self.*`` state."""
    yield from _emit(rule, context, "REP303")


def _check_constructor_capture(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP304: caller-owned mutables captured without a defensive copy."""
    yield from _emit(rule, context, "REP304")


def _check_dtype_narrowing(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP305: float32/float16 casts on distance-like values."""
    yield from _emit(rule, context, "REP305")


def _check_unfreezing(
    rule: Rule, context: ModuleContext
) -> Iterator[Violation]:
    """REP306: writeability re-enabled outside repro.util.freeze."""
    yield from _emit(rule, context, "REP306")


ALIASING_RULE_SPECS: tuple[tuple[str, str, Checker], ...] = (
    (
        "REP300",
        "no in-place writes to snapshot-derived arrays/views",
        _check_inplace_mutation,
    ),
    (
        "REP301",
        "no mutating methods on snapshot-derived lists/dicts/arrays",
        _check_mutating_methods,
    ),
    (
        "REP302",
        "tracked mutable containers are copied before public return",
        _check_returned_containers,
    ),
    (
        "REP303",
        "no unwrapped snapshot aliases stored into self.* state",
        _check_escaping_aliases,
    ),
    (
        "REP304",
        "constructors defensively copy caller-owned mutables",
        _check_constructor_capture,
    ),
    (
        "REP305",
        "no dtype-narrowing casts on distance-critical arrays",
        _check_dtype_narrowing,
    ),
    (
        "REP306",
        "array writeability is re-enabled only by repro.util.freeze",
        _check_unfreezing,
    ),
    (
        "REP307",
        "every # alias-ok waiver carries a reason",
        bare_waiver_checker("alias-ok"),
    ),
)
