"""Shared data model for the linter: rules, violations, module context.

Everything the rule families (``rules.py`` REP1xx, ``concurrency.py``
REP2xx, ``aliasing.py`` REP3xx, ``errorpaths.py`` REP4xx) share lives
here so none of them has to import another family: :class:`Rule` (code,
summary, checker, waiver syntax), :class:`Violation`,
:class:`ModuleContext`, the library scope test (:func:`in_library_scope`),
the reasoned-waiver grammar (:func:`waived`, :func:`bare_waiver_checker`),
the event-to-violation step of the REP3xx/REP4xx families
(:func:`emit_events`), and the distance-name lexicon several rules key
on.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

__all__ = [
    "Checker",
    "DISTANCE_LEXICON",
    "Event",
    "ModuleContext",
    "Rule",
    "Violation",
    "bare_waiver_checker",
    "emit_events",
    "in_library_scope",
    "waived",
]

_DISABLE_PATTERN = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")

# Identifier tokens that mark a value as a distance in the paper's
# Dmbr/Dnorm/D hierarchy; REP104 (float equality) and REP305 (dtype
# narrowing) both key on these.
DISTANCE_LEXICON: frozenset[str] = frozenset(
    {"dist", "distance", "distances", "dmbr", "dnorm", "dmean", "epsilon"}
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule: str
    message: str
    path: Path
    line: int
    col: int

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    tree: ast.Module
    source_lines: tuple[str, ...]
    module_name: str | None  # dotted name when resolvable (e.g. repro.core.mbr)
    is_library: bool  # lives under a src/ tree (shipped library code)

    @property
    def layer(self) -> str | None:
        """The architectural layer of a ``repro`` module, if any.

        ``repro.core.mbr`` -> ``core``; top-level modules such as
        ``repro.cli`` or ``repro.__init__`` map to ``top``.
        """
        if self.module_name is None:
            return None
        parts = self.module_name.split(".")
        if parts[0] != "repro":
            return None
        if len(parts) <= 2:
            return "top"
        return parts[1]

    def disabled_rules(self, line: int) -> frozenset[str]:
        """Rule codes suppressed by a ``repro-lint: disable=`` comment."""
        if not 1 <= line <= len(self.source_lines):
            return frozenset()
        match = _DISABLE_PATTERN.search(self.source_lines[line - 1])
        if match is None:
            return frozenset()
        return frozenset(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )


Checker = Callable[["Rule", "ModuleContext"], Iterator[Violation]]

#: One finding of a whole-module analysis: rule code, node, message.
Event = tuple[str, ast.AST, str]


@dataclass(frozen=True)
class Rule:
    """One lint rule: a code, a summary, a checker, and its waiver syntax.

    ``waiver`` is the inline comment that suppresses the rule with a
    mandatory reason (e.g. ``# thread-safe: <reason>`` for REP2xx,
    ``# alias-ok: <reason>`` for REP3xx); rules without a dedicated
    waiver fall back to the generic per-line disable comment.
    """

    code: str
    summary: str
    checker: Checker
    waiver: str = ""

    @property
    def waiver_syntax(self) -> str:
        """The inline comment that suppresses this rule on one line."""
        return self.waiver or f"# repro-lint: disable={self.code}"

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        return self.checker(self, context)

    def violation(
        self, context: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            message=message,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


@lru_cache(maxsize=None)
def _waiver_patterns(tag: str) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """``# <tag>: <reason>`` (reason mandatory) and any ``# <tag>``."""
    escaped = re.escape(tag)
    return (
        re.compile(rf"#\s*{escaped}:\s*\S"),
        re.compile(rf"#\s*{escaped}\b"),
    )


def waived(context: ModuleContext, line: int, tag: str) -> bool:
    """Whether source ``line`` carries a reasoned ``# <tag>: <reason>``."""
    if not 1 <= line <= len(context.source_lines):
        return False
    reasoned, _ = _waiver_patterns(tag)
    return reasoned.search(context.source_lines[line - 1]) is not None


def in_library_scope(
    context: ModuleContext, layers: Collection[str] | None = None
) -> bool:
    """Library ``repro.*`` modules (of ``layers``, if given) only; tests
    and scripts are exempt."""
    if not context.is_library or context.layer is None:
        return False
    return layers is None or context.layer in layers


def emit_events(
    rule: Rule,
    context: ModuleContext,
    code: str,
    events: Callable[[ModuleContext], Iterable[Event]],
    tag: str,
) -> Iterator[Violation]:
    """The violations of ``code`` among a library module's ``events``
    (computed only in scope), minus lines waived with ``# <tag>: ...``."""
    if not in_library_scope(context):
        return
    for event_code, node, message in events(context):
        if event_code == code and not waived(
            context, getattr(node, "lineno", 1), tag
        ):
            yield rule.violation(context, node, message)


def bare_waiver_checker(tag: str) -> Checker:
    """The rule that flags a ``# <tag>`` waiver written without a reason
    in library ``repro.*`` code (such a waiver waives nothing)."""
    reasoned, anywhere = _waiver_patterns(tag)

    def check(rule: Rule, context: ModuleContext) -> Iterator[Violation]:
        if not in_library_scope(context):
            return
        for line_number, line in enumerate(context.source_lines, start=1):
            match = anywhere.search(line)
            if match is None or reasoned.search(line) is not None:
                continue
            yield Violation(
                rule=rule.code,
                message=(
                    f"bare '# {tag}' waiver without a reason; write "
                    f"'# {tag}: <reason>'"
                ),
                path=context.path,
                line=line_number,
                col=match.start(),
            )

    return check
