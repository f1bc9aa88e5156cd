"""The rule protocol, the rule registry and inline suppression pragmas.

A rule is any object with a ``code``, a ``description`` and a ``check``
method that maps a :class:`LintContext` (one parsed file) to findings.
Rules register themselves at import time through :func:`register_rule`,
so adding a rule is one module with one decorator -- the engine and the
CLI pick it up automatically.

Suppression works the way the Amulet firmware toolchain's own pragmas do:
a trailing ``# lint: allow CODE[,CODE...] -- reason`` comment silences
those codes on that line.  The reason is not optional by convention
-- the repo-clean test keeps the repo at zero unexplained suppressions.
Because a Python *statement* is the natural unit of intent, a pragma
anywhere inside a multi-line statement covers the whole statement, and a
pragma on any header line of a ``def``/``async def``/``class`` (its
decorators included) covers the header -- so a finding anchored at the
``def`` keyword can be silenced from the decorator line above it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

from repro.analysis.findings import Finding, Severity

__all__ = [
    "LintContext",
    "Rule",
    "all_rules",
    "register_rule",
    "rules_for_codes",
]

#: ``# lint: allow DEV001,DET001 -- models the physical sensor``
_PRAGMA = re.compile(r"#\s*lint:\s*allow\s+(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


@dataclass
class LintContext:
    """Everything a rule may inspect about one file.

    Attributes
    ----------
    path:
        Display path for findings (repo-relative when possible).
    module:
        Dotted module name (``repro.sift_app.device_features``) or ``None``
        when the file is outside the package tree.  Scope-sensitive rules
        (DEV001, DEV002) key off this, which also lets tests lint fixture
        source under a pretended module name.
    source:
        Full text of the file.
    tree:
        Parsed AST of ``source``.
    """

    path: str
    module: str | None
    source: str
    tree: ast.Module
    _lines: list[str] = field(init=False, repr=False)
    _allowed: dict[int, frozenset[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._lines = self.source.splitlines()
        self._allowed = _collect_pragmas(self._lines)
        _spread_pragmas_over_statements(self.tree, self._allowed)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", module: str | None = None
    ) -> "LintContext":
        """Parse source text into a ready-to-lint context."""
        return cls(path=path, module=module, source=source, tree=ast.parse(source))

    def line_text(self, line: int) -> str:
        """The stripped text of a 1-based source line ('' out of range)."""
        if 1 <= line <= len(self._lines):
            return self._lines[line - 1].strip()
        return ""

    def is_suppressed(self, line: int, code: str) -> bool:
        """Whether a pragma on ``line`` allows ``code``."""
        return code in self._allowed.get(line, frozenset())

    def finding(
        self,
        node: ast.AST | int,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col,
            code=code,
            message=message,
            severity=severity,
            source_line=self.line_text(line),
        )


def _collect_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    allowed: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "lint:" not in text:
            continue
        match = _PRAGMA.search(text)
        if match:
            codes = frozenset(
                code.strip() for code in match.group("codes").split(",")
            )
            allowed[number] = codes
    return allowed


def _statement_spans(tree: ast.Module) -> Iterable[tuple[int, int]]:
    """(first, last) line of every statement's *own* text.

    For simple statements that is the full node extent -- a call broken
    over four lines is one span.  For compound statements (``def``,
    ``class``, ``if``, ``with``, ...) it is only the header: decorators
    plus the lines up to where the first body statement starts, so a
    pragma inside the body never leaks onto the header or vice versa
    (the body's statements get their own spans).
    """
    compound = (
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.ClassDef,
        ast.If,
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.With,
        ast.AsyncWith,
        ast.Try,
        ast.Match,
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, compound):
            start = node.lineno
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                start = min(start, min(d.lineno for d in decorators))
            body = getattr(node, "body", [])
            end = body[0].lineno - 1 if body else node.lineno
            yield start, max(start, end)
        else:
            yield node.lineno, getattr(node, "end_lineno", None) or node.lineno


def _spread_pragmas_over_statements(
    tree: ast.Module, allowed: dict[int, frozenset[str]]
) -> None:
    """Extend line-scoped pragmas to the statement they sit in.

    A pragma on *any* line of a statement span silences its codes on
    *every* line of that span, so multi-line calls and decorated
    ``async def`` headers behave like the single-line case.  Mutates
    ``allowed`` in place; lines outside any statement (blank, comment)
    keep their line-only scope.
    """
    if not allowed:
        return
    pragma_lines = sorted(allowed)
    for start, end in _statement_spans(tree):
        if end <= start:
            continue
        span_codes = frozenset().union(
            *(allowed[line] for line in pragma_lines if start <= line <= end)
        )
        if not span_codes:
            continue
        for line in range(start, end + 1):
            allowed[line] = allowed.get(line, frozenset()) | span_codes


@runtime_checkable
class Rule(Protocol):
    """The contract every analysis rule implements."""

    #: Stable diagnostic code, e.g. ``DEV001``.
    code: str
    #: One-line description shown by ``lint --list-rules``.
    description: str

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Yield findings for one parsed file."""
        ...


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule_class: type) -> type:
    """Class decorator: instantiate and register a rule by its code."""
    rule = rule_class()
    if not isinstance(rule, Rule):
        raise TypeError(f"{rule_class.__name__} does not implement the Rule protocol")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def rules_for_codes(codes: Iterable[str]) -> tuple[Rule, ...]:
    """Resolve rule codes (or family prefixes), raising on unknown ones.

    An exact code selects one rule; a bare family prefix -- the code
    with its digits stripped, e.g. ``ASYNC`` or ``DEV`` -- selects every
    registered rule of that family, so ``--rules ASYNC,PROC`` tracks new
    family members without the CI invocation changing.
    """
    selected: dict[str, Rule] = {}
    for code in codes:
        if code in _REGISTRY:
            selected[code] = _REGISTRY[code]
            continue
        members = [
            known
            for known in _REGISTRY
            if known.startswith(code) and known[len(code) :].isdigit()
        ]
        if not members:
            known_codes = ", ".join(sorted(_REGISTRY))
            raise KeyError(
                f"unknown rule code {code!r}; known rules: {known_codes}"
            )
        for member in members:
            selected[member] = _REGISTRY[member]
    return tuple(selected[code] for code in sorted(selected))
