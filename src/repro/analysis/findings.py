"""Finding and severity types shared by every analysis rule.

A :class:`Finding` is one diagnostic: a rule code, a severity, a source
span and a human-readable message.  Findings are plain data -- the engine
collects them and the CLI renders them as text or JSON -- so rules never
need to know how their output is consumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "Severity"]


class Severity(enum.Enum):
    """How bad a finding is, ordered from informational to fatal.

    ``ERROR`` findings violate a device contract (the build would not run,
    or would silently compute wrong answers, on the real MSP430);
    ``WARNING`` findings are determinism or hygiene hazards; ``NOTE``
    findings are advisory.
    """

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"note": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a rule.

    Attributes
    ----------
    path:
        File the finding points at (repo-relative when the engine can
        relativize it, absolute otherwise; ``<generated>`` for checked
        C strings that never touched disk).
    line / col:
        1-based line and 0-based column of the offending node.
    code:
        Rule code, e.g. ``DEV001``.
    message:
        Human-readable description of the violation.
    severity:
        See :class:`Severity`.
    source_line:
        The stripped text of the offending line, used for text
        rendering (empty when unavailable).
    """

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)
    severity: Severity = field(compare=False, default=Severity.ERROR)
    source_line: str = field(compare=False, default="")

    def render(self) -> str:
        """One-line ``path:line:col: CODE severity: message`` rendering."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code} {self.severity.value}: {self.message}"
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the ``--format json`` payload)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
