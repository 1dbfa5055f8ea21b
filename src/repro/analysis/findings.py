"""Machine-readable lint findings.

Every check in :mod:`repro.analysis` reports :class:`Finding` records
instead of raising: a linter must keep going past the first defect so
one run flags *every* problem with a precise ``file:line`` position.
Findings are plain data -- the CLI renders them as text or JSON and
tests match on ``rule``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Tuple

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "FindingList",
    "sort_findings",
]

#: Severity levels, in increasing order of gravity.
WARNING = "warning"
ERROR = "error"
SEVERITIES: Tuple[str, ...] = (WARNING, ERROR)


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic.

    Attributes
    ----------
    rule:
        Stable kebab-case rule identifier (e.g. ``"combinational-loop"``).
    severity:
        ``"error"`` (the netlist cannot be simulated faithfully) or
        ``"warning"`` (suspicious but simulable structure).
    message:
        Human-readable description, self-contained (names every net it
        talks about).
    file:
        Source file the finding refers to (or the circuit name for
        in-memory netlists).
    line:
        1-based source line, or 0 when no source position is known
        (in-memory circuits).
    subject:
        The primary net or gate-output name the finding is about, for
        machine consumption; may be empty for file-level findings.
    """

    rule: str
    severity: str
    message: str
    file: str
    line: int = 0
    subject: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        """``file:line`` (or just ``file`` when the line is unknown)."""
        return f"{self.file}:{self.line}" if self.line else self.file

    def render(self) -> str:
        """One-line ``file:line: severity: [rule] message`` rendering."""
        return f"{self.location}: {self.severity}: [{self.rule}] {self.message}"

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON encoding (stable key set)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "subject": self.subject,
        }


@dataclass
class FindingList:
    """A collector for findings with severity roll-ups."""

    findings: List[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: str,
        message: str,
        file: str,
        line: int = 0,
        subject: str = "",
    ) -> None:
        self.findings.append(
            Finding(rule, severity, message, file, line, subject)
        )

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: file, line, rule, subject."""
    return sorted(
        findings, key=lambda f: (f.file, f.line, f.rule, f.subject)
    )
