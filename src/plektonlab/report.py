"""Deterministic check reports shared by the CLI commands.

Structured output is a single top-level document with schema version
"plektonlab/1"; floating residuals are printed with 12 significant digits
and exact phases as "k/M of 2pi".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "plektonlab/1"

PASS = "pass"
FAIL = "fail"
ERROR = "error"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


@dataclass
class CheckResult:
    name: str
    status: str
    residual: float | None = None
    exact: str | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.residual is not None:
            d["residual"] = _round12(self.residual)
        if self.exact is not None:
            d["exact"] = self.exact
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class Report:
    command: str
    suite: str | None = None
    seed: int | None = None
    checks: list[CheckResult] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    def add(self, name: str, status: str, residual: float | None = None,
            exact: str | None = None, note: str = "") -> CheckResult:
        result = CheckResult(name, status, residual, exact, note)
        self.checks.append(result)
        return result

    def add_pass(self, name: str, exact: str | None = None, note: str = "") -> None:
        self.add(name, PASS, None, exact, note)

    def add_outcome(self, name: str, ok: bool, residual: float | None = None,
                    exact: str | None = None, note: str = "") -> None:
        self.add(name, PASS if ok else FAIL, residual, exact, note)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.rows.extend(other.rows)

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        doc: dict = {"schema": SCHEMA, "command": self.command}
        if self.suite is not None:
            doc["suite"] = self.suite
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["checks"] = [c.to_dict() for c in self.checks]
        if self.rows:
            doc["rows"] = self.rows
        doc["passed"] = self.passed
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"# {SCHEMA} :: {self.command}" +
                 (f" :: suite={self.suite}" if self.suite else "") +
                 (f" :: seed={self.seed}" if self.seed is not None else "")]
        for row in self.rows:
            lines.append("  ".join(f"{k}={v}" for k, v in row.items()))
        for c in self.checks:
            parts = [f"[{c.status.upper():5s}]", c.name]
            if c.residual is not None:
                parts.append(f"residual={_round12(c.residual):.12g}")
            if c.exact is not None:
                parts.append(f"exact={c.exact}")
            if c.note:
                parts.append(f"({c.note})")
            lines.append(" ".join(parts))
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines) + "\n"
