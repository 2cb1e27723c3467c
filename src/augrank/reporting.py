"""Structured pass/fail reports for the exact verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one exact claim check; diffs localize every failure."""

    claim: str
    parameters: dict
    diffs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def compare(self, lhs, rhs, **where) -> None:
        """Record ``{**where, "lhs": ..., "rhs": ...}`` (rendered) when lhs != rhs."""
        if lhs != rhs:
            self.diffs.append({**where, "lhs": lhs.render(), "rhs": rhs.render()})

    def to_obj(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": dict(self.parameters),
            "status": self.status,
            "diffs": list(self.diffs),
        }
