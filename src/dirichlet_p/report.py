"""Uniform result records for the property checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CheckReport"]


@dataclass
class CheckReport:
    """Outcome of one inequality or identity check.

    `passed` is the check's own verdict; `slack` = rhs - lhs is reported
    beside it.  For a single inequality lhs <= rhs + tolerance the two
    agree (passed means slack >= -tolerance), but several checks judge
    more than the two sides: see each checker's docstring.  `witness`
    optionally records the offending input, `details` carries
    check-specific extras.
    """

    check: str
    p: float | None
    grid: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float
    witness: dict[str, Any] | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "p": self.p,
            "grid": self.grid,
            "passed": bool(self.passed),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs
