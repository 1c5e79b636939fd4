"""Structured verifier outcomes with a stable JSON form."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .measures import _check_int
from .serialization import jsonify

__all__ = [
    "PASS",
    "FAIL",
    "BUDGET_EXCEEDED",
    "DEFAULT_BUDGET",
    "VerificationReport",
    "check_budget",
    "json_text",
]

PASS = "pass"
FAIL = "fail"
BUDGET_EXCEEDED = "budget-exceeded"

# Default cap on the work units of a budgeted check: translates in the
# witness-prefix window, pairs compared for the coin-flip bound.
DEFAULT_BUDGET = 10**7

# The JSON text of every report and command output: keys sorted, indented by
# two spaces.  One encoder serves every call.
json_text = json.JSONEncoder(indent=2, sort_keys=True).encode


def check_budget(budget: int) -> None:
    """Reject a budget that is not an integer of at least 1, before any work
    is done under it."""
    if _check_int(budget, "budget") < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


@dataclass
class VerificationReport:
    """Outcome of one verifier run.

    `lhs` and `rhs` carry the exact values compared (a single value or a
    mapping from identity name to value); `counterexample` is present only
    on failure.  Rationals serialize as "p/q" strings.
    """

    claim: str
    status: str
    depth: int
    lhs: Any = None
    rhs: Any = None
    counterexample: Any = None
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (PASS, FAIL, BUDGET_EXCEEDED):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "status": self.status,
            "depth": self.depth,
            "lhs": jsonify(self.lhs),
            "rhs": jsonify(self.rhs),
            "parameters": jsonify(self.parameters),
        }
        if self.counterexample is not None:
            out["counterexample"] = jsonify(self.counterexample)
        return out

    def to_json(self) -> str:
        return json_text(self.to_json_dict())
