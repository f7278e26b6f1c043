"""Structured verification reports.

A report names the claim being checked, the parameters it was checked at,
and the ordered steps with the exact values they produced, so a failed
check is self-diagnosing.  A ``Check`` step shows both sides of a comparison
and whether it holds; the verdict is refuted if a check fails, verified if
all of at least one hold, and inapplicable with none.
"""

from __future__ import annotations

from .exact_arith import Record

VERIFIED = "verified"
REFUTED = "refuted"
INAPPLICABLE = "inapplicable"


class Step(Record):
    __slots__ = ("description", "values")


class Check(Record):
    __slots__ = ("description", "values", "holds")


class Report(Record):
    __slots__ = ("claim", "params", "steps")

    def __init__(self, claim: str, params: dict, steps) -> None:
        super().__init__(claim, params, tuple(steps))

    @property
    def verdict(self) -> str:
        checks = [step.holds for step in self.steps if isinstance(step, Check)]
        return REFUTED if not all(checks) else VERIFIED if checks else INAPPLICABLE
