"""Structured verification reports.

A report names the claim being checked, the parameters it was checked at,
a verdict, and the ordered steps with the exact values they produced, all
four given, so a failed check is self-diagnosing.
"""

from __future__ import annotations

from .exact_arith import Record

VERIFIED = "verified"
REFUTED = "refuted"
INAPPLICABLE = "inapplicable"

VERDICTS = (VERIFIED, REFUTED, INAPPLICABLE)


class Step(Record):
    __slots__ = ("description", "values")


class Report(Record):
    __slots__ = ("claim", "params", "verdict", "steps")

    def __init__(self, claim: str, params: dict, verdict: str, steps) -> None:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        super().__init__(claim, params, verdict, tuple(steps))
