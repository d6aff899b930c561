"""Structured pass/fail records for identity checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check over a stated parameter range."""

    name: str
    scope: str
    passed: bool
    checked: int
    counterexample: str | None = None


@dataclass
class VerificationReport:
    """A batch of identity checks with an overall verdict.

    `elapsed` is wall-clock seconds and is the only non-deterministic field;
    golden-file comparisons must exclude it.
    """

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for check in self.checks:
            if not check.passed:
                return check
        return None

    def to_json_obj(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "overall": self.overall,
            "elapsed": round(self.elapsed, 6),
            "checks": [
                {
                    "name": c.name,
                    "scope": c.scope,
                    "passed": c.passed,
                    "checked": c.checked,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_csv_text(self) -> str:
        lines = ["name,scope,passed,checked,counterexample"]
        for c in self.checks:
            fields = [c.name, c.scope, "pass" if c.passed else "fail",
                      str(c.checked), c.counterexample or ""]
            lines.append(",".join(_csv_quote(f) for f in fields))
        return "\n".join(lines)


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def run_check(name: str, scope: str, cases) -> CheckResult:
    """Collapse an iterable of (description, ok) pairs into one CheckResult,
    keeping the first failing description as the counterexample. A check
    with no cases says so in its scope."""
    checked = 0
    counterexample = None
    for description, ok in cases:
        checked += 1
        if not ok and counterexample is None:
            counterexample = description
    if not checked:
        scope = f"skipped: no cases in {scope}"
    return CheckResult(name=name, scope=scope, passed=counterexample is None,
                       checked=checked, counterexample=counterexample)
