"""Structured pass/fail records for identity checks, and the one place where a
check is recorded, skipped and timed."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable


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


def skip_check(name: str, reason: str) -> CheckResult:
    """A check whose range is too small to hold any case; it passes having
    checked nothing, and its scope says why."""
    return CheckResult(name=name, scope=f"skipped: {reason}", passed=True, checked=0)


def timed_report(suite: str, checks: Iterable[CheckResult]) -> VerificationReport:
    """Run `checks`, typically a suite's generator, into one report; `elapsed`
    covers all the work done while drawing them."""
    start = time.perf_counter()
    done = list(checks)
    return VerificationReport(suite=suite, checks=done, elapsed=time.perf_counter() - start)
