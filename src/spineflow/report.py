"""Pass/fail reports with itemized checks.

A report never raises: it records, per named check, whether the check
passed together with a short human-readable detail line.  Malformed
*inputs* (as opposed to failing conditions) raise ``InputError`` in the
operations that build reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """An ordered list of named checks with an overall verdict.

    ``prefix`` goes before the name of every check that ``add`` records,
    so a report from ``under`` files a part's checks straight into the
    whole's list."""

    checks: list[Check] = field(default_factory=list)
    prefix: str = field(default="", repr=False, compare=False)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(self.prefix + name, bool(passed), detail))

    def under(self, prefix: str) -> "ValidationReport":
        """A report adding to this one's checks, each name preceded by
        ``prefix``."""
        return ValidationReport(self.checks, self.prefix + prefix)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.passed]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"{c.name}: {status}{suffix}")
        out.append("overall: " + ("pass" if self.passed else "FAIL"))
        return out
