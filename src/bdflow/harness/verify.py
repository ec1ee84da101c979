"""Acceptance-suite runner: executes the criteria tests through pytest and
emits a machine-readable verdict plus one pass/fail line per criterion.

``fast`` runs the property tests and short quantitative checks (everything
not marked slow); ``full`` runs all criteria.  Requires a repository
checkout, since the tests directory is not installed with the package.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..ensemble import atomic_open
from ..errors import ConfigurationError

CRITERIA = {
    1: "pure birth-death exact law (kinetic Monte Carlo vs closed form)",
    2: "linear-in-time decay without transport",
    3: "exponential decay with transport",
    4: "law of large numbers over population sizes",
    5: "fluctuation scaling slope -1/2 and self-quenching",
    6: "energy decay (grid per-step, seed-averaged particles, bd vs gd)",
    7: "kill/duplication probability law",
    8: "proximal descent never increases the exact loss",
    9: "mixture comparison: reinjection beats bd and plain gd on bad init",
    10: "relu student-teacher: bd at or below plain sgd batch loss",
    11: "invariant suite",
    12: "optimality residuals at the end of the converged mixture run",
}

_NODE_RE = re.compile(r"test_c(\d{2})")


class _Collector:
    """Pytest plugin recording outcome and measured values per criterion, and
    its wall time: the setup, call and teardown durations of all its tests,
    so a shared fixture counts where it is set up; and each collection error."""

    def __init__(self):
        self.outcomes: dict[int, list] = {}
        self.measured: dict[int, dict] = {}
        self.errors: list[str] = []

    def pytest_collectreport(self, report):
        if report.failed:  # named by the report's last `E ` line, else its whole text
            text = report.longreprtext
            errors = [ln[1:].strip() for ln in text.splitlines() if ln.startswith("E ")]
            self.errors.append(f"{report.nodeid}: {errors[-1] if errors else text.strip()}")

    def pytest_runtest_logreport(self, report):
        m = _NODE_RE.search(report.nodeid)
        if not m:
            return
        crit = int(m.group(1))
        measured = self.measured.setdefault(crit, {})
        measured["wall_seconds"] = measured.get("wall_seconds", 0.0) + report.duration
        if report.when == "call" or (report.when == "setup" and report.skipped):
            outcome = "skipped" if report.skipped else ("pass" if report.passed else "fail")
            self.outcomes.setdefault(crit, []).append(outcome)
            for key, value in getattr(report, "user_properties", ()):
                measured[key] = value

    def pytest_deselected(self, items):
        for item in items:
            m = _NODE_RE.search(item.nodeid)
            if m:
                self.outcomes.setdefault(int(m.group(1)), []).append("deselected")


def _find_tests_dir() -> Path:
    for c in (Path.cwd() / "tests", Path(__file__).resolve().parents[3] / "tests"):
        if (c / "test_acceptance.py").is_file():
            return c
    raise ConfigurationError(
        "could not locate tests/test_acceptance.py; run verify from a repository checkout"
    )


def run_verify(level: str = "full", report_path=None, quiet: bool = False) -> tuple[int, dict]:
    """Run the acceptance suite; returns (exit_code, verdict dict)."""
    import pytest

    if level not in ("fast", "full"):
        raise ConfigurationError(f"level must be fast or full, got {level!r}")
    tests = _find_tests_dir()
    collector = _Collector()
    # importlib mode names the file by its path under the rootdir, not by the
    # bare `test_acceptance` a process may already hold for another file
    args = [str(tests / "test_acceptance.py"), "-q", "-p", "no:cacheprovider",
            "--import-mode=importlib", f"--rootdir={tests.parent}"]
    if level == "fast":
        args += ["-m", "not slow"]
    if quiet:
        args += ["--no-header", "-rN"]
    code = pytest.main(args, plugins=[collector])

    criteria = []
    for num in sorted(CRITERIA):
        outcomes = collector.outcomes.get(num, [])
        # a criterion whose tests did not run because of a collection error fails
        failed = "fail" in outcomes or (collector.errors and not outcomes)
        status = "fail" if failed else "pass" if "pass" in outcomes else "skipped"
        criteria.append(
            {
                "criterion": num,
                "name": CRITERIA[num],
                "status": status,
                "measured": collector.measured.get(num, {}),
            }
        )
    any_fail = any(c["status"] == "fail" for c in criteria) or collector.errors
    # a nonzero pytest code with no mapped failure still fails the verdict
    exit_code = 1 if (any_fail or code not in (0, 5)) else 0
    verdict = {"schema_version": 1, "level": level, "exit_code": exit_code,
               "collection_errors": collector.errors, "criteria": criteria}

    for error in collector.errors:
        print(f"[collection] ERROR  {error}")
    for c in criteria:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c["status"]]
        print(f"[criterion {c['criterion']:02d}] {mark}  {c['name']}")
    if report_path is not None:
        p = Path(report_path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(p) as fh:
            json.dump(verdict, fh, indent=2)
    return exit_code, verdict
