"""Acceptance-suite runner: executes the criteria tests in a child pytest, reads
its JUnit report and emits a machine-readable verdict plus one pass/fail line
per criterion.  The child imports this process's ``bdflow``.

``fast`` runs the property tests and short quantitative checks (everything
not marked slow); ``full`` runs all criteria.  Requires a repository
checkout, since the tests directory is not installed with the package.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
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


def _read_report(path: Path) -> tuple[dict[int, list], dict[int, dict], list[str]]:
    """Outcomes and measured values per criterion, and the collection errors, from
    an xunit1 JUnit report (it keeps properties).  A testcase's time sums its setup,
    call and teardown, so a shared fixture counts where it is set up."""
    outcomes, measured, errors = {}, {}, []
    for case in ET.parse(path).iter("testcase"):
        name = case.get("name", "")
        error = case.find("error")
        if error is not None and error.get("message") == "collection failure":
            node = case.get("file", name) + (f"::{name}" if case.get("classname") else "")
            text = error.text or ""
            lines = [ln[1:].strip() for ln in text.splitlines() if ln.startswith("E ")]
            errors.append(f"{node}: {lines[-1] if lines else text.strip()}")
        m = _NODE_RE.search(name)
        if not m:
            continue
        crit = int(m.group(1))
        values = measured.setdefault(crit, {})
        values["wall_seconds"] = values.get("wall_seconds", 0.0) + float(case.get("time", 0.0))
        for prop in case.iter("property"):  # pytest writes str(value): the literal, else the text
            try:
                values[prop.get("name")] = ast.literal_eval(prop.get("value"))
            except (ValueError, SyntaxError):
                values[prop.get("name")] = prop.get("value")
        tags = {child.tag for child in case}
        outcome = "fail" if tags & {"error", "failure"} else "skipped" if "skipped" in tags else "pass"
        outcomes.setdefault(crit, []).append(outcome)
    return outcomes, measured, errors


def _find_tests_dir() -> Path:
    for c in (Path.cwd() / "tests", Path(__file__).resolve().parents[3] / "tests"):
        if (c / "test_acceptance.py").is_file():
            return c
    raise ConfigurationError(
        "could not locate tests/test_acceptance.py; run verify from a repository checkout"
    )


def run_verify(level: str = "full", report_path=None, quiet: bool = False) -> tuple[int, dict]:
    """Run the acceptance suite; returns (exit_code, verdict dict)."""
    if level not in ("fast", "full"):
        raise ConfigurationError(f"level must be fast or full, got {level!r}")
    tests = _find_tests_dir()
    pythonpath = [str(Path(__file__).resolve().parents[2]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "report.xml"
        args = [sys.executable, "-m", "pytest", str(tests / "test_acceptance.py"), "-q",
                "-p", "no:cacheprovider", f"--rootdir={tests.parent}", f"--junitxml={xml}",
                "-o", "junit_family=xunit1"]
        if level == "fast":
            args += ["-m", "not slow"]
        if quiet:
            args += ["--no-header", "-rN"]
        code = subprocess.run(args, env=env).returncode
        outcomes, measured, errors = _read_report(xml) if xml.is_file() else (
            {}, {}, [f"pytest exited with code {code} and wrote no report"])

    criteria = []
    for num in sorted(CRITERIA):
        found = outcomes.get(num, [])
        # a criterion whose tests did not run because of a collection error fails
        failed = "fail" in found or (errors and not found)
        status = "fail" if failed else "pass" if "pass" in found else "skipped"
        criteria.append({"criterion": num, "name": CRITERIA[num], "status": status,
                         "measured": measured.get(num, {})})
    any_fail = any(c["status"] == "fail" for c in criteria) or errors
    # a nonzero pytest code with no mapped failure still fails the verdict
    exit_code = 1 if (any_fail or code not in (0, 5)) else 0
    verdict = {"schema_version": 1, "level": level, "exit_code": exit_code,
               "collection_errors": errors, "criteria": criteria}

    for error in errors:
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
