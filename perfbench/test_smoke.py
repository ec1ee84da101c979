"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("potentials.pair_evals", "meanfield.cell_updates", "dynamics.kmc_events",
                "dynamics.births", "dynamics.deaths")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_exact_counts_repeat_and_oracles_make_no_pair_evaluations():
    first = result_of(run_bench("quadratic-oracles", 1))["metrics"]
    second = result_of(run_bench("quadratic-oracles", 1))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["potentials.pair_evals"]["value"] == 0.0
    assert first["meanfield.subnormal_cells"]["value"] > 0


def test_wrong_reference_counts_as_a_failed_operation(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import bdflow
        import bdflow.harness
        from workloads import ConfigRuns
    finally:
        del sys.path[:2]
    for refs, wrong in (({}, False), ({"rate_exponent": -3.0}, True)):
        wl = ConfigRuns(bdflow, ROOT, tmp_path / str(wrong), seed=3, tiny=True, refs=refs)
        wl.setup()
        wl.run_pass(0)
        wl.check()
        quad = [op for op in wl.ops if op.group == "quadratic_gd_bd"]
        assert len(quad) == 1
        assert quad[0].failed is wrong, quad[0].reason


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_mapping_covers_every_layer_metric():
    mapping = json.loads((HERE / "mapping.json").read_text())["layers"]
    mapped = [m for layer in mapping.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = set(WORKLOADS) | {""}
    for layer in mapping.values():
        for table in (layer["moves"], layer["unchanged"]):
            for metric, workloads in table.items():
                assert metric in {m["name"] for m in SPEC["end_to_end"]}
                assert set(workloads) <= names
