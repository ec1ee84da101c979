import json

import numpy as np
import pytest

import bdflow as bf
from bdflow.harness import load_config, parse_config, run_experiment, run_sweep
from bdflow.harness.cli import main as cli_main


def quad_config(**overrides):
    data = {
        "model": {"kind": "quadratic-well", "minimizer": [0.0], "hessian": 1.0},
        "init": {"kind": "point", "at": [1.0]},
        "dynamics": {"variant": "gd-only", "dt": 0.1},
        "n": 4,
        "steps": 10,
        "seed": 3,
    }
    data.update(overrides)
    return data


def mixture_config(**overrides):
    data = {
        "model": {
            "kind": "gaussian-mixture",
            "components": [
                {"c": 1.0, "y": [-2.0], "sigma": 0.6},
                {"c": -0.5, "y": [0.0], "sigma": 0.6},
                {"c": 1.0, "y": [2.0], "sigma": 0.6},
            ],
            "sigma": 0.4,
        },
        "init": {
            "kind": "product",
            "factors": [
                {"kind": "gaussian", "mean": [0.0], "std": 0.5},
                {"kind": "gaussian", "mean": [0.0], "std": 2.0},
            ],
        },
        "dynamics": {"variant": "gd-bd", "dt": 0.01, "alpha": 1.0},
        "n": 24,
        "steps": 20,
        "seed": 11,
    }
    data.update(overrides)
    return data


# valid with quad_config()'s 1-D point init, before one field is broken
COMPONENT = {"c": 1.0, "y": [0.0], "sigma": 0.6}
MIXTURE = {"kind": "gaussian-mixture", "components": [COMPONENT], "sigma": 0.4,
           "amplitude_mode": "frozen"}
RELU = {"model": {"kind": "relu-student-teacher", "input_dim": 1},
        "init": {"kind": "point", "at": [0.0, 0.0]}}

# each entry breaks one field of quad_config(); dotted keys reach into objects.
# The first three, the inverted rate_fit window and the model/init entries once
# reached the CLI as raw exceptions (exit 1), except teacher_units: true, which ran.
MALFORMED = [
    {"dynamics.dt": "abc"},
    {"snapshot_times": ["x"]},
    {"rate_fit": {"window": 5, "form": "exponential"}},
    {"dynamics.alpha": None},
    {"dynamics.alpha_prime": 0.5},
    {"dynamics.proximal_inner_iters": 2.5},
    {"snapshot_times": 1.0},
    {"rate_fit": {"window": [0.0, "x"], "form": "exponential"}},
    {"rate_fit": {"window": [0.0, 1.0], "form": "linear"}},
    {"rate_fit": {"window": [1.0, 0.5], "form": "exponential"}},
    {"model.hessian": "abc"},
    {"model.minimizer": [float("nan")]},
    {**RELU, "model.batch_size": "x"},
    {**RELU, "model.teacher_units": True},
    {"model": {**MIXTURE, "sigma": "abc"}},
    {"model": {k: v for k, v in MIXTURE.items() if k != "sigma"}},
    {"model": {**MIXTURE, "components": [{**COMPONENT, "c": "x"}]}},
    {"init": {"kind": "gaussian", "mean": [0.0], "std": "abc"}},
    {"init": {"kind": "gaussian", "mean": "a", "std": 1.0}},
]


def malformed_config(overrides):
    data = json.loads(json.dumps(quad_config()))
    for path, value in json.loads(json.dumps(overrides)).items():
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = value
    return data


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(bf.ConfigurationError, match="unknown config keys"):
            parse_config(quad_config(stepz=2))

    def test_unknown_dynamics_key(self):
        cfg = quad_config()
        cfg["dynamics"]["dd"] = 1
        with pytest.raises(bf.ConfigurationError, match="unknown dynamics keys"):
            parse_config(cfg)

    def test_missing_required_keys(self):
        cfg = quad_config()
        del cfg["model"]
        with pytest.raises(bf.ConfigurationError, match="missing config keys"):
            parse_config(cfg)

    def test_zero_steps_rejected(self):
        with pytest.raises(bf.ConfigurationError, match="steps"):
            parse_config(quad_config(steps=0))

    def test_sampler_model_dimension_mismatch(self):
        cfg = quad_config(init={"kind": "point", "at": [1.0, 2.0]})
        with pytest.raises(bf.ConfigurationError, match="dimension"):
            parse_config(cfg)

    def test_reinjection_checks(self):
        cfg = quad_config()
        cfg["dynamics"] = {"variant": "gd-bd-reinjection", "dt": 0.1,
                           "reinjection": {"kind": "gaussian", "mean": [0.0], "std": 1.0}}
        with pytest.raises(bf.ConfigurationError, match="amplitude"):
            parse_config(cfg)

    @pytest.mark.parametrize("overrides", MALFORMED, ids=[str(m) for m in MALFORMED])
    def test_malformed_values_rejected(self, overrides):
        with pytest.raises(bf.ConfigurationError):
            parse_config(malformed_config(overrides))

    def test_model_built_once(self, tmp_path, monkeypatch):
        built = []
        post_init = bf.QuadraticWellModel.__post_init__

        def counting_post_init(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(bf.QuadraticWellModel, "__post_init__", counting_post_init)
        run_experiment(parse_config(quad_config()), output_dir=tmp_path)
        assert len(built) == 1

    def test_echo_round_trips(self):
        cfg = parse_config(mixture_config())
        echo = cfg.normalized()
        again = parse_config(json.loads(json.dumps(echo)))
        assert again.normalized() == echo


class TestRunExperiment:
    def test_geometric_decay_endpoint(self, tmp_path):
        summary = run_experiment(parse_config(quad_config()), output_dir=tmp_path)
        assert summary["status"] == "ok"
        final_pos = np.sqrt(2.0 * summary["final_energy"])
        assert final_pos == pytest.approx(0.9**10, rel=1e-12)

    def test_identical_seed_byte_identical_outputs(self, tmp_path):
        cfg = parse_config(mixture_config())
        run_experiment(cfg, output_dir=tmp_path / "a")
        run_experiment(cfg, output_dir=tmp_path / "b")
        assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()

    def test_snapshots_written_at_requested_times(self, tmp_path):
        cfg = parse_config(mixture_config(snapshot_times=[0.0, 0.1]))
        summary = run_experiment(cfg, output_dir=tmp_path)
        assert summary["snapshots"] == ["snapshot_t0.csv", "snapshot_t0.1.csv"]
        assert (tmp_path / "snapshot_t0.1.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_blowup_marks_summary_failed(self, tmp_path):
        cfg = parse_config(quad_config(dynamics={"variant": "gd-only", "dt": 10.0}, steps=500))
        summary = run_experiment(cfg, output_dir=tmp_path)
        assert summary["status"] == "failed"
        assert "NumericError" in summary["error"]
        assert (tmp_path / "trajectory.csv").exists()  # last valid records retained

    def test_trajectory_schema(self, tmp_path):
        run_experiment(parse_config(quad_config(record_every=2)), output_dir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].split(",") == list(bf.diagnostics.TRAJECTORY_COLUMNS)
        assert len(lines) == 2 + 6  # t=0 plus steps 2,4,6,8,10 (10 recorded once)

    def test_rate_fit_in_summary(self, tmp_path):
        cfg = parse_config(
            quad_config(steps=120, record_every=1,
                        rate_fit={"window": [2.0, 12.0], "form": "exponential"})
        )
        summary = run_experiment(cfg, output_dir=tmp_path)
        # theta(t) = 0.9^(10 t) so E decays at rate 2 ln(0.9)/dt
        expected = 2.0 * np.log(0.9) / 0.1
        assert summary["rate_fit"]["exponent"] == pytest.approx(expected, rel=1e-9)

    def test_relu_records_batch_loss(self, tmp_path):
        cfg = parse_config(
            {
                "model": {"kind": "relu-student-teacher", "input_dim": 4, "teacher_units": 2,
                           "batch_size": 8, "teacher_seed": 0},
                "init": {
                    "kind": "product",
                    "factors": [
                        {"kind": "gaussian", "mean": [0.0], "std": 1.0},
                        {"kind": "gaussian", "mean": [0.0, 0.0, 0.0, 0.0], "std": 0.5},
                    ],
                },
                "dynamics": {"variant": "gd-bd", "dt": 0.1, "alpha": 1.0},
                "n": 6,
                "steps": 5,
                "seed": 2,
            }
        )
        summary = run_experiment(cfg, output_dir=tmp_path)
        assert summary["status"] == "ok"
        assert summary["final_energy"] >= 0.0  # batch loss stands in for energy


class TestRunSweep:
    def test_single_cell_matches_run_experiment(self, tmp_path):
        cfg = parse_config(quad_config())
        report = run_sweep(cfg, axis="dynamics.dt", values=[0.1], seeds=1,
                           output_dir=tmp_path, jobs=1)
        cell_summary = json.loads((tmp_path / "value_00/seed_000/summary.json").read_text())
        direct = run_experiment(
            parse_config(quad_config(seed=cell_summary["seed"])), output_dir=tmp_path / "direct"
        )
        assert report["cells"][0]["mean_final_energy"] == direct["final_energy"]

    def test_axis_over_population(self, tmp_path):
        cfg = parse_config(mixture_config(steps=5))
        report = run_sweep(cfg, axis="n", values=[8, 16], seeds=2, output_dir=tmp_path, jobs=2)
        assert [c["completed"] for c in report["cells"]] == [2, 2]
        assert (tmp_path / "sweep.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_failed_cell_marked_not_fatal(self, tmp_path):
        cfg = parse_config(quad_config(steps=500))
        report = run_sweep(cfg, axis="dynamics.dt", values=[0.1, 10.0], seeds=1,
                           output_dir=tmp_path, jobs=1)
        assert report["cells"][0]["completed"] == 1
        assert report["cells"][1]["completed"] == 0
        assert report["cells"][1]["failures"]

    def test_axis_over_variant_enum(self, tmp_path):
        # the three-way comparison layout: one sweep over the dynamics variant
        cfg = parse_config(mixture_config(steps=5))
        data = cfg.normalized()
        data["dynamics"]["reinjection"] = {"kind": "gaussian", "mean": [0.0], "std": 2.0}
        cfg = parse_config(data)
        report = run_sweep(cfg, axis="dynamics.variant",
                           values=["gd-only", "gd-bd", "gd-bd-reinjection"], seeds=1,
                           output_dir=tmp_path, jobs=1)
        assert [c["completed"] for c in report["cells"]] == [1, 1, 1]

    def test_bad_axis_rejected(self, tmp_path):
        cfg = parse_config(quad_config())
        with pytest.raises(bf.ConfigurationError, match="axis"):
            run_sweep(cfg, axis="dynamics.warp", values=[1], seeds=1, output_dir=tmp_path)


class TestCommittedConfigs:
    def test_example_configs_parse_and_echo(self):
        import pathlib

        config_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            cfg = load_config(path)
            echo = cfg.normalized()
            assert parse_config(json.loads(json.dumps(echo))).normalized() == echo


class TestCli:
    def test_run_and_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(stepz=1)))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_failure_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(dynamics={"variant": "gd-only", "dt": 10.0}, steps=500)))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 3

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mixture_config()))
        assert cli_main(["run", "--config", str(path), "--seed", "99",
                         "--out", str(tmp_path / "out"), "--quiet"]) == 0
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["seed"] == 99

    def test_sweep_subcommand(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", "n", "--values", "2,4",
                         "--seeds", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "sw/sweep.json").read_text())
        assert report["values"] == [2, 4]

    @pytest.mark.parametrize("overrides", MALFORMED, ids=[str(m) for m in MALFORMED])
    def test_malformed_config_exit_code(self, tmp_path, overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(malformed_config(overrides)))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2

    @pytest.mark.parametrize("axis", ["n", "steps", "record_every"])
    def test_sweep_non_integer_value_exit_code(self, tmp_path, axis):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", axis, "--values", "1.5",
                         "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 2
        assert not (tmp_path / "sw" / "sweep.json").exists()

    @pytest.mark.parametrize("axis,values", [("dynamics.dt", "0.1,-1"),
                                             ("dynamics.variant", "gd-bd,warp")])
    def test_sweep_invalid_cell_exit_code(self, tmp_path, axis, values):
        # the first cell is valid, but no cell may run once any cell's config is bad
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", axis, "--values", values,
                         "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 2
        assert not list(tmp_path.glob("sw/value_*"))

    def test_teacher_dump(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"kind": "relu-student-teacher", "input_dim": 3, "teacher_units": 2,
                       "batch_size": 4, "teacher_seed": 5},
            "init": {"kind": "product", "factors": [
                {"kind": "gaussian", "mean": [0.0], "std": 1.0},
                {"kind": "gaussian", "mean": [0.0, 0.0, 0.0], "std": 1.0}]},
            "dynamics": {"variant": "gd-bd", "dt": 0.1},
            "n": 4, "steps": 1, "seed": 0,
        }))
        out = tmp_path / "teacher.csv"
        assert cli_main(["teacher-dump", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text().startswith("unit,amplitude,y_0")

    def test_teacher_dump_wrong_model(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        assert cli_main(["teacher-dump", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
