import json
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import bdflow as bf
from bdflow.dynamics import check_model_support
from bdflow.harness import load_config, parse_config, run_experiment, run_sweep, verify
from bdflow.harness.cli import main as cli_main
from bdflow.meanfield import Grid1D


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
# reached the CLI as raw exceptions (exit 1), except teacher_units: true, which ran;
# the [5, 9] window once ran and then failed its fit with exit 1 and no summary;
# the snapshot after the run's end at t = 1 was once dropped from a run that ended ok;
# the two snapshot lists whose times share a file name once ran and wrote one file;
# the identity f, which takes no beta, once ran with its beta 3 ignored.
MALFORMED = [
    {"dynamics.dt": "abc"},
    {"snapshot_times": ["x"]},
    {"rate_fit": {"window": 5, "form": "exponential"}},
    {"dynamics.alpha": None},
    {"dynamics.alpha_prime": 0.5},
    {"dynamics.proximal_steps": 2.5},
    {"dynamics.tau": 0.3},
    {"dynamics.proximal_inner_iters": 100},
    {"snapshot_times": 1.0},
    {"rate_fit": {"window": [0.0, "x"], "form": "exponential"}},
    {"rate_fit": {"window": [0.0, 1.0], "form": "linear"}},
    {"rate_fit": {"window": [1.0, 0.5], "form": "exponential"}},
    {"rate_fit": {"window": [5.0, 9.0], "form": "exponential"}},  # no record after t = 1
    {"rate_fit": {"window": [0.0, 1.0], "form": "power-law"}},  # log t at the t = 0 record
    {"model.hessian": "abc"},
    {"model.minimizer": [float("nan")]},
    {**RELU, "model.batch_size": "x"},
    {**RELU, "model.teacher_units": True},
    {"model": {**MIXTURE, "sigma": "abc"}},
    {"model": {k: v for k, v in MIXTURE.items() if k != "sigma"}},
    {"model": {**MIXTURE, "components": [{**COMPONENT, "c": "x"}]}},
    {"init": {"kind": "gaussian", "mean": [0.0], "std": "abc"}},
    {"init": {"kind": "gaussian", "mean": "a", "std": 1.0}},
    {"snapshot_times": [2.0]},
    {"snapshot_times": [0.5, 0.5]},
    {"snapshot_times": [0.1, 0.1000001]},
    {"dynamics": {"variant": "gd-bd-fvariant", "dt": 0.01, "f": {"kind": "identity", "beta": 3}}},
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


def load_config_text(text):
    """`load_config` on a file holding `text`."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cfg.json"
        path.write_text(text)
        return load_config(path)


QUAD = bf.QuadraticWellModel(minimizer=[0.0], hessian=1.0)
MIXTURE_1D = bf.GaussianMixtureModel(target_c=[1.0], target_y=[[0.0]], target_sigma=[1.0], sigma=0.5)
GAUSS_1D = bf.GaussianSampler(mean=[0.0], std=1.0)

# (callable, args, message fragment): one malformed input to each raising
# branch that no other test reaches
MALFORMED_CALLS = [
    (check_model_support, (MIXTURE_1D, "gd-bd-reinjection"), "reinjection_prior is not configured"),
    (check_model_support, (MIXTURE_1D, "gd-bd-reinjection", bf.GaussianSampler(mean=[0.0, 0.0], std=1.0)),
     "reinjection prior dimension 2"),
    (bf.GridStepper, (QUAD, bf.grid_from_sampler(GAUSS_1D, 64), bf.DynamicsConfig(variant="kmc-bd", dt=0.1)),
     "grid solver supports variants"),
    (Grid1D, (1.0, 1.0, np.ones(8)), "hi > lo"),
    (bf.rate_fit, ([], (0.0, 1.0), "linear"), "form must be"),
    (partial(bf.fluctuation_scaling, slope_checkpoint=2.0),
     (QUAD, bf.DynamicsConfig(variant="gd-bd", dt=0.1), GAUSS_1D, [10, 30, 100], 1, [lambda x: x]),
     "slope_checkpoint must be one of the checkpoints"),
    (parse_config, (quad_config(schema_version=2),), "unsupported schema_version"),
    (parse_config, (quad_config(output_dir=5),), "output_dir must be a string"),
    (load_config_text, ("{not json",), "not valid JSON"),
    (bf.UniformSampler, ([0.0], [1.0, 2.0]), "same length"),
    (bf.ProductSampler, ((),), "at least one factor"),
    (bf.QuadraticWellModel, ([0.0, 0.0], np.eye(3)), "hessian shape"),
    (bf.DoubleWellModel, (1.0, 0.0), "tilt must be nonzero"),
    (bf.GaussianMixtureModel, ([1.0], [[0.0]], [0.0], 0.5), "widths must be > 0"),
    (bf.GaussianMixtureModel, ([1.0], [[0.0]], [1.0], 0.5, "fixed"), "amplitude_mode must be"),
    (bf.exact_mixture_loss, (QUAD, bf.init_from_sampler(GAUSS_1D, 4, 1, 0)), "requires the gaussian-mixture"),
]


@pytest.mark.parametrize("call,args,fragment", MALFORMED_CALLS, ids=[m[2] for m in MALFORMED_CALLS])
def test_malformed_input_raises_configuration_error(call, args, fragment):
    with pytest.raises(bf.ConfigurationError, match=fragment):
        call(*args)


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

    def test_f_block_echoes_and_round_trips(self, tmp_path):
        cfg = parse_config(quad_config(dynamics={"variant": "gd-bd-fvariant", "dt": 0.1,
                                                 "f": {"kind": "tanh", "beta": 2.0}}))
        assert cfg.dynamics.f_spec == bf.FVariant(kind="tanh", beta=2.0)
        echo = cfg.normalized()
        assert echo["dynamics"]["f"] == {"kind": "tanh", "beta": 2.0}
        assert parse_config(json.loads(json.dumps(echo))).normalized() == echo
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(dynamics={"variant": "gd-bd-fvariant", "dt": 0.1,
                                                         "f": {"kind": "tanh", "gamma": 2.0}})))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2


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

    @pytest.mark.parametrize("dynamics", [
        {"variant": "gd-bd", "dt": 0.05, "alpha": 3.0},
        {"variant": "gd-bd-reinjection", "dt": 0.05, "alpha": 3.0,
         "reinjection": {"kind": "gaussian", "mean": [0.0], "std": 2.0}},
    ], ids=["gd-bd", "reinjection"])
    def test_summary_reports_birth_death_resolution(self, tmp_path, monkeypatch, dynamics):
        reports = []
        run_step = bf.harness.runner.run_step
        monkeypatch.setattr(bf.harness.runner, "run_step",
                            lambda *args: reports.append(run_step(*args)) or reports[-1])
        summary = run_experiment(parse_config(mixture_config(dynamics=dynamics)), output_dir=tmp_path)
        assert len(reports) == 20
        assert summary["max_rate"] == max(r.max_rate for r in reports) > 0.0
        assert summary["population_corrections"] == sum(r.population_corrections for r in reports) > 0
        written = json.loads((tmp_path / "summary.json").read_text())
        assert (written["max_rate"], written["population_corrections"]) == (
            summary["max_rate"], summary["population_corrections"])

    def test_gd_only_summary_reports_no_birth_death(self, tmp_path):
        summary = run_experiment(parse_config(mixture_config(dynamics={"variant": "gd-only", "dt": 0.01})),
                                 output_dir=tmp_path)
        assert (summary["max_rate"], summary["population_corrections"]) == (0.0, 0)

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

    # each window holds exactly ten records, and moving t0 past one leaves nine
    @pytest.mark.parametrize("overrides,window", [
        ({}, [0.05, 1.05]),  # a record every step
        ({"steps": 29, "record_every": 3}, [0.25, 2.95]),  # the last step is recorded too
        ({"dynamics": {"variant": "proximal", "dt": 0.1, "proximal_steps": 3}}, [0.25, 3.05]),
    ])
    def test_rate_fit_window_needs_ten_records(self, tmp_path, overrides, window):
        fit = {"window": window, "form": "exponential"}
        summary = run_experiment(parse_config(quad_config(**overrides, rate_fit=fit)),
                                 output_dir=tmp_path)
        assert summary["rate_fit"]["count"] == 10
        fit["window"] = [window[0] + 0.1, window[1]]
        with pytest.raises(bf.ConfigurationError, match="holds 9 records"):
            parse_config(quad_config(**overrides, rate_fit=fit))

    def test_rate_fit_error_recorded_in_summary(self, tmp_path):
        # every particle sits at the minimum, so every energy is 0 and the fit fails
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(init={"kind": "point", "at": [0.0]},
                                               rate_fit={"window": [0.0, 1.0], "form": "exponential"})))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["rate_fit"] == {"error": "FitError: nonpositive energies in the fit window"}

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
        assert cell_summary["config"]["output_dir"] == str(tmp_path / "value_00/seed_000")
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

    @pytest.mark.parametrize("seeds", [1.5, True])
    def test_seeds_must_be_an_integer(self, tmp_path, seeds):
        # 1.5 once raised TypeError from range; True ran and wrote "seeds": true
        cfg = parse_config(quad_config())
        with pytest.raises(bf.ConfigurationError, match="seeds"):
            run_sweep(cfg, axis="n", values=[2], seeds=seeds, output_dir=tmp_path, jobs=1)
        assert not (tmp_path / "sweep.json").exists()


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

    def test_proximal_run_counts_proximal_steps(self, tmp_path):
        data = json.loads((Path(__file__).resolve().parents[1] / "configs/quadratic_gd_bd.json").read_text())
        del data["rate_fit"]  # its window [2, 4] lies past this run's end at t = 1
        data["dynamics"].update(variant="proximal", proximal_steps=5)
        data.update(steps=20, record_every=5, n=64, snapshot_times=[0.5])
        summary = run_experiment(parse_config(data), output_dir=tmp_path)
        assert (summary["status"], summary["final_step"]) == ("ok", 20)
        assert summary["snapshots"] == ["snapshot_t0.5.csv"]
        rows = [line.split(",") for line in (tmp_path / "trajectory.csv").read_text().splitlines()[2:]]
        assert [row[0] for row in rows] == ["0", "5", "10", "15", "20"]
        assert [row[1] for row in rows] == [format((k * 5) * 0.01, ".17g") for k in range(0, 21, 5)]


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

    def test_echo_names_the_out_directory(self, tmp_path):
        # the echo once named the config's output_dir, not the --out directory written
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(output_dir="elsewhere")))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert echo["output_dir"] == str(out)
        assert parse_config(echo).normalized() == echo

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

    def test_sweep_values_typed_like_the_config_file(self, tmp_path):
        # an integer literal in the config once fixed the axis to integers ("takes integers")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config(model={"kind": "quadratic-well", "hessian": 1})))
        code = cli_main(["sweep", "--config", str(path), "--axis", "model.hessian", "--values", "0.5,2",
                         "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 0
        assert json.loads((tmp_path / "sw/sweep.json").read_text())["values"] == [0.5, 2]

    @pytest.mark.parametrize("values", ["2.0", "1e3"])
    def test_sweep_integral_float_on_integer_axis_exit_code(self, tmp_path, values):
        # the config file rejects "n": 2.0; the sweep once truncated it to 2 and ran
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", "n", "--values", values,
                         "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 2
        assert not (tmp_path / "sw" / "sweep.json").exists()

    @pytest.mark.parametrize("axis,values", [("dynamics.dt", "0.1,-1"),
                                             ("dynamics.variant", "gd-bd,warp"),
                                             ("seed", "1,1"), ("output_dir", "a,b")])
    def test_sweep_invalid_cell_exit_code(self, tmp_path, axis, values):
        # the first cell is valid, but no cell may run once any cell's config is bad;
        # every cell sets its own seed and output_dir, so those axes once ran and were ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", axis, "--values", values,
                         "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 2
        assert not list(tmp_path.glob("sw/value_*"))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exit_code(self, tmp_path, jobs):
        # -3 once ran serially and 0 once used every core, both exiting 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(quad_config()))
        code = cli_main(["sweep", "--config", str(path), "--axis", "n", "--values", "2",
                         "--seeds", "1", "--jobs", jobs, "--out", str(tmp_path / "sw"), "--quiet"])
        assert code == 2
        assert not (tmp_path / "sw" / "sweep.json").exists()

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


JUNIT_REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest">
<testcase classname="tests.test_acceptance" name="test_c09_a" time="100.750">
<properties><property name="bad" value="1.0" /></properties></testcase>
<testcase classname="tests.test_acceptance" name="test_c09_b" time="2.125">
<failure message="assert False">E   assert False</failure></testcase>
<testcase classname="tests.test_acceptance" name="test_c11_c" time="2.000">
<skipped type="pytest.skip" message="skipped in setup" /></testcase>
<testcase classname="tests.test_acceptance" name="test_other" time="9.000" />
</testsuite></testsuites>
"""


class TestVerifyCollector:
    def test_wall_seconds_sum_every_phase_of_every_test(self, tmp_path):
        # each time is setup + call + teardown: test_c09_a's 100.75 s include a
        # shared fixture's 100 s setup; test_c11_c was skipped in its setup
        report = tmp_path / "report.xml"
        report.write_text(JUNIT_REPORT)
        outcomes, measured, errors = verify._read_report(report)
        assert measured == {9: {"wall_seconds": 102.875, "bad": 1.0},
                            11: {"wall_seconds": 2.0}}
        assert outcomes == {9: ["pass", "fail"], 11: ["skipped"]}
        assert errors == []


ACCEPTANCE_STUB = """
import pytest


def test_c01_passes(record_property):
    record_property("max_relative_gap", 0.25)


def test_c02_fails():
    assert False


@pytest.mark.slow
def test_c03_is_slow():
    pass
"""


PROCESS_STUB = """
import sys

NUMPY_AT_IMPORT = "numpy" in sys.modules

import bdflow
import pytest


@pytest.fixture(scope="module")
def broken_setup():
    raise RuntimeError("setup")


@pytest.fixture
def broken_teardown():
    yield
    raise RuntimeError("teardown")


def test_c01_reads_its_process(record_property):
    record_property("numpy_at_import", NUMPY_AT_IMPORT)
    record_property("bdflow_file", bdflow.__file__)


def test_c02_setup_error(broken_setup):
    pass


def test_c03_teardown_error(broken_teardown):
    pass
"""


class TestRunVerify:
    @pytest.fixture
    def stub_suite(self, tmp_path, monkeypatch):
        (tmp_path / "test_acceptance.py").write_text(ACCEPTANCE_STUB)
        monkeypatch.setattr(verify, "_find_tests_dir", lambda: tmp_path)
        return tmp_path

    @staticmethod
    def check(verdict):
        status = {c["criterion"]: c["status"] for c in verdict["criteria"]}
        assert (status[1], status[2], status[3]) == ("pass", "fail", "skipped")
        assert all(status[k] == "skipped" for k in range(4, 13))
        measured = verdict["criteria"][0]["measured"]
        assert measured["max_relative_gap"] == 0.25 and measured["wall_seconds"] >= 0.0
        assert verdict["level"] == "fast" and verdict["exit_code"] == 1

    def test_run_verify_reports_each_criterion(self, stub_suite):
        out = stub_suite / "report" / "verdict.json"
        code, verdict = verify.run_verify(level="fast", report_path=out, quiet=True)
        assert code == 1
        self.check(verdict)
        assert json.loads(out.read_text()) == verdict

    def test_cli_verify_exit_code_and_report(self, stub_suite):
        out = stub_suite / "verdict.json"
        assert cli_main(["verify", "--level", "fast", "--out", str(out), "--quiet"]) == 1
        self.check(json.loads(out.read_text()))

    def test_collection_error_fails_every_criterion_and_names_the_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "test_acceptance.py").write_text("def test_c01_broken(:\n    pass\n")
        monkeypatch.setattr(verify, "_find_tests_dir", lambda: tmp_path)
        code, verdict = verify.run_verify(level="fast", quiet=True)
        assert code == verdict["exit_code"] == 1
        [error] = verdict["collection_errors"]
        assert "test_acceptance.py" in error and "SyntaxError" in error
        assert all(c["status"] == "fail" for c in verdict["criteria"])
        out = capsys.readouterr().out
        assert f"[collection] ERROR  {error}" in out and "SKIP" not in out

    def test_setup_and_teardown_errors_fail_their_criterion(self, tmp_path, monkeypatch):
        (tmp_path / "test_acceptance.py").write_text(PROCESS_STUB)
        monkeypatch.setattr(verify, "_find_tests_dir", lambda: tmp_path)
        code, verdict = verify.run_verify(level="fast", quiet=True)
        status = [c["status"] for c in verdict["criteria"][:3]]
        assert code == 1 and status == ["pass", "fail", "fail"]

    def test_suite_imports_this_bdflow_in_a_process_without_numpy(self, tmp_path, monkeypatch):
        # so tests/conftest.py pins the BLAS threads before numpy loads
        (tmp_path / "test_acceptance.py").write_text(PROCESS_STUB)
        monkeypatch.setattr(verify, "_find_tests_dir", lambda: tmp_path)
        measured = verify.run_verify(level="fast", quiet=True)[1]["criteria"][0]["measured"]
        assert measured["numpy_at_import"] is False
        assert Path(measured["bdflow_file"]).resolve() == Path(bf.__file__).resolve()

    def test_a_child_without_a_report_fails_every_criterion(self, stub_suite, monkeypatch):
        monkeypatch.setattr(verify.subprocess, "run",
                            lambda args, env: subprocess.CompletedProcess(args, 4))
        code, verdict = verify.run_verify(level="fast", quiet=True)
        assert code == 1 and verdict["collection_errors"] == [
            "pytest exited with code 4 and wrote no report"]
        assert all(c["status"] == "fail" for c in verdict["criteria"])

    def test_two_runs_in_one_process_collect_the_stub(self, tmp_path, monkeypatch):
        # a process that collected the real suite holds a `test_acceptance`
        # module of another file; neither run may import the stub by that name
        (tmp_path / "test_acceptance.py").write_text(ACCEPTANCE_STUB)
        monkeypatch.setattr(verify, "_find_tests_dir", lambda: tmp_path)
        held = ModuleType("test_acceptance")
        held.__file__ = str(Path(__file__).with_name("test_acceptance.py"))
        monkeypatch.setitem(sys.modules, "test_acceptance", held)
        for _ in range(2):
            code, verdict = verify.run_verify(level="fast", quiet=True)
            assert code == 1 and verdict["collection_errors"] == []
            self.check(verdict)
        assert sys.modules["test_acceptance"] is held
