import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdflow as bf
from bdflow.ensemble import WEIGHT_MEAN_RTOL

from conftest import make_ensemble


class TestInit:
    def test_point_mass_degenerate(self):
        ens = bf.init_from_sampler(bf.PointSampler(at=[0.0]), 3, 1, seed=0)
        assert ens.n == 3
        np.testing.assert_array_equal(ens.thetas, np.zeros((3, 1)))
        np.testing.assert_array_equal(ens.weights, np.ones(3))

    def test_gaussian_sample_mean_within_clt_bound(self):
        n = 10_000
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), n, 1, seed=42)
        assert abs(ens.thetas.mean()) < 4.0 / np.sqrt(n)

    def test_same_seed_bitwise_identical(self):
        a = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0, 0.0], std=2.0), 50, 2, seed=7)
        b = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0, 0.0], std=2.0), 50, 2, seed=7)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.birth_ids, b.birth_ids)

    def test_invalid_population_and_dimension(self):
        with pytest.raises(bf.ConfigurationError):
            bf.init_from_sampler(bf.PointSampler(at=[0.0]), 0, 1, seed=0)
        with pytest.raises(bf.ConfigurationError):
            bf.init_from_sampler(bf.PointSampler(at=[0.0]), 5, 2, seed=0)

    def test_bad_sampler_parameters(self):
        with pytest.raises(bf.ConfigurationError):
            bf.GaussianSampler(mean=[0.0], std=0.0)
        with pytest.raises(bf.ConfigurationError):
            bf.UniformSampler(lo=[1.0], hi=[1.0])

    @pytest.mark.parametrize("n, k, seed, steps", [
        (2.5, 1, 0, None), (True, 1, 0, None), (4, 0, 0, None), (4, 1, -1, None), (4, 1, 1.5, None),
        (4, 1, 0, [-5]), (4, 1, 0, [2.5]),
    ], ids=str)
    def test_counts_are_integers(self, quad_1d, n, k, seed, steps):
        # numpy once raised TypeError or ValueError for these, and run_replicas
        # observed steps=[-5] silently at step 0
        init = bf.GaussianSampler(mean=[0.0], std=1.0)
        with pytest.raises(bf.ConfigurationError):
            if steps is None:
                bf.init_from_sampler(init, n, k, seed)
            else:
                bf.dynamics.run_replicas(quad_1d, bf.DynamicsConfig(variant="gd-only", dt=0.1), init, n,
                                         [(seed, 1)], steps, lambda ens: ens.n)

    def test_amplitude_layout(self, mixture_1c, tmp_path):
        init = bf.ProductSampler(
            factors=(bf.PointSampler(at=[2.0]), bf.PointSampler(at=[5.0]))
        )
        ens = bf.init_from_sampler(init, 4, mixture_1c.theta_dim, seed=0)
        np.testing.assert_array_equal(ens.thetas, np.tile([2.0, 5.0], (4, 1)))  # amplitude in column 0
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path, mixture_1c)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][3:] == ["amplitude", "theta_0"]
        assert all(r[3:] == ["2", "5"] for r in rows[1:])
        # the model names the columns, so a model of another row length is refused
        with pytest.raises(bf.ConfigurationError, match="row length 1 is not"):
            bf.write_snapshot_csv(bf.init_from_sampler(init.factors[1], 4, 1, seed=0), path, mixture_1c)


class TestEmpiricalExpectation:
    """Weighted empirical means n^-1 sum_i w_i phi(theta_i) over an ensemble."""

    def test_constant_is_one(self):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=3.0), 17, 1, seed=1)
        assert float(ens.weights @ np.ones(ens.n)) / ens.n == 1.0

    def test_second_moment_monte_carlo(self, quad_1d):
        # tolerance 4*sqrt(Var[x^2]/n) = 4*sqrt(2/1e5) ~ 0.018, rounded up
        n = 100_000
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), n, 1, seed=9)
        m2 = 2.0 * bf.ensemble_energy(quad_1d, ens)  # F = theta^2 / 2
        assert m2 == pytest.approx(1.0, abs=0.05)

    def test_nonfinite_value_reports_index(self, quad_1d):
        ens = make_ensemble([[0.0], [np.inf], [2.0]])
        with pytest.raises(bf.NumericError, match="particle 1"):
            bf.centered_rate(quad_1d, ens)


CERTAIN = bf.DynamicsConfig(variant="bd-only", dt=1.0, alpha=1.0)


def certain_pass(ens, kill=(), dup=(), rng=None):
    """One birth-death pass in which exactly the given particles die or clone.

    Rates of +-1e9 make each event probability 1 - exp(-1e9) == 1.0; the
    rates are given, and the pass reads no model.
    """
    rates = np.zeros(ens.n)
    rates[list(kill)] = 1e9
    rates[list(dup)] = -1e9
    return bf.birth_death_step(ens, CERTAIN, rng or np.random.default_rng(0), rates=rates)


class TestCloneKill:
    def test_exact_clone(self):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0, 0.0], std=1.0), 5, 2, seed=3)
        before = ens.thetas.copy()
        rep = certain_pass(ens, kill=[0], dup=[2])
        assert (rep.births, rep.deaths, rep.population_corrections) == (1, 1, 0)
        assert ens.n == 5
        assert np.array_equal(ens.thetas[4], before[2])
        assert ens.birth_ids[4] == 5  # fresh lineage id

    def test_kill_stable_order(self):
        ens = make_ensemble([[0.0], [1.0], [2.0]])
        certain_pass(ens, kill=[0], dup=[2])
        assert ens.thetas[:, 0].tolist() == [1.0, 2.0, 2.0]

    def test_kill_then_clone_restores_count(self):
        ens = make_ensemble([[0.0], [1.0]])
        rep = certain_pass(ens, kill=[0])
        assert ens.n == 2 and rep.population_corrections == 1
        assert ens.thetas[:, 0].tolist() == [1.0, 1.0]

    def test_kill_last_particle_refused(self):
        ens = make_ensemble([[0.0]])
        with pytest.raises(bf.ExtinctionError):
            certain_pass(ens, kill=[0])

    def test_clone_kill_shifts_expectation_by_single_particle_term(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            ens = bf.init_from_sampler(
                bf.GaussianSampler(mean=[0.0], std=2.0), n, 1, seed=int(rng.integers(1e6))
            )
            before = float(ens.weights @ np.sin(ens.thetas[:, 0])) / n
            i, j = rng.choice(n, size=2, replace=False)
            certain_pass(ens, kill=[i], dup=[j])
            after = float(ens.weights @ np.sin(ens.thetas[:, 0])) / n
            assert abs(after - before) <= 2.0 / n + 1e-12


def scanned_validate(ens):
    """`Ensemble.validate` as one entry-wise scan per check, in its order."""
    if ens.n < 1:
        raise bf.ExtinctionError("population must contain at least one particle")
    if ens.weights.shape != (ens.n,) or ens.birth_ids.shape != (ens.n,):
        raise bf.ConfigurationError(f"weights {ens.weights.shape} and birth ids {ens.birth_ids.shape} "
                                    f"must hold one entry per row, shape ({ens.n},)")
    if not np.all(np.isfinite(ens.thetas)):
        bad = int(np.flatnonzero(~np.isfinite(ens.thetas).all(axis=1))[0])
        raise bf.NumericError(f"non-finite parameters at particle {bad}")
    if not np.all(np.isfinite(ens.weights)):
        bad = int(np.flatnonzero(~np.isfinite(ens.weights))[0])
        raise bf.NumericError(f"non-finite weight at particle {bad}")
    if np.any(ens.weights < 0):
        raise bf.ConfigurationError("weights must be nonnegative")
    mean_w = float(ens.weights.mean())
    if abs(mean_w - 1.0) > WEIGHT_MEAN_RTOL * max(1.0, abs(mean_w)):
        raise bf.ConfigurationError(f"mean weight must be 1, got {mean_w!r}")


def outcome(check, ens):
    try:
        check(ens)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the exception itself
        return type(exc), str(exc)
    return None


ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.5, 1e308, -1e308, np.nan, np.inf, -np.inf])


class TestValidation:
    @settings(max_examples=200, deadline=None, database=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           theta_bad=st.lists(ENTRIES, max_size=3), weight_bad=st.lists(ENTRIES, max_size=3),
           unit=st.booleans(), short=st.booleans())
    def test_same_outcome_as_the_entry_wise_scans(self, n, d, seed, theta_bad, weight_bad, unit, short):
        """Its sums stand in for the scans: the same exception and message, or
        none, for non-finite entries, sums that overflow, negative weights,
        weights off mean 1 and weights reassigned one short of the rows."""
        rng = np.random.default_rng(seed)
        thetas = rng.normal(size=(n, d))
        weights = np.ones(n) if unit else rng.uniform(0.0, 2.0, n)
        thetas.flat[rng.integers(0, n * d, len(theta_bad))] = theta_bad
        weights[rng.integers(0, n, len(weight_bad))] = weight_bad
        ens = make_ensemble(thetas, weights)
        if short and n > 1:
            ens.weights = weights[1:]
        with np.errstate(over="ignore", invalid="ignore"):  # sums of +-1e308 overflow on both sides
            assert outcome(bf.Ensemble.validate, ens) == outcome(scanned_validate, ens)

    def test_mean_weight_must_be_one(self):
        ens = make_ensemble([[0.0], [1.0]], weights=[0.5, 0.6])
        with pytest.raises(bf.ConfigurationError):
            ens.validate()

    def test_nonfinite_positions_rejected(self):
        ens = make_ensemble([[0.0], [np.nan]])
        with pytest.raises(bf.NumericError, match="particle 1"):
            ens.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_weights_rejected(self, bad):
        # a NaN or inf weight makes the mean weight NaN or inf, which every
        # comparison of the mean check lets through
        ens = make_ensemble([[0.0], [1.0], [2.0]], weights=[1.0, bad, 2.0])
        with pytest.raises(bf.NumericError, match="particle 1"):
            ens.validate()

    @pytest.mark.parametrize("weights, birth_ids", [(np.ones(2), np.arange(3)), (np.ones(3), np.arange(5)),
                                                     (np.ones((3, 1)), np.arange(3))], ids=str)
    def test_one_weight_and_birth_id_per_row(self, weights, birth_ids):
        # two weights for three rows once passed validate(), then run_step raised IndexError
        with pytest.raises(bf.ConfigurationError, match="one entry per row"):
            bf.Ensemble(thetas=np.zeros((3, 1)), weights=weights, birth_ids=birth_ids)

    @pytest.mark.parametrize("name, value", [("weights", np.ones(2)), ("weights", np.ones(4)),
                                             ("birth_ids", np.arange(2))], ids=str)
    def test_reassigned_length_rejected(self, quad_1d, mixture_3c, name, value):
        # weights reassigned one short or long once passed validate(), and
        # ensemble_energy then raised numpy's bare ValueError
        ens = make_ensemble([[0.0], [1.0], [2.0]])
        setattr(ens, name, value)
        with pytest.raises(bf.ConfigurationError, match="one entry per row"):
            ens.validate()
        with pytest.raises(bf.ConfigurationError, match="one entry per row"):
            bf.ensemble_energy(quad_1d, ens)
        two_d = make_ensemble(np.zeros((3, 2)))
        setattr(two_d, name, value)
        with pytest.raises(bf.ConfigurationError, match="one entry per row"):
            bf.ensemble_energy(mixture_3c, two_d)

    @pytest.mark.parametrize("thetas", [[["a"]], [[True]], [[0.0], [1.0, 2.0]], [[np.nan]], [0.0, 1.0]],
                             ids=["string", "bool", "ragged", "nan-list", "rank-1"])
    def test_rows_must_be_finite_numbers(self, thetas):
        # [["a"]] once raised numpy's ValueError
        with pytest.raises(bf.ConfigurationError, match="thetas"):
            bf.Ensemble(thetas=thetas, weights=np.ones(1), birth_ids=np.arange(1))

    @pytest.mark.parametrize("weights, birth_ids, name", [
        (["a"], np.arange(1), "weights"), ([True], np.arange(1), "weights"),
        (np.ones(1), [0.7], "birth_ids"), (np.ones(1), ["x"], "birth_ids"),
    ], ids=["string-weight", "bool-weight", "fractional-id", "string-id"])
    def test_weights_and_birth_ids_must_be_numbers(self, weights, birth_ids, name):
        # ["a"] and ["x"] once raised numpy's ValueError, [True] became weight 1.0
        # and [0.7] was truncated to id 0
        with pytest.raises(bf.ConfigurationError, match=name):
            bf.Ensemble(thetas=np.zeros((1, 1)), weights=weights, birth_ids=birth_ids)

    def test_int_weights_and_ids_accepted(self):
        ens = bf.Ensemble(thetas=np.zeros((2, 1)), weights=[1, 1], birth_ids=[0, np.int32(4)])
        assert ens.weights.dtype == np.float64 and ens.birth_ids.dtype == np.int64
        assert ens.birth_ids.tolist() == [0, 4] and ens.next_birth_id == 5

    def test_int_rows_become_float(self):
        ens = bf.Ensemble(thetas=[[1], [2]], weights=np.ones(2), birth_ids=np.arange(2))
        assert ens.thetas.dtype == np.float64 and ens.thetas.tolist() == [[1.0], [2.0]]

    def test_gd_only_step_rejects_nan_weight(self, quad_1d):
        ens = make_ensemble([[0.5], [1.0]], weights=[np.nan, 1.0])
        with pytest.raises(bf.NumericError, match="weight at particle 0"):
            bf.run_step(quad_1d, ens, bf.DynamicsConfig(variant="gd-only", dt=0.1),
                        np.random.default_rng(0))


class TestSnapshotCsv:
    def test_header_and_roundtrip(self, mixture_1c, tmp_path):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=1.0))
        )
        ens = bf.init_from_sampler(init, 6, 2, seed=5)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path, mixture_1c)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "birth_id", "weight", "amplitude", "theta_0"]
        got = np.array([[float(r[3]), float(r[4])] for r in rows[1:]])
        np.testing.assert_array_equal(got, ens.thetas)  # 17 digits round-trip exactly

    def test_amplitude_column_empty_without_channel(self, quad_1d, tmp_path):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 3, 1, seed=6)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path, quad_1d)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert all(r[3] == "" for r in rows[1:])

    def test_failed_write_leaves_existing_snapshot_unchanged(self, quad_1d, tmp_path):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 4, 1, seed=7)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path, quad_1d)
        before = path.read_bytes()

        class Interrupt:
            def __format__(self, spec):
                raise RuntimeError("write interrupted")

        # the header and rows 0 and 1 are written to the temp file before row 2 fails
        moved = ens.copy()
        moved.thetas = moved.thetas + 1.0
        moved.weights = np.array([1.0, 1.0, Interrupt(), 1.0], dtype=object)
        with pytest.raises(RuntimeError, match="write interrupted"):
            bf.write_snapshot_csv(moved, path, quad_1d)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.csv"]  # no temp file left
