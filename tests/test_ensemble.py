import csv

import numpy as np
import pytest

import bdflow as bf

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

    def test_amplitude_layout(self):
        init = bf.ProductSampler(
            factors=(bf.PointSampler(at=[2.0]), bf.PointSampler(at=[5.0]))
        )
        ens = bf.init_from_sampler(init, 4, 1, seed=0, has_amplitude=True)
        np.testing.assert_array_equal(ens.amplitudes, np.full(4, 2.0))
        np.testing.assert_array_equal(ens.positions, np.full((4, 1), 5.0))


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
    rates are given, so no model is evaluated.
    """
    rates = np.zeros(ens.n)
    rates[list(kill)] = 1e9
    rates[list(dup)] = -1e9
    return bf.birth_death_step(None, ens, CERTAIN, rng or np.random.default_rng(0), rates=rates)


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


class TestValidation:
    def test_mean_weight_must_be_one(self):
        ens = make_ensemble([[0.0], [1.0]], weights=[0.5, 0.6])
        with pytest.raises(bf.ConfigurationError):
            ens.validate()

    def test_nonfinite_positions_rejected(self):
        ens = make_ensemble([[0.0], [np.nan]])
        with pytest.raises(bf.NumericError, match="particle 1"):
            ens.validate()


class TestSnapshotCsv:
    def test_header_and_roundtrip(self, tmp_path):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=1.0))
        )
        ens = bf.init_from_sampler(init, 6, 1, seed=5, has_amplitude=True)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "birth_id", "weight", "amplitude", "theta_0"]
        got = np.array([[float(r[3]), float(r[4])] for r in rows[1:]])
        np.testing.assert_array_equal(got, ens.thetas)  # 17 digits round-trip exactly

    def test_amplitude_column_empty_without_channel(self, tmp_path):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 3, 1, seed=6)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert all(r[3] == "" for r in rows[1:])

    def test_failed_write_leaves_existing_snapshot_unchanged(self, tmp_path):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 4, 1, seed=7)
        path = tmp_path / "snap.csv"
        bf.write_snapshot_csv(ens, path)
        before = path.read_bytes()

        class FailsAfterHeader(bf.Ensemble):
            @property
            def positions(self):
                raise RuntimeError("write interrupted")

        moved = FailsAfterHeader(thetas=ens.thetas + 1.0, weights=ens.weights, birth_ids=ens.birth_ids)
        with pytest.raises(RuntimeError, match="write interrupted"):
            bf.write_snapshot_csv(moved, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.csv"]  # no temp file left
