import numpy as np
import pytest
from scipy.integrate import quad

import bdflow as bf

from conftest import at, make_ensemble, numerical_grad_F, numerical_grad_K1


def target_density(model, x):
    """Mixture target evaluated pointwise (independent of the model code path)."""
    total = 0.0
    for c, y, s in zip(model.target_c, model.target_y[:, 0], model.target_sigma):
        total += c * np.exp(-((x - y) ** 2) / (2 * s**2)) / np.sqrt(2 * np.pi * s**2)
    return total / model.target_c.size


def unit_response(model, x, c, y):
    return c * np.exp(-((x - y) ** 2) / (2 * model.sigma**2)) / np.sqrt(
        2 * np.pi * model.sigma**2
    )


class TestQuadraticWell:
    def test_minimum(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = bf.QuadraticWellModel(minimizer=[1.0, -1.0], hessian=h)
        assert m.F(at([1.0, -1.0]))[0] == 0.0
        np.testing.assert_array_equal(m.grad_F(at([1.0, -1.0]))[0], [0.0, 0.0])

    def test_quadratic_form_value(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = bf.QuadraticWellModel(minimizer=[0.0, 0.0], hessian=h)
        th = np.array([0.7, -0.2])
        assert m.F(at(th))[0] == pytest.approx(0.5 * th @ h @ th, rel=1e-14)

    def test_requires_spd_hessian(self):
        with pytest.raises(bf.ConfigurationError):
            bf.QuadraticWellModel(minimizer=[0.0], hessian=-1.0)


class TestDoubleWell:
    def test_global_minimum_is_zero(self):
        m = bf.DoubleWellModel(height=1.0, tilt=0.5)
        assert m.F(at(m.minimizer))[0] == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.norm(m.grad_F(at(m.minimizer))[0]) < 1e-10
        # tilted well: the other basin sits strictly higher
        assert m.F(at([-m.minimizer[0]]))[0] > 0.1

    def test_one_dimensional_only(self):
        m = bf.DoubleWellModel()
        with pytest.raises(bf.ConfigurationError):
            m.F(np.zeros((2, 2)))


class TestMixtureClosedForms:
    def test_zero_amplitude_zeroes_f(self, mixture_1c):
        assert mixture_1c.F(at([0.0, 1.3]))[0] == 0.0

    def test_f_against_quadrature(self, mixture_1c):
        theta = [1.0, 0.0]  # amplitude 1 at position 0
        val = mixture_1c.F(at(theta))[0]
        oracle, err = quad(
            lambda x: -target_density(mixture_1c, x) * unit_response(mixture_1c, x, 1.0, 0.0),
            -12.0, 12.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_k_against_quadrature(self, mixture_1c):
        a, b = [1.0, 0.0], [1.0, 1.0]
        val = mixture_1c.K_block(at(a), at(b))[0, 0]
        oracle, err = quad(
            lambda x: unit_response(mixture_1c, x, 1.0, 0.0) * unit_response(mixture_1c, x, 1.0, 1.0),
            -12.0, 12.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_k_symmetry_random_pairs(self, mixture_3c):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            assert mixture_3c.K_block(at(a), at(b))[0, 0] == pytest.approx(
                mixture_3c.K_block(at(b), at(a))[0, 0], rel=1e-13
            )

    def test_k_vanishes_with_zero_amplitude(self, mixture_3c):
        assert mixture_3c.K_block(at([0.0, 0.5]), at([2.0, 0.6]))[0, 0] == 0.0
        assert mixture_3c.K_block(at([2.0, 0.5]), at([0.0, 0.6]))[0, 0] == 0.0

    def test_gram_matrix_positive_semidefinite(self, mixture_3c):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            thetas = np.column_stack([np.ones(k), rng.normal(scale=2.0, size=k)])
            gram = mixture_3c.K_block(thetas, thetas)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_bandwidth_constraint_enforced(self):
        with pytest.raises(bf.ConfigurationError):
            bf.GaussianMixtureModel(
                target_c=[1.0], target_y=[[0.0]], target_sigma=[0.3], sigma=0.4
            )


class TestGradientChecks:
    """Analytic gradients vs central differences (h = 1e-5, rel err < 1e-6)."""

    H = 1e-5

    def _check_grad_f(self, model, rng, scale=1.0):
        for _ in range(50):
            th = rng.normal(scale=scale, size=model.theta_dim)
            ana = model.grad_F(at(th))[0]
            num = np.array(
                [
                    (model.F(at(th + self.H * e))[0] - model.F(at(th - self.H * e))[0])
                    / (2 * self.H)
                    for e in np.eye(model.theta_dim)
                ]
            )
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))

    def test_quadratic(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        m = bf.QuadraticWellModel(minimizer=rng.normal(size=3), hessian=a @ a.T + np.eye(3))
        self._check_grad_f(m, rng)

    def test_double_well(self):
        self._check_grad_f(bf.DoubleWellModel(), np.random.default_rng(3), scale=1.5)

    def test_mixture_dynamic(self, mixture_3c):
        self._check_grad_f(mixture_3c, np.random.default_rng(4), scale=2.0)

    def test_mixture_frozen(self, mixture_frozen):
        self._check_grad_f(mixture_frozen, np.random.default_rng(5), scale=2.0)

    def test_kernel_gradient_first_slot(self, mixture_3c):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(scale=1.5, size=2)
            b = rng.normal(scale=1.5, size=2)
            _, fsum = mixture_3c.kernel_weighted_sums(at(a), at(b), np.ones(1))
            ana = fsum[0]
            num = numerical_grad_K1(mixture_3c, a, b, h=self.H)
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))


class TestParticlePotential:
    def test_reduces_to_f_without_interaction(self, quad_1d):
        ens = make_ensemble([[1.0], [3.0]])
        np.testing.assert_array_equal(bf.potential(quad_1d, ens), quad_1d.F(ens.thetas))
        assert bf.potential(quad_1d, ens, [[1.0]])[0] == quad_1d.F(at([1.0]))[0]

    def test_single_particle_at_minimum(self, quad_1d):
        ens = make_ensemble([[0.0]])
        assert bf.potential(quad_1d, ens)[0] == 0.0

    def test_three_particle_mixture_against_direct_sum(self, mixture_3c):
        rng = np.random.default_rng(7)
        ens = make_ensemble(rng.normal(size=(3, 2)), has_amplitude=True)
        v = bf.potential(mixture_3c, ens)
        for i in range(3):
            direct = mixture_3c.F(at(ens.thetas[i]))[0] + sum(
                ens.weights[j] * mixture_3c.K_block(at(ens.thetas[i]), at(ens.thetas[j]))[0, 0]
                for j in range(3)
            ) / 3.0
            assert v[i] == pytest.approx(direct, rel=1e-12)
            assert bf.potential(mixture_3c, ens, ens.thetas[i])[0] == pytest.approx(v[i], rel=1e-13)


class TestField:
    MODELS = {
        "dynamic-1d": dict(target_c=[1.0, -0.5], target_y=[[-1.0], [1.0]],
                           target_sigma=[0.6, 0.6], sigma=0.4),
        "frozen-1d": dict(target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]],
                          target_sigma=[0.8, 0.8], sigma=0.5, amplitude_mode="frozen"),
        "dynamic-2d": dict(target_c=[1.0, -0.5], target_y=[[-1.0, 0.5], [1.0, 0.0]],
                           target_sigma=[0.6, 0.7], sigma=0.4),
        "frozen-2d": dict(target_c=[1.0, 1.0], target_y=[[-1.5, 0.0], [1.5, 1.0]],
                          target_sigma=[0.8, 0.8], sigma=0.5, amplitude_mode="frozen",
                          frozen_c=0.7),
    }

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_values_bitwise_equal_potential(self, kind):
        model = bf.GaussianMixtureModel(**self.MODELS[kind])
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, 23)
        ens = make_ensemble(rng.normal(size=(23, model.theta_dim)), weights=w / w.mean(),
                            has_amplitude=model.has_amplitude)
        v, _ = bf.field(model, ens)
        np.testing.assert_array_equal(v, bf.potential(model, ens))

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_gradient_matches_finite_differences(self, kind):
        model = bf.GaussianMixtureModel(**self.MODELS[kind])
        rng = np.random.default_rng(12)
        thetas = rng.normal(size=(4, model.theta_dim))
        ens = make_ensemble(thetas, has_amplitude=model.has_amplitude)
        _, grad = bf.field(model, ens)
        for i in range(4):
            num = numerical_grad_F(model, thetas[i], h=1e-5)
            for j in range(4):
                num = num + numerical_grad_K1(model, thetas[i], thetas[j], h=1e-5) / 4.0
            np.testing.assert_allclose(grad[i], num, atol=1e-8)


class TestExactMixtureLoss:
    def test_nonnegative(self, mixture_3c):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ens = make_ensemble(rng.normal(size=(6, 2)), has_amplitude=True)
            assert bf.exact_mixture_loss(mixture_3c, ens) >= 0.0

    def test_zero_amplitudes_give_target_self_energy(self, mixture_3c):
        thetas = np.column_stack([np.zeros(4), np.linspace(-2, 2, 4)])
        ens = make_ensemble(thetas, has_amplitude=True)
        loss = bf.exact_mixture_loss(mixture_3c, ens)
        assert loss == pytest.approx(mixture_3c.target_self_energy, rel=1e-12)
        oracle, _ = quad(
            lambda x: 0.5 * target_density(mixture_3c, x) ** 2, -12.0, 12.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert loss == pytest.approx(oracle, rel=1e-8)

    def test_against_quadrature_random_config(self, mixture_1c):
        rng = np.random.default_rng(9)
        thetas = np.column_stack([rng.normal(size=5), rng.normal(size=5)])
        ens = make_ensemble(thetas, has_amplitude=True)

        def residual_sq(x):
            fn = sum(
                ens.weights[i] * unit_response(mixture_1c, x, thetas[i, 0], thetas[i, 1])
                for i in range(5)
            ) / 5.0
            return 0.5 * (target_density(mixture_1c, x) - fn) ** 2

        oracle, err = quad(residual_sq, -14.0, 14.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert bf.exact_mixture_loss(mixture_1c, ens) == pytest.approx(oracle, rel=1e-6)

    def test_energy_decomposition_identity(self, mixture_3c):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ens = make_ensemble(rng.normal(size=(7, 2)), has_amplitude=True)
            lhs = bf.exact_mixture_loss(mixture_3c, ens)
            rhs = mixture_3c.target_self_energy + bf.ensemble_energy(mixture_3c, ens)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestReluStudentTeacher:
    def test_exact_operations_unavailable(self):
        m = bf.ReLUStudentTeacherModel(input_dim=4, teacher_units=2, batch_size=8, teacher_seed=0)
        with pytest.raises(bf.UnsupportedOperationError):
            m.F(np.zeros((1, 5)))
        with pytest.raises(bf.UnsupportedOperationError):
            m.K_block(np.zeros((1, 5)), np.zeros((1, 5)))

    def test_student_equals_teacher_zero_potential(self):
        m = bf.ReLUStudentTeacherModel(input_dim=6, teacher_units=4, batch_size=32, teacher_seed=1)
        thetas = np.column_stack([m.teacher_c, m.teacher_y])
        ens = make_ensemble(thetas, has_amplitude=True)
        x = m.sample_batch(np.random.default_rng(2))
        vhat = m.batch_potential_hat(ens.thetas, ens.weights, x)
        np.testing.assert_allclose(vhat, 0.0, atol=1e-14)

    def test_single_sample_hand_value(self):
        m = bf.ReLUStudentTeacherModel(input_dim=1, teacher_units=1, batch_size=1, teacher_seed=0)
        cbar, ybar = m.teacher_c[0], m.teacher_y[0, 0]
        c, y, x0 = 2.0, -0.3, 0.7
        ens = make_ensemble([[c, y]], has_amplitude=True)
        x = np.array([[x0]])
        f_teacher = cbar * max(0.0, ybar * x0)
        f_student = c * max(0.0, y * x0)
        expected = max(0.0, y * x0) * (f_student - f_teacher)
        assert m.batch_potential_hat(ens.thetas, ens.weights, x)[0] == pytest.approx(expected, rel=1e-14)

    def test_vhat_is_scaled_amplitude_gradient(self):
        # vhat equals n * d(batch loss)/dc_i on a fixed batch
        m = bf.ReLUStudentTeacherModel(input_dim=5, teacher_units=3, batch_size=16, teacher_seed=3)
        rng = np.random.default_rng(4)
        n = 7
        thetas = np.column_stack([rng.normal(size=n), rng.normal(size=(n, 5))])
        w = np.ones(n)
        x = m.sample_batch(rng)
        vhat = m.batch_potential_hat(thetas, w, x)
        h = 1e-6
        for i in range(n):
            up, dn = thetas.copy(), thetas.copy()
            up[i, 0] += h
            dn[i, 0] -= h
            fd = n * (m.batch_loss(up, w, x) - m.batch_loss(dn, w, x)) / (2 * h)
            assert vhat[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_position_gradient_matches_batch_loss(self):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=8, teacher_seed=5)
        rng = np.random.default_rng(6)
        n = 4
        thetas = np.column_stack([rng.normal(size=n), rng.normal(size=(n, 3))])
        w = np.ones(n)
        x = m.sample_batch(rng)
        grad = m.batch_grad_V(thetas, w, x)
        h = 1e-6
        for i in range(n):
            for d in range(1, 4):
                up, dn = thetas.copy(), thetas.copy()
                up[i, d] += h
                dn[i, d] -= h
                fd = n * (m.batch_loss(up, w, x) - m.batch_loss(dn, w, x)) / (2 * h)
                assert grad[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("estimate", ["batch_potential_hat", "batch_grad_V", "batch_loss"])
    def test_empty_batch_rejected(self, estimate):
        m = bf.ReLUStudentTeacherModel(input_dim=2, teacher_units=1, batch_size=4, teacher_seed=7)
        ens = make_ensemble([[1.0, 0.0, 0.0]], has_amplitude=True)
        with pytest.raises(bf.ConfigurationError):
            getattr(m, estimate)(ens.thetas, ens.weights, np.zeros((0, 2)))

    def test_teacher_dump(self, tmp_path):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=5, batch_size=4, teacher_seed=8)
        path = tmp_path / "teacher.csv"
        m.dump_teacher_csv(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 6
        amps = [float(r.split(",")[1]) for r in rows[1:]]
        assert set(amps) <= {-1.0, 1.0}
        norms = [np.linalg.norm([float(v) for v in r.split(",")[2:]]) for r in rows[1:]]
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


class TestBuildModel:
    def test_unknown_keys_rejected(self):
        with pytest.raises(bf.ConfigurationError):
            bf.build_model({"kind": "quadratic-well", "minimizer": [0.0], "hesian": 1.0})
        with pytest.raises(bf.ConfigurationError):
            bf.build_model({"kind": "mystery"})

    def test_mixture_roundtrip(self):
        spec = {
            "kind": "gaussian-mixture",
            "components": [{"c": 1.0, "y": [0.0], "sigma": 1.0}],
            "sigma": 0.5,
        }
        m = bf.build_model(spec)
        assert isinstance(m, bf.GaussianMixtureModel)
        assert m.has_amplitude and m.theta_dim == 2


class TestMinibatchEntryPoint:
    """`potential` and `field` on the ReLU model: estimates on a given batch."""

    @pytest.fixture
    def relu_ens(self):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=8, teacher_seed=4)
        rng = np.random.default_rng(5)
        ens = make_ensemble(np.column_stack([rng.normal(size=6), rng.normal(size=(6, 3))]),
                            has_amplitude=True)
        return m, ens, m.sample_batch(rng)

    @pytest.mark.parametrize("call", [
        lambda m, ens: bf.potential(m, ens),
        lambda m, ens: bf.field(m, ens),
        lambda m, ens: bf.centered_rate(m, ens),
        lambda m, ens: bf.gd_step(m, ens, 0.1),
    ], ids=["potential", "field", "centered_rate", "gd_step"])
    def test_missing_batch_rejected(self, relu_ens, call):
        m, ens, _ = relu_ens
        with pytest.raises(bf.ConfigurationError):
            call(m, ens)

    def test_probe_points_rejected(self, relu_ens):
        m, ens, x = relu_ens
        with pytest.raises(bf.ConfigurationError):
            bf.potential(m, ens, points=ens.thetas, batch=x)

    def test_field_is_the_batch_estimates(self, relu_ens):
        m, ens, x = relu_ens
        v, grad = bf.field(m, ens, x)
        vhat = m.batch_potential_hat(ens.thetas, ens.weights, x)
        assert np.array_equal(v, ens.thetas[:, 0] * vhat)
        assert np.array_equal(grad, m.batch_grad_V(ens.thetas, ens.weights, x))
        assert np.array_equal(bf.potential(m, ens, batch=x), v)
