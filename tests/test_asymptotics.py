import numpy as np
import pytest
import scipy.sparse as sp

from riskbound import asymptotics
from riskbound.core import (
    DirectionNotTangent,
    LossMatrix,
    NumericalFailure,
    TooFewSamples,
    validate_marginal,
)
from riskbound.asymptotics import (
    CltExperiment,
    DualFace,
    anderson_darling_normal,
    hadamard_derivative,
    multinomial_covariance,
    sample_empirical,
    simulate_error_distribution,
    simulate_limit_distribution,
)
from riskbound.bounds import solve_mes
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance
from riskbound.lpsolver import LinearProgram
from riskbound.rng import box_muller, make_rng, substream

from lp_reference import reference_solve
from test_bounds import degenerate_instance


def tie_instance():
    """L = x + y on x in {0,1}, y in {0,2}, uniform marginals, alpha = 0.5:
    alpha sits exactly on a cumulative boundary, so the dual optimum is a
    nontrivial face and V'(g,-g;h,-h) = min(0,-2g) + min(0,-4h)."""
    mu = validate_marginal([0.5, 0.5])
    nu = validate_marginal([0.5, 0.5])
    loss = LossMatrix(np.array([[0.0, 2.0], [1.0, 3.0]]))
    return mu, nu, loss, 0.5


def unique_instance():
    mu = validate_marginal([0.3, 0.7])
    nu = validate_marginal([0.6, 0.4])
    loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.3]]))
    return mu, nu, loss, 0.45


def random_small(rng, max_side=5):
    m = int(rng.integers(2, max_side + 1))
    n = int(rng.integers(2, max_side + 1))
    mu = validate_marginal(rng.dirichlet(np.ones(m)))
    nu = validate_marginal(rng.dirichlet(np.ones(n)))
    loss = LossMatrix(rng.normal(size=(m, n)))
    return mu, nu, loss


def tangent_direction(rng, size):
    d = rng.normal(size=size)
    return d - d.mean()


class TestSampleEmpirical:
    def test_single_draw_is_dirac(self):
        p = validate_marginal([0.25, 0.25, 0.5])
        emp = sample_empirical(p, 1, make_rng(7))
        assert sorted(emp.weights.tolist()) == [0.0, 0.0, 1.0]

    def test_dirac_is_fixed_point(self):
        p = validate_marginal([0.0, 1.0, 0.0])
        for n in (1, 10, 1000):
            emp = sample_empirical(p, n, make_rng(3))
            assert np.array_equal(emp.weights, p.weights)

    def test_concentration_large_n(self):
        p = validate_marginal([0.5, 0.5])
        emp = sample_empirical(p, 10 ** 6, make_rng(123))
        assert np.max(np.abs(emp.weights - 0.5)) < 0.01

    def test_weights_are_multiples_of_inverse_n(self):
        p = validate_marginal([0.3, 0.3, 0.4])
        emp = sample_empirical(p, 17, make_rng(5))
        scaled = emp.weights * 17
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)
        assert int(round(scaled.sum())) == 17


class TestMultinomialCovariance:
    def test_half_half(self):
        p = validate_marginal([0.5, 0.5])
        assert np.allclose(multinomial_covariance(p),
                           [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_dirac_is_zero(self):
        p = validate_marginal([1.0])
        assert np.allclose(multinomial_covariance(p), [[0.0]])

    def test_three_point_formula(self):
        p = validate_marginal([0.2, 0.3, 0.5])
        cov = multinomial_covariance(p)
        assert np.allclose(np.diag(cov), [0.16, 0.21, 0.25])
        assert cov[0, 1] == pytest.approx(-0.06)
        assert np.abs(cov.sum(axis=1)).max() <= 1e-12
        ones = np.ones(3)
        assert abs(ones @ cov @ ones) <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-12


class TestHadamardDerivative:
    def test_zero_direction(self):
        mu, nu, loss, a = unique_instance()
        assert hadamard_derivative(mu, nu, loss, a, np.zeros(2), np.zeros(2)) \
            == pytest.approx(0.0, abs=1e-7)

    def test_positive_homogeneity(self):
        mu, nu, loss, a = tie_instance()
        face = DualFace(mu, nu, loss, a)
        d_mu = np.array([0.07, -0.07])
        d_nu = np.array([-0.03, 0.03])
        v1 = face.derivative(d_mu, d_nu)
        v2 = face.derivative(2.0 * d_mu, 2.0 * d_nu)
        assert v2 == pytest.approx(2.0 * v1, abs=1e-7)

    def test_closed_form_on_tie_instance(self):
        mu, nu, loss, a = tie_instance()
        face = DualFace(mu, nu, loss, a)
        for g, h in [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.1, 0.1), (-0.05, 0.02)]:
            got = face.derivative(np.array([g, -g]), np.array([h, -h]))
            assert got == pytest.approx(min(0.0, -2.0 * g) + min(0.0, -4.0 * h), abs=1e-6)

    def test_superadditivity(self):
        mu, nu, loss, a = tie_instance()
        face = DualFace(mu, nu, loss, a)
        rng = np.random.default_rng(15)
        for _ in range(10):
            d1m, d2m = tangent_direction(rng, 2), tangent_direction(rng, 2)
            d1n, d2n = tangent_direction(rng, 2), tangent_direction(rng, 2)
            lhs = face.derivative(d1m + d2m, d1n + d2n)
            rhs = face.derivative(d1m, d1n) + face.derivative(d2m, d2n)
            assert lhs >= rhs - 1e-6

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            mu, nu, loss = random_small(rng)
            a = float(rng.uniform(0.15, 0.85))
            face = DualFace(mu, nu, loss, a)
            d_mu = tangent_direction(rng, mu.size) * 0.5
            d_nu = tangent_direction(rng, nu.size) * 0.5
            # keep mu + t d inside the simplex for the probe steps
            t = 1e-4
            if np.any(mu.weights + t * d_mu < 0) or np.any(nu.weights + t * d_nu < 0):
                continue
            v0 = face.value
            deriv = face.derivative(d_mu, d_nu)
            mu_t = validate_marginal(mu.weights + t * d_mu)
            nu_t = validate_marginal(nu.weights + t * d_nu)
            fd = (solve_mes(mu_t, nu_t, loss, a).value - v0) / t
            assert deriv == pytest.approx(fd, abs=1e-8)

    def test_unique_dual_antisymmetry(self):
        mu, nu, loss, a = unique_instance()
        face = DualFace(mu, nu, loss, a)
        rng = np.random.default_rng(2)
        for _ in range(5):
            d_mu = tangent_direction(rng, 2)
            d_nu = tangent_direction(rng, 2)
            assert abs(face.asymmetry(d_mu, d_nu)) <= 1e-5

    def test_not_tangent_rejected(self):
        mu, nu, loss, a = unique_instance()
        with pytest.raises(DirectionNotTangent):
            hadamard_derivative(mu, nu, loss, a, np.array([0.1, 0.1]), np.zeros(2))

    def test_linearity_diagnostic(self):
        mu, nu, loss, a = tie_instance()
        assert not DualFace(mu, nu, loss, a).linearity_diagnostic(seed=4)["linear"]
        mu, nu, loss, a = unique_instance()
        assert DualFace(mu, nu, loss, a).linearity_diagnostic(seed=4)["linear"]


def hand_built_mes_dual(mu, nu, loss, alpha, c, face_value=None):
    """The MES dual assembled by hand, minimizing ``c``: phi, psi, one
    rho >= 0 per cell and beta, with rho - (1-a)(phi + psi) <= 0,
    -rho - beta <= -L and phi[0] = 0, plus the face row
    phi.mu + psi.nu + beta <= face_value when one is given; solved by the
    linprog reference."""
    nx, ny = loss.shape
    n = nx * ny
    nv = nx + ny + n + 1
    one_m_a = 1.0 - alpha
    ii = np.repeat(np.arange(nx), ny)
    jj = np.tile(np.arange(ny), nx)
    cell = np.arange(n)
    rows = np.concatenate([cell, cell, cell, n + cell, n + cell])
    cols = np.concatenate([nx + ny + cell, ii, nx + jj, nx + ny + cell, np.full(n, nv - 1)])
    vals = np.concatenate([np.ones(n), -one_m_a * np.ones(2 * n), -np.ones(2 * n)])
    b_ub = np.concatenate([np.zeros(n), -loss.values.ravel()])
    if face_value is not None:
        rows = np.concatenate([rows, np.full(nx + ny + 1, 2 * n)])
        cols = np.concatenate([cols, np.arange(nx), nx + np.arange(ny), [nv - 1]])
        vals = np.concatenate([vals, mu.weights, nu.weights, [1.0]])
        b_ub = np.concatenate([b_ub, [face_value]])
    a_ub = sp.csr_matrix((vals, (rows, cols)), shape=(b_ub.size, nv))
    lb = np.concatenate([np.full(nx + ny, -np.inf), np.zeros(n), [-np.inf]])
    ub = np.full(nv, np.inf)
    lb[0] = ub[0] = 0.0
    return reference_solve(LinearProgram(sense="min", c=c, a_ub=a_ub, b_ub=b_ub),
                           bounds=np.column_stack([lb, ub]))


def slacked_face_derivative(mu, nu, loss, alpha, value, d_mu, d_nu):
    """Min of phi.d_mu + psi.d_nu over the dual face slackened to V + 1e-7:
    a lower bound on the derivative."""
    c = np.concatenate([d_mu, d_nu, np.zeros(loss.values.size + 1)])
    return hand_built_mes_dual(mu, nu, loss, alpha, c, face_value=value + 1e-7)["objective"]


def lexicographic_derivative(mu, nu, loss, alpha, value, d_mu, d_nu, t=1e-5):
    """The whole hand-built dual minimized at b + t d, b = (mu, nu, 1): for t
    below the first kink of the value along d its optimum lies on the face
    and minimizes d there."""
    b = np.concatenate([mu.weights, nu.weights, np.zeros(loss.values.size), [1.0]])
    d = np.concatenate([d_mu, d_nu, np.zeros(loss.values.size + 1)])
    y = hand_built_mes_dual(mu, nu, loss, alpha, b + t * d)["x"]
    assert y @ b <= value + 1e-7
    return float(y @ d)


def face_direction(rng, p):
    """A tangent direction that moves mass onto some zero atoms, never off."""
    d = rng.normal(size=p.size)
    zero = p.weights == 0.0
    d[zero] = np.abs(d[zero]) * (rng.random(zero.sum()) < 0.5)
    d[~zero] -= d.sum() / (~zero).sum()
    return d


class TestDualFaceProgram:
    def test_equals_hand_built_mes_face(self):
        rng = np.random.default_rng(808)
        for k in range(200):
            mu, nu, loss = degenerate_instance(rng, max_side=6)
            a = (0.1, 0.5, 0.9, 0.99)[k % 4]
            face = DualFace(mu, nu, loss, a)
            for _ in range(3):
                d_mu, d_nu = face_direction(rng, mu), face_direction(rng, nu)
                ref = lexicographic_derivative(mu, nu, loss, a, face.value, d_mu, d_nu)
                got = face.derivative(d_mu, d_nu)
                assert got == pytest.approx(ref, abs=1e-9)
                assert got >= slacked_face_derivative(mu, nu, loss, a, face.value,
                                                      d_mu, d_nu) - 1e-9

    @pytest.mark.parametrize("alpha", [0.5 + 1e-7, 0.5 - 1e-7])
    def test_one_face_near_a_kink(self, alpha):
        # the kink lies about 1e-7 away in alpha, so the reference steps below it
        mu, nu, loss, _ = tie_instance()
        face = DualFace(mu, nu, loss, alpha)
        rng = np.random.default_rng(0)
        for _ in range(50):
            d_mu, d_nu = tangent_direction(rng, 2), tangent_direction(rng, 2)
            ref = lexicographic_derivative(mu, nu, loss, alpha, face.value, d_mu, d_nu, t=1e-8)
            assert face.derivative(d_mu, d_nu) == pytest.approx(ref, abs=1e-9)

    def test_one_certified_solve_per_derivative(self, monkeypatch):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 60, 31)
        calls = {"solve_mes": 0, "solve_lp": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(asymptotics, "solve_mes", spy("solve_mes", asymptotics.solve_mes))
        monkeypatch.setattr(asymptotics, "solve_lp", spy("solve_lp", asymptotics.solve_lp))
        face = DualFace(mu, nu, loss, 0.9)
        rng = np.random.default_rng(60)
        for _ in range(20):
            before = calls["solve_mes"]
            face.derivative(tangent_direction(rng, mu.size), tangent_direction(rng, nu.size))
            assert calls["solve_mes"] == before + 1
        assert calls["solve_lp"] == 0

    def test_off_face_certificates_raise_after_the_last_step(self, monkeypatch):
        mu, nu, loss, a = unique_instance()
        face = DualFace(mu, nu, loss, a)
        solves = []
        monkeypatch.setattr(asymptotics, "_FACE_TOL", -1.0)
        monkeypatch.setattr(asymptotics, "solve_mes",
                            lambda *args: solves.append(args) or solve_mes(*args))
        with pytest.raises(NumericalFailure, match="no certificate on the optimal face"):
            face.derivative(np.array([0.1, -0.1]), np.array([-0.2, 0.2]))
        assert len(solves) == asymptotics._STEP_TRIES
        steps = [args[0].weights[0] - mu.weights[0] for args in solves]
        assert steps[1:] == pytest.approx([s / 16.0 for s in steps[:-1]], rel=1e-6)


class TestErrorSimulation:
    def test_dirac_marginals_give_zero(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        loss = LossMatrix(np.array([[2.0]]))
        exp = CltExperiment(mu=mu, nu=nu, loss=loss, alpha=0.5,
                            n_x=10, n_y=10, replications=5, seed=1)
        dev = simulate_error_distribution(exp)
        assert np.array_equal(dev, np.zeros(5))

    def test_consistency_large_n(self):
        mu, nu, loss, a = unique_instance()
        exp = CltExperiment(mu=mu, nu=nu, loss=loss, alpha=a,
                            n_x=10 ** 6, n_y=10 ** 6, replications=1, seed=4)
        dev = simulate_error_distribution(exp)
        # sqrt(n)-scaled deviation stays O(1); the raw error is O(n^{-1/2})
        assert abs(dev[0]) / np.sqrt(10 ** 6) < 5e-3

    def test_determinism(self):
        mu, nu, loss, a = unique_instance()
        exp = CltExperiment(mu=mu, nu=nu, loss=loss, alpha=a,
                            n_x=50, n_y=50, replications=8, seed=99)
        d1 = simulate_error_distribution(exp)
        d2 = simulate_error_distribution(exp)
        assert np.array_equal(d1, d2)

    def test_mean_matches_limit_mean_unique_dual(self):
        mu, nu, loss, a = unique_instance()
        R = 220
        exp = CltExperiment(mu=mu, nu=nu, loss=loss, alpha=a,
                            n_x=400, n_y=400, replications=R, seed=31)
        dev = simulate_error_distribution(exp)
        limit = simulate_limit_distribution(mu, nu, loss, a, 1200, 314)
        se = np.sqrt(dev.var(ddof=1) / R + limit.draws.var(ddof=1) / limit.draws.size)
        assert abs(dev.mean() - limit.draws.mean()) <= 3.0 * se


class TestLimitSimulation:
    def test_dirac_marginals_all_zero(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        loss = LossMatrix(np.array([[1.5]]))
        ls = simulate_limit_distribution(mu, nu, loss, 0.5, 20, 11)
        assert np.allclose(ls.draws, 0.0, atol=1e-7)

    def test_unique_dual_gaussian(self):
        mu, nu, loss, a = unique_instance()
        ls = simulate_limit_distribution(mu, nu, loss, a, 500, 12345)
        stat, p, reject = anderson_darling_normal(ls.draws)
        assert not reject

    def test_dual_tie_non_gaussian(self):
        mu, nu, loss, a = tie_instance()
        ls = simulate_limit_distribution(mu, nu, loss, a, 500, 2024)
        stat, p, reject = anderson_darling_normal(ls.draws)
        assert reject

    def test_determinism_by_seed(self):
        mu, nu, loss, a = unique_instance()
        d1 = simulate_limit_distribution(mu, nu, loss, a, 25, 5).draws
        d2 = simulate_limit_distribution(mu, nu, loss, a, 25, 5).draws
        assert np.array_equal(d1, d2)


class TestAndersonDarling:
    def test_normal_sample_not_rejected(self):
        draws = box_muller(make_rng(42), 1000)
        stat, p, reject = anderson_darling_normal(draws)
        assert not reject
        assert p > 0.05

    def test_uniform_sample_rejected(self):
        rng = make_rng(43)
        stat, p, reject = anderson_darling_normal(rng.random(1000))
        assert reject
        assert p < 0.05

    def test_constant_sample_degenerate(self):
        stat, p, reject = anderson_darling_normal(np.full(50, 3.0))
        assert reject
        assert p == 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            anderson_darling_normal(np.arange(7.0))

    def test_statistic_against_reference_sample(self):
        # reference values computed with the statsmodels normal_ad formula
        x = np.array([-0.1184, -1.3403, 0.0063, -0.612, -0.3869, -0.2313,
                      -2.8485, -0.2167, 0.4153, 1.8492, -0.3706, 0.9726,
                      -0.1501, -0.0337, -1.4423, 1.2489, 0.9182, -0.2331,
                      -0.6182, 0.183])
        stat, p, reject = anderson_darling_normal(x)
        assert stat == pytest.approx(0.58672353588821502 * (1 + 0.75 / 20 + 2.25 / 400),
                                     rel=1e-10)
        assert p == pytest.approx(0.1115380760041617, abs=2e-3)
        assert not reject


class TestSubstreams:
    def test_substreams_disjoint_and_reproducible(self):
        a1 = substream(7, 0).random(4)
        a2 = substream(7, 1).random(4)
        assert not np.allclose(a1, a2)
        assert np.array_equal(a1, substream(7, 0).random(4))
