import numpy as np
import pytest

from riskbound.core import DomainError, InvalidParams
from riskbound.losses import (
    CcrParams,
    DEFAULT_CCR_PARAMS,
    build_ccr_instance,
    build_gaussian_linear_instance,
    normal_cdf,
    normal_inv_cdf,
    vasicek_ccr_loss,
)
from riskbound.riskmeasures import DiscreteLaw, es_tail_average
from riskbound.bounds import solve_mes


def bisect_inv_cdf(p, lo=-40.0, hi=40.0):
    """Reference quantile by bisection on the cdf itself."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormal:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile_002(self):
        ref = bisect_inv_cdf(0.02)
        assert normal_inv_cdf(0.02) == pytest.approx(ref, abs=1e-10)
        assert normal_inv_cdf(0.02) == pytest.approx(-2.053749, abs=1e-6)

    def test_cdf_at_1959964(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_round_trip(self):
        ps = np.concatenate([
            np.geomspace(1e-8, 0.4, 300),
            1.0 - np.geomspace(1e-8, 0.4, 300),
            np.linspace(0.3, 0.7, 101),
        ])
        x = normal_inv_cdf(ps)
        assert np.max(np.abs(normal_cdf(x) - ps)) <= 1e-10

    def test_cdf_strictly_increasing(self):
        # restricted to the range where increments clear double-precision spacing
        xs = np.linspace(-6.0, 6.0, 4001)
        assert np.all(np.diff(normal_cdf(xs)) > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_inv_cdf(0.0)
        with pytest.raises(DomainError):
            normal_inv_cdf(1.0)


class TestVasicekLoss:
    def test_zero_loading_half_pd(self):
        p = CcrParams(pd1=0.5, pd2=0.5, rho1=0.0, rho2=0.0, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)
        assert vasicek_ccr_loss(1.7, 10.0, 10.0, p) == pytest.approx(10.0, abs=1e-12)

    def test_negative_exposure_ignored(self):
        p = CcrParams(pd1=0.02, pd2=0.02, rho1=0.2, rho2=0.2, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)
        val = vasicek_ccr_loss(0.0, 100.0, -100.0, p)
        # 100 * Phi(Phi^{-1}(0.02)/sqrt(0.8))
        assert val == pytest.approx(100.0 * normal_cdf(normal_inv_cdf(0.02) / np.sqrt(0.8)),
                                    abs=1e-9)
        assert val == pytest.approx(1.084, abs=2e-3)

    def test_benign_systemic_state(self):
        p = CcrParams(pd1=0.02, pd2=0.02, rho1=0.2, rho2=0.2, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)
        # exact value is 200 * Phi(-6.296) ~ 3e-8: negligible for a
        # 200-unit portfolio
        assert vasicek_ccr_loss(8.0, 100.0, 100.0, p) < 1e-7

    def test_nonnegative_and_monotone_in_x(self):
        rng = np.random.default_rng(4)
        p = DEFAULT_CCR_PARAMS
        xs = np.linspace(-5.0, 5.0, 41)
        vals = vasicek_ccr_loss(xs, 50.0, 75.0, p)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)
        for _ in range(50):
            x, y1, y2 = rng.normal(size=3) * 3.0
            assert vasicek_ccr_loss(x, y1, y2, p) >= 0.0
        assert vasicek_ccr_loss(0.3, -5.0, -2.0, p) == 0.0

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            CcrParams(pd1=0.0, pd2=0.5, rho1=0.1, rho2=0.1, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)
        with pytest.raises(InvalidParams):
            CcrParams(pd1=0.5, pd2=0.5, rho1=1.0, rho2=0.1, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)


class TestGaussianLinearInstance:
    def test_one_by_one(self):
        mu, nu, loss = build_gaussian_linear_instance(1, 1, seed=5)
        assert loss.values[0, 0] == pytest.approx(mu.labels[0] + nu.labels[0])

    def test_seeded_shape_and_determinism(self):
        mu1, nu1, l1 = build_gaussian_linear_instance(200, 400, seed=77)
        mu2, nu2, l2 = build_gaussian_linear_instance(200, 400, seed=77)
        assert l1.shape == (200, 400)
        assert np.array_equal(l1.values, l2.values)
        assert np.allclose(mu1.weights, 1.0 / 200)

    def test_comonotone_additivity_small(self):
        # MES of x + y equals the sum of one-dimensional tail averages
        mu, nu, loss = build_gaussian_linear_instance(25, 40, seed=13)
        alpha = 0.8
        v = solve_mes(mu, nu, loss, alpha).value
        es_x = es_tail_average(DiscreteLaw(np.array(mu.labels), mu), alpha)
        es_y = es_tail_average(DiscreteLaw(np.array(nu.labels), nu), alpha)
        assert v == pytest.approx(es_x + es_y, abs=1e-6)


class TestCcrInstance:
    def test_benchmark_scale_instance_shape(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 500, seed=3)
        assert loss.shape == (500, 500)
        assert np.all(loss.values >= 0.0)

    @pytest.mark.parametrize("n", [40, 100])
    def test_loss_is_the_broadcast_vasicek_formula(self, n):
        # the lifted-large CCR 40 and CCR 100 instances (C8 solves the
        # latter): factor terms down the rows, exposures along the columns
        p = DEFAULT_CCR_PARAMS
        mu, nu, loss = build_ccr_instance(p, n, 31)
        x = np.array(mu.labels)
        y1, y2 = np.array(nu.labels).T
        t1 = normal_cdf((normal_inv_cdf(p.pd1) - np.sqrt(p.rho1) * x) / np.sqrt(1.0 - p.rho1))
        t2 = normal_cdf((normal_inv_cdf(p.pd2) - np.sqrt(p.rho2) * x) / np.sqrt(1.0 - p.rho2))
        want = (np.maximum(y1, 0.0)[None, :] * t1[:, None]
                + np.maximum(y2, 0.0)[None, :] * t2[:, None])
        assert np.array_equal(loss.values, want)

    def test_degenerate_exposures(self):
        p = CcrParams(pd1=0.02, pd2=0.02, rho1=0.2, rho2=0.2, r=0.0,
                      mu1=100.0, mu2=-100.0, sigma1=1e-12, sigma2=1e-12)
        _, nu, loss = build_ccr_instance(p, 20, seed=9)
        y1 = np.array([lab[0] for lab in nu.labels])
        y2 = np.array([lab[1] for lab in nu.labels])
        assert np.max(np.abs(y1 - 100.0)) < 1e-9
        assert np.max(np.abs(y2 + 100.0)) < 1e-9
        # loss constant across j at fixed i
        assert np.max(loss.values.max(axis=1) - loss.values.min(axis=1)) < 1e-9

    def test_r_zero_independent_coordinates(self):
        p = CcrParams(pd1=0.02, pd2=0.02, rho1=0.2, rho2=0.2, r=0.0,
                      mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=1.0)
        _, nu, _ = build_ccr_instance(p, 4000, seed=11)
        y = np.array([list(lab) for lab in nu.labels])
        corr = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(corr) < 0.05
