import numpy as np
import pytest

from riskbound.core import AlphaOutOfRange, SpectralGrid, validate_marginal
from riskbound.riskmeasures import (
    DiscreteLaw,
    es_dual_density,
    es_rockafellar_uryasev,
    es_tail_average,
    spectral_risk,
    uniform_law,
    var,
    var_levels,
)


def random_law(rng, max_support=20):
    n = rng.integers(1, max_support + 1)
    x = rng.normal(size=n) * rng.uniform(0.5, 3.0)
    w = rng.uniform(0.05, 1.0, size=n)
    return DiscreteLaw(x, validate_marginal(w / w.sum()))


class TestVar:
    def test_uniform_examples(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        # cumulative scan: P(L <= 2) = 0.5 and P(L <= 3) = 0.75 < 0.9
        assert var(law, 0.5) == 2.0
        assert var(law, 0.9) == 4.0

    def test_dirac(self):
        law = uniform_law([7.0])
        for a in (0.01, 0.5, 0.99):
            assert var(law, a) == 7.0

    def test_alpha_range(self):
        law = uniform_law([1.0, 2.0])
        with pytest.raises(AlphaOutOfRange):
            var(law, 0.0)
        with pytest.raises(AlphaOutOfRange):
            var(law, 1.0)

    def test_ties(self):
        law = uniform_law([1.0, 2.0, 2.0, 3.0])
        assert var(law, 0.5) == 2.0
        assert var(law, 0.8) == 3.0

    @staticmethod
    def scalar_reference(law, alpha):
        """One sort and one scalar search per level."""
        order = np.argsort(law.losses, kind="stable")
        cum = np.cumsum(law.probs.weights[order])
        idx = min(int(np.searchsorted(cum, alpha - 1e-12, side="left")), law.size - 1)
        return float(law.losses[order][idx])

    def test_levels_equal_the_scalar_search(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            law = random_law(rng)
            if rng.random() < 0.5:      # ties and zero-mass atoms
                x = np.round(law.losses)
                w = law.probs.weights * (rng.random(law.size) < 0.7)
                if w.sum() == 0.0:
                    w[0] = 1.0
                law = DiscreteLaw(x, validate_marginal(w / w.sum()))
            cum = np.cumsum(law.probs.weights[np.argsort(law.losses, kind="stable")])
            levels = np.sort(np.concatenate([rng.uniform(1e-9, 1.0 - 1e-9, size=8),
                                             np.clip(cum[:-1], 1e-9, 1.0 - 1e-9)]))
            got = var_levels(law, levels)
            assert got.tolist() == [self.scalar_reference(law, float(u)) for u in levels]
            assert got.tolist() == [var(law, float(u)) for u in levels]

    def test_levels_range_and_empty(self):
        law = uniform_law([1.0, 2.0])
        assert var_levels(law, []).shape == (0,)
        for bad in ([0.5, 0.0], [1.0]):
            with pytest.raises(AlphaOutOfRange):
                var_levels(law, bad)


class TestEsTailAverage:
    def test_uniform_half(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        # 2 * (0.25*3 + 0.25*4)
        assert es_tail_average(law, 0.5) == pytest.approx(3.5, abs=1e-14)

    def test_alpha_zero_is_mean(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        assert es_tail_average(law, 0.0) == pytest.approx(2.5, abs=1e-14)

    def test_constant_law(self):
        law = DiscreteLaw(np.array([3.25]), validate_marginal([1.0]))
        for a in (0.0, 0.3, 0.99):
            assert es_tail_average(law, a) == pytest.approx(3.25, abs=1e-14)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            law = random_law(rng)
            alphas = np.sort(rng.uniform(0.0, 0.995, size=6))
            vals = [es_tail_average(law, float(a)) for a in alphas]
            assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


class TestRockafellarUryasev:
    def test_uniform_half_and_argmin(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        value, lo, hi = es_rockafellar_uryasev(law, 0.5)
        # g(2) = 2 + 2*(0.25*1 + 0.25*2) = 3.5 achieves the minimum
        assert value == pytest.approx(3.5, abs=1e-12)
        assert lo <= 2.0 <= hi

    def test_point_mass(self):
        law = uniform_law([5.5])
        value, lo, hi = es_rockafellar_uryasev(law, 0.4)
        assert (value, lo, hi) == (5.5, 5.5, 5.5)

    def test_flat_argmin_interval(self):
        law = DiscreteLaw(np.array([0.0, 10.0]), validate_marginal([0.9, 0.1]))
        value, lo, hi = es_rockafellar_uryasev(law, 0.9)
        # g is flat on [0, 10]: P(L > b) <= 0.1 <= P(L >= b) holds throughout
        assert value == pytest.approx(10.0, abs=1e-12)
        assert (lo, hi) == (0.0, 10.0)
        assert lo <= var(law, 0.9) <= hi

    def test_var_in_argmin(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            law = random_law(rng)
            a = float(rng.uniform(0.05, 0.95))
            _, lo, hi = es_rockafellar_uryasev(law, a)
            assert lo - 1e-12 <= var(law, a) <= hi + 1e-12


class TestDualDensity:
    def test_uniform_half(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        theta = es_dual_density(law, 0.5)
        assert np.allclose(theta.weights, [0.0, 0.0, 0.5, 0.5])
        assert float(np.dot(theta.weights, law.losses)) == pytest.approx(3.5, abs=1e-12)

    def test_point_mass(self):
        law = uniform_law([-2.0])
        theta = es_dual_density(law, 0.5)
        assert theta.weights.tolist() == [1.0]

    def test_kappa_half(self):
        law = DiscreteLaw(np.array([0.0, 1.0]), validate_marginal([0.5, 0.5]))
        theta = es_dual_density(law, 0.75)
        # q = 1, P(L > 1) = 0, kappa = 0.25/0.5 = 0.5 -> weights (0, 1)
        assert np.allclose(theta.weights, [0.0, 1.0])

    def test_density_bound_and_mass(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            law = random_law(rng)
            a = float(rng.uniform(0.05, 0.95))
            theta = es_dual_density(law, a)
            assert abs(theta.weights.sum() - 1.0) <= 1e-12
            bound = law.probs.weights / (1.0 - a)
            assert np.all(theta.weights <= bound + 1e-12)


class TestRouteEquivalence:
    def test_three_routes_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            law = random_law(rng)
            a = float(rng.uniform(0.02, 0.98))
            es1 = es_tail_average(law, a)
            es2, _, _ = es_rockafellar_uryasev(law, a)
            theta = es_dual_density(law, a)
            es3 = float(np.dot(theta.weights, law.losses))
            assert abs(es1 - es2) <= 1e-9
            assert abs(es1 - es3) <= 1e-9

    def test_subadditive_at_fixed_coupling(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n, m = rng.integers(2, 6, size=2)
            joint = rng.uniform(0.01, 1.0, size=(n, m))
            joint /= joint.sum()
            l1 = rng.normal(size=(n, 1)) * np.ones((1, m))
            l2 = np.ones((n, 1)) * rng.normal(size=(1, m))
            pw = validate_marginal(joint.ravel())
            a = float(rng.uniform(0.1, 0.9))
            es_sum = es_tail_average(DiscreteLaw((l1 + l2).ravel(), pw), a)
            es_1 = es_tail_average(DiscreteLaw(l1.ravel(), pw), a)
            es_2 = es_tail_average(DiscreteLaw(l2.ravel(), pw), a)
            assert es_sum <= es_1 + es_2 + 1e-9

    def test_norm_sandwich(self):
        # ||L||_1 <= R(|L|) <= sup(sigma) ||L||_1 on nonnegative laws
        rng = np.random.default_rng(13)
        grid = SpectralGrid(z0=0.25, levels=np.array([0.4, 0.8]),
                            weights=np.array([0.35, 0.4]))
        sup_sigma = 0.25 + 0.35 / 0.6 + 0.4 / 0.2
        for _ in range(60):
            law = random_law(rng)
            abs_law = DiscreteLaw(np.abs(law.losses), law.probs)
            l1 = abs_law.mean()
            r = spectral_risk(abs_law, grid)
            assert l1 - 1e-12 <= r <= sup_sigma * l1 + 1e-12


class TestSpectralRisk:
    def test_dirac_grid_is_es(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        grid = SpectralGrid.dirac(0.9)
        assert spectral_risk(law, grid) == pytest.approx(es_tail_average(law, 0.9), abs=1e-14)

    def test_pure_mean_grid(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        grid = SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))
        assert spectral_risk(law, grid) == pytest.approx(2.5, abs=1e-14)

    def test_mixture(self):
        law = uniform_law([1.0, 2.0, 3.0, 4.0])
        grid = SpectralGrid(z0=0.5, levels=np.array([0.5]), weights=np.array([0.5]))
        assert spectral_risk(law, grid) == pytest.approx(0.5 * 2.5 + 0.5 * 3.5, abs=1e-14)
