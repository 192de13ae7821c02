import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbound.core import (
    AlphaOutOfRange,
    Coupling,
    DimensionMismatch,
    Empty,
    InvalidSpectrum,
    LossMatrix,
    NegativeWeight,
    NumericalFailure,
    ProbabilityVector,
    SpectralFunction,
    SpectralGrid,
    SumNotOne,
    coupling_between,
    discretize_spectrum,
    grid_sigma_norm,
    instance_from_dict,
    instance_to_dict,
    validate_marginal,
)


class TestValidateMarginal:
    def test_uniform_two_point_law(self):
        pv = validate_marginal((0.5, 0.5))
        assert pv.size == 2
        assert pv.weights.sum() == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            validate_marginal((0.3, -0.1, 0.8))

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne):
            validate_marginal((0.2, 0.2))

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            validate_marginal(())

    def test_tiny_deviation_renormalized(self):
        w = np.array([0.25, 0.25, 0.25, 0.25 + 1e-13])
        pv = validate_marginal(w)
        assert abs(pv.weights.sum() - 1.0) < 1e-15

    def test_labels_length_checked(self):
        with pytest.raises(DimensionMismatch):
            validate_marginal((0.5, 0.5), labels=(1.0,))

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_normalized_vectors_always_accepted(self, raw):
        w = np.asarray(raw)
        pv = validate_marginal(w / w.sum())
        assert abs(pv.weights.sum() - 1.0) <= 1e-12


class TestCoupling:
    def test_marginal_agreement(self):
        mu = validate_marginal((0.5, 0.5))
        nu = validate_marginal((0.3, 0.7))
        m = np.array([[0.15, 0.35], [0.15, 0.35]])
        pi = coupling_between(m, mu, nu)
        r, c = pi.marginal_residuals(mu, nu)
        assert max(r, c) <= 1e-15

    def test_bad_marginals_rejected(self):
        mu = validate_marginal((0.5, 0.5))
        nu = validate_marginal((0.3, 0.7))
        with pytest.raises(Exception):
            coupling_between(np.array([[0.5, 0.0], [0.0, 0.5]]), mu, nu)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeWeight):
            Coupling(np.array([[0.6, -0.1], [0.3, 0.2]]))


class TestCouplingSupport:
    """A coupling holds its support: the sorted row-major flat indices of
    its cells and the mass on each; ``matrix`` is a dense view."""

    @pytest.mark.parametrize("index, values, error, words", [
        ([0, 4], [0.5, 0.5], DimensionMismatch, "increase strictly within"),
        ([-1, 3], [0.5, 0.5], DimensionMismatch, "increase strictly within"),
        ([3, 0], [0.5, 0.5], DimensionMismatch, "increase strictly within"),
        ([0, 0, 3], [0.25, 0.25, 0.5], DimensionMismatch, "increase strictly within"),
        ([0, 3], [0.5], DimensionMismatch, "2 indices for 1 values"),
        ([0.0, 3.0], [0.5, 0.5], DimensionMismatch, "integers"),
        ([0, 3], [np.nan, 0.5], NumericalFailure, "non-finite"),
        ([0, 3], [1.0 + 2e-9, -2e-9], NegativeWeight, "below"),
    ], ids=["beyond", "negative-index", "unsorted", "duplicate", "length", "float-index",
            "nan", "negative-mass"])
    def test_bad_support_rejected(self, index, values, error, words):
        with pytest.raises(error, match=words):
            Coupling.from_support((2, 2), np.asarray(index), np.asarray(values))

    @pytest.mark.parametrize("shape", [(2,), (0, 3), (2, 2, 1)])
    def test_shape_must_be_nonempty_2d(self, shape):
        with pytest.raises(DimensionMismatch, match="shape"):
            Coupling.from_support(shape, np.array([0]), np.array([1.0]))

    def test_negative_mass_within_tolerance_is_clipped_and_kept(self):
        pi = Coupling.from_support((2, 3), np.array([0, 2, 4]), np.array([0.5, -1e-10, 0.5]))
        assert pi.index.tolist() == [0, 2, 4] and pi.values.tolist() == [0.5, 0.0, 0.5]
        assert np.array_equal(pi.matrix, Coupling(np.array([[0.5, 0.0, -1e-10],
                                                           [0.0, 0.5, 0.0]])).matrix)

    def test_dense_view_equals_the_dense_array(self):
        rng = np.random.default_rng(3)
        m = rng.random((4, 5)) * (rng.random((4, 5)) < 0.4)
        dense = Coupling(m)
        assert dense.index.tolist() == np.flatnonzero(m).tolist()
        sparse = Coupling.from_support(m.shape, dense.index, dense.values)
        assert "matrix" not in sparse._dense
        for pi in (dense, sparse):
            assert np.array_equal(pi.matrix, m)
            assert not pi.matrix.flags.writeable and not pi.values.flags.writeable
        assert sparse._dense["matrix"] is sparse.matrix  # built once, then cached

    def test_marginal_residuals_on_the_support(self):
        m = np.array([[0.2, 0.0, 0.1], [0.0, 0.3, 0.4]])
        mu, nu = validate_marginal(m.sum(axis=1)), validate_marginal(m.sum(axis=0))
        pi = Coupling.from_support(m.shape, np.flatnonzero(m), m[m != 0])
        assert max(pi.marginal_residuals(mu, nu)) <= 1e-15
        pi.require_marginals(mu, nu)


class TestSpectralFunction:
    def test_es_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            SpectralFunction.expected_shortfall(1.0)

    def test_pc_must_integrate_to_one(self):
        with pytest.raises(InvalidSpectrum):
            SpectralFunction.piecewise_constant([0.5], [0.5, 1.0])

    def test_pc_must_be_nondecreasing(self):
        with pytest.raises(InvalidSpectrum):
            SpectralFunction.piecewise_constant([0.5], [1.5, 0.5])

    def test_flat_sigma(self):
        sf = SpectralFunction.flat()
        assert sf.z0 == 1.0
        assert sf.sigma(0.3) == 1.0

    def test_es_sigma_values(self):
        sf = SpectralFunction.expected_shortfall(0.9)
        assert sf.sigma(0.5) == 0.0
        assert sf.sigma(0.95) == pytest.approx(10.0)
        assert sf.z0 == 0.0

    def test_power_sqrt_is_normalized_and_bounded(self):
        sf = SpectralFunction.power_sqrt()
        # integral of capped sigma: 1 - (1e-6)^{3/2}, within normalization slack
        u = np.linspace(0.0, 1.0, 200001)
        approx = np.trapezoid(sf.sigma(u), u)
        assert abs(approx - 1.0) < 1e-4
        assert sf.sup_norm() < 3.0

    def test_table_linear(self):
        sf = SpectralFunction.table([0.0, 1.0], [0.0, 2.0])
        assert sf.sigma(0.25) == pytest.approx(0.5)
        assert sf.z0 == 0.0


class TestDiscretizeSpectrum:
    def test_es_grid_exact_and_independent_of_K(self):
        for K in (1, 5, 64):
            g = discretize_spectrum(SpectralFunction.expected_shortfall(0.9), K)
            assert g.z0 == 0.0
            assert g.levels.tolist() == [0.9]
            assert g.weights.tolist() == [1.0]
            assert g.gamma_weights[0] == pytest.approx(10.0)

    def test_flat_sigma_grid_is_pure_mean(self):
        g = discretize_spectrum(SpectralFunction.flat(), 7)
        assert g.z0 == 1.0
        assert g.n_levels == 0

    def test_pc_grid_matches_hand_decomposition(self):
        # sigma = 0.5 on [0, 1/2), 1.5 on [1/2, 1); Gamma atom at 1/2 of
        # mass (1 - 1/2) * (1.5 - 0.5) = 0.5, z0 = 0.5
        sf = SpectralFunction.piecewise_constant([0.5], [0.5, 1.5])
        g = discretize_spectrum(sf, 3)
        assert g.z0 == pytest.approx(0.5)
        assert g.levels.tolist() == [0.5]
        assert g.weights[0] == pytest.approx(0.5)

    def test_power_sqrt_bin_masses_match_antiderivative(self):
        # oracle: Gamma-tilde cdf is 1 - (1-u)^{3/2}
        sf = SpectralFunction.power_sqrt()
        for K in (1, 4, 16):
            g = discretize_spectrum(sf, K)
            total = 1.0 - (1e-6) ** 1.5
            edges_mass = np.arange(K + 1) / K * total
            edges_u = 1.0 - (1.0 - edges_mass) ** (2.0 / 3.0)
            oracle_masses = np.diff(1.0 - (1.0 - edges_u) ** 1.5)
            assert np.max(np.abs(g.weights - oracle_masses)) < 2e-9
            # levels are the conditional medians in Gamma-mass
            mid_u = 1.0 - (1.0 - (edges_mass[:-1] + edges_mass[1:]) / 2.0) ** (2.0 / 3.0)
            assert np.max(np.abs(g.levels - mid_u)) < 1e-12

    def test_table_quantization_against_closed_form(self):
        # sigma(u) = 2u: Gamma-tilde cdf = 1 - (1-u)^2, quantile 1 - sqrt(1-m)
        sf = SpectralFunction.table([0.0, 1.0], [0.0, 2.0])
        K = 8
        g = discretize_spectrum(sf, K)
        mids = (np.arange(K) + 0.5) / K
        assert np.max(np.abs(g.levels - (1.0 - np.sqrt(1.0 - mids)))) < 1e-10
        assert np.allclose(g.weights, 1.0 / K)

    def test_gamma_weight_identity_exact(self):
        g = discretize_spectrum(SpectralFunction.power_sqrt(), 12)
        assert np.all(g.gamma_weights * (1.0 - g.levels) == g.weights)

    def test_mass_invariant(self):
        for sf in (SpectralFunction.power_sqrt(),
                   SpectralFunction.piecewise_constant([0.25, 0.75], [0.2, 0.8, 2.2]),
                   SpectralFunction.table([0.0, 0.5, 1.0], [0.2, 0.6, 2.6])):
            for K in (1, 3, 17):
                g = discretize_spectrum(sf, K)
                assert abs(g.z0 + g.weights.sum() - 1.0) <= 1e-10

    def test_refinement_consistency_on_power_sqrt(self):
        # with integrand c(u) = u the K -> 2K differences shrink monotonically
        sf = SpectralFunction.power_sqrt()
        vals = []
        for K in (4, 8, 16, 32, 64):
            g = discretize_spectrum(sf, K)
            vals.append(float(np.sum(g.weights * g.levels)))
        diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))

    def test_invalid_K(self):
        with pytest.raises(InvalidSpectrum):
            discretize_spectrum(SpectralFunction.power_sqrt(), 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=40, deadline=None)
    def test_random_pc_spectra_produce_valid_grids(self, m, seed):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.uniform(0.05, 0.95, size=m))
        cuts = np.unique(cuts)
        raise_amounts = rng.uniform(0.0, 1.0, size=cuts.size + 1)
        levels = np.cumsum(raise_amounts)
        edges = np.concatenate([[0.0], cuts, [1.0]])
        total = np.sum(levels * np.diff(edges))
        sf = SpectralFunction.piecewise_constant(cuts, levels / total)
        g = discretize_spectrum(sf, 1)
        assert abs(g.z0 + g.weights.sum() - 1.0) <= 1e-10


class TestDiracGrid:
    @pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.3, 0.9, 1.0 - 1e-8, np.float64(0.7)])
    def test_equals_the_validated_grid(self, alpha):
        fast = SpectralGrid.dirac(alpha)
        ref = SpectralGrid(0.0, [alpha], [1.0])
        assert type(fast.z0) is float and fast.z0 == ref.z0
        for name in ("levels", "weights", "gamma_weights"):
            got, want = getattr(fast, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        assert fast.n_levels == 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            SpectralGrid.dirac(alpha)

    def test_gamma_weights_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            SpectralGrid(0.0, [0.5], [1.0], gamma_weights=np.array([2.0]))
        assert SpectralGrid(0.0, [0.5], [1.0]).gamma_weights.tolist() == [2.0]


@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
def test_every_alpha_entry_point_words_the_range_alike(alpha):
    from riskbound.asymptotics import CltExperiment, DualFace
    from riskbound.bounds import brute_force_mes, build_mes_lp, solve_mes
    from riskbound.riskmeasures import uniform_law, var

    mu = validate_marginal([0.5, 0.5])
    loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    calls = [lambda: SpectralGrid.dirac(alpha), lambda: var(uniform_law([1.0, 2.0]), alpha),
             lambda: build_mes_lp(mu, mu, loss, alpha), lambda: solve_mes(mu, mu, loss, alpha),
             lambda: brute_force_mes(mu, mu, loss, alpha),
             lambda: CltExperiment(mu, mu, loss, alpha, n_x=2, n_y=2, replications=1, seed=0),
             lambda: DualFace(mu, mu, loss, alpha, value=0.0)]
    message = re.escape(f"alpha must lie in (0,1), got {alpha}")
    for call in calls:
        with pytest.raises(AlphaOutOfRange, match=message):
            call()


class TestGridNorms:
    def test_es_norms(self):
        g = SpectralGrid.dirac(0.9)
        # sigma = 10 on [0.9, 1): sup-norm 10, L1-norm 1, L2-norm sqrt(10)
        assert grid_sigma_norm(g, np.inf) == pytest.approx(10.0)
        assert grid_sigma_norm(g, 1.0) == pytest.approx(1.0)
        assert grid_sigma_norm(g, 2.0) == pytest.approx(np.sqrt(10.0))


class TestInstanceRoundTrip:
    def test_json_round_trip(self):
        mu = validate_marginal((0.4, 0.6), labels=(0.0, 1.0))
        nu = validate_marginal((0.5, 0.5), labels=(-1.0, 2.0))
        L = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        sf = SpectralFunction.expected_shortfall(0.75)
        d = instance_to_dict(mu, nu, L, sf)
        blob = json.dumps(d)
        mu2, nu2, L2, sf2 = instance_from_dict(json.loads(blob))
        assert np.allclose(mu2.weights, mu.weights)
        assert mu2.labels == (0.0, 1.0)
        assert np.allclose(L2.values, L.values)
        assert sf2.kind == "expected-shortfall"
        assert sf2.alpha == 0.75

    def test_dimension_mismatch_detected(self):
        with pytest.raises(DimensionMismatch):
            instance_from_dict({"mu": [0.5, 0.5], "nu": [1.0], "loss": [[1.0], [2.0], [3.0]]})
