import copy
import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from riskbound import bounds
from riskbound.core import (
    AlphaOutOfRange,
    CertificateInvalid,
    DimensionMismatch,
    InvalidParams,
    LossMatrix,
    NumericalFailure,
    ProblemTooLarge,
    SpectralFunction,
    SpectralGrid,
    discretize_spectrum,
    validate_marginal,
)
from riskbound.bounds import (
    DualCertificate,
    MesSolution,
    brute_force_mes,
    build_mes_lp,
    build_msp_lp,
    c_beta_evaluate,
    mes_solution_from_dict,
    mes_solution_to_dict,
    msp_solution_from_dict,
    msp_solution_to_dict,
    solve_mes,
    solve_msp,
    verify_duality,
)
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance, build_gaussian_linear_instance
from riskbound.riskmeasures import DiscreteLaw, es_tail_average
from riskbound.lpsolver import _Transport, solve_lp

# the mixed grid of acceptance criterion C2: a u = 0 atom plus two levels
C2_GRID = SpectralGrid(z0=0.4, levels=np.array([0.3, 0.7]), weights=np.array([0.3, 0.3]))
# sigma == 1: the expectation alone, plain optimal transport
FLAT_GRID = SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))


def two_by_two_sum():
    """L(x,y) = x + y on {0,1}^2 with uniform marginals."""
    mu = validate_marginal([0.5, 0.5])
    nu = validate_marginal([0.5, 0.5])
    loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    return mu, nu, loss


def scan_couplings_es(loss, alpha, steps=2001):
    """Oracle for 2x2 uniform-marginal instances: the coupling family is the
    one-parameter segment pi = [[t, .5-t], [.5-t, t]], t in [0, 1/2]."""
    best = -np.inf
    for t in np.linspace(0.0, 0.5, steps):
        probs = np.array([t, 0.5 - t, 0.5 - t, t])
        if probs.min() < 0:
            continue
        law = DiscreteLaw(loss.values.ravel(), validate_marginal(probs))
        best = max(best, es_tail_average(law, alpha))
    return best


def random_instance(rng, max_side=8):
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    mu = validate_marginal(rng.dirichlet(np.ones(m)))
    nu = validate_marginal(rng.dirichlet(np.ones(n)))
    loss = LossMatrix(rng.normal(size=(m, n)) * rng.uniform(0.5, 4.0))
    return mu, nu, loss


def degenerate_instance(rng, max_side=8):
    """Random instance with zero-mass atoms, a duplicated row and column of
    the loss, tied loss values, and uniform marginals whose cumulative sums
    meet (so a row and a column of the staircase run out together)."""
    m, n = (int(v) for v in rng.integers(1, max_side + 1, size=2))
    if rng.random() < 0.5:
        loss = rng.integers(-3, 4, size=(m, n)).astype(float)
    else:
        loss = rng.normal(size=(m, n))
    loss[int(rng.integers(m))] = loss[int(rng.integers(m))]
    loss[:, int(rng.integers(n))] = loss[:, int(rng.integers(n))]
    marginals = []
    for size in (m, n):
        w = np.full(size, 1.0 / size) if rng.random() < 0.3 else rng.dirichlet(np.ones(size))
        w[rng.random(size) < 0.3] = 0.0
        if w.sum() == 0.0:
            w[int(rng.integers(size))] = 1.0
        marginals.append(validate_marginal(w / w.sum()))
    return marginals[0], marginals[1], LossMatrix(loss)


def whole_lp_value(lp):
    return solve_lp(lp).objective


def coo_msp_lp(mu, nu, loss, grid, cells=None):
    """build_msp_lp's blocks as assembled through COO-to-CSR conversion."""
    nx, ny = loss.shape
    ci, cj = np.divmod(np.arange(nx * ny), ny) if cells is None else (np.asarray(c) for c in cells)
    n, K = ci.size, grid.n_levels
    nvar = (K + 1) * n
    eq_rows = np.concatenate([ci, nx + cj, nx + ny + np.repeat(np.arange(K), n)])
    eq_cols = np.concatenate([np.arange(n), np.arange(n), n + np.arange(K * n)])
    a_eq = sp.csr_matrix((np.ones((K + 2) * n), (eq_rows, eq_cols)), shape=(nx + ny + K, nvar))
    ub_c = np.empty(2 * K * n, dtype=np.int64)
    ub_c[0::2] = np.tile(np.arange(n), K)
    ub_c[1::2] = n + np.arange(K * n)
    ub_v = np.ones(2 * K * n)
    ub_v[0::2] = -np.repeat(1.0 / (1.0 - grid.levels), n)
    a_ub = sp.csr_matrix((ub_v, (np.repeat(np.arange(K * n), 2), ub_c)), shape=(K * n, nvar))
    lvec = loss.values[ci, cj]
    c = np.concatenate([grid.z0 * lvec] + [w * lvec for w in grid.weights])
    return c, a_eq, a_ub


class TestBuildMesLp:
    def test_one_by_one_is_forced(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        loss = LossMatrix(np.array([[3.7]]))
        lp = build_mes_lp(mu, nu, loss, 0.5)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(3.7, abs=1e-9)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)

    def test_constraint_counts_two_by_two(self):
        mu, nu, loss = two_by_two_sum()
        lp = build_mes_lp(mu, nu, loss, 0.5)
        assert lp.n_vars == 8
        assert lp.a_eq.shape[0] == 2 + 2 + 1
        assert lp.a_ub.shape[0] == 4

    def test_product_coupling_is_feasible(self):
        mu, nu, loss = two_by_two_sum()
        lp = build_mes_lp(mu, nu, loss, 0.25)
        prod = np.outer(mu.weights, nu.weights).ravel()
        x = np.concatenate([prod, prod])  # Theta = pi = outer product
        assert np.abs(lp.a_eq @ x - lp.b_eq).max() <= 1e-12
        assert (lp.a_ub @ x).max() <= 1e-12

    def test_alpha_validation(self):
        mu, nu, loss = two_by_two_sum()
        with pytest.raises(AlphaOutOfRange):
            build_mes_lp(mu, nu, loss, 1.0)


class TestSolveMes:
    def test_dirac_marginals(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        sol = solve_mes(mu, nu, LossMatrix(np.array([[-2.25]])), 0.9)
        assert sol.value == pytest.approx(-2.25, abs=1e-9)

    def test_comonotone_two_by_two(self):
        mu, nu, loss = two_by_two_sum()
        sol = solve_mes(mu, nu, loss, 0.5)
        assert sol.value == pytest.approx(2.0, abs=1e-8)
        assert sol.value == pytest.approx(scan_couplings_es(loss, 0.5), abs=1e-6)
        assert sol.gap <= 1e-7

    def test_alpha_to_zero_is_marginal_expectation(self):
        mu, nu, loss = two_by_two_sum()
        sol = solve_mes(mu, nu, loss, 1e-9)
        assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_phi_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mu, nu, loss = random_instance(rng, max_side=5)
            sol = solve_mes(mu, nu, loss, float(rng.uniform(0.1, 0.9)))
            assert sol.certificate.phi[0] == 0.0
            assert sol.certificate.value(mu, nu) == pytest.approx(sol.value, abs=1e-7)

    def test_zero_mass_atoms(self):
        mu = validate_marginal([0.5, 0.0, 0.5])
        nu = validate_marginal([1.0, 0.0])
        loss = LossMatrix(np.array([[1.0, 9.0], [7.0, 9.0], [2.0, 9.0]]))
        sol = solve_mes(mu, nu, loss, 0.5)
        # only column 0 carries mass: law is (1, 2) uniform, ES_0.5 = 2
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert sol.coupling.matrix[1, :].sum() == 0.0
        report = verify_duality(sol, loss, mu, nu)
        assert report.gap <= 1e-7

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            mu, nu, loss = random_instance(rng, max_side=5)
            alphas = np.sort(rng.uniform(0.05, 0.95, size=4))
            vals = [solve_mes(mu, nu, loss, float(a)).value for a in alphas]
            assert all(vals[i + 1] >= vals[i] - 1e-8 for i in range(len(vals) - 1))

    def test_translation_and_scaling(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            mu, nu, loss = random_instance(rng, max_side=5)
            a = float(rng.uniform(0.1, 0.9))
            c = float(rng.normal())
            lam = float(rng.uniform(0.1, 3.0))
            v = solve_mes(mu, nu, loss, a).value
            v_shift = solve_mes(mu, nu, LossMatrix(loss.values + c), a).value
            v_scale = solve_mes(mu, nu, LossMatrix(lam * loss.values), a).value
            assert v_shift == pytest.approx(v + c, abs=1e-8)
            assert v_scale == pytest.approx(lam * v, abs=1e-8)


class TestColumnGeneration:
    def test_linear_gaussian_finishes_in_one_round(self):
        mu, nu, loss = build_gaussian_linear_instance(200, 400, 701)
        sol = solve_mes(mu, nu, loss, 0.9)
        closed = sum(es_tail_average(DiscreteLaw(np.asarray(p.labels, dtype=float), p), 0.9)
                     for p in (mu, nu))
        assert sol.rounds == 1
        assert sol.active_cells == 200 + 400 - 1
        assert sol.value == pytest.approx(closed, abs=1e-6)

    def test_degenerate_instances_match_whole_lp(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            mu, nu, loss = degenerate_instance(rng)
            a = float(rng.uniform(0.05, 0.95))
            mes = solve_mes(mu, nu, loss, a)
            assert mes.value == pytest.approx(whole_lp_value(build_mes_lp(mu, nu, loss, a)),
                                              abs=1e-9)
            msp = solve_msp(mu, nu, loss, C2_GRID)
            assert msp.value == pytest.approx(
                whole_lp_value(build_msp_lp(mu, nu, loss, C2_GRID)), abs=1e-9)
            for sol in (mes, msp):
                assert sol.rounds >= 1
                assert 1 <= sol.active_cells <= loss.values.size
                verify_duality(sol, loss, mu, nu)

    def test_ccr_mes_matches_whole_lp(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 100, 31)
        sol = solve_mes(mu, nu, loss, 0.9)
        assert sol.value == pytest.approx(whole_lp_value(build_mes_lp(mu, nu, loss, 0.9)),
                                          abs=1e-9)

    def test_ccr_flat_grid_matches_transport(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 100, 31)
        sol = solve_msp(mu, nu, loss, FLAT_GRID)
        v_ot = _Transport(mu, nu, "max").solve(loss.values)[0].objective
        assert sol.value == pytest.approx(v_ot, abs=1e-9)
        assert sol.active_cells < loss.values.size

    def test_ccr_msp_power_sqrt_matches_whole_lp(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
        grid = discretize_spectrum(SpectralFunction.power_sqrt(), 16)
        sol = solve_msp(mu, nu, loss, grid)
        assert sol.value == pytest.approx(whole_lp_value(build_msp_lp(mu, nu, loss, grid)),
                                          abs=1e-9)

    @pytest.mark.parametrize("grid", ["dirac", "c2", "power-sqrt-16", "flat"])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_csr_blocks_equal_the_coo_reference(self, grid, restricted):
        rng = np.random.default_rng(9)
        grid = {"dirac": SpectralGrid.dirac(0.8), "c2": C2_GRID, "flat": FLAT_GRID,
                "power-sqrt-16": discretize_spectrum(SpectralFunction.power_sqrt(), 16)}[grid]
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            cells = None
            if restricted:
                flat = rng.choice(loss.values.size, size=int(rng.integers(0, loss.values.size + 1)),
                                  replace=False)
                cells = np.divmod(flat, loss.shape[1])
            lp = build_msp_lp(mu, nu, loss, grid, cells=cells)
            c, a_eq, a_ub = coo_msp_lp(mu, nu, loss, grid, cells)
            assert np.array_equal(lp.c, c)
            for got, ref in ((lp.a_eq, a_eq), (lp.a_ub, a_ub)):
                assert type(got) is sp.csr_matrix and got.shape == ref.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_linear_program_keeps_the_csr_blocks_it_is_given(self):
        mu, nu, loss = two_by_two_sum()
        lp = build_msp_lp(mu, nu, loss, C2_GRID)
        again = dataclasses.replace(lp)
        assert again.a_eq is lp.a_eq and again.a_ub is lp.a_ub

    def test_restricted_program_keeps_rows_and_orders_cells(self):
        mu, nu, loss = two_by_two_sum()
        full = build_msp_lp(mu, nu, loss, C2_GRID)
        part = build_msp_lp(mu, nu, loss, C2_GRID, cells=([1, 0], [1, 0]))
        assert part.a_eq.shape == (full.a_eq.shape[0], 3 * 2)
        assert part.a_ub.shape == (2 * 2, 3 * 2)
        assert np.array_equal(part.c[:2], 0.4 * np.array([2.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            build_msp_lp(mu, nu, loss, C2_GRID, cells=([2], [0]))

    def test_solution_dicts_carry_and_default_the_solve_record(self):
        mu, nu, loss = two_by_two_sum()
        mes = solve_mes(mu, nu, loss, 0.5)
        msp = solve_msp(mu, nu, loss, C2_GRID)
        for sol, to_dict, from_dict in ((mes, mes_solution_to_dict, mes_solution_from_dict),
                                        (msp, msp_solution_to_dict, msp_solution_from_dict)):
            d = json.loads(json.dumps(to_dict(sol)))
            back = from_dict(d)
            assert ((back.rounds, back.active_cells, back.iterations)
                    == (sol.rounds, sol.active_cells, sol.iterations))
            del d["rounds"], d["active_cells"], d["iterations"]
            old = from_dict(d)
            assert (old.rounds, old.active_cells, old.iterations) == (0, 0, 0)
            assert old.value == sol.value

    def test_iterations_sum_over_masters_and_reach_the_log(self, caplog, monkeypatch):
        rng = np.random.default_rng(404)
        counted = []
        solve = bounds.solve_lp

        def spy(lp):
            sol = solve(lp)
            counted.append(sol.iterations)
            return sol

        monkeypatch.setattr(bounds, "solve_lp", spy)
        total = 0
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            counted.clear()
            with caplog.at_level("INFO", logger="riskbound"):
                sol = solve_mes(mu, nu, loss, 0.7)
            assert len(counted) == sol.rounds
            assert sol.iterations == sum(counted)
            assert f"{sol.iterations} simplex iteration(s)" in caplog.records[-1].getMessage()
            total += sol.iterations
        assert total > 0


class TestBruteForce:
    def test_one_by_one(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        assert brute_force_mes(mu, nu, LossMatrix(np.array([[4.5]])), 0.3) == pytest.approx(4.5, abs=1e-6)

    def test_comonotone_two_by_two(self):
        mu, nu, loss = two_by_two_sum()
        assert brute_force_mes(mu, nu, loss, 0.5) == pytest.approx(2.0, abs=1e-5)

    def test_constant_loss(self):
        mu, nu, _ = two_by_two_sum()
        const = LossMatrix(np.full((2, 2), -1.5))
        assert brute_force_mes(mu, nu, const, 0.8) == pytest.approx(-1.5, abs=1e-6)

    def test_too_large(self):
        mu = validate_marginal(np.full(11, 1.0 / 11))
        nu = validate_marginal(np.full(11, 1.0 / 11))
        with pytest.raises(ProblemTooLarge):
            brute_force_mes(mu, nu, LossMatrix(np.zeros((11, 11))), 0.5)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            mu, nu, loss = random_instance(rng, max_side=6)
            a = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
            lp_value = solve_mes(mu, nu, loss, a).value
            oracle = brute_force_mes(mu, nu, loss, a)
            assert abs(lp_value - oracle) <= 1e-5

    def test_interior_minimizer(self):
        # f(beta) = (26 - beta)/3 for beta <= 4 and (18 + beta)/3 for beta >= 4:
        # the minimizer lies strictly between the loss values 1 and 6, where
        # the maximizing plan switches from the comonotone to the other one
        mu = validate_marginal([0.5, 0.5])
        nu = validate_marginal([0.5, 0.5])
        values = np.array([[1.0, 6.0], [7.0, 9.0]])
        alpha = 0.25
        plans = [np.diag([0.5, 0.5]), np.fliplr(np.diag([0.5, 0.5]))]

        def f(beta):
            return beta + max(float((p * np.maximum(values - beta, 0.0)).sum())
                              for p in plans) / (1.0 - alpha)

        assert f(4.0) == pytest.approx(22.0 / 3.0, abs=1e-12)
        assert min(f(v) for v in np.unique(values)) == pytest.approx(8.0, abs=1e-12)
        assert f(6.0) == pytest.approx(8.0, abs=1e-12)
        loss = LossMatrix(values)
        assert brute_force_mes(mu, nu, loss, alpha) == pytest.approx(22.0 / 3.0, abs=1e-12)
        assert solve_mes(mu, nu, loss, alpha).value == pytest.approx(22.0 / 3.0, abs=1e-12)

    def test_exact_against_lifted_lp_across_scales(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            mu, nu, loss = degenerate_instance(rng)
            loss = LossMatrix(loss.values * 10.0 ** rng.uniform(-3.0, 3.0))
            a = float(rng.uniform(0.05, 0.95))
            scale = max(1.0, float(np.abs(loss.values).max()))
            oracle = brute_force_mes(mu, nu, loss, a)
            assert abs(oracle - solve_mes(mu, nu, loss, a).value) <= 1e-10 * scale

    def test_enumeration_check_is_relative_at_large_scale(self):
        # at this 1e7 scale the transport value and the vertex maximum
        # differed by 1.2e-9 in absolute terms, which the absolute check
        # rejected as a disagreement
        mu = validate_marginal([0.68, 0.32])
        nu = validate_marginal([0.38, 0.61, 0.01])
        loss = LossMatrix(np.array([[-446000.0, 8442000.0, 1296000.0],
                                    [-7567000.0, 2114000.0, 26386000.0]]))
        oracle = brute_force_mes(mu, nu, loss, 0.9)
        assert oracle == pytest.approx(solve_mes(mu, nu, loss, 0.9).value, rel=1e-12)

    def test_enumeration_check_unchanged_at_unit_scale(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            mu, nu, loss = random_instance(rng, max_side=4)
            loss = LossMatrix(loss.values / max(1.0, np.abs(loss.values).max()))
            a = float(rng.uniform(0.1, 0.9))
            assert brute_force_mes(mu, nu, loss, a) == pytest.approx(
                solve_mes(mu, nu, loss, a).value, abs=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e7])
    def test_enumeration_disagreement_still_raises(self, scale, monkeypatch):
        mu = validate_marginal([0.68, 0.32])
        nu = validate_marginal([0.38, 0.61, 0.01])
        loss = LossMatrix(scale * np.array([[-0.0446, 0.8442, 0.1296],
                                            [-0.7567, 0.2114, 2.6386]]))
        vertices = bounds.transport_polytope_vertices

        def off_by_a_millionth(mu, nu):
            for plan in vertices(mu, nu):
                yield plan * (1.0 + 1e-6)

        monkeypatch.setattr(bounds, "transport_polytope_vertices", off_by_a_millionth)
        with pytest.raises(NumericalFailure, match="vertex enumeration disagrees"):
            brute_force_mes(mu, nu, loss, 0.9)

    def test_reports_transports_beta_and_bracket(self, caplog):
        mu, nu, loss = two_by_two_sum()
        with caplog.at_level("INFO", logger="riskbound"):
            brute_force_mes(mu, nu, loss, 0.5)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("brute_force_mes:")]
        assert len(lines) == 1
        assert "transport(s)" in lines[0] and "beta 1.0" in lines[0]
        assert "certified bracket width" in lines[0]


class TestCBeta:
    def test_dirac_grid(self):
        loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        grid = SpectralGrid.dirac(0.5)
        out = c_beta_evaluate(loss, grid, [1.0])
        assert np.allclose(out.values, [[0.0, 0.0], [0.0, 2.0]])

    def test_beta_above_max_gives_zero(self):
        loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        grid = SpectralGrid(z0=0.0, levels=np.array([0.3, 0.6]), weights=np.array([0.5, 0.5]))
        out = c_beta_evaluate(loss, grid, [5.0, 7.0])
        assert np.all(out.values == 0.0)

    def test_single_atom_scaling(self):
        loss = LossMatrix(np.array([[3.0]]))
        grid = SpectralGrid.dirac(0.9)
        out = c_beta_evaluate(loss, grid, [1.0])
        assert out.values[0, 0] == pytest.approx(10.0 * 2.0)

    def test_z0_atom_requires_beta0(self):
        loss = LossMatrix(np.array([[1.0]]))
        grid = SpectralGrid(z0=0.5, levels=np.array([0.5]), weights=np.array([0.5]))
        with pytest.raises(Exception):
            c_beta_evaluate(loss, grid, [1.0])
        out = c_beta_evaluate(loss, grid, [0.0, 1.0])
        assert out.values[0, 0] == pytest.approx(0.5 * 1.0 + 1.0 * 0.0)

    @pytest.mark.parametrize("grid", ["dirac", "c2", "power-sqrt-16", "flat"])
    def test_kernel_equals_summing_into_zeros_bit_for_bit(self, grid):
        grid = {"dirac": SpectralGrid.dirac(0.8), "c2": C2_GRID, "flat": FLAT_GRID,
                "power-sqrt-16": discretize_spectrum(SpectralFunction.power_sqrt(), 16)}[grid]
        rng = np.random.default_rng(12)
        values = rng.integers(-3, 4, size=(7, 9)).astype(float)
        values[0, :3] = -0.0                    # a -0.0 term becomes +0.0 when summed into zeros
        gammas = np.concatenate([[grid.z0], grid.gamma_weights])
        for _ in range(20):
            betas = np.where(rng.random(gammas.size) < 0.5, rng.integers(-3, 4, gammas.size),
                             rng.normal(size=gammas.size))
            ref = np.zeros(values.shape)
            for g, bk in zip(gammas, betas):
                if g:
                    ref += g * np.maximum(values - bk, 0.0)
            got = bounds._c_beta(values, gammas, betas)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            lead = betas if grid.z0 > 0.0 else betas[1:]
            assert np.array_equal(c_beta_evaluate(LossMatrix(values), grid, lead).values, ref)


def reference_component_shifts(ci, cj, support, price):
    """_component_shifts as computed through a COO-built graph and two
    np.maximum.at scatters."""
    mm, nn = price.shape
    graph = sp.csr_matrix((np.ones(int(support.sum())), (ci[support], mm + cj[support])),
                          shape=(mm + nn, mm + nn))
    nc, label = connected_components(graph, directed=False)
    row_c, col_c = label[:mm], label[mm:]
    by_row = np.full((nc, nn), -np.inf)
    np.maximum.at(by_row, row_c, price)
    w = np.full((nc, nc), -np.inf)
    np.maximum.at(w.T, col_c, by_row.T)
    np.fill_diagonal(w, -np.inf)
    s = np.zeros(nc)
    changed = np.arange(nc)
    for _ in range(nc + 1):
        cand = (w[:, changed] + s[changed][None, :]).max(axis=1)
        up = cand > s + 0.1 * bounds._CERT_FEAS_TOL
        if not up.any():
            return s[row_c], s[col_c]
        s[up] = cand[up]
        changed = np.nonzero(up)[0]
    return None


class TestComponentShifts:
    def test_equal_to_scatter_reference_on_random_labelings(self):
        rng = np.random.default_rng(31)
        outcomes = {"shifted": 0, "cycle": 0}
        for _ in range(400):
            mm, nn = (int(v) for v in rng.integers(1, 13, size=2))
            flat = np.flatnonzero(rng.random(mm * nn) < rng.uniform(0.05, 0.6))
            ci, cj = np.divmod(rng.permutation(flat), nn)
            # rows and columns without a positive-mass cell are empty segments
            support = rng.random(ci.size) < rng.uniform(0.2, 1.0)
            price = rng.normal(size=(mm, nn)) - rng.uniform(0.0, 3.0)
            got = bounds._component_shifts(ci, cj, support, price)
            ref = reference_component_shifts(ci, cj, support, price)
            assert (got is None) == (ref is None)
            if got is not None:
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            outcomes["cycle" if got is None else "shifted"] += 1
        assert min(outcomes.values()) > 0


def json_round_trip(sol):
    """The dict a solution writes to solution.json, read back through JSON
    text, and the solution rebuilt from it."""
    if isinstance(sol, MesSolution):
        to_dict, from_dict = mes_solution_to_dict, mes_solution_from_dict
    else:
        to_dict, from_dict = msp_solution_to_dict, msp_solution_from_dict
    d = json.loads(json.dumps(to_dict(sol)))
    return d, from_dict(d)


def solution_arrays(sol):
    """Every array a solution.json must reproduce exactly."""
    cert = sol.certificate
    out = {"coupling": sol.coupling.matrix, "phi": cert.phi, "psi": cert.psi,
           "beta": np.atleast_1d(cert.beta), "beta0": np.atleast_1d(cert.beta0 or 0.0)}
    if isinstance(sol, MesSolution):
        out.update(theta=sol.theta)
    else:
        out.update(theta=sol.thetas, betas=sol.betas)
    return out


def encoded_fields(d):
    """The support-encoded fields of a solution dict, by array name."""
    return {"coupling": d["coupling"], "theta": d["theta"]}


def assert_exact_round_trip(sol, loss, mu, nu):
    d, back = json_round_trip(sol)
    assert "rho" not in d["certificate"]
    want = solution_arrays(sol)
    got = solution_arrays(back)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr), name
    for name, field in encoded_fields(d).items():
        assert field["shape"] == list(want[name].shape), name
        assert len(field["index"]) == len(field["values"]) == np.count_nonzero(want[name]), name
    assert (back.value, back.gap, back.rounds, back.active_cells) == (
        sol.value, sol.gap, sol.rounds, sol.active_cells)
    verify_duality(back, loss, mu, nu)


# solution.json of two_by_two_sum() (MES at alpha 0.5, MSP on C2_GRID and on
# the flat grid) as written when every array was a dense nested list
LEGACY_MES = {
    "kind": "mes", "alpha": 0.5, "value": 2.0, "gap": 0.0,
    "coupling": [[0.5, 0.0], [0.0, 0.5]], "theta": [[-0.0, 0.0], [-0.0, 1.0]],
    "certificate": {"phi": [0.0, 2.0], "psi": [0.0, 2.0], "beta": 0.0,
                    "rho": [[0.0, 1.0], [1.0, 2.0]]},
    "rounds": 1, "active_cells": 3,
}
LEGACY_MSP = {
    "kind": "msp", "grid": {"z0": 0.4, "levels": [0.3, 0.7], "weights": [0.3, 0.3]},
    "value": 1.4285714285714286, "gap": 2.220446049250313e-16,
    "coupling": [[0.5, 0.0], [0.0, 0.5]],
    "theta": [[[0.2857142857142857, 0.0], [-0.0, 0.7142857142857143]],
              [[0.0, 0.0], [0.0, 1.0]]],
    "betas": [0.0, 2.0],
    "certificate": {"phi": [0.0, 0.8285714285714283], "psi": [0.4, 1.2285714285714286],
                    "beta": [0.0, 2.0], "beta0": -1.0},
    "rounds": 1, "active_cells": 3,
}
LEGACY_FLAT_MSP = {
    "kind": "msp", "grid": {"z0": 1.0, "levels": [], "weights": []},
    "value": 1.0, "gap": 0.0, "coupling": [[-0.0, 0.5], [0.5, 0.0]], "theta": [],
    "betas": [], "certificate": {"phi": [1.0, 2.0], "psi": [0.0, 1.0], "beta": [], "beta0": -1.0},
    "rounds": 1, "active_cells": 4,
}


def two_by_two_dicts():
    """(kind, solution dict, reader) for MES at alpha 0.5 and MSP on C2_GRID."""
    mu, nu, loss = two_by_two_sum()
    return [("mes", mes_solution_to_dict(solve_mes(mu, nu, loss, 0.5)), mes_solution_from_dict),
            ("msp", msp_solution_to_dict(solve_msp(mu, nu, loss, C2_GRID)),
             msp_solution_from_dict)]


class TestSolutionJson:
    def test_ccr_mes_round_trip(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 100, 31)
        assert_exact_round_trip(solve_mes(mu, nu, loss, 0.9), loss, mu, nu)

    def test_ccr_msp_power_sqrt_round_trip(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
        grid = discretize_spectrum(SpectralFunction.power_sqrt(), 16)
        sol = solve_msp(mu, nu, loss, grid)
        assert sol.thetas.shape == (16, 40, 40)
        assert_exact_round_trip(sol, loss, mu, nu)

    def test_transport_branch_round_trip(self):
        rng = np.random.default_rng(21)
        mu, nu, loss = random_instance(rng, max_side=6)
        sol = solve_msp(mu, nu, loss, FLAT_GRID)
        assert sol.thetas.shape == (0, *loss.shape)
        assert_exact_round_trip(sol, loss, mu, nu)

    def test_degenerate_instances_round_trip(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            mu, nu, loss = degenerate_instance(rng)
            a = float(rng.uniform(0.05, 0.95))
            assert_exact_round_trip(solve_mes(mu, nu, loss, a), loss, mu, nu)
            assert_exact_round_trip(solve_msp(mu, nu, loss, C2_GRID), loss, mu, nu)

    @pytest.mark.parametrize("legacy", [LEGACY_MES, LEGACY_MSP, LEGACY_FLAT_MSP],
                             ids=["mes", "msp", "msp-flat"])
    def test_dense_nested_list_files_still_load(self, legacy):
        mu, nu, loss = two_by_two_sum()
        reader = mes_solution_from_dict if legacy["kind"] == "mes" else msp_solution_from_dict
        sol = reader(copy.deepcopy(legacy))
        assert np.array_equal(sol.coupling.matrix, legacy["coupling"])
        verify_duality(sol, loss, mu, nu)
        d, back = json_round_trip(sol)
        assert isinstance(d["coupling"], dict)
        assert np.array_equal(back.coupling.matrix, sol.coupling.matrix)

    @pytest.mark.parametrize("field", ["coupling", "theta"])
    @pytest.mark.parametrize("fault", ["length", "negative", "beyond", "unsorted"])
    def test_malformed_index_names_the_field(self, field, fault):
        for kind, d, reader in two_by_two_dicts():
            d = copy.deepcopy(d)
            enc = d[field]
            size = int(np.prod(enc["shape"]))
            if fault == "length":
                enc["values"].append(1.0)
            elif fault == "negative":
                enc["index"][0] = -1
            elif fault == "beyond":
                enc["index"][-1] = size
            else:
                enc["index"].append(enc["index"][-1])
                enc["values"].append(enc["values"][-1])
            with pytest.raises(DimensionMismatch, match=field):
                reader(d)

    @pytest.mark.parametrize("field", ["theta"])
    def test_shape_off_the_coupling_names_the_field(self, field):
        for kind, d, reader in two_by_two_dicts():
            for legacy in (False, True):
                d2 = copy.deepcopy(d)
                if legacy:
                    d2[field] = np.zeros(d2[field]["shape"])[..., :1].tolist()
                else:
                    d2[field]["shape"][-1] = 3
                with pytest.raises(DimensionMismatch, match=field):
                    reader(d2)

    @pytest.mark.parametrize("field", ["phi", "psi"])
    def test_potential_length_off_the_coupling_names_the_field(self, field):
        for kind, d, reader in two_by_two_dicts():
            for length in (1, 3):
                d2 = copy.deepcopy(d)
                d2["certificate"][field] = [0.0] * length
                with pytest.raises(DimensionMismatch, match=f"certificate.{field}"):
                    reader(d2)

    def test_rho_of_older_files_is_ignored(self):
        mu, nu, loss = two_by_two_sum()
        legacy = copy.deepcopy(LEGACY_MES)
        legacy["certificate"]["rho"] = {"shape": [3], "index": [7], "values": [-1.0]}
        sol = mes_solution_from_dict(legacy)
        assert sol.certificate.rho is None
        verify_duality(sol, loss, mu, nu)

    def test_msp_solution_checks_theta_and_beta_shapes(self):
        mu, nu, loss = two_by_two_sum()
        sol = solve_msp(mu, nu, loss, C2_GRID)
        with pytest.raises(DimensionMismatch, match="thetas"):
            dataclasses.replace(sol, thetas=sol.thetas[:1])
        with pytest.raises(DimensionMismatch, match="thetas"):
            dataclasses.replace(sol, thetas=sol.thetas[:, :, :1])
        with pytest.raises(DimensionMismatch, match="betas"):
            dataclasses.replace(sol, betas=sol.betas[:1])
        d = msp_solution_to_dict(sol)
        d["betas"] = [0.0]
        with pytest.raises(DimensionMismatch, match="betas"):
            msp_solution_from_dict(d)

    def test_msp_certificate_without_beta0_names_the_field(self):
        # C2_GRID has z0 > 0: the certificate covers its u = 0 atom with beta0
        d = msp_solution_to_dict(solve_msp(*two_by_two_sum(), C2_GRID))
        del d["certificate"]["beta0"]
        with pytest.raises(DimensionMismatch, match="certificate.beta0"):
            msp_solution_from_dict(d)

    @pytest.mark.parametrize("length", [1, 3])
    def test_msp_certificate_beta_length_names_the_field(self, length):
        d = msp_solution_to_dict(solve_msp(*two_by_two_sum(), C2_GRID))
        d["certificate"]["beta"] = [0.0] * length
        with pytest.raises(DimensionMismatch, match="certificate.beta has shape"):
            msp_solution_from_dict(d)


class TestSolveMsp:
    def test_dirac_grid_equals_mes(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            mu, nu, loss = random_instance(rng, max_side=5)
            a = float(rng.uniform(0.1, 0.9))
            v_mes = solve_mes(mu, nu, loss, a).value
            v_msp = solve_msp(mu, nu, loss, SpectralGrid.dirac(a)).value
            assert abs(v_mes - v_msp) <= 1e-8

    def test_flat_grid_equals_transport(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            mu, nu, loss = random_instance(rng, max_side=5)
            v_msp = solve_msp(mu, nu, loss, FLAT_GRID)
            v_ot = _Transport(mu, nu, "max").solve(loss.values)[0].objective
            assert abs(v_msp.value - v_ot) <= 1e-8
            assert v_msp.gap <= 1e-7

    def test_mixed_grid_two_by_two(self):
        mu, nu, loss = two_by_two_sum()
        grid = SpectralGrid(z0=0.5, levels=np.array([0.5]), weights=np.array([0.5]))
        sol = solve_msp(mu, nu, loss, grid)
        # comonotone coupling maximizes both terms: 0.5 * E[L] + 0.5 * ES_{0.5}
        assert sol.value == pytest.approx(0.5 * 1.0 + 0.5 * 2.0, abs=1e-8)
        assert sol.gap <= 1e-7
        report = verify_duality(sol, loss, mu, nu)
        assert report.dual_value >= report.primal_value - 1e-9

    def test_betas_are_quantiles(self):
        mu, nu, loss = two_by_two_sum()
        grid = SpectralGrid(z0=0.0, levels=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5]))
        sol = solve_msp(mu, nu, loss, grid)
        from riskbound.riskmeasures import law_from_coupling, var
        law = law_from_coupling(loss, sol.coupling)
        for k, u in enumerate(grid.levels):
            assert sol.betas[k] == var(law, float(u))

    def test_dirac_near_one_matches_mes_on_one_atom_instances(self):
        # C^beta is 1e8 times the loss here; the cover check must not hold
        # the potentials' round-off against a tolerance in C^beta units
        rng = np.random.default_rng(1)
        alpha = 1.0 - 1e-8
        grid = SpectralGrid.dirac(alpha)
        for _ in range(300):
            m, n = (int(s) for s in rng.integers(1, 7, size=2))
            mu, nu = np.zeros(m), np.zeros(n)
            mu[int(rng.integers(m))] = 1.0
            nu[int(rng.integers(n))] = 1.0
            mu, nu = validate_marginal(mu), validate_marginal(nu)
            loss = LossMatrix(float(rng.choice([1.0, 3.0, 10.0])) * rng.normal(size=(m, n)))
            v_mes = solve_mes(mu, nu, loss, alpha).value
            assert solve_msp(mu, nu, loss, grid).value == pytest.approx(v_mes, abs=1e-9)

    def test_problem_too_large(self):
        mu = validate_marginal(np.full(100, 0.01))
        nu = validate_marginal(np.full(100, 0.01))
        grid = SpectralGrid(z0=0.0, levels=np.linspace(0.001, 0.97, 501),
                            weights=np.full(501, 1.0 / 501))
        with pytest.raises(ProblemTooLarge):
            solve_msp(mu, nu, LossMatrix(np.zeros((100, 100))), grid)


class TestSolveTransport:
    """The flat-grid solve against the oracle's full-grid transport program,
    on instances with zero-mass atoms, ties and duplicated rows/columns."""

    def test_both_senses_match_the_full_grid_program(self):
        rng = np.random.default_rng(515)
        for _ in range(40):
            mu, nu, loss = degenerate_instance(rng)
            for sense in ("max", "min"):
                value, plan, _ = bounds.solve_transport(mu, nu, loss, sense)
                ref = _Transport(mu, nu, sense).solve(loss.values)[0].objective
                assert value == pytest.approx(ref, abs=1e-9)
                assert max(plan.marginal_residuals(mu, nu)) <= 1e-9
                assert float((plan.matrix * loss.values).sum()) == pytest.approx(value, abs=1e-9)

    def test_potentials_cover_every_cell(self):
        rng = np.random.default_rng(516)
        for _ in range(40):
            mu, nu, loss = degenerate_instance(rng)
            for sense, sign in (("max", 1.0), ("min", -1.0)):
                value, _, (phi, psi) = bounds.solve_transport(mu, nu, loss, sense)
                # phi + psi >= L for max, <= L for min, zero-mass atoms included
                assert (sign * (phi[:, None] + psi[None, :] - loss.values)).min() >= -1e-8
                assert phi[0] == 0.0
                assert float(phi @ mu.weights + psi @ nu.weights) == pytest.approx(value,
                                                                                  abs=1e-8)

    def test_every_return_has_passed_verify_duality(self, monkeypatch):
        checked = []

        def spy(sol, loss, mu, nu):
            checked.append(loss.values)
            return verify_duality(sol, loss, mu, nu)

        monkeypatch.setattr(bounds, "verify_duality", spy)
        rng = np.random.default_rng(517)
        mu, nu, loss = degenerate_instance(rng)
        bounds.solve_transport(mu, nu, loss, "max")
        bounds.solve_transport(mu, nu, loss, "min")
        assert len(checked) == 2
        assert np.array_equal(checked[0], loss.values)
        assert np.array_equal(checked[1], -loss.values)

    def test_unknown_sense_rejected(self):
        with pytest.raises(InvalidParams, match="'sup'"):
            bounds.solve_transport(*two_by_two_sum(), "sup")


class TestEngineArgument:
    def test_only_highs_is_accepted(self):
        mu, nu, loss = two_by_two_sum()
        assert solve_mes(mu, nu, loss, 0.5, engine="highs").value == pytest.approx(2.0)
        with pytest.raises(InvalidParams, match="'simplex'"):
            solve_mes(mu, nu, loss, 0.5, engine="simplex")
        with pytest.raises(InvalidParams, match="'auto'"):
            solve_msp(mu, nu, loss, C2_GRID, engine="auto")


class TestVerifyDuality:
    def test_gap_small_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            mu, nu, loss = random_instance(rng, max_side=6)
            a = float(rng.uniform(0.1, 0.9))
            sol = solve_mes(mu, nu, loss, a)
            report = verify_duality(sol, loss, mu, nu)
            assert report.gap <= 1e-7
            assert report.dual_value >= report.primal_value - 1e-9

    def test_hand_built_certificate_weakly_dominates(self):
        mu, nu, loss = two_by_two_sum()
        a = 0.5
        sol = solve_mes(mu, nu, loss, a)
        rho = np.maximum(loss.values, 0.0)
        phi = rho.max(axis=1) / (1.0 - a)
        cert = DualCertificate(phi=phi, psi=np.zeros(2), beta=0.0)
        # direct arithmetic: feasible, so its value upper-bounds the optimum
        assert ((1.0 - a) * (phi[:, None] + np.zeros(2)[None, :]) >= rho - 1e-12).all()
        assert (rho + 0.0 >= loss.values - 1e-12).all()
        assert cert.value(mu, nu) >= sol.value - 1e-9
        assert cert.value(mu, nu) > sol.value  # gap generally positive

    def test_corrupted_certificate_rejected(self):
        mu, nu, loss = two_by_two_sum()
        sol = solve_mes(mu, nu, loss, 0.5)
        bad_cert = dataclasses.replace(sol.certificate, beta=sol.certificate.beta - 1.0)
        bad = dataclasses.replace(sol, certificate=bad_cert)
        with pytest.raises(CertificateInvalid):
            verify_duality(bad, loss, mu, nu)

    @pytest.mark.parametrize("alpha", [1e-6, 1.0 - 1e-8], ids=["alpha-1e-6", "alpha-1-1e-8"])
    @pytest.mark.parametrize("kind", ["constant", "one-atom", "duplicated"])
    def test_mes_cover_residual_is_in_loss_units(self, kind, alpha):
        rng = np.random.default_rng(77)
        if kind == "constant":
            mu = validate_marginal(rng.dirichlet(np.ones(3)))
            nu = validate_marginal(rng.dirichlet(np.ones(4)))
            loss = LossMatrix(np.full((3, 4), 2.5))
        elif kind == "one-atom":
            mu = validate_marginal([0.0, 0.0, 1.0, 0.0])
            nu = validate_marginal([0.0, 1.0, 0.0])
            loss = LossMatrix(rng.normal(size=(4, 3)))
        else:
            values = rng.normal(size=(5, 6))
            values[3] = values[0]
            values[:, 4] = values[:, 1]
            mu = validate_marginal(rng.dirichlet(np.ones(5)))
            nu = validate_marginal(rng.dirichlet(np.ones(6)))
            loss = LossMatrix(values)

        def direct_residual(cert):
            lhs = (1.0 - alpha) * (cert.phi[:, None] + cert.psi[None, :])
            return max(float((np.maximum(loss.values - cert.beta, 0.0) - lhs).max()), 0.0)

        sol = solve_mes(mu, nu, loss, alpha)
        report = verify_duality(sol, loss, mu, nu)
        assert report.dual_residuals["cover"] == pytest.approx(
            direct_residual(sol.certificate), abs=1e-12)
        # a certificate short by 1e-6 in loss units is reported in loss units
        cert = dataclasses.replace(sol.certificate,
                                   phi=sol.certificate.phi - 1e-6 / (1.0 - alpha))
        with pytest.raises(CertificateInvalid, match="C\\^beta violated") as err:
            verify_duality(dataclasses.replace(sol, certificate=cert), loss, mu, nu)
        reported = float(str(err.value).split("violated by ")[1].split(";")[0])
        assert reported == pytest.approx(direct_residual(cert), rel=1e-3)

    @pytest.mark.parametrize("grid", [
        C2_GRID, SpectralGrid.dirac(1.0 - 1e-8),
        discretize_spectrum(SpectralFunction.power_sqrt(), 16)],
        ids=["c2", "dirac-1-1e-8", "power-sqrt"])
    def test_msp_cover_residual_is_in_loss_units(self, grid):
        rng = np.random.default_rng(78)
        mu = validate_marginal(rng.dirichlet(np.ones(4)))
        nu = validate_marginal(rng.dirichlet(np.ones(5)))
        loss = LossMatrix(rng.normal(size=(4, 5)))
        sol = solve_msp(mu, nu, loss, grid)
        top = max(1.0, grid.z0, float(grid.gamma_weights.max()))
        assert verify_duality(sol, loss, mu, nu).dual_residuals["cover"] <= 1e-8
        # a certificate short by 1e-6 loss units, as C^beta scales them, is rejected
        cert = dataclasses.replace(sol.certificate, phi=sol.certificate.phi - 1e-6 * top)
        with pytest.raises(CertificateInvalid, match="C\\^beta violated") as err:
            verify_duality(dataclasses.replace(sol, certificate=cert), loss, mu, nu)
        reported = float(str(err.value).split("violated by ")[1].split(";")[0])
        assert reported == pytest.approx(1e-6, rel=1e-3)

    @pytest.mark.parametrize("kind", ["lg200x400-mes", "ccr40-k16-msp"])
    def test_primal_value_matches_exact_sum(self, kind):
        if kind == "lg200x400-mes":
            mu, nu, loss = build_gaussian_linear_instance(200, 400, 701)
            sol = solve_mes(mu, nu, loss, 0.9)
            thetas = sol.theta[None]
        else:
            mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
            sol = solve_msp(mu, nu, loss, discretize_spectrum(SpectralFunction.power_sqrt(), 16))
            thetas = sol.thetas
        grid = sol.grid
        terms = [grid.z0 * x for x in (loss.values * sol.coupling.matrix).ravel().tolist()]
        for w, theta in zip(grid.weights.tolist(), thetas):
            terms += [w * x for x in (loss.values * theta).ravel().tolist()]
        reference = math.fsum(terms)
        report = verify_duality(sol, loss, mu, nu)
        assert report.primal_value == pytest.approx(reference, rel=1e-12, abs=0.0)
