import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbound import asymptotics, bounds, lpsolver, stability
from riskbound.asymptotics import CltExperiment, replication_value
from riskbound.core import (
    AlphaOutOfRange,
    CertificateInvalid,
    Coupling,
    DimensionMismatch,
    InvalidParams,
    LossMatrix,
    NegativeWeight,
    NumericalFailure,
    ProbabilityVector,
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
    mes_solution_from_dict,
    mes_solution_to_dict,
    msp_solution_from_dict,
    msp_solution_to_dict,
    solve_mes,
    solve_msp,
    verify_duality,
)
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance, build_gaussian_linear_instance
from riskbound.riskmeasures import DiscreteLaw, es_tail_average, law_from_coupling, var
from riskbound.lpsolver import LinearProgram, LpModel, _Transport, solve_lp

from lp_reference import assert_model_holds, reference_solve

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


def desk_instance(rng):
    """A desk-shaped request: 2-8 atoms a side, Dirichlet marginals, normal
    losses and alpha in (0.1, 0.9)."""
    m, n = (int(v) for v in rng.integers(2, 9, size=2))
    return (validate_marginal(rng.dirichlet(np.ones(m))), validate_marginal(rng.dirichlet(np.ones(n))),
            LossMatrix(rng.normal(size=(m, n))), float(rng.uniform(0.1, 0.9)))


def whole_lp_value(lp):
    return reference_solve(lp)["objective"]


def coo_msp_lp(mu, nu, loss, grid, cells=None):
    """The lifted program over ``cells = (I, J)`` (every cell, row-major, by
    default), in build_msp_lp's layout, assembled through COO-to-CSR
    conversion: the tests' reference for the whole program and for the
    restricted ones the masters hold."""
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
    return LinearProgram(sense="max", c=c, a_ub=a_ub, b_ub=np.zeros(K * n), a_eq=a_eq,
                         b_eq=np.concatenate([mu.weights, nu.weights, np.ones(K)]))


class TestBuildMesLp:
    def test_one_by_one_is_forced(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        loss = LossMatrix(np.array([[3.7]]))
        lp = build_mes_lp(mu, nu, loss, 0.5)
        ref = reference_solve(lp)
        assert ref["objective"] == pytest.approx(3.7, abs=1e-9)
        assert np.allclose(ref["x"], [1.0, 1.0], atol=1e-9)

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
            assert sol.certificate.value(mu, nu, sol.grid) == pytest.approx(sol.value, abs=1e-7)

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

    def test_degenerate_instances_match_whole_lp(self, caplog):
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
        # fully degenerate: equal uniform weights run out together at every
        # step of the staircase, so each of its links is a zero-mass cell
        x = np.arange(4.0)
        cases = [np.abs(x[:, None] - x[None, :])]
        cases += [rng.normal(size=shape) for shape in ((30, 30), (20, 40))]
        for values in cases:
            m, n = values.shape
            mu, nu = validate_marginal(np.full(m, 1.0 / m)), validate_marginal(np.full(n, 1.0 / n))
            loss = LossMatrix(values)
            # MES at 0.7, C2 and the flat grid, each through verify_duality
            solved, _ = solve_three_grids(mu, nu, loss, caplog)
            whole = [build_mes_lp(mu, nu, loss, 0.7), build_msp_lp(mu, nu, loss, C2_GRID),
                     build_msp_lp(mu, nu, loss, FLAT_GRID)]
            for value, lp in zip(solved, whole):
                assert value == pytest.approx(whole_lp_value(lp), abs=1e-9)

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

    @pytest.mark.parametrize("case", ["mes.lg200x400", "mes.ccr100", "msp.ccr40_k16"])
    def test_staircase_basis_solves_the_large_instances_at_once(self, case):
        if case == "mes.lg200x400":
            sol = solve_mes(*build_gaussian_linear_instance(200, 400, 701), 0.9)
        elif case == "mes.ccr100":
            sol = solve_mes(*build_ccr_instance(DEFAULT_CCR_PARAMS, 100, 31), 0.9)
        else:
            sol = solve_msp(*build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31),
                            discretize_spectrum(SpectralFunction.power_sqrt(), 16))
        assert (sol.rounds, sol.iterations) == (1, 0)

    def test_clt_replications_take_one_round(self, monkeypatch):
        # the staircase basis's potentials cover the whole grid at once
        rounds = []
        solve = asymptotics.solve_mes

        def spy(*args):
            sol = solve(*args)
            rounds.append(sol.rounds)
            return sol

        monkeypatch.setattr(asymptotics, "solve_mes", spy)
        exp = CltExperiment(*build_gaussian_linear_instance(200, 400, 701), alpha=0.9,
                            n_x=200, n_y=400, replications=30, seed=11)
        for k in range(30):
            replication_value(exp, k)
        assert rounds == [1] * 30

    @pytest.mark.parametrize("grid", ["dirac", "c2", "power-sqrt-16", "flat"])
    def test_csr_blocks_equal_the_coo_reference(self, grid):
        rng = np.random.default_rng(9)
        grid = {"dirac": SpectralGrid.dirac(0.8), "c2": C2_GRID, "flat": FLAT_GRID,
                "power-sqrt-16": discretize_spectrum(SpectralFunction.power_sqrt(), 16)}[grid]
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            lp = build_msp_lp(mu, nu, loss, grid)
            ref = coo_msp_lp(mu, nu, loss, grid)
            for name in ("c", "b_eq", "b_ub"):
                assert np.array_equal(getattr(lp, name), getattr(ref, name)), name
            for got, want in ((lp.a_eq, ref.a_eq), (lp.a_ub, ref.a_ub)):
                assert type(got) is sp.csr_matrix and got.shape == want.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_row_blocks_are_views_of_one_buffer(self):
        mu, nu, loss = two_by_two_sum()
        lp = build_msp_lp(mu, nu, loss, C2_GRID)
        for name in ("data", "indices"):
            eq, ub = getattr(lp.a_eq, name), getattr(lp.a_ub, name)
            assert eq.base is not None and eq.base is ub.base, name
            assert eq.size + ub.size == eq.base.size

    def test_linear_program_keeps_the_csr_blocks_it_is_given(self):
        mu, nu, loss = two_by_two_sum()
        lp = build_msp_lp(mu, nu, loss, C2_GRID)
        again = dataclasses.replace(lp)
        assert again.a_eq is lp.a_eq and again.a_ub is lp.a_ub

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
        seeded = []
        solve = bounds.solve_lp

        def spy(lp):
            sol = solve(lp)
            counted.append(sol.iterations)
            seeded.append(lp.seeded)
            return sol

        monkeypatch.setattr(bounds, "solve_lp", spy)
        total = 0
        firsts = []
        cases = [degenerate_instance(rng) for _ in range(10)]
        # uniform marginals run out together at every step of the staircase,
        # so every link of it is a zero-mass cell of the first master's basis
        x = np.arange(4.0)
        uniform = validate_marginal(np.full(4, 0.25))
        cases.append((uniform, uniform, LossMatrix(np.abs(x[:, None] - x[None, :]))))
        for mu, nu, loss in cases:
            counted.clear()
            seeded.clear()
            with caplog.at_level("INFO", logger="riskbound"):
                sol = solve_mes(mu, nu, loss, 0.7)
            assert len(counted) == sol.rounds
            assert sol.iterations == sum(counted)
            message = caplog.records[-1].getMessage()
            assert f"{sol.iterations} simplex iteration(s)" in message
            assert f"first master {'seeded' if seeded[0] else 'cold'}," in message
            firsts.append(seeded[0])
            total += sol.iterations
        assert total > 0
        assert any(firsts)


def kept(mu, nu, loss):
    """The instance on the atoms of positive mass, as the column generation
    solves it."""
    keep_i, keep_j = (np.flatnonzero(p.weights > 0.0) for p in (mu, nu))
    return (validate_marginal(mu.weights[keep_i]), validate_marginal(nu.weights[keep_j]),
            LossMatrix(loss.values[np.ix_(keep_i, keep_j)]))


def solve_three_grids(mu, nu, loss, caplog):
    """MES at 0.7, MSP on C2 and on the flat grid, each checked by
    verify_duality: their values and their info lines."""
    values, lines = [], []
    for solve in (lambda: solve_mes(mu, nu, loss, 0.7), lambda: solve_msp(mu, nu, loss, C2_GRID),
                  lambda: solve_msp(mu, nu, loss, FLAT_GRID)):
        with caplog.at_level("INFO", logger="riskbound"):
            sol = solve()
        verify_duality(sol, loss, mu, nu)
        values.append(sol.value)
        lines.append(caplog.records[-1].getMessage())
    return values, lines


class TestStaircaseBasis:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           alpha=st.sampled_from([0.01, 0.5, 0.99]), grid=st.sampled_from(["mes", "c2", "flat"]))
    @settings(max_examples=150, deadline=None)
    def test_seeded_first_master_equals_the_cold_solve(self, seed, alpha, grid):
        grid = {"mes": SpectralGrid.dirac(alpha), "c2": C2_GRID, "flat": FLAT_GRID}[grid]
        mu, nu, loss = kept(*degenerate_instance(np.random.default_rng(seed)))
        ci, cj, mass = bounds._staircase(mu, nu, bounds._mean_loss_order(mu, nu, loss))
        basis = bounds._staircase_basis(mass, loss.values[ci, cj], grid, *loss.shape)
        model = bounds._staircase_master(mu, nu, loss, grid, ci, cj, mass)
        seeded = solve_lp(model)
        cold = reference_solve(coo_msp_lp(mu, nu, loss, grid, (ci, cj)))
        assert seeded.objective == pytest.approx(cold["objective"], rel=1e-12, abs=1e-12)
        spans = ci.size == mu.size + nu.size - 1
        assert (basis is not None) == spans == model.seeded
        if spans:
            assert seeded.iterations == 0
            # the basis's plan is the north-west corner's
            assert np.allclose(seeded.x[:ci.size], mass, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", ["desk", "ccr40_k16", "flat"])
    def test_first_master_is_the_restricted_program_buffer_for_buffer(self, case):
        # the appended staircase is the lifted program on its cells, so HiGHS
        # sees the same model as from the COO-built program
        rng = np.random.default_rng(17)
        if case == "desk":
            cases = []
            for _ in range(30):
                mu, nu, loss, alpha = desk_instance(rng)
                cases += [(mu, nu, loss, SpectralGrid.dirac(alpha)), (mu, nu, loss, C2_GRID)]
        elif case == "ccr40_k16":
            grid = discretize_spectrum(SpectralFunction.power_sqrt(), 16)
            cases = [(*build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31), grid)]
        else:
            cases = [(*kept(*degenerate_instance(rng)), FLAT_GRID) for _ in range(30)]
        for mu, nu, loss, grid in cases:
            ci, cj, mass = bounds._staircase(mu, nu, bounds._mean_loss_order(mu, nu, loss))
            master = bounds._staircase_master(mu, nu, loss, grid, ci, cj, mass)
            assert_model_holds(master, coo_msp_lp(mu, nu, loss, grid, (ci, cj)))

    def test_info_line_names_the_staircase_order(self, caplog):
        # x + y on labelled supports is modular: label order on the grid
        # without levels, whose staircase tree certifies it with no master,
        # and mean-loss order on every grid with levels
        mu, nu, loss = build_gaussian_linear_instance(20, 30, 5)
        for grid, order, first in (
                (FLAT_GRID, "label", "tree certificate, no master"),
                (SpectralGrid.dirac(0.9), "mean-loss", "first master seeded"),
                (C2_GRID, "mean-loss", "first master seeded")):
            assert bounds._solve_lifted(mu, nu, loss, grid).order == order
            with caplog.at_level("INFO", logger="riskbound"):
                if grid.n_levels == 1:
                    solve_mes(mu, nu, loss, 0.9)
                else:
                    solve_msp(mu, nu, loss, grid)
            assert f", staircase in {order} order, {first}," in caplog.records[-1].getMessage()

    def test_short_staircase_solves_cold(self, caplog):
        # row 1's weight is below the rounding of 0.5 + 1e-17: the staircase
        # steps from row 0 straight to row 2
        mu = validate_marginal([0.5, 1e-17, 0.5 - 1e-17])
        nu = validate_marginal([1 / 3, 1 / 3, 1 / 3])
        loss = LossMatrix(np.add.outer(np.arange(3.0), np.arange(3.0)))
        ci, cj, mass = bounds._staircase(mu, nu, bounds._mean_loss_order(mu, nu, loss))
        assert ci.size == 4
        assert bounds._staircase_basis(mass, loss.values[ci, cj], C2_GRID, 3, 3) is None
        values, lines = solve_three_grids(mu, nu, loss, caplog)
        assert all("first master cold," in line for line in lines)
        assert values[0] == pytest.approx(whole_lp_value(build_mes_lp(mu, nu, loss, 0.7)),
                                          abs=1e-9)

    def test_refused_basis_solves_cold_to_the_same_values(self, caplog, monkeypatch):
        rng = np.random.default_rng(33)
        cases = [random_instance(rng, max_side=6), degenerate_instance(rng, max_side=6)]
        seeded = [solve_three_grids(*case, caplog) for case in cases]
        # on the flat grid the staircase tree certifies the second transport
        # with no master, whose basis can then not be refused; the first
        # needs masters
        tree = ", tree certificate, no master,"
        assert [tree in lines[2] for _, lines in seeded] == [False, True]
        assert all("first master seeded," in line
                   for _, lines in seeded for line in lines if tree not in line)
        # HiGHS refuses the staircase basis
        monkeypatch.setattr(lpsolver._highspy._Highs, "setBasis",
                            lambda highs, basis: lpsolver._highspy.HighsStatus.kError)
        for case, (values, before) in zip(cases, seeded):
            cold, lines = solve_three_grids(*case, caplog)
            assert [tree in line for line in lines] == [tree in line for line in before]
            assert all("first master cold," in line for line in lines if tree not in line)
            assert np.allclose(cold, values, rtol=0.0, atol=1e-9)


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
            return vertices(mu, nu) * (1.0 + 1e-6)

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

    def test_reports_the_vertices_it_cross_checked(self, caplog):
        rng = np.random.default_rng(8)
        small = (validate_marginal(rng.dirichlet(np.ones(4))),
                 validate_marginal(rng.dirichlet(np.ones(4))), LossMatrix(rng.normal(size=(4, 4))))
        large = (validate_marginal(rng.dirichlet(np.ones(5))),
                 validate_marginal(rng.dirichlet(np.ones(4))), LossMatrix(rng.normal(size=(5, 4))))
        vertices = len(list(bounds.transport_polytope_vertices(*small[:2])))
        for case, tail in ((small, f", {vertices} vertices cross-checked"),
                           (large, ", no vertex enumeration above 16 cells")):
            caplog.clear()
            with caplog.at_level("INFO", logger="riskbound"):
                brute_force_mes(*case, 0.8)
            lines = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("brute_force_mes:")]
            assert len(lines) == 1 and lines[0].endswith(tail)


class TestCBeta:
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

    @pytest.mark.parametrize("field, value, error, words", [
        ("coupling", -1e-6, NegativeWeight, "coupling entry"),
        ("coupling", float("nan"), NumericalFailure, "coupling contains non-finite"),
        ("theta", -1e-6, NegativeWeight, "theta entry"),
        ("theta", float("nan"), NumericalFailure, "theta contains non-finite"),
    ])
    def test_bad_values_name_the_field(self, field, value, error, words):
        for kind, d, reader in two_by_two_dicts():
            d = copy.deepcopy(d)
            d[field]["values"][0] = value
            with pytest.raises(error, match=words):
                reader(d)

    def test_dense_and_sparse_files_load_equal_and_encode_the_same(self):
        rng = np.random.default_rng(405)
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            for sol in (solve_mes(mu, nu, loss, 0.7), solve_msp(mu, nu, loss, C2_GRID)):
                d, sparse = json_round_trip(sol)
                reader = (mes_solution_from_dict if isinstance(sol, MesSolution)
                          else msp_solution_from_dict)
                nested = dict(d, coupling=sol.coupling.matrix.tolist(),
                              theta=solution_arrays(sol)["theta"].tolist())
                dense = reader(nested)
                assert np.array_equal(dense.coupling.index, sparse.coupling.index)
                assert np.array_equal(dense.coupling.values, sparse.coupling.values)
                assert np.array_equal(dense.tail, sparse.tail)
                for back in (sparse, dense):
                    for name, arr in solution_arrays(back).items():
                        assert np.array_equal(arr, solution_arrays(sol)[name]), name
                    assert json.dumps(json_round_trip(back)[0]) == json.dumps(d)

    @pytest.mark.parametrize("kind", ["mes", "msp"])
    def test_tail_mass_where_pi_is_zero_round_trips(self, kind):
        """A dense tail measure with mass on a cell outside the coupling's
        support keeps it: the cell joins the coupling with zero mass."""
        mu, nu, loss = two_by_two_sum()
        if kind == "mes":
            sol = solve_mes(mu, nu, loss, 0.5)
            theta = sol.theta.copy()
            theta[0, 1] = 1e-10
            sol = dataclasses.replace(sol, theta=theta)
            got = lambda s: s.theta
        else:
            sol = solve_msp(mu, nu, loss, C2_GRID)
            theta = sol.thetas.copy()
            theta[1, 0, 1] = 1e-10
            sol = dataclasses.replace(sol, thetas=theta)
            got = lambda s: s.thetas
        assert sol.coupling.matrix[0, 1] == 0.0 and 1 in sol.coupling.index
        d, back = json_round_trip(sol)
        assert 1e-10 in d["theta"]["values"]
        assert np.array_equal(got(back), theta)
        assert np.array_equal(back.coupling.matrix, sol.coupling.matrix)
        assert json.dumps(json_round_trip(back)[0]) == json.dumps(d)

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

    @pytest.mark.parametrize("kind, field, bad", [
        pytest.param(kind, field, bad, id=f"{name}-{kind}-{field}")
        for kind, fields in (("mes", ("certificate.beta", "value", "gap", "alpha")),
                             ("msp", ("certificate.beta0", "value", "gap", "betas", "grid.z0")))
        for field in fields + ("rounds", "active_cells", "iterations")
        for name, bad in (("null", None), ("string", "0.5"), ("list", [0.5]))
    ] + [
        # the solve record's counters are nonnegative integers
        pytest.param(kind, field, bad, id=f"{name}-{kind}-{field}")
        for kind in ("mes", "msp") for field in ("rounds", "active_cells", "iterations")
        for name, bad in (("fraction", 2.7), ("negative", -4), ("bool", True))
    ] + [pytest.param("msp", field, ["high", "low"], id=f"words-msp-{field}")
         for field in ("betas", "grid.levels", "grid.weights")
    ] + [
        # grid arrays must be lists, the weights as long as the levels
        pytest.param("msp", field, bad, id=f"{name}-msp-{field}")
        for field in ("grid.levels", "grid.weights")
        for name, bad in (("null", None), ("string", "0.5"))
    ] + [pytest.param("msp", "grid.weights", [0.5], id="list-msp-grid.weights"),
         pytest.param("msp", "grid.z0", "x", id="word-msp-grid.z0")])
    def test_scalar_field_that_is_no_number_names_the_field(self, kind, field, bad):
        (_, d, reader), = [case for case in two_by_two_dicts() if case[0] == kind]
        *parent, key = field.split(".")
        (d[parent[0]] if parent else d)[key] = bad
        with pytest.raises(DimensionMismatch, match=re.escape(field)):
            reader(d)

    def test_rho_of_older_files_is_ignored(self):
        mu, nu, loss = two_by_two_sum()
        legacy = copy.deepcopy(LEGACY_MES)
        legacy["certificate"]["rho"] = {"shape": [3], "index": [7], "values": [-1.0]}
        sol = mes_solution_from_dict(legacy)
        assert sol.certificate.rho is None
        verify_duality(sol, loss, mu, nu)

    def test_scalar_beta_of_older_mes_files_reads_back_equal(self):
        mu, nu, loss = two_by_two_sum()
        sol = mes_solution_from_dict(copy.deepcopy(LEGACY_MES))
        assert sol.certificate.beta.shape == (1,)
        assert sol.certificate.beta[0] == LEGACY_MES["certificate"]["beta"]
        d, back = json_round_trip(sol)
        assert d["certificate"]["beta"] == LEGACY_MES["certificate"]["beta"]
        assert back == sol
        verify_duality(back, loss, mu, nu)

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


class TestSolutionEquality:
    """``==`` compares solutions, their parts and the input types by value:
    scalars by ``==``, arrays by ``np.array_equal``, couplings and tail
    measures as dense arrays."""

    @pytest.mark.parametrize("kind", ["mes", "msp-c2", "msp-flat"])
    def test_solution_read_back_equals_the_one_written(self, kind):
        rng = np.random.default_rng(407)
        listed_zero_mass = 0
        for _ in range(20):
            mu, nu, loss = degenerate_instance(rng)
            sol = {"mes": lambda: solve_mes(mu, nu, loss, 0.7),
                   "msp-c2": lambda: solve_msp(mu, nu, loss, C2_GRID),
                   "msp-flat": lambda: solve_msp(mu, nu, loss, FLAT_GRID)}[kind]()
            _, back = json_round_trip(sol)
            listed_zero_mass += back.coupling.index.size < sol.coupling.index.size
            assert sol == back and back == sol and not sol != back
            assert sol == sol
        # the staircase lists cells of zero mass that solution.json drops
        assert listed_zero_mass > 0

    @pytest.mark.parametrize("kind", ["mes", "msp"])
    def test_one_changed_certificate_entry_is_unequal(self, kind):
        mu, nu, loss = two_by_two_sum()
        sol = solve_mes(mu, nu, loss, 0.5) if kind == "mes" else solve_msp(mu, nu, loss, C2_GRID)
        _, back = json_round_trip(sol)
        phi = sol.certificate.phi.copy()
        phi[1] = np.nextafter(phi[1], np.inf)
        changed = dataclasses.replace(back, certificate=dataclasses.replace(
            back.certificate, phi=phi))
        assert changed != sol and not changed == sol
        assert changed.certificate != sol.certificate
        assert dataclasses.replace(back, iterations=back.iterations + 1) != sol

    def test_couplings_compare_as_dense_matrices(self):
        listed = Coupling.from_support((2, 3), [0, 2, 4], [0.5, 0.0, 0.5])
        assert listed == Coupling(np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        assert listed != Coupling.from_support((2, 3), [0, 4], [0.5, 0.25])
        assert listed != Coupling.from_support((3, 2), [0, 3], [0.5, 0.5])
        assert listed != listed.matrix.tolist()

    def test_inputs_compare_by_value(self):
        mu, nu, loss = two_by_two_sum()
        assert mu == nu and mu != validate_marginal([0.25, 0.75])
        assert mu != validate_marginal(mu.weights, labels=[0.0, 1.0])
        assert loss == LossMatrix(loss.values.copy()) and loss != LossMatrix(loss.values[:1])
        law = DiscreteLaw(np.array([0.0, 1.0]), mu)
        assert law == DiscreteLaw(np.array([0.0, 1.0]), validate_marginal(mu.weights))
        assert law != DiscreteLaw(np.array([0.0, 2.0]), mu)

    def test_grids_compare_by_value(self):
        assert SpectralGrid.dirac(0.9) == SpectralGrid(z0=0.0, levels=np.array([0.9]),
                                                       weights=np.array([1.0]))
        assert SpectralGrid.dirac(0.9) != SpectralGrid.dirac(0.8)
        assert C2_GRID != FLAT_GRID


class TestSupportForm:
    """Solutions hold pi and Theta on the coupling's cells; the dense
    ``matrix``, ``theta`` and ``thetas`` are views built on first read."""

    def test_dense_views_equal_the_arrays_built_densely(self):
        rng = np.random.default_rng(406)
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            for sol in (solve_mes(mu, nu, loss, 0.7), solve_msp(mu, nu, loss, C2_GRID)):
                pi = sol.coupling
                matrix = np.zeros(loss.values.size)
                thetas = np.zeros((sol.grid.n_levels, loss.values.size))
                for s, c in enumerate(pi.index.tolist()):
                    matrix[c] = pi.values[s]
                    thetas[:, c] = sol.tail[:, s]
                assert np.array_equal(pi.matrix, matrix.reshape(loss.shape))
                assert np.array_equal(sol.thetas, thetas.reshape(sol.thetas.shape))
                assert not sol.thetas.flags.writeable and not pi.matrix.flags.writeable
                # the dense constructors take the views back: the support is
                # then the cells where pi or a tail measure is nonzero
                dense = {"theta": sol.theta} if isinstance(sol, MesSolution) else {
                    "thetas": sol.thetas}
                again = dataclasses.replace(sol, coupling=Coupling(pi.matrix), **dense)
                nonzero = (pi.matrix != 0.0) | (sol.thetas != 0.0).any(axis=0)
                assert np.array_equal(again.coupling.index, np.flatnonzero(nonzero))
                assert np.array_equal(again.coupling.matrix, pi.matrix)
                assert np.array_equal(again.thetas, sol.thetas)
                verify_duality(again, loss, mu, nu)

    @pytest.mark.parametrize("kind", ["lg200x400-mes", "ccr40-k16-msp"])
    def test_solve_verify_encode_build_no_dense_view(self, kind):
        if kind == "lg200x400-mes":
            mu, nu, loss = build_gaussian_linear_instance(200, 400, 701)
            sol = solve_mes(mu, nu, loss, 0.9)
            mes_solution_to_dict(sol)
        else:
            mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
            sol = solve_msp(mu, nu, loss, discretize_spectrum(SpectralFunction.power_sqrt(), 16))
            msp_solution_to_dict(sol)
        verify_duality(sol, loss, mu, nu)
        assert sol._dense == {} and sol.coupling._dense == {}
        assert sol.tail.shape == (sol.grid.n_levels, sol.coupling.index.size)
        assert sol.coupling.index.size == sol.active_cells


class TestCertificateForm:
    """Every certificate holds phi, psi and one beta per grid level as
    read-only float arrays, and bounds the optimum at any marginals on the
    same supports."""

    SOLVES = {"mes": lambda mu, nu, loss: solve_mes(mu, nu, loss, 0.7),
              "msp-c2": lambda mu, nu, loss: solve_msp(mu, nu, loss, C2_GRID),
              "msp-flat": lambda mu, nu, loss: solve_msp(mu, nu, loss, FLAT_GRID)}

    @pytest.mark.parametrize("kind", ["mes", "msp-c2", "msp-flat"])
    def test_beta_per_level_and_arrays_read_only(self, kind):
        rng = np.random.default_rng(408)
        for _ in range(10):
            mu, nu, loss = degenerate_instance(rng)
            sol = self.SOLVES[kind](mu, nu, loss)
            cert = sol.certificate
            assert cert.beta.shape == (sol.grid.n_levels,) and cert.beta.dtype == float
            for name in ("phi", "psi", "beta"):
                arr = getattr(cert, name)
                assert not arr.flags.writeable, name
                if arr.size:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = 5.0
            # a replaced certificate is frozen too, and the solution still
            # reads back equal to the one written
            phi = cert.phi + 1.0
            again = dataclasses.replace(cert, phi=phi)
            assert not again.phi.flags.writeable and again != cert
            assert phi.flags.writeable          # the certificate froze a copy
            assert dataclasses.replace(again, phi=cert.phi) == cert
            _, back = json_round_trip(sol)
            assert back == sol and not back.certificate.phi.flags.writeable

    def test_scalar_beta_is_the_one_level_of_mes(self):
        mu, nu, loss = two_by_two_sum()
        cert = DualCertificate(phi=[0.0, 2.0], psi=[0.0, 2.0], beta=0.0)
        assert cert.beta.shape == (1,) and cert == DualCertificate(
            phi=np.array([0.0, 2.0]), psi=np.array([0.0, 2.0]), beta=np.zeros(1))
        assert cert.value(mu, nu, SpectralGrid.dirac(0.5)) == 2.0
        with pytest.raises(DimensionMismatch, match="certificate.beta has shape"):
            cert.value(mu, nu, C2_GRID)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           kind=st.sampled_from(["mes", "msp-c2", "msp-flat"]))
    @settings(max_examples=60, deadline=None)
    def test_certificate_bounds_the_value_at_other_marginals(self, seed, kind):
        """The cover condition does not involve the marginals, so one
        certificate bounds the optimum at every pair of marginals on the
        same supports, zero-mass atoms included."""
        rng = np.random.default_rng(seed)
        mu, nu, loss = degenerate_instance(rng, max_side=6)
        cert = self.SOLVES[kind](mu, nu, loss).certificate
        marginals = []
        for size in loss.shape:
            w = rng.dirichlet(np.ones(size))
            w[rng.random(size) < 0.3] = 0.0
            w[int(rng.integers(size))] += 0.1
            marginals.append(validate_marginal(w / w.sum()))
        other = self.SOLVES[kind](*marginals, loss)
        tol = 1e-9 * max(1.0, float(np.abs(loss.values).max()))
        assert cert.value(*marginals, other.grid) >= other.value - tol


class TestSolveMsp:
    def test_dirac_grid_equals_mes(self):
        """MES is MSP on the Dirac grid, bit for bit: same value, gap,
        coupling, counts, tail measure, certificate and verification."""
        rng = np.random.default_rng(12)
        for k in range(50):
            make = degenerate_instance if k % 2 else random_instance
            mu, nu, loss = make(rng, max_side=6)
            loss = LossMatrix(loss.values * (1.0 if k % 4 < 2 else 1e3))
            a = float(rng.uniform(0.1, 0.9))
            mes = solve_mes(mu, nu, loss, a)
            msp = solve_msp(mu, nu, loss, SpectralGrid.dirac(a))
            assert (mes.value, mes.gap) == (msp.value, msp.gap)
            assert np.array_equal(mes.coupling.matrix, msp.coupling.matrix)
            assert (mes.rounds, mes.active_cells, mes.iterations) == \
                (msp.rounds, msp.active_cells, msp.iterations)
            assert np.array_equal(mes.theta, msp.thetas[0])
            assert np.array_equal(mes.thetas, msp.thetas)
            mc, pc = mes.certificate, msp.certificate
            assert np.array_equal(mc.phi, pc.phi) and np.array_equal(mc.psi, pc.psi)
            assert np.array_equal(mc.beta, pc.beta) and mc.beta.shape == (1,)
            assert verify_duality(mes, loss, mu, nu) == verify_duality(msp, loss, mu, nu)
            # the formula of the MES-only branch DualCertificate.value once had
            assert mc.value(mu, nu, mes.grid) == \
                float(mc.phi @ mu.weights + mc.psi @ nu.weights) + mc.beta[0]

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
        quartiles = SpectralGrid(z0=0.0, levels=np.array([0.25, 0.75]),
                                 weights=np.array([0.5, 0.5]))
        power = discretize_spectrum(SpectralFunction.power_sqrt(), 16)
        cases = [(*two_by_two_sum(), quartiles),
                 (*build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31), power)]
        rng = np.random.default_rng(35)
        for _ in range(50):
            case = degenerate_instance(rng)
            cases += [(*case, C2_GRID), (*case, power)]
        for mu, nu, loss, grid in cases:
            sol = solve_msp(mu, nu, loss, grid)
            law = law_from_coupling(loss, sol.coupling)
            assert sol.betas.tolist() == [var(law, float(u)) for u in grid.levels]

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


def tree_round_instance(rng):
    """A transport on the grid without levels, at a loss scale in
    1e-6..1e8: -|x - y|^r (r = 1, 2, 3) between labelled laws on the line,
    labels tied or not, or an unlabelled normal loss; zero-mass atoms on
    either side, or the short staircase of a weight below rounding."""
    m, n = (int(v) for v in rng.integers(1, 13, size=2))
    kind = ("line", "tied", "normal", "short")[int(rng.integers(4))]
    weights = [rng.dirichlet(np.ones(k)) for k in (m, n)]
    if kind == "short":
        m = 3
        weights[0] = np.array([0.5, 1e-17, 0.5 - 1e-17])
    for w in weights:
        if w.size > 1 and rng.random() < 0.4:
            w[rng.random(w.size) < 0.3] = 0.0
            w[int(rng.integers(w.size))] += 1e-3
            w /= w.sum()
    x, y = rng.normal(size=m), rng.normal(size=n)
    if kind == "tied":
        x, y = np.round(x * 2.0) / 2.0, np.round(y * 2.0) / 2.0
    scale = 10.0 ** int(rng.integers(-6, 9))
    if kind == "normal":
        mu, nu = (validate_marginal(w) for w in weights)
        loss = rng.normal(size=(m, n))
    else:
        mu, nu = (validate_marginal(w, labels=z.tolist()) for w, z in zip(weights, (x, y)))
        loss = -np.abs(x[:, None] - y[None, :]) ** int(rng.integers(1, 4))
    return mu, nu, LossMatrix(loss * scale)


class TestTreeRound:
    """Round 1 of a transport certified by the staircase tree's potentials,
    with no LP model."""

    def test_tree_returns_are_verified_and_equal_the_staircase_master(self, monkeypatch):
        firsts = []
        lifted = bounds._solve_lifted

        def spy(*args):
            res = lifted(*args)
            firsts.append(res.first_round)
            return res

        monkeypatch.setattr(bounds, "_solve_lifted", spy)
        stream = [tree_round_instance(np.random.default_rng([29, k])) for k in range(240)]
        failures = 0
        for mu, nu, loss in stream:
            try:
                sol = solve_msp(mu, nu, loss, FLAT_GRID)
            except (CertificateInvalid, NumericalFailure):
                failures += 1
                continue
            verify_duality(sol, loss, mu, nu)
            if firsts[-1] != "tree":
                continue
            # the kept instance as the solve builds it, and its seeded master
            keep_i, keep_j = (np.flatnonzero(p.weights > 0.0) for p in (mu, nu))
            mu_k = ProbabilityVector(mu.weights[keep_i])
            nu_k = ProbabilityVector(nu.weights[keep_j])
            loss_k = LossMatrix(loss.values[np.ix_(keep_i, keep_j)])
            order = bounds._label_order(mu, nu, keep_i, keep_j, loss_k)
            if order is None:
                order = bounds._mean_loss_order(mu_k, nu_k, loss_k)
            ci, cj, mass = bounds._staircase(mu_k, nu_k, order)
            ref = solve_lp(bounds._staircase_master(mu_k, nu_k, loss_k, FLAT_GRID, ci, cj, mass))
            assert ref.iterations == 0
            assert abs(sol.value - ref.objective) <= 1e-12 * np.abs(loss.values).max()
        assert {"tree", "seeded", "cold"} <= set(firsts)
        # the same stream through the masters alone, as before the tree round
        monkeypatch.setattr(bounds, "_tree_potentials", lambda *args: None)
        master_failures = 0
        for mu, nu, loss in stream:
            try:
                solve_msp(mu, nu, loss, FLAT_GRID)
            except (CertificateInvalid, NumericalFailure):
                master_failures += 1
        assert failures <= master_failures

    def test_short_staircase_has_no_tree(self):
        mu = validate_marginal([0.5, 1e-17, 0.5 - 1e-17])
        nu = validate_marginal([1 / 3, 1 / 3, 1 / 3])
        loss = LossMatrix(np.add.outer(np.arange(3.0), np.arange(3.0)))
        order = bounds._mean_loss_order(mu, nu, loss)
        ci, cj, mass = bounds._staircase(mu, nu, order)
        assert bounds._tree_potentials(ci, cj, order, loss.values[ci, cj]) is None
        assert bounds._solve_lifted(mu, nu, loss, FLAT_GRID).first_round == "cold"

    def test_potentials_solve_the_tree_cells(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            mu, nu, loss = kept(*degenerate_instance(rng))
            order = bounds._mean_loss_order(mu, nu, loss)
            ci, cj, mass = bounds._staircase(mu, nu, order)
            tree = bounds._tree_potentials(ci, cj, order, loss.values[ci, cj])
            if ci.size != mu.size + nu.size - 1:
                assert tree is None
                continue
            phi, psi = tree
            assert phi[order[0][0]] == 0.0
            assert np.allclose(phi[ci] + psi[cj], loss.values[ci, cj], rtol=0.0, atol=1e-12)

    def test_master_routes_and_lp_calls(self, caplog, monkeypatch):
        calls = []
        solve = bounds.solve_lp

        def spy_solve(lp):
            sol = solve(lp)
            calls.append(lp.seeded)
            return sol

        made = []
        init = LpModel.__init__

        def spy_init(self, *args, **kwargs):
            made.append("model")
            init(self, *args, **kwargs)

        monkeypatch.setattr(bounds, "solve_lp", spy_solve)
        monkeypatch.setattr(LpModel, "__init__", spy_init)
        # a label-order Wasserstein distance: no HiGHS model at all
        rng = np.random.default_rng(24)
        x = rng.normal(size=60)
        p, q = (validate_marginal(rng.dirichlet(np.ones(60)), labels=x.tolist())
                for _ in range(2))
        ground = stability.ground_from_labels(p)
        for r in (1.0, 2.0):
            with caplog.at_level("INFO", logger="riskbound"):
                assert stability.wasserstein_discrete(p, q, ground, r) > 0.0
            assert ", staircase in label order, tree certificate, no master," in \
                caplog.records[-1].getMessage()
        assert calls == [] and made == []
        # a mean-loss transport whose tree does not certify it: the seeded
        # master and its loop, as on every grid with levels
        mu, nu, loss = random_instance(np.random.default_rng(33), max_side=6)
        for solve_one in (lambda: solve_msp(mu, nu, loss, FLAT_GRID),
                          lambda: solve_mes(mu, nu, loss, 0.7),
                          lambda: solve_msp(mu, nu, loss, C2_GRID)):
            calls.clear()
            made.clear()
            with caplog.at_level("INFO", logger="riskbound"):
                sol = solve_one()
            assert ", first master seeded," in caplog.records[-1].getMessage()
            assert sol.rounds > 1 and len(calls) == sol.rounds
            assert calls[0] and made == ["model"]


class TestEngineArgument:
    def test_only_highs_is_accepted(self):
        mu, nu, loss = two_by_two_sum()
        assert solve_mes(mu, nu, loss, 0.5, engine="highs").value == pytest.approx(2.0)
        with pytest.raises(InvalidParams, match="'simplex'"):
            solve_mes(mu, nu, loss, 0.5, engine="simplex")


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
        assert cert.value(mu, nu, sol.grid) >= sol.value - 1e-9
        assert cert.value(mu, nu, sol.grid) > sol.value  # gap generally positive

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

    def test_negative_msp_tail_measure_rejected(self):
        """A tail measure with a negative entry, its mass and density box
        intact, fails the sign check, and its solution.json fails to load."""
        mu = validate_marginal([0.5, 0.5])
        loss = LossMatrix(np.ones((2, 2)))
        sol = dataclasses.replace(solve_msp(mu, mu, loss, C2_GRID),
                                  coupling=Coupling(np.full((2, 2), 0.25)),
                                  thetas=np.full((2, 2, 2), 0.25))
        assert verify_duality(sol, loss, mu, mu).primal_residuals["theta_sign"] == 0.0
        bad = dataclasses.replace(sol, thetas=np.array([np.full((2, 2), 0.25),
                                                        [[-0.1, 0.5], [0.3, 0.3]]]))
        with pytest.raises(CertificateInvalid, match="theta negative by 1.000e-01"):
            verify_duality(bad, loss, mu, mu)
        with pytest.raises(NegativeWeight, match="theta entry -0.1"):
            msp_solution_from_dict(msp_solution_to_dict(bad))

    @pytest.mark.parametrize("solved, checked", [((2, 3), (2, 2)), ((1, 3), (2, 3))])
    def test_solution_off_the_instance_names_the_coupling(self, solved, checked):
        rng = np.random.default_rng(9)
        mu, nu, loss = (validate_marginal(rng.dirichlet(np.ones(solved[0]))),
                        validate_marginal(rng.dirichlet(np.ones(solved[1]))),
                        LossMatrix(rng.normal(size=solved)))
        sol = solve_mes(mu, nu, loss, 0.5)
        mu2, nu2 = (validate_marginal(np.full(n, 1.0 / n)) for n in checked)
        with pytest.raises(DimensionMismatch, match=re.escape(f"coupling has shape {solved}")):
            verify_duality(sol, LossMatrix(np.zeros(checked)), mu2, nu2)

    @pytest.mark.parametrize("check", ["verify_duality", "value"])
    @pytest.mark.parametrize("field", ["certificate.phi", "certificate.psi",
                                       "certificate.beta", "certificate.beta0"])
    def test_certificate_off_the_instance_names_the_field(self, field, check):
        mu, nu, loss = two_by_two_sum()
        sol = solve_msp(mu, nu, loss, C2_GRID)
        cert = sol.certificate
        bad = dataclasses.replace(cert, **{
            "certificate.phi": {"phi": cert.phi[:1]}, "certificate.psi": {"psi": cert.psi[:1]},
            "certificate.beta": {"beta": cert.beta[:1]},
            "certificate.beta0": {"beta0": None}}[field])
        with pytest.raises(DimensionMismatch, match=re.escape(field)):
            if check == "value":
                bad.value(mu, nu, C2_GRID)
            else:
                verify_duality(dataclasses.replace(sol, certificate=bad), loss, mu, nu)


@pytest.mark.parametrize("seed", range(6))
def test_pricing_matches_the_full_scan(seed):
    # the early exit of _entering_cells against the scan it skips, on
    # potentials that cover every cell and on ones that leave cells violated
    rng = np.random.default_rng([41, seed])
    values = rng.normal(size=(6, 9))
    gammas, betas = np.array([0.3, 0.7]), np.array([values.min() - 1.0, 0.2])
    active = rng.random(values.shape) < 0.3
    cover = bounds._c_beta(values, gammas, betas)
    for slack in (0.0, 0.5, -0.5):
        phi = cover.max(axis=1) + slack * rng.random(6)
        psi = np.zeros(9)
        price = cover - phi[:, None] - psi
        price[active] = -np.inf
        new_i = np.concatenate([np.arange(6), price.argmax(axis=0)])
        new_j = np.concatenate([price.argmax(axis=1), np.arange(9)])
        hit = price[new_i, new_j] > bounds._CERT_FEAS_TOL
        want = np.divmod(np.unique(new_i[hit] * 9 + new_j[hit]), 9)
        got = bounds._entering_cells(LossMatrix(values), gammas, betas, phi, psi, active)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert bool(want[0].size) == (slack < 0.0)
