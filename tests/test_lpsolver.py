import hashlib
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from riskbound import bounds, lpsolver
from riskbound.bounds import build_mes_lp, build_msp_lp
from riskbound.core import (
    DimensionMismatch,
    LossMatrix,
    NumericalFailure,
    ProblemTooLarge,
    SpectralFunction,
    SpectralGrid,
    discretize_spectrum,
    validate_marginal,
)
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance, build_gaussian_linear_instance
from riskbound.bounds import MSP_MAX_CELLS_TIMES_LEVELS, solve_transport
from riskbound.lpsolver import (
    LinearProgram,
    LpModel,
    solve_lp,
    transport_polytope_vertices,
    write_mps,
)
from lp_reference import assert_model_holds, model_program, reference_solve
from test_bounds import (
    C2_GRID,
    FLAT_GRID,
    coo_msp_lp,
    degenerate_instance,
    desk_instance,
    random_instance,
)


def box_model():
    # max x + y  s.t.  x <= 1, y <= 1, x,y >= 0
    model = LpModel("max", np.zeros(0))
    model.append(np.ones(2), np.array([0, 1]), np.array([0, 1]), np.ones(2), np.ones(2))
    return model


def random_weights(rng, size):
    """Random marginal weights with about 30% zero atoms, never all zero."""
    w = rng.dirichlet(np.ones(size))
    w[rng.random(size) < 0.3] = 0.0
    if w.sum() == 0.0:
        w[int(rng.integers(size))] = 1.0
    return validate_marginal(w / w.sum())


def whole_master(mu, nu, loss, grid):
    """A model on the marginal and Theta-mass rows grown by one append of
    every cell: the lifted program of ``grid``, feasible for any marginals."""
    model = LpModel("max", np.concatenate([mu.weights, nu.weights, np.ones(grid.n_levels)]))
    ci, cj = np.divmod(np.arange(loss.values.size), loss.shape[1])
    model.append(*bounds._lifted_columns(ci, cj, loss, grid, model.n_rows))
    return model


def transport_models(rng, count):
    """Oracle transport models over random marginals with zero atoms, in
    either sense, each under two random costs: ``(model, rows of mu and
    nu)``, once per cost, ready to solve."""
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(1, 8, size=2))
        transport = lpsolver._Transport(random_weights(rng, m), random_weights(rng, n),
                                        str(rng.choice(["max", "min"])))
        for _ in range(2):
            transport.model.set_cost(rng.normal(size=transport.model.n_vars))
            yield transport.model, (transport.keep_i.size, transport.keep_j.size)


def grown_masters(rng, count):
    """Seeded staircase masters of random desk-shaped instances on a Dirac,
    the C2 or the flat grid, grown by :func:`bounds._lifted_columns` with
    two random batches of the other cells: ``(model, rows of mu and nu)``,
    once per state, ready to solve."""
    for _ in range(count):
        mu, nu, loss, alpha = desk_instance(rng)
        grid = (SpectralGrid.dirac(alpha), C2_GRID, FLAT_GRID)[int(rng.integers(3))]
        ci, cj, mass = bounds._staircase(mu, nu, bounds._mean_loss_order(mu, nu, loss))
        model = bounds._staircase_master(mu, nu, loss, grid, ci, cj, mass)
        yield model, (mu.size, nu.size)
        rest = rng.permutation(np.setdiff1d(np.arange(loss.values.size), ci * loss.shape[1] + cj))
        for batch in np.array_split(rest, 2):
            if batch.size:
                bi, bj = np.divmod(batch, loss.shape[1])
                model.append(*bounds._lifted_columns(bi, bj, loss, grid, model.n_rows))
                yield model, (mu.size, nu.size)


def shift_free(duals_eq, m, n):
    """Row duals with the free shift of the marginal rows taken out: adding
    s to every row of mu and taking it from every row of nu moves no
    reduced cost, so the first row of mu is pinned to 0."""
    y = np.array(duals_eq, dtype=float)
    s = y[0]
    y[:m] -= s
    y[m:m + n] += s
    return y


def assert_matches_reference(sol, model, marginals, atol, unique=True):
    """A solve against the linprog reference on the program the model holds:
    the objective, the row duals, and the reduced costs, which must be the
    program's ``c - A^T y`` with the signs of an optimal dual.  The density
    rows of cells without mass are degenerate, so on a master only the
    marginal and Theta-mass rows have unique duals: ``unique=False``
    compares those and checks the rest as an optimal dual, of the
    reference's value, without comparing entries."""
    lp = model_program(model)
    ref = reference_solve(lp)
    assert sol.objective == pytest.approx(ref["objective"], abs=atol)
    assert np.allclose(shift_free(sol.duals_eq, *marginals),
                       shift_free(ref["duals_eq"], *marginals), rtol=0.0, atol=atol)
    if unique:
        assert np.allclose(sol.duals_ub, ref["duals_ub"], rtol=0.0, atol=atol)
        assert np.allclose(sol.reduced_costs, ref["reduced_costs"], rtol=0.0, atol=atol)
    y_a = lp.a_eq.T @ sol.duals_eq + (0.0 if lp.a_ub is None else lp.a_ub.T @ sol.duals_ub)
    assert np.allclose(sol.reduced_costs, lp.c - y_a, rtol=0.0, atol=atol)
    sign = 1.0 if lp.sense == "min" else -1.0
    assert (sign * sol.reduced_costs).min(initial=0.0) >= -atol
    assert (sign * sol.duals_ub).max(initial=0.0) <= atol
    dual_value = sol.duals_eq @ model.b_eq + sol.duals_ub @ model.b_ub
    assert dual_value == pytest.approx(ref["objective"], abs=atol)


class TestSolveLp:
    def test_textbook_corner(self):
        sol = solve_lp(box_model())
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)
        assert sol.residuals["gap"] <= 1e-7

    @pytest.mark.parametrize("kind", ["infeasible", "unbounded"])
    def test_any_status_but_optimal_raises(self, kind):
        if kind == "infeasible":
            # x = 1 and x <= 0
            model = LpModel("max", np.ones(1))
            model.append(np.ones(1), np.array([0]), np.array([0, 1]), np.ones(2), np.zeros(1))
        else:
            model = LpModel("max", np.zeros(0))
            model.append(np.ones(1), np.array([0]), np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(NumericalFailure, match="HiGHS terminated abnormally"):
            solve_lp(model)

    def test_determinism(self):
        # two builds of the same models solve bit for bit alike
        for models in (transport_models, grown_masters):
            for (a, _), (b, _) in zip(models(np.random.default_rng(17), 10),
                                      models(np.random.default_rng(17), 10)):
                s1, s2 = solve_lp(a), solve_lp(b)
                assert s1.objective == s2.objective
                assert s1.iterations == s2.iterations
                for name in ("x", "duals_eq", "duals_ub", "reduced_costs"):
                    assert np.array_equal(getattr(s1, name), getattr(s2, name)), name

    def test_cross_engine_agreement(self):
        # scipy's linprog is the reference for the binding
        for model, marginals in transport_models(np.random.default_rng(3), 40):
            assert_matches_reference(solve_lp(model), model, marginals, 1e-9)

    def test_strong_duality_certified_every_solve(self):
        for model, marginals in grown_masters(np.random.default_rng(29), 50):
            sol = solve_lp(model)
            assert sol.residuals["gap"] <= 1e-7
            assert sol.residuals["primal"] <= 1e-8
            assert sol.residuals["dual"] <= 1e-8
            assert sol.residuals["compslack"] <= 1e-8
            assert_matches_reference(sol, model, marginals, 1e-9, unique=False)


class TestEngine:
    def test_mixed_rows_keep_their_duals(self):
        # equality rows come first in the HiGHS model, then the <= density
        # rows; both duals must map back, in the posed sense.  With one row
        # atom every cell carries mass, so every dual is unique.
        rng = np.random.default_rng(5)
        mu, nu = validate_marginal([1.0]), validate_marginal(rng.dirichlet(np.ones(6)))
        model = whole_master(mu, nu, LossMatrix(rng.normal(size=(1, 6))), C2_GRID)
        assert model.b_eq.size and model.b_ub.size
        assert_matches_reference(solve_lp(model), model, (1, 6), 1e-9)

    def test_whole_lifted_lp_reports_iterations(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
        sol = solve_lp(whole_master(mu, nu, loss, SpectralGrid.dirac(0.9)))
        assert sol.engine == "highs"
        assert sol.iterations > 0


def lifted_permutation(sizes, K):
    """Model column of each column of the lifted program, and model density
    row of each of its density rows, for a master built from the first of
    cell batches of the given sizes and grown by appending the others."""
    n = sum(sizes)
    col = np.empty((K + 1, n), dtype=int)
    row = np.empty((K, n), dtype=int)
    var = dens = cell = 0
    for a in sizes:
        col[:, cell:cell + a] = var + np.arange((K + 1) * a).reshape(K + 1, a)
        row[:, cell:cell + a] = dens + np.arange(K * a).reshape(K, a)
        var, dens, cell = var + (K + 1) * a, dens + K * a, cell + a
    return col.ravel(), row.ravel()


class TestLpModel:
    def test_cost_swapped_resolve_matches_fresh_solve(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            m, n = (int(v) for v in rng.integers(1, 7, size=2))
            mu, nu = random_weights(rng, m), random_weights(rng, n)
            sense = str(rng.choice(["max", "min"]))
            transport = lpsolver._Transport(mu, nu, sense)
            for k in range(4):
                # integer costs tie many plans
                cost = (rng.integers(-2, 3, size=(m, n)).astype(float) if rng.random() < 0.5
                        else rng.normal(size=(m, n)))
                sol, plan = transport.solve(cost)
                if k == 0:
                    model = transport.model
                assert transport.model is model
                fresh = reference_solve(model_program(model))
                assert sol.objective == pytest.approx(fresh["objective"], abs=1e-9)
                value, _, _ = solve_transport(mu, nu, LossMatrix(cost), sense)
                assert sol.objective == pytest.approx(value, abs=1e-9)
                assert np.allclose(plan.sum(axis=1), mu.weights, atol=1e-9)
                assert np.allclose(plan.sum(axis=0), nu.weights, atol=1e-9)

    def test_appended_master_matches_whole_restricted_program(self):
        # the 50 degenerate instances of TestColumnGeneration: a master on
        # the staircase (feasible for any marginals) grown by two batches of
        # the other cells, in random order
        rng = np.random.default_rng(404)
        for _ in range(50):
            mu, nu, loss = degenerate_instance(rng)
            a = float(rng.uniform(0.05, 0.95))
            si, sj, _ = bounds._staircase(mu, nu, bounds._mean_loss_order(mu, nu, loss))
            first = si * loss.shape[1] + sj
            rest = rng.permutation(np.setdiff1d(np.arange(loss.values.size), first))
            cuts = np.sort(rng.integers(0, rest.size + 1, size=2))
            batches = [first] + [b for b in np.split(rest, cuts)[:2] if b.size]
            for grid in (SpectralGrid.dirac(a), C2_GRID):
                ci, cj = np.divmod(batches[0], loss.shape[1])
                model = LpModel("max", np.concatenate([mu.weights, nu.weights,
                                                       np.ones(grid.n_levels)]))
                model.append(*bounds._lifted_columns(ci, cj, loss, grid, model.n_rows))
                assert_model_holds(model, coo_msp_lp(mu, nu, loss, grid, (ci, cj)))
                solve_lp(model)
                for batch in batches[1:]:
                    bi, bj = np.divmod(batch, loss.shape[1])
                    model.append(*bounds._lifted_columns(bi, bj, loss, grid, model.n_rows))
                    solve_lp(model)
                cells = np.divmod(np.concatenate(batches), loss.shape[1])
                whole = coo_msp_lp(mu, nu, loss, grid, cells)
                sol = solve_lp(model)
                assert sol.iterations == 0      # solved already: the basis is kept
                assert sol.objective == pytest.approx(reference_solve(whole)["objective"],
                                                      abs=1e-9)
                # the grown master is the whole program, permuted
                col, row = lifted_permutation([b.size for b in batches], grid.n_levels)
                held = model_program(model)
                assert np.array_equal(held.c[col], whole.c)
                assert np.array_equal(held.a_eq.toarray()[:, col], whole.a_eq.toarray())
                assert np.array_equal(held.a_ub.toarray()[row][:, col], whole.a_ub.toarray())
                assert np.array_equal(held.b_eq, whole.b_eq)

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_transport_model_is_the_coo_built_transport(self, sense):
        # the zero-mass row 1 and column 0 drop out: 3 x 2 kept cells
        mu = validate_marginal([0.2, 0.0, 0.5, 0.3])
        nu = validate_marginal([0.0, 0.6, 0.4])
        keep_i, keep_j = np.array([0, 2, 3]), np.array([1, 2])
        cost = np.random.default_rng(5).normal(size=(4, 3))
        transport = lpsolver._Transport(mu, nu, sense)
        sol, plan = transport.solve(cost)
        ci, cj = np.divmod(np.arange(6), 2)
        a_eq = sp.csr_matrix((np.ones(12), (np.concatenate([ci, 3 + cj]),
                                            np.tile(np.arange(6), 2))), shape=(5, 6))
        ref = LinearProgram(sense=sense, c=cost[np.ix_(keep_i, keep_j)].ravel(), a_eq=a_eq,
                            b_eq=np.concatenate([mu.weights[keep_i], nu.weights[keep_j]]))
        assert_model_holds(transport.model, ref)
        assert sol.objective == pytest.approx(reference_solve(ref)["objective"], abs=1e-12)
        assert not plan[1].any() and not plan[:, 0].any()

    def test_failed_certification_raises_on_a_live_model(self, monkeypatch):
        rng = np.random.default_rng(8)
        mu, nu, loss = random_instance(rng, max_side=4)
        model = whole_master(mu, nu, loss, C2_GRID)
        solve_lp(model)
        monkeypatch.setattr(lpsolver, "GAP_TOL", -1.0)
        model.set_cost(-model.c)
        with pytest.raises(NumericalFailure, match="certification"):
            solve_lp(model)

    def test_append_rejects_rows_outside_the_program(self):
        model = box_model()
        with pytest.raises(DimensionMismatch):
            model.append(np.ones(1), np.array([0]), np.array([3]), np.ones(1), np.zeros(1))
        with pytest.raises(DimensionMismatch):
            model.set_cost(np.ones(3))

    @pytest.mark.parametrize("case, error", [
        ("first offset", DimensionMismatch), ("falling offsets", DimensionMismatch),
        ("offset past the entries", DimensionMismatch), ("unpaired values", DimensionMismatch),
        ("cost", NumericalFailure), ("coefficient", NumericalFailure),
        ("right-hand side", NumericalFailure)])
    def test_append_rejects_malformed_columns(self, case, error):
        # two columns over the two rows of the box and one new row
        args = {"c": np.ones(2), "start": np.array([0, 2]), "index": np.array([0, 2, 1, 2]),
                "value": np.ones(4), "b_ub": np.ones(1)}
        bad = {"first offset": ("start", np.array([1, 2])),
               "falling offsets": ("start", np.array([0, -1])),
               "offset past the entries": ("start", np.array([0, 5])),
               "unpaired values": ("value", np.ones(3)),
               "cost": ("c", np.array([1.0, np.inf])),
               "coefficient": ("value", np.array([1.0, np.nan, 1.0, 1.0])),
               "right-hand side": ("b_ub", np.array([np.inf]))}[case]
        args[bad[0]] = bad[1]
        model = box_model()
        with pytest.raises(error):
            model.append(**args)
        assert model.n_vars == 2 and model.n_rows == 2

    def test_rejects_a_sense_but_max_or_min(self):
        with pytest.raises(DimensionMismatch, match="sense"):
            LpModel("maximize", np.ones(1))


class TestLinearProgram:
    @pytest.mark.parametrize("case, error", [
        ("sense", DimensionMismatch), ("cost", NumericalFailure), ("columns", DimensionMismatch),
        ("coefficient", NumericalFailure), ("right-hand side", DimensionMismatch)])
    def test_rejects_malformed_programs(self, case, error):
        fields = {"sense": "max", "c": np.ones(2), "a_eq": sp.csr_matrix([[1.0, 1.0]]),
                  "b_eq": np.ones(1)}
        bad = {"sense": ("sense", "maximize"), "cost": ("c", np.array([1.0, np.nan])),
               "columns": ("a_eq", sp.csr_matrix([[1.0, 1.0, 1.0]])),
               "coefficient": ("a_eq", sp.csr_matrix([[1.0, np.inf]])),
               "right-hand side": ("b_eq", np.ones(2))}[case]
        fields[bad[0]] = bad[1]
        with pytest.raises(error):
            LinearProgram(**fields)


class TestTransport:
    def test_dirac_marginals(self):
        mu = validate_marginal([1.0])
        nu = validate_marginal([1.0])
        cost = LossMatrix(np.array([[4.25]]))
        value, plan, (phi, psi) = solve_transport(mu, nu, cost, "max")
        assert value == pytest.approx(4.25)
        assert plan.matrix[0, 0] == pytest.approx(1.0)

    def test_identity_reward(self):
        mu = validate_marginal([0.5, 0.5])
        nu = validate_marginal([0.5, 0.5])
        cost = LossMatrix(np.eye(2))
        value, plan, _ = solve_transport(mu, nu, cost, "max")
        assert value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-9)

    def test_max_min_negation_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m, n = rng.integers(1, 7, size=2)
            mu = validate_marginal(np.diff(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, m - 1)]))))
            nu = validate_marginal(np.diff(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n - 1)]))))
            c = rng.normal(size=(m, n))
            v1, _, _ = solve_transport(mu, nu, LossMatrix(c), "max")
            v2, _, _ = solve_transport(mu, nu, LossMatrix(-c), "min")
            assert v1 == pytest.approx(-v2, abs=1e-8)

    def test_potentials_cover_and_support_equality(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            m, n = rng.integers(2, 9, size=2)
            mu = validate_marginal(rng.dirichlet(np.ones(m)))
            nu = validate_marginal(rng.dirichlet(np.ones(n)))
            c = rng.normal(size=(m, n))
            value, plan, (phi, psi) = solve_transport(mu, nu, LossMatrix(c), "max")
            cover = phi[:, None] + psi[None, :] - c
            assert cover.min() >= -1e-8
            on_support = plan.matrix > 1e-10
            assert np.abs(cover[on_support]).max(initial=0.0) <= 1e-8
            assert phi[0] == 0.0
            assert float(phi @ mu.weights + psi @ nu.weights) == pytest.approx(value, abs=1e-7)

    def test_zero_mass_atoms_dropped_and_reinserted(self):
        mu = validate_marginal([0.5, 0.0, 0.5])
        nu = validate_marginal([0.0, 1.0])
        c = np.array([[1.0, 2.0], [5.0, 9.0], [0.0, 3.0]])
        value, plan, (phi, psi) = solve_transport(mu, nu, LossMatrix(c), "max")
        assert plan.matrix[1, :].sum() == 0.0
        assert plan.matrix[:, 0].sum() == 0.0
        assert value == pytest.approx(0.5 * 2.0 + 0.5 * 3.0)
        cover = phi[:, None] + psi[None, :] - c
        assert cover.min() >= -1e-8

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            m, n = rng.integers(1, 31, size=2)
            mu = validate_marginal(rng.dirichlet(np.ones(m)))
            nu = validate_marginal(rng.dirichlet(np.ones(n)))
            c = rng.normal(size=(m, n))
            _, plan, _ = solve_transport(mu, nu, LossMatrix(c), "max")
            r, s = plan.marginal_residuals(mu, nu)
            assert max(r, s) <= 1e-9

    def test_vertex_support_size(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            m, n = rng.integers(2, 12, size=2)
            mu = validate_marginal(rng.dirichlet(np.ones(m)))
            nu = validate_marginal(rng.dirichlet(np.ones(n)))
            c = rng.normal(size=(m, n))
            _, plan, _ = solve_transport(mu, nu, LossMatrix(c), "max")
            assert int((plan.matrix > 1e-10).sum()) <= m + n - 1

    def test_too_large_rejected(self):
        side = 2237                     # the smallest square past the envelope
        assert side ** 2 > MSP_MAX_CELLS_TIMES_LEVELS >= (side - 1) ** 2
        mu = validate_marginal(np.full(side, 1.0 / side))
        with pytest.raises(ProblemTooLarge):
            solve_transport(mu, mu, LossMatrix(np.zeros((side, side))), "max")


class TestVertexEnumeration:
    def test_vertices_match_lp_optimum(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            m, n = rng.integers(2, 5, size=2)
            mu = validate_marginal(rng.dirichlet(np.ones(m)))
            nu = validate_marginal(rng.dirichlet(np.ones(n)))
            c = rng.normal(size=(m, n))
            value, _, _ = solve_transport(mu, nu, LossMatrix(c), "max")
            best = max(float((c * v).sum()) for v in transport_polytope_vertices(mu, nu))
            assert best == pytest.approx(value, abs=1e-8)

    def test_vertices_are_feasible(self):
        mu = validate_marginal([0.2, 0.8])
        nu = validate_marginal([0.5, 0.5])
        for v in transport_polytope_vertices(mu, nu):
            assert np.abs(v.sum(axis=1) - mu.weights).max() <= 1e-9
            assert np.abs(v.sum(axis=0) - nu.weights).max() <= 1e-9
            assert v.min() >= -1e-10

    @staticmethod
    def reference_vertices(mu, nu):
        """One rank test and one solve per candidate basis."""
        m, n = mu.size, nu.size
        a_full = np.zeros((m + n, m * n))
        for k in range(m * n):
            a_full[k // n, k] = 1.0
            a_full[m + k % n, k] = 1.0
        b = np.concatenate([mu.weights, nu.weights])
        out = []
        for combo in itertools.combinations(range(m * n), m + n - 1):
            a = a_full[:-1, combo]
            if np.linalg.matrix_rank(a) < m + n - 1:
                continue
            flows = np.linalg.lstsq(a, b[:-1], rcond=None)[0]
            if np.any(flows < -1e-10):
                continue
            full = np.zeros(m * n)
            full[list(combo)] = flows
            if abs(full.reshape(m, n).sum(axis=0) - nu.weights).max() <= 1e-9:
                out.append(full)
        return out

    @pytest.mark.parametrize("zero_atom", [False, True])
    def test_batched_matches_per_basis_reference(self, zero_atom):
        rng = np.random.default_rng(72)
        shapes = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
        for m, n in shapes:
            mw = rng.dirichlet(np.ones(m))
            nw = rng.dirichlet(np.ones(n))
            if zero_atom:
                if m > 1:
                    mw[int(rng.integers(m))] = 0.0
                if n > 1:
                    nw[int(rng.integers(n))] = 0.0
            mu = validate_marginal(mw / mw.sum())
            nu = validate_marginal(nw / nw.sum())
            got = list(transport_polytope_vertices(mu, nu))
            for v in got:
                assert v.shape == (m, n)

            def keys(plans):
                return {tuple(np.round(np.ravel(p), 9)) for p in plans}

            assert keys(got) == keys(self.reference_vertices(mu, nu)), (m, n)
            assert len(keys(got)) == len(got), (m, n)

    def test_bases_are_the_spanning_trees_cached_once_per_shape(self, monkeypatch):
        lpsolver._spanning_trees.cache_clear()
        rng = np.random.default_rng(73)
        shapes = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
        held = 0
        for m, n in shapes:
            mu = validate_marginal(rng.dirichlet(np.ones(m)))
            nu = validate_marginal(rng.dirichlet(np.ones(n)))
            list(transport_polytope_vertices(mu, nu))
            trees = lpsolver._spanning_trees(m, n)
            # Cayley's formula for K_{m,n}
            assert trees.shape == (m ** (n - 1) * n ** (m - 1), m + n - 1), (m, n)
            assert trees.dtype == np.int8 and not trees.flags.writeable
            assert np.all(np.diff(trees, axis=1) > 0)
            held += trees.nbytes
        assert held < 100_000
        assert lpsolver._spanning_trees.cache_info().misses == len(shapes)

        def no_candidates(*args):
            raise AssertionError("a cached shape drew candidate supports again")

        monkeypatch.setattr(lpsolver, "combinations", no_candidates)
        hits = lpsolver._spanning_trees.cache_info().hits
        mu = validate_marginal(rng.dirichlet(np.ones(4)))
        nu = validate_marginal(rng.dirichlet(np.ones(4)))
        assert list(transport_polytope_vertices(mu, nu))
        assert lpsolver._spanning_trees.cache_info().hits == hits + 1

    def test_more_than_36_cells_rejected(self):
        mu = validate_marginal(np.full(6, 1.0 / 6))
        nu = validate_marginal(np.full(7, 1.0 / 7))
        with pytest.raises(ProblemTooLarge):
            transport_polytope_vertices(mu, nu)


class TestMpsDump:
    # sha256 and size of both exports of the linear-Gaussian 50x100 MES LP
    # (seed 701, alpha 0.9), as written when build_msp_lp assembled its
    # blocks through COO
    LG50X100_MPS = {
        False: (1062646, "c4e6efee3591481962e6faf44edce6c59e717588019907ea5e087c8408823505"),
        True: (1130754, "99f175627d070d1f3e5647948494db4b8911259f7f5c0b40beb856551c01ed98"),
    }

    # sha256 and size of both exports of the programs below, as written by
    # the per-entry string writer that preceded the columnar one
    PINNED_MPS = {
        ("ccr20_k8", False): (455296, "18d46b88f43cbd7692746fa612442247f36f873a54495b55cbea172afc718759"),
        ("ccr20_k8", True): (495424, "1da11ad0d6912febbbb7a87557cf1f8c223eeab6b0f159a6cc51e0874456d730"),
        ("eq_only", False): (14221, "7f4bdad7ec0b6c38c331b88ddaedb165c1e21d9d588989161863ddc3f18a3f98"),
        ("eq_only", True): (16859, "d2ff93d84a1918adec7152a2b3470933304818ee8f57db8e3c071848d126da07"),
        ("ub_only", False): (14241, "fa43df0572dde71419fa830e6876397ee96565a35fe50c9e26756c67a81d30b8"),
        ("ub_only", True): (16887, "c391d7fe6a27b6d55d0258561134d88bf813837a0501597ce3df133666b360e5"),
    }

    @staticmethod
    def pinned_lp(kind):
        if kind == "ccr20_k8":
            grid = discretize_spectrum(SpectralFunction.power_sqrt(), 8)
            return build_msp_lp(*build_ccr_instance(DEFAULT_CCR_PARAMS, 20, 31), grid)
        # 30 rows over 45 columns, all equalities or alternately <= and >=
        # rows; a >= row is negated into a <= row
        m, n = 30, 45
        i, j = np.nonzero((3 * np.arange(m)[:, None] + 5 * np.arange(n)) % 7 < 2)
        values = ((i * 11 + j * 13) % 23 - 11) / 9.0
        rhs = (np.arange(m) % 5 - 2) / 3.0
        if kind == "ub_only":
            flip = np.where(np.arange(m) % 2, -1.0, 1.0)
            values, rhs = values * flip[i], rhs * flip
        a = sp.csr_matrix((values, (i, j)), shape=(m, n))
        c = (np.arange(n) * 17 % 19 - 9) / 7.0
        if kind == "eq_only":
            return LinearProgram(sense="min", c=c, a_eq=a, b_eq=rhs)
        return LinearProgram(sense="max", c=c, a_ub=a, b_ub=rhs)

    @pytest.mark.parametrize("exact", [False, True])
    def test_lifted_export_is_byte_identical(self, exact, tmp_path):
        lp = build_mes_lp(*build_gaussian_linear_instance(50, 100, 701), 0.9)
        path = tmp_path / "lp.mps"
        write_mps(lp, path, name="MESLP", exact=exact)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.LG50X100_MPS[exact]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", ["ccr20_k8", "eq_only", "ub_only"])
    def test_export_is_byte_identical(self, kind, exact, tmp_path):
        path = tmp_path / "lp.mps"
        write_mps(self.pinned_lp(kind), path, exact=exact)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.PINNED_MPS[kind, exact]

    @pytest.mark.parametrize("overflow", ["columns", "eq rows", "ub rows"])
    def test_names_past_the_digit_limit(self, overflow, tmp_path, monkeypatch):
        # with two-digit names, 99 columns or rows of a kind fit and 100 do not
        monkeypatch.setattr(lpsolver, "MPS_NAME_DIGITS", 2)
        n, m = (100, 99) if overflow == "columns" else (99, 100)
        # row i: x[i % n] - 2 x[(i + 1) % n] against i + 1
        rows = np.repeat(np.arange(m), 2)
        cols = np.column_stack([np.arange(m) % n, (np.arange(m) + 1) % n]).ravel()
        a = sp.csr_matrix((np.tile([1.0, -2.0], m), (rows, cols)), shape=(m, n))
        kind = "ub" if overflow == "ub rows" else "eq"
        lp = LinearProgram(sense="min", c=np.arange(1.0, n + 1.0),
                           **{f"a_{kind}": a, f"b_{kind}": np.arange(1.0, m + 1.0)})
        path = tmp_path / "lp.mps"
        with pytest.raises(ProblemTooLarge, match="2-digit names"):
            write_mps(lp, path)
        write_mps(lp, path, exact=True)
        lines = path.read_text().splitlines()
        big = {"columns": "X100", "eq rows": "E100", "ub rows": "L100"}[overflow]
        assert any(big in line.split() for line in lines)
        # names that fit keep two zero-padded digits in an 8-byte field
        assert lines[lines.index("COLUMNS") + 1].startswith("    X01       COST      1.0         ")
        back = read_mps(path)
        assert np.array_equal(back.c, lp.c)
        for name in ("a_eq", "a_ub"):
            if getattr(lp, name) is not None:
                assert np.array_equal(getattr(back, name).toarray(), getattr(lp, name).toarray())
        monkeypatch.setattr(lpsolver, "MPS_NAME_DIGITS", 3)
        write_mps(lp, path)
        lines = path.read_text().splitlines()
        assert lines[lines.index("COLUMNS") + 1].startswith("    X001      COST      1           ")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_entry_writer(self, seed, tmp_path, monkeypatch):
        # random programs against the reference writer, with names short
        # enough to widen and blocks of lines small enough to split columns
        rng = np.random.default_rng(seed)

        def values(k):
            v = rng.normal(size=k) * 10.0 ** rng.integers(-300, 300, k)
            return np.where(rng.random(k) < 0.3, rng.choice([0.0, 1.0, -2.5, 0.1], k), v)

        for trial in range(25):
            n, m_eq, m_ub = (int(k) for k in rng.integers(1, 120, 3))
            blocks = {}
            for name, m in (("eq", m_eq), ("ub", m_ub)):
                if rng.random() < 0.8:
                    a = sp.random(m, n, density=0.2 * rng.random(), format="csr",
                                  random_state=int(rng.integers(1 << 30)))
                    a.data = values(a.nnz)
                    blocks[f"a_{name}"], blocks[f"b_{name}"] = a, values(m)
            lp = LinearProgram(sense=("min", "max")[trial % 2], c=values(n) * (rng.random(n) < 0.7),
                               **blocks)
            digits, exact = int(rng.choice([1, 2, 7])), bool(trial % 3)
            monkeypatch.setattr(lpsolver, "MPS_NAME_DIGITS", digits)
            monkeypatch.setattr(lpsolver, "_MPS_CHUNK_LINES", int(rng.choice([1, 3, 2048])))
            path = tmp_path / "lp.mps"
            sizes = [n] + [a.shape[0] for a in (lp.a_eq, lp.a_ub) if a is not None]
            if not exact and max(sizes) >= 10 ** digits:
                with pytest.raises(ProblemTooLarge):
                    write_mps(lp, path)
                continue
            write_mps(lp, path, exact=exact)
            assert path.read_text() == reference_mps(lp, exact, digits)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kinds", [("eq",), ("ub",), ("eq", "ub")])
    def test_raw_csr_blocks_match_the_per_entry_writer(self, kinds, exact, tmp_path):
        # rows with unsorted columns, stored zeros and duplicate entries, two
        # of which cancel; columns 2 and 4 end up empty, column 6 has a cost only
        def raw():
            return sp.csr_matrix((np.array([2.0, 0.0, -1.5, 1.0, 3.0, 2.0, 0.25, 0.0, 4.0, -4.0]),
                                  np.array([4, 1, 2, 0, 4, 0, 2, 1, 1, 1]),
                                  np.array([0, 3, 6, 10])), shape=(3, 6))

        blocks = {}
        for kind in kinds:
            blocks[f"a_{kind}"], blocks[f"b_{kind}"] = raw(), np.array([1.0, 0.0, -2.5])
        lp = LinearProgram(sense="max", c=np.array([1.5, 0.0, -2.0, 0.0, 0.0, 7.0]), **blocks)
        before = [(a.data.copy(), a.indices.copy(), a.indptr.copy())
                  for a in (lp.a_eq, lp.a_ub) if a is not None]
        path = tmp_path / "lp.mps"
        write_mps(lp, path, exact=exact)
        text = path.read_text()
        assert text == reference_mps(lp, exact)
        lines = text.splitlines()
        assert not any(x in line for line in lines for x in ("X0000002", "X0000004"))
        assert [line.split()[1] for line in lines if "X0000006" in line] == ["COST"]
        # the caller's buffers are left as they were: unsorted, zeros stored
        for a, old in zip((a for a in (lp.a_eq, lp.a_ub) if a is not None), before):
            for got, want in zip((a.data, a.indices, a.indptr), old):
                assert np.array_equal(got, want)

    def test_fixed_format_sections(self, tmp_path):
        path = tmp_path / "lp.mps"
        box = LinearProgram(sense="max", c=np.ones(2), a_ub=sp.identity(2, format="csr"),
                            b_ub=np.ones(2))
        write_mps(box, path, name="BOXLP")
        text = path.read_text()
        lines = text.splitlines()
        assert lines[1].startswith("NAME")
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert any(l.startswith(section) for l in lines)
        assert " N  COST" in text
        # row sections precede column data
        assert text.index("ROWS") < text.index("COLUMNS") < text.index("RHS")

    def test_exact_export_reads_back_to_the_same_program(self, tmp_path):
        rng = np.random.default_rng(5)
        mu = validate_marginal(rng.dirichlet(np.ones(4)))
        nu = validate_marginal(rng.dirichlet(np.ones(5)))
        # max 3x + y/3  s.t.  x + y/10 <= 2/3,  x - y = -0.7
        small = LinearProgram(sense="max", c=np.array([3.0, 1.0 / 3.0]),
                              a_ub=sp.csr_matrix([[1.0, 0.1]]), b_ub=np.array([2.0 / 3.0]),
                              a_eq=sp.csr_matrix([[1.0, -1.0]]), b_eq=np.array([-0.7]))
        for lp in (build_mes_lp(mu, nu, LossMatrix(rng.normal(size=(4, 5))), 0.9), small):
            path = tmp_path / "lp.mps"
            write_mps(lp, path, exact=True)
            back = read_mps(path)
            # the file minimizes the negated objective of a maximization
            assert np.array_equal(back.c, -lp.c)
            for name in ("a_eq", "a_ub"):
                if getattr(lp, name) is not None:
                    assert np.array_equal(getattr(back, name).toarray(),
                                          getattr(lp, name).toarray())
                    rhs = "b" + name[1:]
                    assert np.array_equal(getattr(back, rhs), getattr(lp, rhs))
            assert -reference_solve(back)["objective"] == pytest.approx(
                reference_solve(lp)["objective"], abs=1e-9)


def reference_mps(lp: LinearProgram, exact: bool, digits: int = 7) -> str:
    """The MPS text of ``write_mps``, written one entry at a time."""
    sign = 1.0 if lp.sense == "min" else -1.0
    fmt = (lambda v: repr(float(v))) if exact else (lambda v: f"{v:.6G}")
    lines = [f"* sense: {lp.sense}" + (" (objective negated)" if sign < 0 else "")
             + ("; free MPS, exact floats" if exact else ""),
             f"NAME          {'RISKLP':<8s}", "ROWS", " N  COST"]
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    m_ub = lp.a_ub.shape[0] if lp.a_ub is not None else 0
    rnames = ([f"E{i + 1:0{digits}d}" for i in range(m_eq)]
              + [f"L{i + 1:0{digits}d}" for i in range(m_ub)])
    lines += [f" {r[0]}  {r}" for r in rnames]
    lines.append("COLUMNS")
    blocks = [a for a in (lp.a_eq, lp.a_ub) if a is not None]
    stacked = sp.vstack(blocks, format="csc") if blocks else sp.csc_matrix((0, lp.n_vars))
    stacked.eliminate_zeros()
    stacked.sort_indices()
    cost = (sign * lp.c).tolist()
    for j in range(lp.n_vars):
        entries = [("COST", cost[j])] if cost[j] != 0.0 else []
        entries += [(rnames[stacked.indices[k]], float(stacked.data[k]))
                    for k in range(stacked.indptr[j], stacked.indptr[j + 1])]
        xname = f"X{j + 1:0{digits}d}"
        for k in range(0, len(entries), 2):
            line = f"    {xname:<8s}  {entries[k][0]:<8s}  {fmt(entries[k][1]):<12s}"
            if k + 1 < len(entries):
                line += f"   {entries[k + 1][0]:<8s}  {fmt(entries[k + 1][1]):<12s}"
            lines.append(line)
    lines.append("RHS")
    b_all = [b for b in (lp.b_eq, lp.b_ub) if b is not None]
    for rname, bv in zip(rnames, np.concatenate(b_all).tolist() if b_all else []):
        if bv != 0.0:
            lines.append(f"    RHS       {rname:<8s}  {fmt(bv):<12s}")
    lines += ["BOUNDS", "ENDATA"]
    return "\n".join(lines) + "\n"


def read_mps(path) -> LinearProgram:
    """Parse a file written by ``write_mps`` back into a minimization."""
    rows, entries, rhs = {}, [], {}
    section = None
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("*"):
            continue
        if not line[0].isspace():
            section = line.split()[0]
            continue
        f = line.split()
        if section == "ROWS":
            rows[f[1]] = f[0]
        elif section == "COLUMNS":
            entries += [(f[0], f[k], float(f[k + 1])) for k in range(1, len(f), 2)]
        elif section == "RHS":
            rhs.update((f[k], float(f[k + 1])) for k in range(1, len(f), 2))
        else:
            raise AssertionError(f"a line in section {section}: {line!r}")
    # names widen past their zero-padded digits, so shorter names come first
    by_number = dict(key=lambda s: (len(s), s))
    cols = {x: k for k, x in enumerate(sorted({e[0] for e in entries}, **by_number))}
    index = {kind: {r: k for k, r in enumerate(sorted((r for r, t in rows.items() if t == kind),
                                                      **by_number))}
             for kind in ("E", "L")}
    n = len(cols)
    c = np.zeros(n)
    mats = {kind: np.zeros((len(index[kind]), n)) for kind in ("E", "L")}
    for x, r, v in entries:
        if r == "COST":
            c[cols[x]] = v
        else:
            mats[rows[r]][index[rows[r]][r], cols[x]] = v
    rhs_of = {kind: np.array([rhs.get(r, 0.0) for r in sorted(index[kind], key=index[kind].get)])
              for kind in ("E", "L")}
    return LinearProgram(
        sense="min", c=c,
        a_eq=sp.csr_matrix(mats["E"]) if index["E"] else None,
        b_eq=rhs_of["E"] if index["E"] else None,
        a_ub=sp.csr_matrix(mats["L"]) if index["L"] else None,
        b_ub=rhs_of["L"] if index["L"] else None)
