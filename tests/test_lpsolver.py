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
from test_bounds import C2_GRID, degenerate_instance, random_instance


def box_lp():
    # max x + y  s.t.  x <= 1, y <= 1, x,y >= 0
    return LinearProgram.from_rows(
        "max", [1.0, 1.0],
        rows=[([0], [1.0], "<=", 1.0), ([1], [1.0], "<=", 1.0)],
    )


ROUTES = ("highs", "linprog")


def solve_on(route, lp, monkeypatch):
    """Solve on the HiGHS binding, or on the linprog fallback that runs
    where scipy lacks the binding."""
    with monkeypatch.context() as m:
        if route == "linprog":
            m.setattr(lpsolver, "_highspy", None)
        return solve_lp(lp)


class TestSolveLp:
    @pytest.mark.parametrize("route", ROUTES)
    def test_textbook_corner(self, route, monkeypatch):
        sol = solve_on(route, box_lp(), monkeypatch)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)
        assert sol.residuals["gap"] <= 1e-7

    @pytest.mark.parametrize("route", ROUTES)
    def test_infeasible(self, route, monkeypatch):
        lp = LinearProgram.from_rows(
            "max", [1.0],
            rows=[([0], [1.0], ">=", 1.0), ([0], [1.0], "<=", 0.0)],
        )
        assert solve_on(route, lp, monkeypatch).status == "infeasible"

    @pytest.mark.parametrize("route", ROUTES)
    def test_unbounded(self, route, monkeypatch):
        lp = LinearProgram(sense="max", c=np.array([1.0]))
        assert solve_on(route, lp, monkeypatch).status == "unbounded"

    def test_equality_and_free_variables(self, monkeypatch):
        # min x - 2z  s.t.  x + y = 1,  z - y <= 2,  y >= 0, x free, z free
        lp = LinearProgram.from_rows(
            "min", [1.0, 0.0, -2.0],
            rows=[([0, 1], [1.0, 1.0], "=", 1.0), ([2, 1], [1.0, -1.0], "<=", 2.0)],
            lb=[-np.inf, 0.0, -np.inf], ub=[np.inf, np.inf, np.inf],
        )
        # x = 1 - y, obj = 1 - y - 2z, z <= 2 + y  ->  obj >= 1 - y - 4 - 2y,
        # unbounded in y.
        for route in ROUTES:
            assert solve_on(route, lp, monkeypatch).status == "unbounded"

    def test_bounded_variables_and_flips(self, monkeypatch):
        # max 3a + b  with a in [0, 2], b in [-1, 1], a + b <= 2
        lp = LinearProgram.from_rows(
            "max", [3.0, 1.0],
            rows=[([0, 1], [1.0, 1.0], "<=", 2.0)],
            lb=[0.0, -1.0], ub=[2.0, 1.0],
        )
        for route in ROUTES:
            sol = solve_on(route, lp, monkeypatch)
            assert sol.objective == pytest.approx(6.0 - 1.0 + 1.0, abs=1e-9)
            assert np.allclose(sol.x, [2.0, 0.0], atol=1e-9)

    def test_determinism(self, monkeypatch):
        rng = np.random.default_rng(17)
        c = rng.normal(size=12)
        a = rng.normal(size=(6, 12))
        lp = LinearProgram(sense="max", c=c, a_ub=sp.csr_matrix(a),
                           b_ub=rng.uniform(1.0, 2.0, size=6),
                           lb=np.zeros(12), ub=np.full(12, 2.0))
        for route in ROUTES:
            s1 = solve_on(route, lp, monkeypatch)
            s2 = solve_on(route, lp, monkeypatch)
            assert s1.objective == s2.objective
            assert np.array_equal(s1.x, s2.x)
            assert s1.iterations == s2.iterations

    def test_cross_engine_agreement(self, monkeypatch):
        # the linprog fallback is the reference for the binding
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 8))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            lp = LinearProgram(sense="max", c=c, a_ub=sp.csr_matrix(a), b_ub=b,
                               lb=np.zeros(n), ub=np.full(n, rng.uniform(1.0, 5.0)))
            s1 = solve_on("highs", lp, monkeypatch)
            s2 = solve_on("linprog", lp, monkeypatch)
            assert s1.status == s2.status == "optimal"
            assert s1.objective == pytest.approx(s2.objective, abs=1e-7)

    def test_strong_duality_certified_every_solve(self, monkeypatch):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 6))
            lp = LinearProgram(sense="min", c=rng.normal(size=n),
                               a_ub=sp.csr_matrix(rng.normal(size=(m, n))),
                               b_ub=rng.uniform(0.5, 2.0, size=m),
                               lb=np.zeros(n), ub=np.full(n, 3.0))
            for route in ROUTES:
                sol = solve_on(route, lp, monkeypatch)
                assert sol.status == "optimal"
                assert sol.residuals["gap"] <= 1e-7
                assert sol.residuals["primal"] <= 1e-8
                assert sol.residuals["dual"] <= 1e-8


class TestEngine:
    def test_binding_bypasses_linprog_and_fallback_uses_it(self, monkeypatch):
        calls = []
        linprog = lpsolver._scipy_linprog

        def spy(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(lpsolver, "_scipy_linprog", spy)
        assert solve_on("highs", box_lp(), monkeypatch).engine == "highs"
        assert calls == []
        assert solve_on("linprog", box_lp(), monkeypatch).engine == "highs"
        assert calls == [1]

    def test_mixed_rows_keep_their_duals(self, monkeypatch):
        # equality rows come first in the HiGHS model; duals must map back
        lp = LinearProgram.from_rows(
            "max", [1.0, 2.0, 0.5],
            rows=[([0, 1], [1.0, 1.0], "<=", 3.0), ([1, 2], [1.0, 1.0], "=", 2.0),
                  ([0, 2], [1.0, -1.0], ">=", -1.0)],
            lb=[0.0, 0.0, 0.0], ub=[2.0, np.inf, np.inf])
        ref = solve_on("linprog", lp, monkeypatch)
        sol = solve_on("highs", lp, monkeypatch)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
        assert np.allclose(sol.duals_eq, ref.duals_eq, atol=1e-9)
        assert np.allclose(sol.duals_ub, ref.duals_ub, atol=1e-9)
        assert np.allclose(sol.reduced_costs, ref.reduced_costs, atol=1e-9)

    @pytest.mark.parametrize("kind", ["infeasible", "unbounded"])
    def test_undecided_presolve_is_resolved_without_it(self, kind, monkeypatch):
        run = lpsolver._highs_run
        presolve_flags = []

        class Undecided:
            def __init__(self, highs):
                self.highs = highs

            def getModelStatus(self):
                return lpsolver._highspy.HighsModelStatus.kUnboundedOrInfeasible

            def __getattr__(self, name):
                return getattr(self.highs, name)

        def spy(lp, presolve):
            presolve_flags.append(presolve)
            return Undecided(run(lp, presolve)) if presolve else run(lp, presolve)

        monkeypatch.setattr(lpsolver, "_highs_run", spy)
        if kind == "infeasible":
            lp = LinearProgram.from_rows("max", [1.0], rows=[([0], [1.0], ">=", 1.0),
                                                             ([0], [1.0], "<=", 0.0)])
        else:
            lp = LinearProgram(sense="max", c=np.array([1.0]))
        assert solve_lp(lp).status == kind
        assert presolve_flags == [True, False]

    def test_whole_lifted_lp_reports_iterations(self):
        mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 40, 31)
        sol = solve_lp(build_mes_lp(mu, nu, loss, 0.9))
        assert sol.engine == "highs"
        assert sol.iterations > 0


def random_weights(rng, size):
    """Random marginal weights with about 30% zero atoms, never all zero."""
    w = rng.dirichlet(np.ones(size))
    w[rng.random(size) < 0.3] = 0.0
    if w.sum() == 0.0:
        w[int(rng.integers(size))] = 1.0
    return validate_marginal(w / w.sum())


def lifted_permutation(sizes, K):
    """Model column of each :func:`build_msp_lp` column, and model density
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
                fresh = solve_lp(model.program())
                assert sol.objective == pytest.approx(fresh.objective, abs=1e-9)
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
            si, sj = bounds._staircase(mu, nu, loss)
            first = si * loss.shape[1] + sj
            rest = rng.permutation(np.setdiff1d(np.arange(loss.values.size), first))
            cuts = np.sort(rng.integers(0, rest.size + 1, size=2))
            batches = [first] + [b for b in np.split(rest, cuts)[:2] if b.size]
            for grid in (SpectralGrid.dirac(a), C2_GRID):
                ci, cj = np.divmod(batches[0], loss.shape[1])
                model = LpModel(build_msp_lp(mu, nu, loss, grid, cells=(ci, cj)))
                assert solve_lp(model).status == "optimal"
                for batch in batches[1:]:
                    bi, bj = np.divmod(batch, loss.shape[1])
                    model.append(*bounds._lifted_columns(bi, bj, loss, grid, model.n_rows))
                    assert solve_lp(model).status == "optimal"
                cells = np.divmod(np.concatenate(batches), loss.shape[1])
                whole = build_msp_lp(mu, nu, loss, grid, cells=cells)
                sol = solve_lp(model)
                assert sol.iterations == 0      # solved already: the basis is kept
                assert sol.objective == pytest.approx(solve_lp(whole).objective, abs=1e-9)
                # the grown master is the whole program, permuted
                col, row = lifted_permutation([b.size for b in batches], grid.n_levels)
                held = model.program()
                assert np.array_equal(held.c[col], whole.c)
                assert np.array_equal(held.a_eq.toarray()[:, col], whole.a_eq.toarray())
                assert np.array_equal(held.a_ub.toarray()[row][:, col], whole.a_ub.toarray())
                assert np.array_equal(held.b_eq, whole.b_eq)

    def test_failed_certification_raises_on_a_live_model(self, monkeypatch):
        rng = np.random.default_rng(8)
        mu, nu, loss = random_instance(rng, max_side=4)
        model = LpModel(build_msp_lp(mu, nu, loss, C2_GRID))
        assert solve_lp(model).status == "optimal"
        monkeypatch.setattr(lpsolver, "GAP_TOL", -1.0)
        model.set_cost(-model.c)
        with pytest.raises(NumericalFailure, match="certification"):
            solve_lp(model)

    def test_without_the_binding_values_are_the_same(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = [(*degenerate_instance(rng, max_side=6), float(rng.uniform(0.1, 0.9)))
                 for _ in range(15)]

        def values():
            return [(bounds.solve_mes(mu, nu, loss, a).value,
                     bounds.solve_msp(mu, nu, loss, C2_GRID).value,
                     bounds.brute_force_mes(mu, nu, loss, a)) for mu, nu, loss, a in cases]

        with_binding = values()
        monkeypatch.setattr(lpsolver, "_highspy", None)
        assert np.allclose(values(), with_binding, rtol=0.0, atol=1e-9)

    def test_append_rejects_rows_outside_the_program(self):
        model = LpModel(box_lp())
        with pytest.raises(DimensionMismatch):
            model.append(np.ones(1), np.array([0]), np.array([3]), np.ones(1), np.zeros(1))
        with pytest.raises(DimensionMismatch):
            model.set_cost(np.ones(3))


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

    def test_more_than_36_cells_rejected(self):
        mu = validate_marginal(np.full(6, 1.0 / 6))
        nu = validate_marginal(np.full(7, 1.0 / 7))
        with pytest.raises(ProblemTooLarge):
            next(transport_polytope_vertices(mu, nu))


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
        ("bounded", False): (1183, "089e109d75ddda1e83c8d9e6de92e64dde21df4b8eda203cc4be1fd0465db5d1"),
        ("bounded", True): (1232, "b3f7658ffe7133f407a432c87ad6ed986a6fa714dd8e5c711f248b1327f951c4"),
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
        if kind == "bounded":
            # FR, MI, LO and UP bounds, an explicit zero coefficient, a column
            # with no entries and zero cost, one with a cost and no entries
            return LinearProgram.from_rows(
                "max", [1.5, -2.0 / 3.0, 0.0, 1e-12, 7.25e20, 0.0, -3.0, 0.1],
                rows=[([0, 1, 2, 3], [1.0, 0.0, -0.125, 2.5e-7], "<=", 4.0),
                      ([1, 3, 4, 6], [1.0 / 3.0, -1e5, 123456789.0, 2.0], "=", 0.0),
                      ([0, 4, 6], [-1.0, 0.3, 1e-300], ">=", -1.0 / 7.0),
                      ([3, 4], [0.5, -0.5], "=", 1e300)],
                lb=[-np.inf, -np.inf, -2.5, 0.0, 1.0 / 3.0, 0.0, 0.0, 1.0],
                ub=[np.inf, 10.0, 2.5, 4.0, np.inf, np.inf, 0.0, 1.0])
        m, n = 30, 45
        rows = [([j for j in range(n) if (3 * i + 5 * j) % 7 < 2],
                 [((i * 11 + j * 13) % 23 - 11) / 9.0 for j in range(n) if (3 * i + 5 * j) % 7 < 2],
                 rel, (i % 5 - 2) / 3.0)
                for i in range(m) for rel in ["=" if kind == "eq_only" else ("<=", ">=")[i % 2]]]
        return LinearProgram.from_rows(
            "min" if kind == "eq_only" else "max",
            [((j * 17) % 19 - 9) / 7.0 for j in range(n)], rows=rows)

    @pytest.mark.parametrize("exact", [False, True])
    def test_lifted_export_is_byte_identical(self, exact, tmp_path):
        lp = build_mes_lp(*build_gaussian_linear_instance(50, 100, 701), 0.9)
        path = tmp_path / "lp.mps"
        write_mps(lp, path, name="MESLP", exact=exact)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.LG50X100_MPS[exact]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", ["ccr20_k8", "bounded", "eq_only", "ub_only"])
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
        rel = "<=" if overflow == "ub rows" else "="
        lp = LinearProgram.from_rows(
            "min", np.arange(1.0, n + 1.0),
            rows=[([i % n, (i + 1) % n], [1.0, -2.0], rel, i + 1.0) for i in range(m)])
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
            lb = np.where(rng.random(n) < 0.6, 0.0, np.where(rng.random(n) < 0.5, -np.inf,
                                                              values(n)))
            ub = np.where(rng.random(n) < 0.6, np.inf, np.maximum(lb, 0.0) + np.abs(values(n)))
            lp = LinearProgram(sense=("min", "max")[trial % 2], c=values(n) * (rng.random(n) < 0.7),
                               lb=lb, ub=ub, **blocks)
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

    def test_fixed_format_sections(self, tmp_path):
        path = tmp_path / "lp.mps"
        write_mps(box_lp(), path, name="BOXLP")
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
        bounded = LinearProgram.from_rows(
            "max", [3.0, 1.0 / 3.0], rows=[([0, 1], [1.0, 0.1], "<=", 2.0 / 3.0)],
            lb=[0.0, -0.7], ub=[2.0, np.inf])
        for lp in (build_mes_lp(mu, nu, LossMatrix(rng.normal(size=(4, 5))), 0.9), bounded):
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
            assert np.array_equal(back.lb, lp.lb) and np.array_equal(back.ub, lp.ub)
            assert -solve_lp(back).objective == pytest.approx(solve_lp(lp).objective,
                                                              abs=1e-9)


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
    lines.append("BOUNDS")
    for j in np.nonzero((lp.lb != 0.0) | np.isfinite(lp.ub))[0].tolist():
        xname = f"X{j + 1:0{digits}d}"
        l, u = lp.lb[j], lp.ub[j]
        if not np.isfinite(l) and not np.isfinite(u):
            lines.append(f" FR BND       {xname:<8s}")
            continue
        if not np.isfinite(l):
            lines.append(f" MI BND       {xname:<8s}")
        elif l != 0.0:
            lines.append(f" LO BND       {xname:<8s}  {fmt(l):<12s}")
        if np.isfinite(u):
            lines.append(f" UP BND       {xname:<8s}  {fmt(u):<12s}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def read_mps(path) -> LinearProgram:
    """Parse a file written by ``write_mps`` back into a minimization."""
    rows, entries, rhs, bound_lines = {}, [], {}, []
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
        elif section == "BOUNDS":
            bound_lines.append(f)
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
    lb, ub = np.zeros(n), np.full(n, np.inf)
    for kind, _, x, *v in bound_lines:
        if kind in ("FR", "MI"):
            lb[cols[x]] = -np.inf
        if kind == "FR":
            ub[cols[x]] = np.inf
        elif kind == "LO":
            lb[cols[x]] = float(v[0])
        elif kind == "UP":
            ub[cols[x]] = float(v[0])
    rhs_of = {kind: np.array([rhs.get(r, 0.0) for r in sorted(index[kind], key=index[kind].get)])
              for kind in ("E", "L")}
    return LinearProgram(
        sense="min", c=c,
        a_eq=sp.csr_matrix(mats["E"]) if index["E"] else None,
        b_eq=rhs_of["E"] if index["E"] else None,
        a_ub=sp.csr_matrix(mats["L"]) if index["L"] else None,
        b_ub=rhs_of["L"] if index["L"] else None,
        lb=lb, ub=ub)
