import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from riskbound import lpsolver
from riskbound.bounds import build_mes_lp
from riskbound.core import LossMatrix, ProblemTooLarge, validate_marginal
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance
from riskbound.lpsolver import (
    LinearProgram,
    solve_lp,
    solve_transport,
    transport_polytope_vertices,
    write_mps,
)


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
        mu = validate_marginal(np.full(2001, 1.0 / 2001))
        nu = validate_marginal(np.full(2001, 1.0 / 2001))
        with pytest.raises(ProblemTooLarge):
            solve_transport(mu, nu, LossMatrix(np.zeros((2001, 2001))), "max")


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
    cols = {x: k for k, x in enumerate(sorted({e[0] for e in entries}))}
    index = {kind: {r: k for k, r in enumerate(sorted(r for r, t in rows.items() if t == kind))}
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
