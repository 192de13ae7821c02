"""
Linear programming layer: one LP engine plus an optimal-transport wrapper.
Every optimal solve returns primal values, row duals, and reduced costs, and
is certified against feasibility / complementary-slackness / duality-gap
residuals before being handed back.

Engine
------
HiGHS's dual simplex (Huangfu & Hall 2018), called through the binding that
scipy bundles (``scipy.optimize._highspy``).  Each solve builds one fresh
HiGHS model straight from the program's CSR blocks, with presolve on and
primal and dual feasibility tolerances of 1e-9; no state is shared between
solves.  The binding is private scipy API, so its import is guarded: where
it is missing, the same dual simplex runs through
``scipy.optimize.linprog(method="highs-ds")``, which costs more per call on
small programs but returns the same values.  Both routes report
``engine="highs"``.

The MES oracle of :mod:`riskbound.bounds` (``brute_force_mes``) runs on the
same engine as the lifted programs it checks.  Its independence rests on
its own assembly (plain transport rows over the original cells, no lifted
variables, no column generation) and on the cross-check of its transport
values with :func:`transport_polytope_vertices` on tiny instances.

Dual sign convention: duals are reported for the problem *as posed*, so
that  objective == duals_eq . b_eq + duals_ub . b_ub + bound terms.  For a
maximization this makes duals of binding <=-rows nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog as _scipy_linprog

try:  # private scipy API; without it, solves go through linprog
    from scipy.optimize._highspy import _core as _highspy
except ImportError:  # pragma: no cover - scipy builds without the binding
    _highspy = None

from .core import (
    Coupling,
    DimensionMismatch,
    LossMatrix,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
)

TRANSPORT_MAX_CELLS = 2_000 * 2_000
_VERTEX_CHUNK = 512             # candidate bases tested and solved per batch

# residual contract for certified optimal solutions
PRIMAL_RES_TOL = 1e-8
DUAL_RES_TOL = 1e-8
CS_RES_TOL = 1e-8
GAP_TOL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """min/max  c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  lb <= x <= ub.

    ``>=`` rows must be negated into ``<=`` rows by the caller (or use
    :meth:`from_rows`).  Bounds use ``-inf``/``+inf`` for free directions.
    """

    sense: str
    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be 'max' or 'min', got {self.sense!r}")
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise NumericalFailure("objective must be a finite 1-D vector")
        n = c.size
        object.__setattr__(self, "c", c)
        for name in ("a_ub", "a_eq"):
            a = getattr(self, name)
            if a is not None:
                a = sp.csr_matrix(a)
                if a.shape[1] != n:
                    raise DimensionMismatch(f"{name} has {a.shape[1]} columns for {n} variables")
                if not np.all(np.isfinite(a.data)):
                    raise NumericalFailure(f"{name} contains non-finite coefficients")
                object.__setattr__(self, name, a)
                b = np.asarray(getattr(self, "b" + name[1:]), dtype=float)
                if b.shape != (a.shape[0],) or not np.all(np.isfinite(b)):
                    raise DimensionMismatch(f"b{name[1:]} does not match {name}")
                object.__setattr__(self, "b" + name[1:], b)
        lb = np.full(n, 0.0) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise DimensionMismatch("bounds do not match the number of variables")
        if np.any(lb > ub):
            raise DimensionMismatch("lower bound exceeds upper bound")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n_vars(self) -> int:
        return int(self.c.size)

    @property
    def n_rows(self) -> int:
        m = 0
        if self.a_ub is not None:
            m += self.a_ub.shape[0]
        if self.a_eq is not None:
            m += self.a_eq.shape[0]
        return m

    @classmethod
    def from_rows(cls, sense: str, c: Sequence[float],
                  rows: Sequence[tuple[Sequence[int], Sequence[float], str, float]],
                  lb: Sequence[float] | None = None,
                  ub: Sequence[float] | None = None) -> "LinearProgram":
        """Build from sparse row triplets ``(indices, values, relation, rhs)``
        with relation in {'<=', '=', '>='}."""
        c = np.asarray(c, dtype=float)
        n = c.size
        ub_r, ub_c, ub_v, ub_b = [], [], [], []
        eq_r, eq_c, eq_v, eq_b = [], [], [], []
        for idx, vals, rel, rhs in rows:
            idx = list(idx)
            vals = [float(v) for v in vals]
            if rel == "=":
                eq_r += [len(eq_b)] * len(idx); eq_c += idx; eq_v += vals; eq_b.append(float(rhs))
            elif rel == "<=":
                ub_r += [len(ub_b)] * len(idx); ub_c += idx; ub_v += vals; ub_b.append(float(rhs))
            elif rel == ">=":
                ub_r += [len(ub_b)] * len(idx); ub_c += idx
                ub_v += [-v for v in vals]; ub_b.append(-float(rhs))
            else:
                raise DimensionMismatch(f"unknown relation {rel!r}")
        a_ub = sp.csr_matrix((ub_v, (ub_r, ub_c)), shape=(len(ub_b), n)) if ub_b else None
        a_eq = sp.csr_matrix((eq_v, (eq_r, eq_c)), shape=(len(eq_b), n)) if eq_b else None
        return cls(sense=sense, c=c, a_ub=a_ub, b_ub=np.array(ub_b) if ub_b else None,
                   a_eq=a_eq, b_eq=np.array(eq_b) if eq_b else None,
                   lb=None if lb is None else np.asarray(lb, dtype=float),
                   ub=None if ub is None else np.asarray(ub, dtype=float))


@dataclass(frozen=True)
class LpSolution:
    """Certified solver output.

    For ``status == 'optimal'`` the stored residuals satisfy the module
    contract (primal/dual feasibility and complementary slackness <= 1e-8,
    duality gap <= 1e-7); :func:`solve_lp` raises ``NumericalFailure``
    otherwise.  ``duals_ub``/``duals_eq`` follow the sign convention in the
    module docstring; ``reduced_costs`` match the posed sense.
    """

    status: str
    objective: float
    x: np.ndarray | None
    duals_ub: np.ndarray | None
    duals_eq: np.ndarray | None
    reduced_costs: np.ndarray | None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    engine: str = ""


# ---------------------------------------------------------------------------
# HiGHS engine
# ---------------------------------------------------------------------------

_HIGHS_TOL = 1e-9               # HiGHS primal and dual feasibility tolerances
_HIGHS_OPTIONS = (("output_flag", False), ("solver", "simplex"),
                  ("simplex_strategy", 1),  # dual
                  ("primal_feasibility_tolerance", _HIGHS_TOL),
                  ("dual_feasibility_tolerance", _HIGHS_TOL))
_LINPROG_OPTIONS = {"presolve": True, "primal_feasibility_tolerance": _HIGHS_TOL,
                    "dual_feasibility_tolerance": _HIGHS_TOL}


def _stack(parts, dtype=float) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=dtype), *parts]).astype(dtype, copy=False)


def _highs_run(lp: LinearProgram, presolve: bool):
    """Solve the min-sense program on one fresh HiGHS model, passed row-wise
    from the CSR buffers: a_eq rows as [b_eq, b_eq], then a_ub rows as
    [-inf, b_ub]."""
    highs = _highspy._Highs()
    for key, val in _HIGHS_OPTIONS:
        highs.setOptionValue(key, val)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    rows = []
    if lp.a_eq is not None:
        rows.append((lp.a_eq, lp.b_eq, lp.b_eq))
    if lp.a_ub is not None:
        rows.append((lp.a_ub, np.full(lp.b_ub.size, -np.inf), lp.b_ub))
    offsets = np.cumsum([0] + [a.nnz for a, _, _ in rows])
    start = _stack([a.indptr[:-1] + off for (a, _, _), off in zip(rows, offsets)], np.int32)
    index = _stack([a.indices for a, _, _ in rows], np.int32)
    value = _stack([a.data for a, _, _ in rows])
    lower = _stack([lo for _, lo, _ in rows])
    upper = _stack([up for _, _, up in rows])
    sign = 1.0 if lp.sense == "min" else -1.0
    n = lp.n_vars
    status = highs.passModel(
        n, lower.size, value.size, int(_highspy.MatrixFormat.kRowwise),
        int(_highspy.ObjSense.kMinimize), 0.0, sign * lp.c, lp.lb, lp.ub, lower, upper,
        start, index, value, np.zeros(n, dtype=np.int32))
    if status == _highspy.HighsStatus.kError:
        raise NumericalFailure("HiGHS rejected the model")
    highs.run()
    return highs


def _solve_highs(lp: LinearProgram) -> LpSolution:
    highs = _highs_run(lp, presolve=True)
    status = highs.getModelStatus()
    if status == _highspy.HighsModelStatus.kUnboundedOrInfeasible:
        # presolve can stop before it tells the two apart; the simplex cannot
        highs = _highs_run(lp, presolve=False)
        status = highs.getModelStatus()
    iterations = int(highs.getInfo().simplex_iteration_count)
    no_solution = {_highspy.HighsModelStatus.kInfeasible: "infeasible",
                   _highspy.HighsModelStatus.kUnbounded: "unbounded"}
    if status in no_solution:
        return LpSolution(status=no_solution[status], objective=np.nan, x=None,
                          duals_ub=None, duals_eq=None, reduced_costs=None,
                          iterations=iterations, engine="highs")
    if status != _highspy.HighsModelStatus.kOptimal:
        raise NumericalFailure(
            f"HiGHS terminated abnormally: {highs.modelStatusToString(status)}")
    sign = 1.0 if lp.sense == "min" else -1.0
    res = highs.getSolution()
    x = np.asarray(res.col_value, dtype=float)
    y = sign * np.asarray(res.row_dual, dtype=float)
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    return LpSolution(status="optimal", objective=float(lp.c @ x), x=x,
                      duals_ub=y[m_eq:], duals_eq=y[:m_eq],
                      reduced_costs=sign * np.asarray(res.col_dual, dtype=float),
                      iterations=iterations, engine="highs")


def _solve_linprog(lp: LinearProgram) -> LpSolution:
    """The same HiGHS dual simplex through ``scipy.optimize.linprog``, for a
    scipy without the binding."""
    sign = 1.0 if lp.sense == "min" else -1.0
    res = _scipy_linprog(sign * lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
                         A_eq=lp.a_eq, b_eq=lp.b_eq,
                         bounds=np.column_stack([lp.lb, lp.ub]),
                         method="highs-ds", options=_LINPROG_OPTIONS)
    if res.status in (2, 3):
        return LpSolution(status="infeasible" if res.status == 2 else "unbounded",
                          objective=np.nan, x=None, duals_ub=None, duals_eq=None,
                          reduced_costs=None, engine="highs")
    if res.status != 0:
        raise NumericalFailure(f"HiGHS terminated abnormally: {res.message}")
    x = np.asarray(res.x, dtype=float)
    y_eq = np.asarray(res.eqlin.marginals, dtype=float) if lp.a_eq is not None else np.zeros(0)
    y_ub = np.asarray(res.ineqlin.marginals, dtype=float) if lp.a_ub is not None else np.zeros(0)
    rc = np.asarray(res.lower.marginals, dtype=float) + np.asarray(res.upper.marginals, dtype=float)
    return LpSolution(status="optimal", objective=float(lp.c @ x), x=x,
                      duals_ub=sign * y_ub, duals_eq=sign * y_eq,
                      reduced_costs=sign * rc,
                      iterations=int(getattr(res, "nit", 0)), engine="highs")


# ---------------------------------------------------------------------------
# Certification and the public entry point
# ---------------------------------------------------------------------------


def _certify(lp: LinearProgram, sol: LpSolution) -> dict:
    """Residuals in the min-sense canonical form; see module contract."""
    sign = 1.0 if lp.sense == "min" else -1.0
    x = sol.x
    c = sign * lp.c
    y_eq = sign * sol.duals_eq if sol.duals_eq is not None else np.zeros(0)
    y_ub = sign * sol.duals_ub if sol.duals_ub is not None else np.zeros(0)
    rc = sign * sol.reduced_costs
    primal = 0.0
    cs = 0.0
    dual_obj = 0.0
    if lp.a_eq is not None:
        r = lp.a_eq @ x - lp.b_eq
        primal = max(primal, float(np.abs(r).max(initial=0.0)))
        dual_obj += float(y_eq @ lp.b_eq)
    if lp.a_ub is not None:
        slack = lp.b_ub - lp.a_ub @ x
        primal = max(primal, float(np.maximum(-slack, 0.0).max(initial=0.0)))
        cs = max(cs, float(np.abs(y_ub * slack).max(initial=0.0)))
        dual_obj += float(y_ub @ lp.b_ub)
    primal = max(primal,
                 float(np.maximum(lp.lb - x, 0.0).max(initial=0.0)),
                 float(np.maximum(x - lp.ub, 0.0).max(initial=0.0)))
    dual = float(np.maximum(y_ub, 0.0).max(initial=0.0))  # min-sense: y_ub <= 0
    lb_f = np.isfinite(lp.lb)
    ub_f = np.isfinite(lp.ub)
    # reduced-cost sign conditions given bound structure
    free = ~lb_f & ~ub_f
    dual = max(dual, float(np.abs(rc[free]).max(initial=0.0)))
    dual = max(dual, float(np.maximum(-rc[lb_f & ~ub_f], 0.0).max(initial=0.0)))
    dual = max(dual, float(np.maximum(rc[ub_f & ~lb_f], 0.0).max(initial=0.0)))
    pos = np.clip(rc, 0.0, None)
    neg = np.clip(rc, None, 0.0)
    dual_obj += float(np.sum(pos[lb_f] * lp.lb[lb_f]) + np.sum(neg[ub_f] * lp.ub[ub_f]))
    gap_at_lb = np.abs(pos * np.where(lb_f, x - lp.lb, np.abs(x)))
    gap_at_ub = np.abs(neg * np.where(ub_f, lp.ub - x, np.abs(x)))
    cs = max(cs, float(np.maximum(gap_at_lb, gap_at_ub).max(initial=0.0)))
    gap = abs(float(c @ x) - dual_obj)
    return {"primal": primal, "dual": dual, "compslack": cs, "gap": gap}


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve and certify a linear program.

    Raises ``NumericalFailure`` when the optimal solution cannot meet the
    residual contract (the failing residuals are reported in the message).
    """
    sol = _solve_highs(lp) if _highspy is not None else _solve_linprog(lp)
    if sol.status != "optimal":
        return sol
    residuals = _certify(lp, sol)
    if (residuals["primal"] > PRIMAL_RES_TOL or residuals["dual"] > DUAL_RES_TOL
            or residuals["compslack"] > CS_RES_TOL or residuals["gap"] > GAP_TOL):
        raise NumericalFailure(
            f"optimal solve failed certification: {residuals} (engine {sol.engine})"
        )
    return LpSolution(status=sol.status, objective=sol.objective, x=sol.x,
                      duals_ub=sol.duals_ub, duals_eq=sol.duals_eq,
                      reduced_costs=sol.reduced_costs, residuals=residuals,
                      iterations=sol.iterations, engine=sol.engine)


# ---------------------------------------------------------------------------
# Optimal transport layer
# ---------------------------------------------------------------------------


def solve_transport(mu: ProbabilityVector, nu: ProbabilityVector, cost: LossMatrix,
                    sense: str = "max"
                    ) -> tuple[float, Coupling, tuple[np.ndarray, np.ndarray]]:
    """Extremal transport value over Pi(mu, nu) with Kantorovich potentials,
    solved whole by :func:`solve_lp`.

    Zero-mass atoms are dropped before assembly and reinserted as zero
    rows/columns of the plan; their potentials are filled from the cover
    condition so that dual feasibility holds on every cell.  Potentials are
    normalized to phi[0] = 0.
    """
    m, n = mu.size, nu.size
    if cost.shape != (m, n):
        raise DimensionMismatch("cost shape does not match the marginals")
    if m * n > TRANSPORT_MAX_CELLS:
        raise ProblemTooLarge(f"{m}x{n} transport exceeds the desk-scale envelope")
    keep_i = np.nonzero(mu.weights > 0.0)[0]
    keep_j = np.nonzero(nu.weights > 0.0)[0]
    mw = mu.weights[keep_i]
    nw = nu.weights[keep_j]
    cw = cost.values[np.ix_(keep_i, keep_j)]
    mm, nn = keep_i.size, keep_j.size
    ncell = mm * nn
    rows = np.concatenate([np.repeat(np.arange(mm), nn), mm + np.tile(np.arange(nn), mm)])
    cols = np.concatenate([np.arange(ncell), np.arange(ncell)])
    a_eq = sp.csr_matrix((np.ones(2 * ncell), (rows, cols)), shape=(mm + nn, ncell))
    b_eq = np.concatenate([mw, nw])
    lp = LinearProgram(sense=sense, c=cw.ravel(), a_eq=a_eq, b_eq=b_eq)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise NumericalFailure(f"transport solve returned {sol.status}")
    plan = np.zeros((m, n))
    plan[np.ix_(keep_i, keep_j)] = sol.x.reshape(mm, nn)
    phi = np.zeros(m)
    psi = np.zeros(n)
    phi_kept = sol.duals_eq[:mm]
    psi_kept = sol.duals_eq[mm:]
    phi[keep_i] = phi_kept
    psi[keep_j] = psi_kept
    # cover the dropped atoms so phi_i + psi_j >= / <= cost holds everywhere
    drop_i = np.setdiff1d(np.arange(m), keep_i)
    drop_j = np.setdiff1d(np.arange(n), keep_j)
    red = cost.values - psi[None, :]
    if drop_i.size:
        phi[drop_i] = red[drop_i, :].max(axis=1) if sense == "max" else red[drop_i, :].min(axis=1)
    redc = cost.values - phi[:, None]
    if drop_j.size:
        psi[drop_j] = redc[:, drop_j].max(axis=0) if sense == "max" else redc[:, drop_j].min(axis=0)
    shift = phi[0]
    phi -= shift
    psi += shift
    return float(sol.objective), Coupling(plan), (phi, psi)


def transport_polytope_vertices(mu: ProbabilityVector, nu: ProbabilityVector):
    """Yield every basic feasible plan of the transportation polytope.

    Basic solutions correspond to spanning forests with m+n-1 support cells.
    Candidate supports are drawn in chunks of ``_VERTEX_CHUNK``, never all at
    once (36 cells allow C(36, 11) of them), and each chunk is tested and
    solved as one stacked batch.  The constraint matrix is totally
    unimodular, so a candidate basis has determinant 0 or +-1 and the
    determinant decides its rank exactly.  Exponential: intended only for
    the oracle cross-checks on tiny instances.
    """
    m, n = mu.size, nu.size
    if m * n > 36:
        raise ProblemTooLarge("vertex enumeration limited to 36 cells")
    r = m + n - 1
    # row k: column k of the constraint matrix, less the redundant last column sum
    cell_cols = np.hstack([np.repeat(np.eye(m), n, axis=0), np.tile(np.eye(n), (m, 1))])[:, :-1]
    b = np.concatenate([mu.weights, nu.weights])[:-1]
    seen = set()
    combos = combinations(range(m * n), r)
    while True:
        chunk = np.array(list(islice(combos, _VERTEX_CHUNK)), dtype=int).reshape(-1, r)
        if not chunk.size:
            return
        a = cell_cols[chunk].transpose(0, 2, 1)
        basic = np.abs(np.linalg.det(a)) > 0.5
        chunk, a = chunk[basic], a[basic]
        flows = np.linalg.solve(a, np.broadcast_to(b, chunk.shape)[..., None])[..., 0]
        ok = np.all(flows >= -1e-10, axis=1)
        chunk, flows = chunk[ok], flows[ok]
        plans = np.zeros((chunk.shape[0], m * n))
        np.put_along_axis(plans, chunk, flows, axis=1)
        plans = plans.reshape(-1, m, n)
        ok = np.abs(plans.sum(axis=1) - nu.weights).max(axis=1, initial=0.0) <= 1e-9
        for plan in plans[ok]:
            key = tuple(np.round(plan.ravel(), 12))
            if key not in seen:
                seen.add(key)
                yield plan


# ---------------------------------------------------------------------------
# MPS export
# ---------------------------------------------------------------------------


def write_mps(lp: LinearProgram, path, name: str = "RISKLP", exact: bool = False) -> None:
    """Dump the program in MPS format (objective always minimized; a
    maximization is negated and flagged in a comment).

    By default every number keeps six significant digits in its fixed-format
    field.  With ``exact=True`` every coefficient, right-hand side and bound
    is printed as ``repr(float(v))``, which reads back bit for bit; such a
    file is free MPS, because a number may outgrow its fixed field.
    """
    sign = 1.0 if lp.sense == "min" else -1.0
    fmt = (lambda v: repr(float(v))) if exact else (lambda v: f"{v:.6G}")
    lines = [f"* sense: {lp.sense}" + (" (objective negated)" if sign < 0 else "")
             + ("; free MPS, exact floats" if exact else ""),
             f"NAME          {name:<8s}", "ROWS", " N  COST"]
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    m_ub = lp.a_ub.shape[0] if lp.a_ub is not None else 0
    rnames = [f"E{i + 1:07d}" for i in range(m_eq)] + [f"L{i + 1:07d}" for i in range(m_ub)]
    lines += [f" {r[0]}  {r}" for r in rnames]
    lines.append("COLUMNS")
    blocks = [a for a in (lp.a_eq, lp.a_ub) if a is not None]
    stacked = sp.vstack(blocks, format="csc") if blocks else sp.csc_matrix((0, lp.n_vars))
    stacked.eliminate_zeros()
    stacked.sort_indices()
    indptr = stacked.indptr.tolist()
    indices = stacked.indices.tolist()
    data = stacked.data.tolist()
    cost = (sign * lp.c).tolist()
    for j in range(lp.n_vars):
        entries = [("COST", cost[j])] if cost[j] != 0.0 else []
        entries += [(rnames[indices[k]], data[k]) for k in range(indptr[j], indptr[j + 1])]
        xname = f"X{j + 1:07d}"
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
    # variables with the MPS default bounds [0, inf) are not listed
    for j in np.nonzero((lp.lb != 0.0) | np.isfinite(lp.ub))[0].tolist():
        xname = f"X{j + 1:07d}"
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


__all__ = [
    "GAP_TOL",
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "solve_transport",
    "transport_polytope_vertices",
    "write_mps",
]
