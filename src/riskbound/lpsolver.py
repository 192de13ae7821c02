"""
Linear programming layer: one LP engine, a persistent model of it, and the
transport model of the MES oracle.  Every optimal solve returns primal values, row
duals, and reduced costs, and is certified against feasibility /
complementary-slackness / duality-gap residuals before being handed back.

Engine
------
HiGHS's dual simplex (Huangfu & Hall 2018), called through the binding that
scipy bundles (``scipy.optimize._highspy``), with presolve on and primal and
dual feasibility tolerances of 1e-9.  Every solve runs on an
:class:`LpModel`: one HiGHS model plus a column-wise mirror of the program
it holds, against which the solve is certified.  :func:`solve_lp` gives a
:class:`LinearProgram` a fresh model.  A caller that solves a sequence of
programs differing only slightly keeps one model and edits it in place
between solves: :meth:`LpModel.append` adds columns and ``<=`` rows, and
:meth:`LpModel.set_cost` replaces the objective.  HiGHS then re-solves from
the basis it already holds, with the primal simplex and without presolve.  The column generation of
:mod:`riskbound.bounds` grows one master per solve this way, and its MES
oracle changes only the cost of one transport model.

The binding is private scipy API, so its import is guarded: where it is
missing, a model solves its mirror through
``scipy.optimize.linprog(method="highs-ds")``, cold each time, which costs
more per call but returns the same values.  Both routes report
``engine="highs"``.

The MES oracle of :mod:`riskbound.bounds` (``brute_force_mes``) runs on the
same engine as the lifted programs it checks.  Its independence rests on
its own assembly (:class:`_Transport`: the plain transport rows over the
cells between atoms of positive mass, whole, with no lifted variables and
no column generation) and on the cross-check of its transport values with
:func:`transport_polytope_vertices` on tiny instances.  Optimal transport
for callers is ``bounds.solve_transport``, the certified column generation
on the grid without levels.

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
    DimensionMismatch,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
)

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
                if not isinstance(a, sp.csr_matrix):
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
# The persistent model and the HiGHS engine
# ---------------------------------------------------------------------------

_HIGHS_TOL = 1e-9               # HiGHS primal and dual feasibility tolerances
_HIGHS_OPTIONS = (("output_flag", False), ("solver", "simplex"),
                  ("primal_feasibility_tolerance", _HIGHS_TOL),
                  ("dual_feasibility_tolerance", _HIGHS_TOL))
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4     # HiGHS simplex_strategy values
_LINPROG_OPTIONS = {"presolve": True, "primal_feasibility_tolerance": _HIGHS_TOL,
                    "dual_feasibility_tolerance": _HIGHS_TOL}


def _stack(parts, dtype=float) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=dtype), *parts]).astype(dtype, copy=False)


def _check_status(status, what: str) -> None:
    if status == _highspy.HighsStatus.kError:
        raise NumericalFailure(f"HiGHS rejected the {what}")


class LpModel:
    """A linear program held by one HiGHS model, kept between solves and
    edited in place.

    Rows are the program's ``a_eq`` rows, then its ``a_ub`` rows.  The model
    mirrors the program HiGHS holds column-wise (CSC buffers ``start``,
    ``index``, ``value``), so that :func:`solve_lp` certifies every solve
    against exactly that program, and appending columns only concatenates
    buffers.  The HiGHS model itself is passed at the first solve; after it,
    every edit goes to both, and HiGHS re-solves from the basis it holds.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.sense = lp.sense
        self.c, self.lb, self.ub = lp.c, lp.lb, lp.ub
        self.b_eq = lp.b_eq if lp.a_eq is not None else np.zeros(0)
        self.b_ub = lp.b_ub if lp.a_ub is not None else np.zeros(0)
        blocks = [a for a in (lp.a_eq, lp.a_ub) if a is not None]
        n = lp.n_vars
        rows = np.repeat(np.arange(lp.n_rows, dtype=np.int32),
                         _stack([np.diff(a.indptr) for a in blocks], np.int32))
        cols = _stack([a.indices for a in blocks], np.int32)
        order = np.argsort(cols, kind="stable")
        self._start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self._start[1:])
        self._index = rows[order]
        self._value = _stack([a.data for a in blocks])[order]
        self._highs = None

    @property
    def n_vars(self) -> int:
        return int(self.c.size)

    @property
    def n_rows(self) -> int:
        return int(self.b_eq.size + self.b_ub.size)

    @property
    def _sign(self) -> float:
        return 1.0 if self.sense == "min" else -1.0

    def activity(self, x: np.ndarray) -> np.ndarray:
        """Row activities ``A x`` of the held program, rows as in the model."""
        per_entry = self._value * np.repeat(x, np.diff(self._start))
        return np.bincount(self._index, weights=per_entry, minlength=self.n_rows)

    def program(self) -> LinearProgram:
        """The program the model holds, as a :class:`LinearProgram`."""
        a = sp.csc_matrix((self._value, self._index, self._start),
                          shape=(self.n_rows, self.n_vars)).tocsr()
        m_eq = self.b_eq.size
        return LinearProgram(sense=self.sense, c=self.c,
                             a_eq=a[:m_eq] if m_eq else None, b_eq=self.b_eq if m_eq else None,
                             a_ub=a[m_eq:] if self.b_ub.size else None,
                             b_ub=self.b_ub if self.b_ub.size else None,
                             lb=self.lb, ub=self.ub)

    def set_cost(self, c) -> None:
        """Replace the objective; nothing else changes."""
        c = np.array(c, dtype=float)
        if c.shape != self.c.shape or not np.all(np.isfinite(c)):
            raise DimensionMismatch(f"cost must be {self.n_vars} finite values")
        self.c = c
        if self._highs is not None:
            _check_status(self._highs.changeColsCost(
                c.size, np.arange(c.size, dtype=np.int32), self._sign * c), "cost change")

    def append(self, c, start, index, value, b_ub) -> None:
        """Add ``c.size`` columns with bounds [0, inf) and ``b_ub.size`` new
        ``<=`` rows after the existing ones.

        The new columns come column-wise: ``start`` holds each column's
        offset into ``index``/``value``, whose row indices number the
        existing rows from 0 and the new rows from :attr:`n_rows` on.  The
        existing columns have no entries in the new rows.
        """
        c = np.asarray(c, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        start = np.asarray(start, dtype=np.int32)
        index = np.asarray(index, dtype=np.int32)
        value = np.asarray(value, dtype=float)
        a, k = c.size, b_ub.size
        if (start.shape != (a,) or index.shape != value.shape
                or (a and (start[0] != 0 or np.any(np.diff(start) < 0)
                           or start[-1] > index.size))):
            raise DimensionMismatch("appended columns are not column-wise buffers")
        if index.size and (index.min() < 0 or index.max() >= self.n_rows + k):
            raise DimensionMismatch("appended columns index a row outside the program")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(value))
                and np.all(np.isfinite(b_ub))):
            raise NumericalFailure("appended columns or rows are not finite")
        if self._highs is not None:
            empty = np.zeros(0, dtype=np.int32)
            _check_status(self._highs.addRows(k, np.full(k, -np.inf), b_ub, 0,
                                              empty, empty, np.zeros(0)), "new rows")
            _check_status(self._highs.addCols(a, self._sign * c, np.zeros(a),
                                              np.full(a, np.inf), index.size, start,
                                              index, value), "new columns")
        nnz = self._index.size
        self.c = np.concatenate([self.c, c])
        self.lb = np.concatenate([self.lb, np.zeros(a)])
        self.ub = np.concatenate([self.ub, np.full(a, np.inf)])
        self.b_ub = np.concatenate([self.b_ub, b_ub])
        self._start = np.concatenate([self._start[:-1], nnz + start, [nnz + index.size]]
                                     ).astype(np.int32)
        self._index = np.concatenate([self._index, index])
        self._value = np.concatenate([self._value, value])

    def _pass(self):
        """A new HiGHS model holding the mirrored program, passed column-wise."""
        highs = _highspy._Highs()
        for key, val in _HIGHS_OPTIONS:
            highs.setOptionValue(key, val)
        n = self.n_vars
        _check_status(highs.passModel(
            n, self.n_rows, self._index.size, int(_highspy.MatrixFormat.kColwise),
            int(_highspy.ObjSense.kMinimize), 0.0, self._sign * self.c, self.lb, self.ub,
            np.concatenate([self.b_eq, np.full(self.b_ub.size, -np.inf)]),
            np.concatenate([self.b_eq, self.b_ub]),
            self._start[:-1], self._index, self._value, np.zeros(n, dtype=np.int32)),
            "model")
        return highs


def _highs_run(model: LpModel, presolve: bool):
    """Run HiGHS on the model's min-sense program, passing it at the first
    run.  A cold model runs the dual simplex.  A model that holds a basis
    from its last solve starts from it, and HiGHS then skips presolve
    whatever ``presolve`` says.  Appended columns enter that basis at zero,
    so a new cost, or new rows with a nonnegative right-hand side, leave it
    primal feasible, and the model re-solves with the primal simplex."""
    if model._highs is None:
        model._highs = model._pass()
    highs = model._highs
    warm = highs.getBasis().valid
    highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX if warm else _DUAL_SIMPLEX)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.run()
    return highs


def _solve_highs(model: LpModel) -> LpSolution:
    highs = _highs_run(model, presolve=True)
    status = highs.getModelStatus()
    if status == _highspy.HighsModelStatus.kUnboundedOrInfeasible:
        # presolve can stop before it tells the two apart; the simplex cannot
        highs = _highs_run(model, presolve=False)
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
    sign = model._sign
    res = highs.getSolution()
    x = np.asarray(res.col_value, dtype=float)
    y = sign * np.asarray(res.row_dual, dtype=float)
    m_eq = model.b_eq.size
    return LpSolution(status="optimal", objective=float(model.c @ x), x=x,
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


def _certify(model: LpModel, sol: LpSolution) -> dict:
    """Residuals in the min-sense canonical form; see module contract."""
    sign = model._sign
    x = sol.x
    c = sign * model.c
    y_eq = sign * sol.duals_eq
    y_ub = sign * sol.duals_ub
    rc = sign * sol.reduced_costs
    act = model.activity(x)
    m_eq = model.b_eq.size
    slack = model.b_ub - act[m_eq:]
    primal = max(float(np.abs(act[:m_eq] - model.b_eq).max(initial=0.0)),
                 float(np.maximum(-slack, 0.0).max(initial=0.0)),
                 float(np.maximum(model.lb - x, 0.0).max(initial=0.0)),
                 float(np.maximum(x - model.ub, 0.0).max(initial=0.0)))
    cs = float(np.abs(y_ub * slack).max(initial=0.0))
    dual_obj = float(y_eq @ model.b_eq) + float(y_ub @ model.b_ub)
    dual = float(np.maximum(y_ub, 0.0).max(initial=0.0))  # min-sense: y_ub <= 0
    lb_f = np.isfinite(model.lb)
    ub_f = np.isfinite(model.ub)
    # reduced-cost sign conditions given bound structure
    free = ~lb_f & ~ub_f
    dual = max(dual, float(np.abs(rc[free]).max(initial=0.0)))
    dual = max(dual, float(np.maximum(-rc[lb_f & ~ub_f], 0.0).max(initial=0.0)))
    dual = max(dual, float(np.maximum(rc[ub_f & ~lb_f], 0.0).max(initial=0.0)))
    pos = np.clip(rc, 0.0, None)
    neg = np.clip(rc, None, 0.0)
    dual_obj += float(np.sum(pos[lb_f] * model.lb[lb_f]) + np.sum(neg[ub_f] * model.ub[ub_f]))
    gap_at_lb = np.abs(pos * np.where(lb_f, x - model.lb, np.abs(x)))
    gap_at_ub = np.abs(neg * np.where(ub_f, model.ub - x, np.abs(x)))
    cs = max(cs, float(np.maximum(gap_at_lb, gap_at_ub).max(initial=0.0)))
    gap = abs(float(c @ x) - dual_obj)
    return {"primal": primal, "dual": dual, "compslack": cs, "gap": gap}


def solve_lp(lp: LinearProgram | LpModel) -> LpSolution:
    """Solve and certify a linear program.

    A :class:`LinearProgram` is solved on a fresh :class:`LpModel`; a live
    model is re-solved as it stands, from the basis of its last solve.
    Either way the solution is certified against the program the model
    holds.  Raises ``NumericalFailure`` when the optimal solution cannot
    meet the residual contract (the failing residuals are reported in the
    message).
    """
    model = lp if isinstance(lp, LpModel) else LpModel(lp)
    sol = _solve_highs(model) if _highspy is not None else _solve_linprog(model.program())
    if sol.status != "optimal":
        return sol
    residuals = _certify(model, sol)
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
# The MES oracle's transport model
# ---------------------------------------------------------------------------


class _Transport:
    """Extremal transport over Pi(mu, nu) as one model that only the cost
    changes between solves.

    Zero-mass atoms are dropped before assembly: the program has one
    variable per cell between kept atoms, row-major, and one equality row
    per kept row of the plan, then per kept column.  :meth:`solve`
    re-inserts the dropped atoms as zero rows/columns of the plan.
    """

    def __init__(self, mu: ProbabilityVector, nu: ProbabilityVector, sense: str) -> None:
        self.sense = sense
        self.shape = (mu.size, nu.size)
        self.keep_i = np.nonzero(mu.weights > 0.0)[0]
        self.keep_j = np.nonzero(nu.weights > 0.0)[0]
        self.b_eq = np.concatenate([mu.weights[self.keep_i], nu.weights[self.keep_j]])
        self.model: LpModel | None = None

    def solve(self, cost: np.ndarray) -> tuple[LpSolution, np.ndarray]:
        """Certified solution and the full plan for the cost matrix ``cost``."""
        mm, nn = self.keep_i.size, self.keep_j.size
        c = cost[np.ix_(self.keep_i, self.keep_j)].ravel()
        if self.model is None:
            ncell = mm * nn
            # row i holds cells i*nn .. i*nn + nn - 1; row mm + j every nn-th cell from j
            a_eq = sp.csr_matrix(
                (np.ones(2 * ncell),
                 np.concatenate([np.arange(ncell), np.arange(ncell).reshape(mm, nn).T.ravel()]),
                 np.concatenate([np.arange(mm) * nn, ncell + np.arange(nn + 1) * mm])),
                shape=(mm + nn, ncell))
            self.model = LpModel(LinearProgram(sense=self.sense, c=c, a_eq=a_eq,
                                               b_eq=self.b_eq))
        else:
            self.model.set_cost(c)
        sol = solve_lp(self.model)
        if sol.status != "optimal":
            raise NumericalFailure(f"transport solve returned {sol.status}")
        plan = np.zeros(self.shape)
        plan[np.ix_(self.keep_i, self.keep_j)] = sol.x.reshape(mm, nn)
        return sol, plan


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


MPS_NAME_DIGITS = 7             # digits of the row and column numbers in MPS names
_MPS_CHUNK_LINES = 1 << 11      # lines per block of write_mps: about 128 KB of bytes
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _mps_table(mat: np.ndarray, lengths: np.ndarray, pad: int):
    """A byte table, one entry per row, whose row i keeps its first
    ``max(lengths[i], pad)`` bytes; the lengths are None when every row
    keeps the whole width."""
    if mat.shape[1] < pad:
        mat = np.pad(mat, ((0, 0), (0, pad - mat.shape[1])), constant_values=ord(" "))
    if mat.shape[1] == pad or (lengths.size and lengths.min() == mat.shape[1]):
        return mat, None
    return mat, np.maximum(lengths, pad)


def _mps_names(letters, numbers: np.ndarray, pad: int):
    """Names: each letter followed by its number, zero-padded to
    ``MPS_NAME_DIGITS`` digits or as wide as the number needs, padded with
    spaces to ``pad`` bytes, as a :func:`_mps_table`."""
    numbers = np.asarray(numbers, dtype=np.int64)
    digits = np.maximum(MPS_NAME_DIGITS, np.searchsorted(_POW10[1:], numbers, side="right") + 1)
    top = int(digits.max(initial=MPS_NAME_DIGITS))
    mat = np.full((numbers.size, 1 + top), ord(" "), dtype=np.uint8)
    mat[:, 0] = letters
    for d in range(MPS_NAME_DIGITS, top + 1):
        rows = slice(None) if top == MPS_NAME_DIGITS else digits == d
        rest = numbers[rows]
        for p in range(d, 0, -1):
            mat[rows, p] = rest % 10 + ord("0")
            rest = rest // 10
    return _mps_table(mat, 1 + digits, pad)


def _mps_numbers(strings: list, pad: int):
    """Formatted numbers as a :func:`_mps_table`."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    mat = np.full((len(strings), int(lengths.max(initial=0))), ord(" "), dtype=np.uint8)
    mat[np.arange(mat.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(strings).encode("ascii"), dtype=np.uint8)
    return _mps_table(mat, lengths, pad)


def _mps_pick(table, index: np.ndarray, present=None):
    """The table rows at ``index`` as a line field, dropped from the lines
    where ``present`` is false."""
    mat, lengths = table
    width = mat.shape[1]
    # one void item per row gathers much faster than a 2-D uint8 take
    rows = mat.view(f"V{width}")[index, 0].view(np.uint8).reshape(index.size, width)
    if lengths is None:
        return rows, present
    return rows, lengths[index] if present is None else lengths[index] * present


def _mps_lines(*fields) -> np.ndarray:
    """Lay fields side by side in a byte matrix, one line per row, and return
    each line's valid bytes in order as one flat byte array.  A field is a
    byte string repeated on every line, or a pair of a matrix with one row
    per line (or a byte string) and the lengths to keep: line i keeps the
    first ``lengths[i]`` bytes of its row, all of them where ``lengths`` is
    None, and all or none where ``lengths`` is boolean."""
    fields = [(f, None) if isinstance(f, bytes) else f for f in fields]
    fields = [(np.frombuffer(mat, dtype=np.uint8) if isinstance(mat, bytes) else mat, lengths)
              for mat, lengths in fields]
    n = max(mat.shape[0] for mat, _ in fields if mat.ndim == 2)
    width = sum(mat.shape[-1] for mat, _ in fields)
    out = np.empty((n, width), dtype=np.uint8)
    keep = None
    col = 0
    for mat, lengths in fields:
        w = mat.shape[-1]
        out[:, col:col + w] = mat
        if lengths is not None:
            if keep is None:
                keep = np.ones((n, width), dtype=bool)
            if lengths.dtype == bool:
                keep[:, col:col + w] = lengths[:, None]
            else:
                keep[:, col:col + w] = np.arange(w) < lengths[:, None]
        col += w
    return out.ravel() if keep is None else out[keep]


def write_mps(lp: LinearProgram, path, name: str = "RISKLP", exact: bool = False) -> None:
    """Dump the program in MPS format (objective always minimized; a
    maximization is negated and flagged in a comment).

    By default every number keeps six significant digits in its fixed-format
    field, and row and column names have ``MPS_NAME_DIGITS`` digits; a
    program with more rows of a kind or more columns than those digits can
    number raises ``ProblemTooLarge``.  With ``exact=True`` every
    coefficient, right-hand side and bound is printed as ``repr(float(v))``,
    which reads back bit for bit; such a file is free MPS, because a number
    may outgrow its fixed field, and names widen as their numbers need.

    The ROWS, COLUMNS and RHS sections are assembled from numpy arrays, in
    blocks of ``_MPS_CHUNK_LINES`` lines: names come from digit arithmetic
    on the row and column indices, each distinct value is formatted once,
    and each line's fields are laid side by side in a byte matrix whose
    valid bytes a length mask keeps.  Each column lists its cost first, then
    its nonzeros by row, two entries per line.  The file is the same, byte
    for byte, as one written entry by entry with the formats above.  BOUNDS
    lists only the variables without the default bounds [0, inf), line by
    line.
    """
    sign = 1.0 if lp.sense == "min" else -1.0
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    m_ub = lp.a_ub.shape[0] if lp.a_ub is not None else 0
    if not exact and max(m_eq, m_ub, lp.n_vars) >= 10 ** MPS_NAME_DIGITS:
        raise ProblemTooLarge(f"{m_eq}+{m_ub} rows and {lp.n_vars} columns exceed the "
                              f"{MPS_NAME_DIGITS}-digit names of fixed-format MPS; "
                              f"write it with exact=True")
    fmt = repr if exact else "{:.6G}".format      # of Python floats
    head = [f"* sense: {lp.sense}" + (" (objective negated)" if sign < 0 else "")
            + ("; free MPS, exact floats" if exact else ""),
            f"NAME          {name:<8s}", "ROWS", " N  COST"]
    # row 0 of the stacked matrix is the cost, rows 1.. the E rows, then the L rows
    blocks = [sp.csr_matrix(sign * lp.c[None, :])]
    blocks += [a for a in (lp.a_eq, lp.a_ub) if a is not None]
    stacked = sp.vstack(blocks, format="csc")
    stacked.eliminate_zeros()
    stacked.sort_indices()
    nnz = stacked.data.size
    b_all = np.concatenate([[0.0]] + [b for b in (lp.b_eq, lp.b_ub) if b is not None])
    rhs_rows = np.flatnonzero(b_all)
    uniq, number_of = np.unique(np.concatenate([stacked.data, b_all[rhs_rows]]),
                                return_inverse=True)
    number_of = number_of.ravel()
    numbers = _mps_numbers(list(map(fmt, uniq.tolist())), 12)

    def row_names(rows, pad):
        return _mps_names(np.where(rows <= m_eq, ord("E"), ord("L")),
                          np.where(rows <= m_eq, rows, rows - m_eq), pad)

    mat, lengths = row_names(np.arange(1, m_eq + m_ub + 1), 8)
    cost = np.frombuffer(b"COST".ljust(mat.shape[1]), dtype=np.uint8)
    row_table = (np.vstack([cost, mat]), None if lengths is None else np.r_[8, lengths])
    # column j has ceil(entries / 2) lines; its line t starts at entry 2t
    n_lines = (np.diff(stacked.indptr) + 1) // 2
    line_col = np.repeat(np.arange(lp.n_vars), n_lines)
    line_first = (stacked.indptr[:-1] - 2 * (np.cumsum(n_lines) - n_lines))[line_col]
    line_first += 2 * np.arange(line_col.size)
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        for lo in range(1, m_eq + m_ub + 1, _MPS_CHUNK_LINES):
            mat, lengths = row_names(np.arange(lo, min(lo + _MPS_CHUNK_LINES, m_eq + m_ub + 1)), 0)
            fh.write(_mps_lines(b" ", (mat[:, :1], None), b"  ", (mat, lengths), b"\n"))
        fh.write(b"COLUMNS\n")
        for lo in range(0, line_col.size, _MPS_CHUNK_LINES):
            cols = line_col[lo:lo + _MPS_CHUNK_LINES]
            first = line_first[lo:lo + _MPS_CHUNK_LINES]
            pair = first + 1 < stacked.indptr[cols + 1]
            second = np.minimum(first + 1, nnz - 1)
            col_names = _mps_names(ord("X"), np.arange(cols[0] + 1, cols[-1] + 2), 8)
            fh.write(_mps_lines(
                b"    ", _mps_pick(col_names, cols - cols[0]), b"  ",
                _mps_pick(row_table, stacked.indices[first]), b"  ",
                _mps_pick(numbers, number_of[first]),
                (b"   ", pair), _mps_pick(row_table, stacked.indices[second], pair),
                (b"  ", pair), _mps_pick(numbers, number_of[second], pair), b"\n"))
        fh.write(b"RHS\n")
        for lo in range(0, rhs_rows.size, _MPS_CHUNK_LINES):
            rows = rhs_rows[lo:lo + _MPS_CHUNK_LINES]
            fh.write(_mps_lines(b"    RHS       ", _mps_pick(row_table, rows), b"  ",
                                _mps_pick(numbers, number_of[nnz + lo:nnz + lo + rows.size]),
                                b"\n"))
        bounds = ["BOUNDS"]
        # variables with the MPS default bounds [0, inf) are not listed
        for j in np.nonzero((lp.lb != 0.0) | np.isfinite(lp.ub))[0].tolist():
            xname = f"X{j + 1:0{MPS_NAME_DIGITS}d}"
            l, u = float(lp.lb[j]), float(lp.ub[j])
            if not np.isfinite(l) and not np.isfinite(u):
                bounds.append(f" FR BND       {xname:<8s}")
                continue
            if not np.isfinite(l):
                bounds.append(f" MI BND       {xname:<8s}")
            elif l != 0.0:
                bounds.append(f" LO BND       {xname:<8s}  {fmt(l):<12s}")
            if np.isfinite(u):
                bounds.append(f" UP BND       {xname:<8s}  {fmt(u):<12s}")
        bounds.append("ENDATA")
        fh.write(("\n".join(bounds) + "\n").encode("utf-8"))


__all__ = [
    "GAP_TOL",
    "MPS_NAME_DIGITS",
    "LinearProgram",
    "LpModel",
    "LpSolution",
    "solve_lp",
    "transport_polytope_vertices",
    "write_mps",
]
