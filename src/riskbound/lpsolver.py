"""
Linear programming layer: a self-contained revised simplex plus an
optimal-transport convenience wrapper.  Every optimal solve returns primal
values, row duals, and reduced costs, and is certified against feasibility /
complementary-slackness / duality-gap residuals before being handed back.

Engines
-------
``simplex``
    Bounded-variable revised simplex with an explicit basis inverse,
    two-phase start, and deterministic pivoting: largest-violation pricing
    with index tie-breaks, switching to Bland's rule whenever a degeneracy
    stall is detected (which restores the anti-cycling guarantee).
    Intended for desk-scale instances; dense basis algebra.
``highs``
    scipy's HiGHS dual simplex, used for every program past the dense
    engine's size.  Same certification applies.
``auto``
    simplex for programs of at most ``SIMPLEX_MAX_VARS`` variables, highs
    above: the dense engine keeps the oracle's transports of at most 8x8
    cells, and its cost grows with the square of the row count, so larger
    programs go to HiGHS.

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

from .core import (
    Coupling,
    DimensionMismatch,
    LossMatrix,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
)

SIMPLEX_MAX_VARS = 64           # auto engine cut-over (basis is dense)
TRANSPORT_MAX_CELLS = 2_000 * 2_000
_VERTEX_CHUNK = 512             # candidate bases tested and solved per batch

_FEAS_TOL = 1e-9                # phase-1 infeasibility threshold
_RC_TOL = 1e-9                  # reduced-cost optimality threshold
_PIV_TOL = 1e-10                # smallest acceptable pivot magnitude
_REFACTOR_EVERY = 80
_STALL_LIMIT = 64               # degenerate pivots before switching to Bland

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
# Canonical assembly (the simplex engine's standard form)
# ---------------------------------------------------------------------------


def _canonical(lp: LinearProgram):
    """Equality system [A_eq; A_ub + slacks] x = b with bounds, min sense."""
    n = lp.n_vars
    blocks = []
    b_parts = []
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    m_ub = lp.a_ub.shape[0] if lp.a_ub is not None else 0
    m = m_eq + m_ub
    if m_eq:
        blocks.append(sp.hstack([lp.a_eq, sp.csr_matrix((m_eq, m_ub))], format="csr"))
        b_parts.append(lp.b_eq)
    if m_ub:
        blocks.append(sp.hstack([lp.a_ub, sp.eye(m_ub, format="csr")], format="csr"))
        b_parts.append(lp.b_ub)
    if not blocks:
        a = sp.csr_matrix((0, n))
        b = np.zeros(0)
    else:
        a = sp.vstack(blocks, format="csr") if len(blocks) > 1 else blocks[0]
        b = np.concatenate(b_parts)
    sign = 1.0 if lp.sense == "min" else -1.0
    c = np.concatenate([sign * lp.c, np.zeros(m_ub)])
    lb = np.concatenate([lp.lb, np.zeros(m_ub)])
    ub = np.concatenate([lp.ub, np.full(m_ub, np.inf)])
    return a.tocsc(), b, c, lb, ub, n, m_eq, m_ub, sign


# ---------------------------------------------------------------------------
# Revised simplex engine
# ---------------------------------------------------------------------------

_LOWER, _UPPER, _FREE = 0, 1, 2


class _Simplex:
    """Bounded-variable revised simplex on  min c.x, A x = b, lb <= x <= ub."""

    def __init__(self, a: sp.csc_matrix, b: np.ndarray, c: np.ndarray,
                 lb: np.ndarray, ub: np.ndarray):
        m, n = a.shape
        self.m, self.n = m, n
        # append artificial columns; their signs make the start basis feasible
        self.a = a
        self.at = a.T.tocsr()
        # raw csc buffers for O(nnz_col) column access in the pivot loop
        self._aip = a.indptr
        self._aix = a.indices
        self._adat = a.data
        self.b = b
        self.c = c
        self.lb = np.concatenate([lb, np.zeros(m)])
        self.ub = np.concatenate([ub, np.full(m, np.inf)])
        self.n_ext = n + m
        self.x = np.zeros(self.n_ext)
        self.state = np.full(self.n_ext, _LOWER, dtype=np.int8)
        for j in range(n):
            if np.isfinite(lb[j]):
                self.x[j] = lb[j]
            elif np.isfinite(ub[j]):
                self.x[j] = ub[j]
                self.state[j] = _UPPER
            else:
                self.x[j] = 0.0
                self.state[j] = _FREE
        r = b - a @ self.x[:n]
        self.art_sign = np.where(r < 0.0, -1.0, 1.0)
        self.basis = np.arange(n, n + m)
        self.in_basis = np.zeros(self.n_ext, dtype=bool)
        self.in_basis[self.basis] = True
        self.x[self.basis] = np.abs(r)
        self.binv = np.diag(self.art_sign)
        self.iterations = 0

    # -- column access (artificials are signed unit vectors) ---------------

    def _col_dense_times_binv(self, q: int) -> np.ndarray:
        if q >= self.n:
            return self.binv[:, q - self.n] * self.art_sign[q - self.n]
        lo, hi = self._aip[q], self._aip[q + 1]
        return self.binv[:, self._aix[lo:hi]] @ self._adat[lo:hi]

    def _col_dense(self, q: int) -> np.ndarray:
        out = np.zeros(self.m)
        if q >= self.n:
            out[q - self.n] = self.art_sign[q - self.n]
        else:
            lo, hi = self._aip[q], self._aip[q + 1]
            out[self._aix[lo:hi]] = self._adat[lo:hi]
        return out

    def _reduced_costs(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        rc = np.empty(self.n_ext)
        rc[: self.n] = cost[: self.n] - self.at @ y
        rc[self.n:] = cost[self.n:] - self.art_sign * y
        return rc

    def _basis_matrix(self) -> np.ndarray:
        bmat = np.empty((self.m, self.m))
        for k, v in enumerate(self.basis):
            bmat[:, k] = self._col_dense(int(v))
        return bmat

    def _refactor(self) -> None:
        if self.m == 0:
            return
        try:
            self.binv = np.linalg.inv(self._basis_matrix())
        except np.linalg.LinAlgError as e:
            raise NumericalFailure("singular basis during refactorization") from e
        self._recompute_basics()

    def _recompute_basics(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        r = self.b - self.a @ xn[: self.n]
        r -= (self.art_sign * xn[self.n:])
        self.x[self.basis] = self.binv @ r

    def run_phase(self, cost: np.ndarray, max_iter: int) -> str:
        stall = 0
        bland = False
        span_pos = (self.ub - self.lb) > 0.0
        cost_b = cost[self.basis]
        while True:
            if self.iterations >= max_iter:
                raise NumericalFailure(
                    f"simplex iteration limit {max_iter} reached "
                    f"(best objective {float(cost @ self.x):.6g})"
                )
            self.iterations += 1
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactor()
            y = self.binv.T @ cost_b
            rc = self._reduced_costs(cost, y)
            # violation of the optimality sign condition per nonbasic state
            viol = np.where(self.state == _LOWER, -rc,
                            np.where(self.state == _UPPER, rc, np.abs(rc)))
            viol[self.in_basis | ~span_pos] = -np.inf
            if bland:
                cand = np.nonzero(viol > _RC_TOL)[0]
                if cand.size == 0:
                    return "optimal"
                q = int(cand[0])
            else:
                q = int(np.argmax(viol))
                if viol[q] <= _RC_TOL:
                    return "optimal"
            dirn = 1.0
            if self.state[q] == _UPPER or (self.state[q] == _FREE and rc[q] > 0.0):
                dirn = -1.0
            w = self._col_dense_times_binv(q)
            step = dirn * w
            xb = self.x[self.basis]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            ratios = np.full(self.m, np.inf)
            dec = step > _PIV_TOL
            ratios[dec] = (xb[dec] - lb_b[dec]) / step[dec]
            inc = step < -_PIV_TOL
            ratios[inc] = (xb[inc] - ub_b[inc]) / step[inc]
            t_rows = ratios.min() if self.m else np.inf
            t_own = self.ub[q] - self.lb[q]
            t = min(t_rows, t_own)
            if not np.isfinite(t):
                return "unbounded"
            t = max(t, 0.0)
            if t_own <= t_rows:
                # bound flip, no basis change
                self.x[q] += dirn * t_own
                self.x[self.basis] = xb - t_own * step
                self.state[q] = _UPPER if self.state[q] == _LOWER else _LOWER
                stall = 0
                bland = False
                continue
            limit = np.nonzero(ratios <= t + 1e-12)[0]
            if bland:
                r = int(limit[np.argmin(self.basis[limit])])
            else:
                r = int(limit[np.argmax(np.abs(step[limit]))])
            if abs(w[r]) <= _PIV_TOL:
                self._refactor()
                continue
            if t <= 1e-13:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            leaving = int(self.basis[r])
            self.x[self.basis] = xb - t * step
            self.x[q] += dirn * t
            self.x[leaving] = lb_b[r] if step[r] > 0.0 else ub_b[r]
            self.state[leaving] = _LOWER if step[r] > 0.0 else _UPPER
            if not np.isfinite(self.x[leaving]):  # free variable forced out
                self.x[leaving] = 0.0
                self.state[leaving] = _FREE
            self.in_basis[leaving] = False
            self.in_basis[q] = True
            self.basis[r] = q
            cost_b[r] = cost[q]
            br = self.binv[r, :] / w[r]
            self.binv -= np.outer(w, br)
            self.binv[r, :] = br

    def drive_out_artificials(self) -> None:
        for r in range(self.m):
            v = int(self.basis[r])
            if v < self.n:
                continue
            # degenerate artificial: try to swap in any structural column
            row = self.binv[r, :] @ self.a  # 1 x n, dense
            row = np.asarray(row).ravel()
            pivots = np.nonzero((~self.in_basis[: self.n]) & (np.abs(row) > 1e-7))[0]
            if pivots.size == 0:
                continue  # redundant row; artificial stays pinned at zero
            q = int(pivots[0])
            w = self._col_dense_times_binv(q)
            self.in_basis[v] = False
            self.in_basis[q] = True
            self.basis[r] = q
            self.x[q] = self.x[v]
            self.x[v] = 0.0
            br = self.binv[r, :] / w[r]
            self.binv -= np.outer(w, br)
            self.binv[r, :] = br

    def solve(self) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
        max_iter = 20_000 + 50 * (self.m + self.n)
        c1 = np.concatenate([np.zeros(self.n), np.ones(self.m)])
        status = self.run_phase(c1, max_iter)
        if status != "optimal":
            raise NumericalFailure("phase 1 terminated abnormally")
        self._refactor()
        if float(c1 @ self.x) > _FEAS_TOL:
            return "infeasible", self.x[: self.n], np.zeros(self.m), np.zeros(self.n)
        self.drive_out_artificials()
        self.ub[self.n:] = 0.0  # artificials may not re-enter
        self.x[self.n:][~self.in_basis[self.n:]] = 0.0
        c2 = np.concatenate([self.c, np.zeros(self.m)])
        status = self.run_phase(c2, max_iter)
        self._refactor()
        y = self.binv.T @ c2[self.basis]
        # final polish: re-solve the basis system directly for accuracy
        try:
            if self.m == 0:
                raise np.linalg.LinAlgError
            bmat = self._basis_matrix()
            y = np.linalg.solve(bmat.T, c2[self.basis])
            xn = self.x.copy(); xn[self.basis] = 0.0
            r = self.b - self.a @ xn[: self.n] - self.art_sign * xn[self.n:]
            self.x[self.basis] = np.linalg.solve(bmat, r)
        except np.linalg.LinAlgError:
            pass
        rc = self._reduced_costs(c2, y)
        return status, self.x[: self.n], y, rc[: self.n]


def _solve_simplex(lp: LinearProgram) -> LpSolution:
    a, b, c, lb, ub, n, m_eq, m_ub, sign = _canonical(lp)
    core = _Simplex(a, b, c, lb, ub)
    status, x_full, y, rc_struct = core.solve()
    if status != "optimal":
        return LpSolution(status=status, objective=np.nan, x=None, duals_ub=None,
                          duals_eq=None, reduced_costs=None, iterations=core.iterations,
                          engine="simplex")
    x = x_full[: n]
    y_eq = y[:m_eq]
    y_ub = y[m_eq:]
    # restore the user's sense
    obj = float(lp.c @ x)
    duals_eq = sign * y_eq
    duals_ub = sign * y_ub
    rc = sign * rc_struct[: n]
    return LpSolution(status="optimal", objective=obj, x=x, duals_ub=duals_ub,
                      duals_eq=duals_eq, reduced_costs=rc,
                      iterations=core.iterations, engine="simplex")


# ---------------------------------------------------------------------------
# HiGHS engine
# ---------------------------------------------------------------------------

_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


def _solve_highs(lp: LinearProgram) -> LpSolution:
    sign = 1.0 if lp.sense == "min" else -1.0
    res = _scipy_linprog(sign * lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
                         A_eq=lp.a_eq, b_eq=lp.b_eq,
                         bounds=np.column_stack([lp.lb, lp.ub]),
                         method="highs-ds", options=_HIGHS_OPTIONS)
    if res.status == 2:
        return LpSolution(status="infeasible", objective=np.nan, x=None, duals_ub=None,
                          duals_eq=None, reduced_costs=None, engine="highs")
    if res.status == 3:
        return LpSolution(status="unbounded", objective=np.nan, x=None, duals_ub=None,
                          duals_eq=None, reduced_costs=None, engine="highs")
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


def solve_lp(lp: LinearProgram, engine: str = "auto") -> LpSolution:
    """Solve and certify a linear program.

    Raises ``NumericalFailure`` when the optimal solution cannot meet the
    residual contract (the failing residuals are reported in the message).
    """
    if engine == "auto":
        engine = "simplex" if lp.n_vars <= SIMPLEX_MAX_VARS else "highs"
    if engine == "simplex":
        sol = _solve_simplex(lp)
    elif engine == "highs":
        sol = _solve_highs(lp)
    else:
        raise NumericalFailure(f"unknown engine {engine!r}")
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
    solved whole by :func:`solve_lp`, whose size rule picks the engine.

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
    "SIMPLEX_MAX_VARS",
    "solve_lp",
    "solve_transport",
    "transport_polytope_vertices",
    "write_mps",
]
