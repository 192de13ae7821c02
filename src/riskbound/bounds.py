"""
Worst-case risk bounds over all couplings of two fixed marginals.

``solve_mes`` maximizes Expected Shortfall of L(X,Y) at level alpha over
Pi(mu, nu) by solving the lifted linear program in the pair (pi, Theta):

    max  sum_ij L_ij Theta_ij
    s.t. row sums of pi = mu,  column sums of pi = nu,
         Theta_ij <= (1-alpha)^{-1} pi_ij,   sum_ij Theta_ij = 1,
         pi, Theta >= 0.

``solve_msp`` generalizes to a spectral grid: one shared pi with a tail
variable Theta^k per grid level, objective z0 E_pi[L] + sum_k w_k (L.Theta^k).
The u = 0 atom is always carried by the expectation term, never by a level.
MES is MSP on the Dirac grid at alpha, and both share one solve path.
``solve_transport`` is MSP on the grid without levels (sigma == 1), on
which the program is plain optimal transport.

Neither program is handed to the solver whole.  Column generation starts
from the comonotone staircase of cells, solves the program restricted to the
active cells, and prices every cell with the restricted dual: a cell left
out can raise the optimum only if C^beta_ij > phi_i + psi_j.  Violated cells
join the active set until none is left, so the final dual certifies the
whole instance (Schmitzer 2016's shielding uses the same pricing).

Every solve returns a dual certificate (phi, psi, beta) and ends in
``verify_duality`` on the original instance; ``brute_force_mes`` provides
the independent oracle

    min over beta of  beta + (1-alpha)^{-1} * OTmax(mu, nu, (L - beta)+)

minimized exactly: the optimal transport plans give subgradients of the
convex outer function, which steer a bisection over the loss values and then
cutting planes between two adjacent ones, down to a certified lower bound.
The inner transport is additionally verified by exhaustive vertex
enumeration on tiny instances.  The two routes share the LP engine and no
LP assembly.  Both keep one HiGHS model per call and edit it between
solves: column generation appends the new cells to its master, and the
oracle changes only the cost of its transport model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .core import (
    AlphaOutOfRange,
    CertificateInvalid,
    Coupling,
    DimensionMismatch,
    InvalidParams,
    LossMatrix,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
    SpectralGrid,
    check_instance,
)
from .lpsolver import (
    LinearProgram,
    LpModel,
    _Transport,
    solve_lp,
    transport_polytope_vertices,
)
from .riskmeasures import DiscreteLaw, law_from_coupling, var

MSP_MAX_CELLS_TIMES_LEVELS = 5_000_000
_FLAT = SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))  # sigma == 1: E_pi[L]
_WEAK_DUALITY_TOL = 1e-9
_GAP_TOL = 1e-7
_CERT_FEAS_TOL = 1e-8
_ORACLE_REL_TOL = 1e-12     # oracle stop: value minus lower bound, per max|L|/(1-alpha)
_ORACLE_MAX_CUTS = 50

log = logging.getLogger("riskbound")


# ---------------------------------------------------------------------------
# Certificates and solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual data proving an upper bound on the primal value.

    The cover condition is phi_i + psi_j >= C^beta(x_i, y_j) on every cell.
    ``beta`` holds one entry per grid level (as beta(u_k)), and ``beta0``
    covers the u = 0 atom whenever z0 > 0.  For MES, the Dirac grid at
    alpha, ``beta`` is a scalar and the condition reads
    (1-alpha)(phi_i + psi_j) >= (L_ij - beta)+.  ``rho`` is never read: the
    MES slack matrix of older certificates is always recoverable as
    (L - beta)+, and the bound does not depend on it.
    """

    phi: np.ndarray
    psi: np.ndarray
    beta: float | np.ndarray
    rho: np.ndarray | None = None
    beta0: float | None = None

    def value(self, mu: ProbabilityVector, nu: ProbabilityVector,
              grid: SpectralGrid | None = None) -> float:
        """Dual objective: an upper bound on the primal value (weak duality)."""
        base = float(self.phi @ mu.weights + self.psi @ nu.weights)
        if grid is None:
            return base + float(self.beta)
        extra = float(np.dot(grid.weights, np.atleast_1d(self.beta))) if grid.n_levels else 0.0
        if grid.z0 > 0.0:
            extra += grid.z0 * float(self.beta0)
        return base + extra


@dataclass(frozen=True)
class GapReport:
    primal_value: float
    dual_value: float
    gap: float
    primal_residuals: dict
    dual_residuals: dict


@dataclass(frozen=True)
class MesSolution:
    """Optimal value with primal pair (pi*, Theta*) and a dual certificate;
    ``grid`` is the Dirac grid at alpha, on which it is an MSP solution."""

    value: float
    coupling: Coupling
    theta: np.ndarray
    certificate: DualCertificate
    gap: float
    alpha: float
    rounds: int = 0             # column-generation rounds (0: not recorded)
    active_cells: int = 0       # cells in the last restricted master
    iterations: int = 0         # HiGHS simplex iterations over all masters
    grid: SpectralGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", SpectralGrid.dirac(self.alpha))
        inv = 1.0 / (1.0 - self.alpha)
        th = np.asarray(self.theta, dtype=float)
        if th.shape != self.coupling.matrix.shape:
            raise DimensionMismatch("theta must be coupling-shaped")
        if np.any(th < -1e-9) or np.any(th > inv * self.coupling.matrix + 1e-9):
            raise NumericalFailure("theta violates the density bound (1-alpha)^{-1} pi")
        if abs(th.sum() - 1.0) > 1e-9:
            raise NumericalFailure(f"theta mass {th.sum()} != 1")
        if self.gap > _GAP_TOL:
            raise NumericalFailure(f"duality gap {self.gap} exceeds {_GAP_TOL}")
        th = th.copy()
        th.flags.writeable = False
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class MspSolution:
    value: float
    coupling: Coupling
    thetas: np.ndarray          # (K, N_X, N_Y); one tail measure per level
    betas: np.ndarray           # VaR_{u_k, pi*}(L) per level
    certificate: DualCertificate
    gap: float
    grid: SpectralGrid
    rounds: int = 0             # column-generation rounds (0: not recorded)
    active_cells: int = 0       # cells in the last restricted master
    iterations: int = 0         # HiGHS simplex iterations over all masters

    def __post_init__(self) -> None:
        shape = (self.grid.n_levels, *self.coupling.matrix.shape)
        if np.shape(self.thetas) != shape:
            raise DimensionMismatch(f"thetas has shape {np.shape(self.thetas)}, expected {shape}")
        if np.shape(self.betas) != (self.grid.n_levels,):
            raise DimensionMismatch(
                f"betas has shape {np.shape(self.betas)} for {self.grid.n_levels} levels")
        if self.gap > _GAP_TOL:
            raise NumericalFailure(f"duality gap {self.gap} exceeds {_GAP_TOL}")


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------


def _require_engine(engine: str) -> None:
    if engine != "highs":
        raise InvalidParams(f"unknown engine {engine!r}; the only engine is 'highs'")


def _require_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0,1), got {alpha}")
    return float(alpha)


def build_mes_lp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                 alpha: float) -> LinearProgram:
    """The lifted MES linear program: :func:`build_msp_lp` on the Dirac grid
    at ``alpha``; variables ordered (pi, Theta) row-major."""
    return build_msp_lp(mu, nu, loss, SpectralGrid.dirac(_require_alpha(alpha)))


def build_msp_lp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                 grid: SpectralGrid, cells=None) -> LinearProgram:
    """Single-pi, per-level-Theta lift of the spectral objective.

    Variables are pi, then Theta^1 .. Theta^K, each over the same cells;
    rows are the row and column sums of pi, one Theta-mass row per level,
    then one density row Theta^k <= (1-u_k)^{-1} pi per level and cell.
    ``cells = (I, J)`` restricts the program to those cells, in that order
    (the column-generation master); the default is every cell, row-major.
    """
    check_instance(mu, nu, loss)
    nx, ny = loss.shape
    if cells is None:
        ci, cj = np.divmod(np.arange(nx * ny), ny)
    else:
        ci, cj = (np.asarray(c, dtype=np.int64) for c in cells)
        if ci.shape != cj.shape or ci.ndim != 1:
            raise DimensionMismatch("cells must be two index arrays of one length")
        if ci.size and (ci.min() < 0 or ci.max() >= nx or cj.min() < 0 or cj.max() >= ny):
            raise DimensionMismatch("cells index outside the loss matrix")
    n = ci.size
    K = grid.n_levels
    nvar = (K + 1) * n
    # CSR straight from (data, indices, indptr): row i lists the cells of row
    # i in order, row nx + j those of column j, row nx + ny + k Theta^k
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ci, minlength=nx)),
                             n + np.cumsum(np.bincount(cj, minlength=ny)),
                             2 * n + n * np.arange(1, K + 1)])
    indices = np.concatenate([np.argsort(ci, kind="stable"), np.argsort(cj, kind="stable"),
                              n + np.arange(K * n)])
    a_eq = sp.csr_matrix((np.ones((K + 2) * n), indices, indptr), shape=(nx + ny + K, nvar))
    b_eq = np.concatenate([mu.weights, nu.weights, np.ones(K)])
    # density row k * n + c:  Theta^k_c - (1 - u_k)^{-1} pi_c <= 0
    ub_c = np.empty(2 * K * n, dtype=np.int64)
    ub_c[0::2] = np.tile(np.arange(n), K)
    ub_c[1::2] = n + np.arange(K * n)
    ub_v = np.ones(2 * K * n)
    ub_v[0::2] = -np.repeat(1.0 / (1.0 - grid.levels), n)
    a_ub = sp.csr_matrix((ub_v, ub_c, 2 * np.arange(K * n + 1)), shape=(K * n, nvar))
    obj = _lifted_cost(loss.values[ci, cj], grid)
    return LinearProgram(sense="max", c=obj, a_ub=a_ub, b_ub=np.zeros(K * n),
                         a_eq=a_eq, b_eq=b_eq)


def _lifted_cost(lvec: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Objective over pi, then Theta^1 .. Theta^K, for cells of losses ``lvec``."""
    return (np.concatenate([[grid.z0], grid.weights])[:, None] * lvec).ravel()


def _lifted_columns(ci: np.ndarray, cj: np.ndarray, loss: LossMatrix, grid: SpectralGrid,
                    first_row: int):
    """The lifted program's columns over new cells, as :meth:`LpModel.append`
    takes them: pi, then Theta^1 .. Theta^K, each over the cells in order,
    with the cells' density rows numbered level-major from ``first_row``.
    The layout is :func:`build_msp_lp`'s, so a master grown by appends is
    that program with its columns and density rows permuted."""
    nx, ny = loss.shape
    a = ci.size
    K = grid.n_levels
    dens = first_row + np.arange(K * a).reshape(K, a)
    pi_rows = np.column_stack([ci, nx + cj, dens.T])
    pi_vals = np.concatenate([[1.0, 1.0], -1.0 / (1.0 - grid.levels)])
    theta_rows = np.stack([np.repeat(nx + ny + np.arange(K), a).reshape(K, a), dens], axis=-1)
    index = np.concatenate([pi_rows.ravel(), theta_rows.ravel()])
    value = np.concatenate([np.tile(pi_vals, a), np.ones(2 * K * a)])
    start = np.concatenate([(K + 2) * np.arange(a), (K + 2) * a + 2 * np.arange(K * a)])
    return _lifted_cost(loss.values[ci, cj], grid), start, index, value, np.zeros(K * a)


# ---------------------------------------------------------------------------
# The certified column-generation solve shared by MES and MSP
# ---------------------------------------------------------------------------


def _staircase(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix):
    """Cells of the north-west corner plan after sorting rows and columns by
    mean loss: the comonotone coupling of the two orders.  It is feasible for
    any marginals, and optimal for supermodular losses (Tchen 1980).  Where
    a row and a column run out together the staircase still takes a single
    step, so it spans every row and column in m + n - 1 cells and the
    master's potentials are determined."""
    rows = np.argsort(loss.values @ nu.weights, kind="stable")
    cols = np.argsort(mu.weights @ loss.values, kind="stable")
    a = np.cumsum(mu.weights[rows])
    b = np.cumsum(nu.weights[cols])
    # each breakpoint of either cumulative sum opens the next cell
    t = np.union1d(0.0, np.union1d(a[:-1], b[:-1]))
    i = np.minimum(np.searchsorted(a, t, side="right"), a.size - 1)
    j = np.minimum(np.searchsorted(b, t, side="right"), b.size - 1)
    diag = (np.diff(i) > 0) & (np.diff(j) > 0)
    i = np.concatenate([i, i[1:][diag]])
    j = np.concatenate([j, j[:-1][diag]])
    flat = np.unique(rows[i] * b.size + cols[j])
    return np.divmod(flat, b.size)


def _segment_max(a: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Row c: the entrywise maximum of the rows of ``a`` labelled c; -inf if none is."""
    order = np.argsort(labels, kind="stable")
    present, first = np.unique(labels[order], return_index=True)
    out = np.full((n, a.shape[1]), -np.inf)
    out[present] = np.maximum.reduceat(a[order], first, axis=0)
    return out


def _component_shifts(ci: np.ndarray, cj: np.ndarray, support: np.ndarray,
                      price: np.ndarray):
    """Row and column potential shifts that make a master's dual cover every
    cell, or None when no such shifts exist.

    A cell with positive mass pins phi_i + psi_j, but only inside each
    connected component of the support graph (rows and columns joined by
    such cells).  A zero-mass cell of a degenerate basis, such as a
    staircase link where a row and a column run out together, leaves one
    free constant per component, and the solver's choice of constants need
    not cover the cells between components.  Adding s_c to phi and
    subtracting it from psi on component c keeps the dual value (a
    component's row and column masses agree) and the prices of the cells
    inside it; s_c >= s_d + max price over rows of c and columns of d for
    all c != d is a longest-path problem, solved by Bellman-Ford.
    """
    mm, nn = price.shape
    rows, order = ci[support], np.argsort(ci[support], kind="stable")
    graph = sp.csr_matrix((np.ones(order.size), mm + cj[support][order],  # row node -> column node
                           np.searchsorted(rows[order], np.arange(mm + nn + 1))),
                          shape=(mm + nn, mm + nn))
    nc, label = connected_components(graph, directed=False)
    row_c, col_c = label[:mm], label[mm:]
    w = _segment_max(_segment_max(price, row_c, nc).T, col_c, nc).T  # rows of c, columns of d
    np.fill_diagonal(w, -np.inf)
    s = np.zeros(nc)
    changed = np.arange(nc)
    for _ in range(nc + 1):
        cand = (w[:, changed] + s[changed][None, :]).max(axis=1)
        up = cand > s + 0.1 * _CERT_FEAS_TOL
        if not up.any():
            return s[row_c], s[col_c]
        s[up] = cand[up]
        changed = np.nonzero(up)[0]
    return None                                 # a positive cycle


@dataclass(frozen=True)
class _LiftedSolve:
    """Full-instance primal and certificate data of one lifted solve."""

    value: float
    pi: np.ndarray
    thetas: np.ndarray          # (K, N_X, N_Y)
    phi: np.ndarray
    psi: np.ndarray
    beta: np.ndarray            # per level, beta(u_k)
    beta0: float
    rounds: int
    active_cells: int
    iterations: int


def _solve_lifted(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                  grid: SpectralGrid) -> _LiftedSolve:
    """Column generation on the lifted program of a grid; a grid without
    levels (K = 0) is plain optimal transport, with pi as the only variable.

    Zero-mass atoms are dropped.  Each round solves the restricted master on
    the active cells, reads phi, psi and beta off its row duals and prices
    every cell at once by  C^beta_ij - phi_i - psi_j.  The most-violated
    inactive cell of each row and of each column joins the active set, as
    new columns and density rows of the one master model, which the next
    round re-solves from its last basis.  The loop stops when no cell is
    violated by more than ``_CERT_FEAS_TOL``, so the master's dual covers
    the whole kept instance.  Dropped atoms get the
    smallest potentials that cover their cells.  Potentials are normalized
    to phi[0] = 0.
    """
    nx, ny = loss.shape
    K = grid.n_levels
    keep_i = np.nonzero(mu.weights > 0.0)[0]
    keep_j = np.nonzero(nu.weights > 0.0)[0]
    mu_r = ProbabilityVector(mu.weights[keep_i])
    nu_r = ProbabilityVector(nu.weights[keep_j])
    loss_r = LossMatrix(loss.values[np.ix_(keep_i, keep_j)])
    mm, nn = loss_r.shape
    # the u = 0 atom is covered exactly by any beta0 below the whole loss range
    beta0 = float(loss.values.min() - 1.0)
    gammas = np.concatenate([[grid.z0], grid.gamma_weights])
    ci, cj = _staircase(mu_r, nu_r, loss_r)
    active = np.zeros((mm, nn), dtype=bool)
    active[ci, cj] = True
    master = LpModel(build_msp_lp(mu_r, nu_r, loss_r, grid, cells=(ci, cj)))
    col = np.arange(master.n_vars).reshape(K + 1, ci.size)  # master column of pi / Theta^k
    rounds = iterations = 0
    while True:
        rounds += 1
        sol = solve_lp(master)
        if sol.status != "optimal":
            raise NumericalFailure(f"lifted master LP terminated with status {sol.status}")
        iterations += sol.iterations
        phi_r = sol.duals_eq[:mm] - grid.z0 * beta0
        psi_r = sol.duals_eq[mm:mm + nn]
        beta = sol.duals_eq[mm + nn:] / grid.weights
        betas = np.concatenate([[beta0], beta])
        price = _c_beta(loss_r.values, gammas, betas)
        price -= phi_r[:, None]
        price -= psi_r[None, :]
        if price[~active].max(initial=-np.inf) > _CERT_FEAS_TOL:
            shift = _component_shifts(ci, cj, sol.x[col[0]] > 0.0, price)
            if shift is not None:
                phi_r = phi_r + shift[0]
                psi_r = psi_r - shift[1]
                price += shift[1][None, :] - shift[0][:, None]
        price[active] = -np.inf
        best_j = price.argmax(axis=1)
        best_i = price.argmax(axis=0)
        new_i = np.concatenate([np.arange(mm), best_i])
        new_j = np.concatenate([best_j, np.arange(nn)])
        hit = price[new_i, new_j] > _CERT_FEAS_TOL
        if not hit.any():
            break
        flat = np.unique(new_i[hit] * nn + new_j[hit])
        add_i, add_j = np.divmod(flat, nn)
        active[add_i, add_j] = True
        col = np.hstack([col, master.n_vars + np.arange((K + 1) * add_i.size).reshape(K + 1, -1)])
        master.append(*_lifted_columns(add_i, add_j, loss_r, grid, master.n_rows))
        ci = np.concatenate([ci, add_i])
        cj = np.concatenate([cj, add_j])
    n = ci.size
    keep_rows = keep_i[ci]
    keep_cols = keep_j[cj]
    x = sol.x[col]
    pi = np.zeros((nx, ny))
    pi[keep_rows, keep_cols] = x[0]
    thetas = np.zeros((K, nx, ny))
    for k in range(K):
        thetas[k][keep_rows, keep_cols] = x[k + 1]
    phi = np.zeros(nx)
    psi = np.zeros(ny)
    phi[keep_i] = phi_r
    psi[keep_j] = psi_r
    drop_i = np.setdiff1d(np.arange(nx), keep_i)
    drop_j = np.setdiff1d(np.arange(ny), keep_j)
    if drop_i.size:
        cover = _c_beta(loss.values[np.ix_(drop_i, keep_j)], gammas, betas)
        phi[drop_i] = (cover - psi[keep_j][None, :]).max(axis=1)
    if drop_j.size:
        cover = _c_beta(loss.values[:, drop_j], gammas, betas)
        psi[drop_j] = (cover - phi[:, None]).max(axis=0)
    shift = phi[0]
    return _LiftedSolve(value=float(sol.objective), pi=pi, thetas=thetas,
                        phi=phi - shift, psi=psi + shift, beta=beta, beta0=beta0,
                        rounds=rounds, active_cells=n, iterations=iterations)


def _certified(sol, loss: LossMatrix, mu: ProbabilityVector, nu: ProbabilityVector):
    """The exit gate of every solve: ``verify_duality`` on the original
    instance, then one info line on what the solve did."""
    report = verify_duality(sol, loss, mu, nu)
    log.info("%s: %d round(s), %d of %d cells active, %d simplex iteration(s), "
             "worst cover residual %.3e", type(sol).__name__, sol.rounds, sol.active_cells,
             loss.values.size, sol.iterations, report.dual_residuals["cover"])
    return sol


# ---------------------------------------------------------------------------
# MES
# ---------------------------------------------------------------------------


def solve_mes(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
              alpha: float, engine: str = "highs") -> MesSolution:
    """Maximum Expected Shortfall with a certified dual and zero LP gap.

    Solved as the lifted program on the Dirac grid at ``alpha`` by the
    column generation of :func:`_solve_lifted`.  The returned coupling, tail
    measure and certificate cover every cell of the original instance,
    zero-mass atoms included, and the solution has passed
    :func:`verify_duality`.  Potentials are normalized to phi[0] = 0.
    ``engine`` accepts only ``"highs"``, the one LP engine; it remains so
    that callers which name it (the benchmark warm-up does) keep working.
    """
    check_instance(mu, nu, loss)
    _require_engine(engine)
    a = _require_alpha(alpha)
    res = _solve_lifted(mu, nu, loss, SpectralGrid.dirac(a))
    cert = DualCertificate(phi=res.phi, psi=res.psi, beta=float(res.beta[0]))
    gap = abs(cert.value(mu, nu) - res.value)
    sol = MesSolution(value=res.value, coupling=Coupling(res.pi), theta=res.thetas[0],
                      certificate=cert, gap=gap, alpha=a, rounds=res.rounds,
                      active_cells=res.active_cells, iterations=res.iterations)
    return _certified(sol, loss, mu, nu)


def brute_force_mes(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                    alpha: float) -> float:
    """Independent MES oracle via the scalarized route.

    Minimizes the convex  f(beta) = beta + (1-alpha)^{-1} OTmax(mu, nu, (L-beta)+)
    exactly.  An optimal plan p at beta gives the convex minorant
    x + (1-alpha)^{-1} sum_ij p_ij (L_ij - x)+ of f that touches it at beta,
    so 1 - (1-alpha)^{-1} P_p(L >= beta) and 1 - (1-alpha)^{-1} P_p(L > beta)
    are subgradients of f there.  Bisection over the distinct loss values by
    their signs either stops at a minimizing loss value or ends between two
    adjacent ones.  There f is the maximum of one line per vertex plan: the
    two bracketing lines are intersected, f is evaluated at the crossing, and
    the new plan's line replaces the one on the side its slope points to,
    until f at the crossing meets the lines' value (a certified lower bound)
    to 1e-12 of max|L|/(1-alpha).  The smallest f evaluated is returned.  On
    instances of at most 16 cells the transport value at the returned beta
    is re-verified against exhaustive vertex enumeration, to 1e-9 of
    max(1, max|L|).  Every f(beta) re-solves one transport model, built
    once per call, with only its cost changed.
    """
    check_instance(mu, nu, loss)
    a = _require_alpha(alpha)
    if loss.values.size > 100:
        raise ProblemTooLarge("brute-force oracle limited to 100 cells")
    inv = 1.0 / (1.0 - a)
    L = loss.values
    # f adds inv times a transport value of up to max|L|: its rounding scale
    tol = _ORACLE_REL_TOL * inv * float(np.abs(L).max())
    evals = []  # (f, beta, transport value)
    transport = _Transport(mu, nu, "max")

    def f(beta: float) -> tuple[float, np.ndarray]:
        sol, plan = transport.solve(np.maximum(L - beta, 0.0))
        f_beta = beta + inv * sol.objective
        evals.append((f_beta, beta, sol.objective))
        return f_beta, plan

    # (a) bisection over the loss values; f falls left of v[0] and rises
    # right of v[-1], so the sentinels -1 and v.size are never evaluated
    v = np.unique(L)
    lo, hi = -1, v.size
    lower = None
    while hi - lo > 1:
        k = (lo + hi) // 2
        fk, p = f(float(v[k]))
        s_minus = 1.0 - inv * (1.0 - p[L < v[k]].sum())
        s_plus = 1.0 - inv * p[L > v[k]].sum()
        if s_plus < 0.0:
            lo, left = k, (float(v[k]), fk, s_plus)
        elif s_minus > 0.0:
            hi, right = k, (float(v[k]), fk, s_minus)
        else:
            lower = fk
            break
    # (b) Kelley's cutting planes between v[lo] and v[hi]
    if lower is None:
        inside = L > v[lo]  # the cells where (L - x)+ > 0 inside the bracket
        (x1, f1, s1), (x2, f2, s2) = left, right
        for _ in range(_ORACLE_MAX_CUTS):
            x = min(max(x1 + (f1 - f2 + s2 * (x2 - x1)) / (s2 - s1), x1), x2)
            lower = max(f1 + s1 * (x - x1), f2 + s2 * (x - x2))
            fx, q = f(x)
            s = 1.0 - inv * q[inside].sum()
            if s == 0.0:
                lower = fx  # a zero subgradient: x minimizes f
            if fx - lower <= tol:
                break
            if s < 0.0:
                x1, f1, s1 = x, fx, s
            else:
                x2, f2, s2 = x, fx, s
        else:
            raise NumericalFailure(
                f"MES oracle: no certified minimum after {_ORACLE_MAX_CUTS} cuts")
    best, beta_hat, value = min(evals)
    width = best - lower
    if abs(width) > tol:
        raise NumericalFailure(
            f"MES oracle: value {best!r} and certified lower bound {lower!r} differ")
    log.info("brute_force_mes: %d transport(s), beta %r, certified bracket width %.3e",
             len(evals), float(beta_hat), width)
    if loss.values.size <= 16:
        shifted = np.maximum(L - beta_hat, 0.0)
        enum_value = max(float((shifted * vert).sum())
                         for vert in transport_polytope_vertices(mu, nu))
        if abs(value - enum_value) > 1e-9 * max(1.0, float(np.abs(L).max())):
            raise NumericalFailure(
                f"transport vertex enumeration disagrees with the LP: "
                f"{enum_value} vs {value}")
    return float(best)


# ---------------------------------------------------------------------------
# C^beta and MSP
# ---------------------------------------------------------------------------


def _c_beta(values: np.ndarray, gammas, betas) -> np.ndarray:
    """Entrywise  sum_k g_k max(values - beta_k, 0)  over the terms with g_k != 0
    (so (z0, beta0) may always lead), in the output and one scratch buffer.
    Adding 0.0 to the first term, as summing into zeros does, keeps the
    result bit for bit that sum's."""
    terms = [(g, bk) for g, bk in zip(gammas, betas) if g]
    out = np.zeros(values.shape) if not terms else np.empty(values.shape)
    scratch = np.empty(values.shape) if len(terms) > 1 else None
    for k, (g, bk) in enumerate(terms):
        buf = scratch if k else out
        np.subtract(values, bk, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf *= g
        out += buf if k else 0.0
    return out


def c_beta_evaluate(loss: LossMatrix, grid: SpectralGrid, beta) -> LossMatrix:
    """Entrywise  sum_k g_k max(L - beta_k, 0)  against the grid's
    gamma-masses.  ``beta`` has one entry per level, optionally preceded by
    beta0 for the u = 0 atom (required when z0 > 0)."""
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    if b.size == grid.n_levels and grid.z0 == 0.0:
        b = np.concatenate([[0.0], b])          # the u = 0 term, skipped as z0 = 0
    if b.size != grid.n_levels + 1:
        raise DimensionMismatch(f"beta has {b.size} entries for {grid.n_levels} levels"
                                + (" and a u=0 atom: include beta0 first" if grid.z0 > 0.0 else ""))
    return LossMatrix(_c_beta(loss.values, np.concatenate([[grid.z0], grid.gamma_weights]), b))


def solve_msp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
              grid: SpectralGrid, engine: str = "highs") -> MspSolution:
    """Maximum spectral measure against a grid, with an LP-certified dual.

    Solved by the column generation of :func:`_solve_lifted`.  The
    certificate's per-level beta comes from the Theta-mass row duals
    (rescaled by the level weights); its phi absorbs the u = 0 atom through
    beta0 = min L - 1, which is exact on a finite support.  A grid without
    levels (sigma == 1) is plain optimal transport and takes the same path.
    The solution has passed :func:`verify_duality` on the original
    instance.  ``engine`` accepts only ``"highs"``, as in :func:`solve_mes`.
    """
    check_instance(mu, nu, loss)
    _require_engine(engine)
    if loss.values.size * max(grid.n_levels, 1) > MSP_MAX_CELLS_TIMES_LEVELS:
        raise ProblemTooLarge("cells x levels exceeds the desk-scale envelope")
    res = _solve_lifted(mu, nu, loss, grid)
    cert = DualCertificate(phi=res.phi, psi=res.psi, beta=res.beta,
                           beta0=res.beta0 if grid.z0 > 0.0 else None)
    gap = abs(cert.value(mu, nu, grid) - res.value)
    law = law_from_coupling(loss, Coupling(res.pi))
    betas = np.array([var(law, float(u)) for u in grid.levels])
    sol = MspSolution(value=res.value, coupling=Coupling(res.pi), thetas=res.thetas,
                      betas=betas, certificate=cert, gap=gap, grid=grid,
                      rounds=res.rounds, active_cells=res.active_cells,
                      iterations=res.iterations)
    return _certified(sol, loss, mu, nu)


def solve_transport(mu: ProbabilityVector, nu: ProbabilityVector, cost: LossMatrix,
                    sense: str = "max"
                    ) -> tuple[float, Coupling, tuple[np.ndarray, np.ndarray]]:
    """Extremal transport value over Pi(mu, nu), its plan, and Kantorovich
    potentials (phi, psi).

    :func:`solve_msp` on the grid without levels, whose lifted program is
    plain optimal transport, on ``-cost`` when ``sense`` is "min"; so the
    value has passed :func:`verify_duality`.  That certificate covers
    cost - beta0, and beta0 is moved into psi: phi_i + psi_j >= cost_ij for
    "max" (<= for "min") on every cell, zero-mass atoms included,
    phi . mu + psi . nu is the value, and phi[0] = 0.
    """
    if sense not in ("max", "min"):
        raise InvalidParams(f"sense must be 'max' or 'min', got {sense!r}")
    sign = 1.0 if sense == "max" else -1.0
    sol = solve_msp(mu, nu, cost if sense == "max" else LossMatrix(-cost.values), _FLAT)
    cert = sol.certificate
    return (sign * sol.value, sol.coupling,
            (sign * cert.phi, sign * (cert.psi + cert.beta0)))


# ---------------------------------------------------------------------------
# Duality verification
# ---------------------------------------------------------------------------


def verify_duality(sol: MesSolution | MspSolution, loss: LossMatrix,
                   mu: ProbabilityVector, nu: ProbabilityVector) -> GapReport:
    """Recompute primal and dual values from raw solution data and check
    the coupling's marginals, the tail measures, the cover condition
    phi_i + psi_j >= C^beta_ij on every cell, weak duality and the gap
    tolerance; raise ``CertificateInvalid`` with the violated constraints
    otherwise.

    An MES solution is checked as MSP on the Dirac grid at alpha, with its
    tail measure as the only level.  The cover residual is reported in loss
    units: max(C^beta - phi - psi) divided by the largest of 1, z0 and the
    grid's gamma weights, the most by which C^beta scales a loss.  For MES
    (gamma weight 1/(1-alpha)) this is (1-alpha) max(C^beta - phi - psi),
    which is max((L - beta)+ - (1-alpha)(phi + psi)) up to rounding.
    """
    check_instance(mu, nu, loss)
    grid = sol.grid
    thetas = sol.theta[None] if isinstance(sol, MesSolution) else sol.thetas
    unit = 1.0 / max(1.0, grid.z0, float(np.max(grid.gamma_weights, initial=0.0)))
    cert = sol.certificate
    pi = sol.coupling.matrix
    row_res, col_res = sol.coupling.marginal_residuals(mu, nu)
    # einsum, not BLAS: in some processes every threaded BLAS dot or gemv
    # over the full grid takes about 8 ms.  One buffer for the box.
    lvec = loss.values.ravel()
    primal = grid.z0 * float(np.einsum("c,c->", lvec, pi.ravel()))
    primal += float(grid.weights @ np.einsum("kc,c->k", thetas.reshape(grid.n_levels, lvec.size),
                                             lvec))
    box = np.multiply(pi, (-1.0 / (1.0 - grid.levels))[:, None, None])
    box += thetas
    theta_box = float(box.max(initial=0.0))
    mass_res = float(np.abs(thetas.sum(axis=(1, 2)) - 1.0).max(initial=0.0))
    dual = cert.value(mu, nu, grid)
    cover = _c_beta(loss.values, np.concatenate([[grid.z0], grid.gamma_weights]),
                    np.concatenate([[cert.beta0 if grid.z0 > 0.0 else 0.0],
                                    np.atleast_1d(cert.beta)]))
    cover -= cert.phi[:, None]
    cover -= cert.psi[None, :]
    cover_res = unit * float(cover.max(initial=0.0))
    violations: list[str] = []
    if cover_res > _CERT_FEAS_TOL:
        violations.append(f"phi + psi >= C^beta violated by {cover_res:.3e}")
    if row_res > 1e-9 or col_res > 1e-9:
        violations.append(f"coupling marginals off by ({row_res:.3e}, {col_res:.3e})")
    if theta_box > 1e-9:
        violations.append(f"theta density bound violated by {theta_box:.3e}")
    if mass_res > 1e-9:
        violations.append(f"theta mass off by {mass_res:.3e}")
    gap = abs(dual - primal)
    if dual < primal - _WEAK_DUALITY_TOL:
        violations.append(f"weak duality violated: dual {dual} < primal {primal}")
    if gap > _GAP_TOL:
        violations.append(f"duality gap {gap:.3e} exceeds {_GAP_TOL}")
    if violations:
        raise CertificateInvalid("; ".join(violations))
    return GapReport(primal_value=primal, dual_value=dual, gap=gap,
                     primal_residuals={"row": row_res, "col": col_res,
                                       "theta_box": theta_box, "theta_mass": mass_res},
                     dual_residuals={"cover": cover_res})


# ---------------------------------------------------------------------------
# Solution (de)serialization: {value, gap, coupling, theta, certificate}.
# Coupling-sized arrays are stored by their support as {shape, index, values}:
# row-major flat indices of the nonzeros and their exact values.  Readers
# also take the dense nested lists of older files, and ignore the MES
# certificate's rho that older files carry.
# ---------------------------------------------------------------------------


def _encode_array(a: np.ndarray) -> dict:
    flat = a.ravel()
    index = np.flatnonzero(flat)
    return {"shape": list(a.shape), "index": index.tolist(), "values": flat[index].tolist()}


def _decode_array(obj, field: str, shape: tuple | None = None) -> np.ndarray:
    """The dense array of a solution field, written by :func:`_encode_array`
    or as a nested list; ``shape``, when given, is the one it must have.
    Malformed input raises ``DimensionMismatch`` naming the field."""
    try:
        if isinstance(obj, dict):
            out = np.zeros(tuple(int(s) for s in obj["shape"]))
            index = np.asarray(obj["index"], dtype=np.int64)
            values = np.asarray(obj["values"], dtype=float)
            if list(out.shape) != list(obj["shape"]) or not np.array_equal(index, obj["index"]):
                raise DimensionMismatch(f"{field}: shape and index must hold integers")
            if index.ndim != 1 or index.shape != values.shape:
                raise DimensionMismatch(
                    f"{field}: {index.size} indices for {values.size} values")
            if index.size and (index[0] < 0 or index[-1] >= out.size
                               or np.any(np.diff(index) <= 0)):
                raise DimensionMismatch(
                    f"{field}: indices must increase strictly within [0, {out.size})")
            out.flat[index] = values
        else:
            out = np.asarray(obj, dtype=float)
            if out.size == 0 and shape is not None and 0 in shape:
                out = out.reshape(shape)        # K = 0 tail measures were written as []
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{field}: {type(exc).__name__}: {exc}") from exc
    if shape is not None and out.shape != tuple(shape):
        raise DimensionMismatch(f"{field} has shape {out.shape}, expected {tuple(shape)}")
    return out


def mes_solution_to_dict(sol: MesSolution) -> dict:
    return {
        "kind": "mes",
        "alpha": sol.alpha,
        "value": sol.value,
        "gap": sol.gap,
        "coupling": _encode_array(sol.coupling.matrix),
        "theta": _encode_array(sol.theta),
        "certificate": {
            "phi": sol.certificate.phi.tolist(),
            "psi": sol.certificate.psi.tolist(),
            "beta": float(sol.certificate.beta),
        },
        "rounds": sol.rounds,
        "active_cells": sol.active_cells,
        "iterations": sol.iterations,
    }


def _decode_potentials(cert: dict, shape: tuple) -> dict:
    """A certificate's phi and psi, checked against the coupling's shape."""
    return {"phi": _decode_array(cert["phi"], "certificate.phi", shape[:1]),
            "psi": _decode_array(cert["psi"], "certificate.psi", shape[1:])}


def mes_solution_from_dict(d: dict) -> MesSolution:
    coupling = Coupling(_decode_array(d["coupling"], "coupling"))
    shape = coupling.matrix.shape
    cert = DualCertificate(**_decode_potentials(d["certificate"], shape),
                           beta=float(d["certificate"]["beta"]))
    return MesSolution(value=float(d["value"]), coupling=coupling,
                       theta=_decode_array(d["theta"], "theta", shape), certificate=cert,
                       gap=float(d["gap"]), alpha=float(d["alpha"]),
                       rounds=int(d.get("rounds", 0)),
                       active_cells=int(d.get("active_cells", 0)),
                       iterations=int(d.get("iterations", 0)))


def msp_solution_to_dict(sol: MspSolution) -> dict:
    cert = {
        "phi": sol.certificate.phi.tolist(),
        "psi": sol.certificate.psi.tolist(),
        "beta": np.atleast_1d(sol.certificate.beta).tolist(),
    }
    if sol.certificate.beta0 is not None:
        cert["beta0"] = float(sol.certificate.beta0)
    return {
        "kind": "msp",
        "grid": {"z0": sol.grid.z0, "levels": sol.grid.levels.tolist(),
                 "weights": sol.grid.weights.tolist()},
        "value": sol.value,
        "gap": sol.gap,
        "coupling": _encode_array(sol.coupling.matrix),
        "theta": _encode_array(sol.thetas),
        "betas": sol.betas.tolist(),
        "certificate": cert,
        "rounds": sol.rounds,
        "active_cells": sol.active_cells,
        "iterations": sol.iterations,
    }


def msp_solution_from_dict(d: dict) -> MspSolution:
    grid = SpectralGrid(z0=float(d["grid"]["z0"]),
                        levels=np.asarray(d["grid"]["levels"], dtype=float),
                        weights=np.asarray(d["grid"]["weights"], dtype=float))
    coupling = Coupling(_decode_array(d["coupling"], "coupling"))
    beta0 = d["certificate"].get("beta0")
    if beta0 is None and grid.z0 > 0.0:
        raise DimensionMismatch("certificate.beta0 is required when the grid has z0 > 0")
    cert = DualCertificate(**_decode_potentials(d["certificate"], coupling.matrix.shape),
                           beta=_decode_array(d["certificate"]["beta"], "certificate.beta",
                                              (grid.n_levels,)),
                           beta0=None if beta0 is None else float(beta0))
    thetas = _decode_array(d["theta"], "theta", (grid.n_levels, *coupling.matrix.shape))
    return MspSolution(value=float(d["value"]), coupling=coupling, thetas=thetas,
                       betas=np.asarray(d["betas"], dtype=float), certificate=cert,
                       gap=float(d["gap"]), grid=grid,
                       rounds=int(d.get("rounds", 0)),
                       active_cells=int(d.get("active_cells", 0)),
                       iterations=int(d.get("iterations", 0)))


__all__ = [
    "DualCertificate",
    "GapReport",
    "MesSolution",
    "MspSolution",
    "brute_force_mes",
    "build_mes_lp",
    "build_msp_lp",
    "c_beta_evaluate",
    "mes_solution_from_dict",
    "mes_solution_to_dict",
    "msp_solution_from_dict",
    "msp_solution_to_dict",
    "solve_mes",
    "solve_msp",
    "solve_transport",
    "verify_duality",
]
