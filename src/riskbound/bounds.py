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
whole instance (Schmitzer 2016's shielding uses the same pricing).  The
staircase sorts rows and columns by mean loss, except for a transport (no
levels) between labelled laws on a line ground: there it follows the labels,
and the north-west-corner rule is optimal for the Monge cost (Hoffman 1963).
On a transport, round 1 needs no LP: the north-west-corner plan is a basis
whose cells form a tree, and its duals follow from one cumulative sum along
the staircase path (the u-v step of the transportation simplex).  When they
price no cell as violated, the solve ends with no model at all, as every
Wasserstein distance between labelled laws on the line does.  Otherwise,
and on every grid with levels, the masters run.  Every master is one model
that starts empty on the marginal and Theta-mass rows and receives its cells
by appends, the staircase first.  The first master's optimal basis is known
in advance: the north-west-corner plan on the staircase, and per level the
tail density of its law cut at the VaR (Rockafellar-Uryasev).  HiGHS gets
that basis with the model and takes no simplex iteration on it.  Every
master is priced with the duals HiGHS returns for it.  A degenerate master
(zero-mass cells in its basis) can return duals that leave some inactive
cell uncovered; pricing admits that cell, and a master over every cell has
duals that cover them all, so the loop still ends in a certificate.  A
program restricted to some cells exists only as such an appended master;
``build_msp_lp`` assembles the whole program, for the MPS export alone.

The primal stays on its support from the master to the caller.  The
master's optimal couplings are basic solutions, on a few of the N_X N_Y
cells; ``_whole_instance`` maps the master's cells to the whole instance
and sorts them once, and the solution objects, ``verify_duality`` and the
``solution.json`` writers and readers hold and check pi and Theta on those
cells (sparse multiscale transport, Schmitzer 2016, works the same way).
Only the cover check, which is the certificate, visits every cell.  The
dense ``coupling.matrix``, ``theta`` and ``thetas`` are views built on
first read.

Every solve returns a dual certificate (phi, psi, beta) and ends in
``verify_duality`` on the original instance; ``brute_force_mes`` provides
the independent oracle

    min over beta of  beta + (1-alpha)^{-1} * OTmax(mu, nu, (L - beta)+)

minimized exactly: the optimal transport plans give subgradients of the
convex outer function, which steer a bisection over the loss values and then
cutting planes between two adjacent ones, down to a certified lower bound.
The inner transport is additionally verified by exhaustive vertex
enumeration on tiny instances, over bases found once per shape.  The two
routes share the LP engine and no LP assembly.  Both keep at most one
HiGHS model per call and edit it between solves: column generation appends
the new cells to its master, and the oracle changes only the cost of its
transport model.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CertificateInvalid,
    Coupling,
    DimensionMismatch,
    InvalidParams,
    LossMatrix,
    NegativeWeight,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
    SpectralGrid,
    _DenseView,
    _eq_by_value,
    _freeze,
    _label_coordinates,
    _require_alpha,
    _spread,
    _support,
    check_instance,
)
from .lpsolver import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    LinearProgram,
    LpModel,
    _Transport,
    solve_lp,
    transport_polytope_vertices,
)
from .riskmeasures import law_from_coupling, var_levels

MSP_MAX_CELLS_TIMES_LEVELS = 5_000_000
_FLAT = SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))  # sigma == 1: E_pi[L]
_WEAK_DUALITY_TOL = 1e-9
_PRIMAL_TOL = 1e-9          # marginals, and the tail measures' sign, density box and mass
_GAP_TOL = 1e-7
_CERT_FEAS_TOL = 1e-8
_ORACLE_REL_TOL = 1e-12     # oracle stop: value minus lower bound, per max|L|/(1-alpha)
_ORACLE_MAX_CUTS = 50
_MONGE_ULPS = 8             # rounding allowed in the label order's supermodularity check

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

    __eq__ = _eq_by_value

    def value(self, mu: ProbabilityVector, nu: ProbabilityVector, grid: SpectralGrid) -> float:
        """Dual objective on ``grid``, an upper bound on the primal value; on
        MES's Dirac grid it is phi . mu + psi . nu + 1.0 * beta, bit for bit."""
        base = float(self.phi @ mu.weights + self.psi @ nu.weights)
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


def _place_tails(coupling: Coupling, levels: int, flat: np.ndarray, values: np.ndarray):
    """Tail values given at the strictly increasing row-major ``flat``
    indices of a (``levels``, N_X, N_Y) array, as (coupling, (levels, s)
    values on its cells).  Where a tail measure has mass off the coupling's
    cells, the coupling gains those cells with zero mass."""
    level, cell = np.divmod(flat, math.prod(coupling.shape))
    cells = np.union1d(coupling.index, cell)
    if cells.size > coupling.index.size:
        pi = np.zeros(cells.size)
        pi[np.searchsorted(cells, coupling.index)] = coupling.values
        coupling = Coupling.from_support(coupling.shape, cells, pi)
    tail = np.zeros((levels, cells.size))
    tail[level, np.searchsorted(cells, cell)] = values
    return coupling, tail


def _tail_on_cells(coupling: Coupling, theta, lead: tuple, name: str):
    """A solution's tail measures ``theta`` as (coupling, (K, s) values on
    its cells).  ``theta`` is dense, ``lead + coupling.shape``, or by its
    values on the coupling's cells, ``lead + (s,)``; ``lead`` is (K,) for
    MSP and () for MES's one level."""
    t = np.asarray(theta, dtype=float)
    levels = math.prod(lead)
    if t.shape == lead + coupling.index.shape:
        tail = t.reshape(levels, coupling.index.size).copy()
    elif t.shape == lead + coupling.shape:
        flat = np.flatnonzero(t)
        coupling, tail = _place_tails(coupling, levels, flat, t.ravel()[flat])
    else:
        raise DimensionMismatch(f"{name} has shape {t.shape}, expected {lead + coupling.shape}, "
                                f"or {lead + coupling.index.shape} on the coupling's cells")
    if not np.all(np.isfinite(tail)):
        raise NumericalFailure(f"{name} contains non-finite entries")
    return coupling, _freeze(tail)


@dataclass(frozen=True)
class MesSolution:
    """Optimal value with primal pair (pi*, Theta*) and a dual certificate;
    ``grid`` is the Dirac grid at alpha, on which it is an MSP solution.

    Theta* <= (1-alpha)^{-1} pi* pins the tail measure to the coupling's
    cells: ``tail`` holds its values there, (1, s) in the order of
    ``coupling.index``.  ``theta`` may be given that way, as (s,), or dense
    (N_X, N_Y); a dense theta with mass off the coupling's cells adds them
    to the coupling with zero mass.  Reading ``theta`` or ``thetas`` gives
    the dense view, read-only, built on first read.  Two solutions are
    ``==`` when all their fields are, the coupling and the tail measure
    compared as the dense arrays they describe, so a solution read back
    from ``solution.json`` equals the one written."""

    value: float
    coupling: Coupling
    theta: np.ndarray = _DenseView(
        lambda s: _spread(s.coupling.shape, s.coupling.index, s.tail[0]))
    certificate: DualCertificate
    gap: float
    alpha: float
    rounds: int = 0             # column-generation rounds (0: not recorded)
    active_cells: int = 0       # cells in the last restricted master
    iterations: int = 0         # HiGHS simplex iterations over all masters
    tail: np.ndarray = field(init=False, repr=False, compare=False)
    grid: SpectralGrid = field(init=False, repr=False, compare=False)

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", SpectralGrid.dirac(self.alpha))
        coupling, tail = _tail_on_cells(self.coupling, self._dense.pop("theta"), (), "theta")
        inv = 1.0 / (1.0 - self.alpha)
        th = tail[0]
        if np.any(th < -_PRIMAL_TOL) or np.any(th > inv * coupling.values + _PRIMAL_TOL):
            raise NumericalFailure("theta violates the density bound (1-alpha)^{-1} pi")
        if abs(th.sum() - 1.0) > _PRIMAL_TOL:
            raise NumericalFailure(f"theta mass {th.sum()} != 1")
        if self.gap > _GAP_TOL:
            raise NumericalFailure(f"duality gap {self.gap} exceeds {_GAP_TOL}")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "tail", tail)

    @property
    def thetas(self) -> np.ndarray:
        """The tail measure as the one level of the Dirac grid, (1, N_X, N_Y)."""
        return self.theta[None]


@dataclass(frozen=True)
class MspSolution:
    """Optimal value with one coupling pi*, one tail measure Theta^k per
    level of ``grid``, the VaRs ``betas`` of L under pi*, and a dual
    certificate.

    As for :class:`MesSolution`, ``tail`` holds the tail measures on the
    coupling's cells, (K, s); ``thetas`` may be given so or dense
    (K, N_X, N_Y), and reads as the dense view, built on first read; ``==``
    compares as it does there."""

    value: float
    coupling: Coupling
    thetas: np.ndarray = _DenseView(
        lambda s: _spread(s.coupling.shape, s.coupling.index, s.tail))
    betas: np.ndarray           # VaR_{u_k, pi*}(L) per level
    certificate: DualCertificate
    gap: float
    grid: SpectralGrid
    rounds: int = 0             # column-generation rounds (0: not recorded)
    active_cells: int = 0       # cells in the last restricted master
    iterations: int = 0         # HiGHS simplex iterations over all masters
    tail: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        coupling, tail = _tail_on_cells(self.coupling, self._dense.pop("thetas"),
                                        (self.grid.n_levels,), "thetas")
        if np.shape(self.betas) != (self.grid.n_levels,):
            raise DimensionMismatch(
                f"betas has shape {np.shape(self.betas)} for {self.grid.n_levels} levels")
        if self.gap > _GAP_TOL:
            raise NumericalFailure(f"duality gap {self.gap} exceeds {_GAP_TOL}")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "tail", tail)


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------


def build_mes_lp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                 alpha: float) -> LinearProgram:
    """The lifted MES linear program: :func:`build_msp_lp` on the Dirac grid
    at ``alpha``; variables ordered (pi, Theta) row-major."""
    return build_msp_lp(mu, nu, loss, SpectralGrid.dirac(_require_alpha(alpha)))


def build_msp_lp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                 grid: SpectralGrid) -> LinearProgram:
    """Single-pi, per-level-Theta lift of the spectral objective over every
    cell of the instance: the program the CLI exports as MPS.

    Variables are pi, then Theta^1 .. Theta^K, each over the cells
    row-major; rows are the row and column sums of pi, one Theta-mass row
    per level, then one density row Theta^k <= (1-u_k)^{-1} pi per level and
    cell.  The solves never build this program: each master holds it on its
    active cells, grown by appends of :func:`_lifted_columns`.
    """
    import scipy.sparse as sp

    check_instance(mu, nu, loss)
    nx, ny = loss.shape
    n = nx * ny
    K = grid.n_levels
    nvar = (K + 1) * n
    # CSR straight from (data, indices, indptr): row i holds cells i*ny ..
    # i*ny + ny - 1, row nx + j every ny-th cell from j, row nx + ny + k Theta^k
    indptr = np.concatenate([ny * np.arange(nx + 1), n + nx * np.arange(1, ny + 1),
                             2 * n + n * np.arange(1, K + 1)])
    indices = np.concatenate([np.arange(n), np.arange(n).reshape(nx, ny).T.ravel(),
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
    return LinearProgram(sense="max", c=_lifted_cost(loss.values.ravel(), grid), a_ub=a_ub,
                         b_ub=np.zeros(K * n), a_eq=a_eq, b_eq=b_eq)


def _lifted_cost(lvec: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Objective over pi, then Theta^1 .. Theta^K, for cells of losses ``lvec``."""
    return (np.concatenate([[grid.z0], grid.weights])[:, None] * lvec).ravel()


def _lifted_columns(ci: np.ndarray, cj: np.ndarray, loss: LossMatrix, grid: SpectralGrid,
                    first_row: int):
    """The lifted program's columns over new cells, as :meth:`LpModel.append`
    takes them: pi, then Theta^1 .. Theta^K, each over the cells in order,
    with the cells' density rows numbered level-major from ``first_row``.
    The layout is :func:`build_msp_lp`'s, so a master grown by appends over
    every cell is that program with its columns and density rows permuted."""
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


def _staircase(mu: ProbabilityVector, nu: ProbabilityVector, order: tuple):
    """Cells of the north-west corner plan after putting rows and columns in
    ``order``, a pair of permutations, row-major, and the plan's mass on
    each: the comonotone coupling of the two orders.
    :func:`_mean_loss_order` sorts rows and columns by mean loss, and
    :func:`_label_order` by support coordinate.  The plan is feasible for any
    marginals, and optimal for losses supermodular in the order (Tchen 1980;
    for transport, the north-west-corner rule on a Monge cost, Hoffman
    1963).  Where a row and a column run out together the staircase still
    takes a single step, through a cell of zero mass, so it spans every row
    and column in m + n - 1 cells and the master's potentials are
    determined.  A weight below the rounding of a cumulative sum can still
    hide its row or column, and the staircase then has fewer cells."""
    rows, cols = order
    a = np.cumsum(mu.weights[rows])
    b = np.cumsum(nu.weights[cols])
    # each breakpoint of either cumulative sum opens the next cell
    t = np.unique(np.concatenate([[0.0], a[:-1], b[:-1]]))
    i = np.minimum(np.searchsorted(a, t, side="right"), a.size - 1)
    j = np.minimum(np.searchsorted(b, t, side="right"), b.size - 1)
    diag = (i[1:] > i[:-1]) & (j[1:] > j[:-1])
    mass = np.concatenate([t[1:] - t[:-1], [1.0 - t[-1]], np.zeros(np.count_nonzero(diag))])
    i = np.concatenate([i, i[1:][diag]])
    j = np.concatenate([j, j[:-1][diag]])
    flat, cell = np.unique(rows[i] * b.size + cols[j], return_inverse=True)
    return (*np.divmod(flat, b.size), np.bincount(cell.ravel(), weights=mass, minlength=flat.size))


def _mean_loss_order(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix) -> tuple:
    """Rows and columns sorted by mean loss, as an order for :func:`_staircase`."""
    return (np.argsort(loss.values @ nu.weights, kind="stable"),
            np.argsort(mu.weights @ loss.values, kind="stable"))


def _tree_potentials(ci: np.ndarray, cj: np.ndarray, order: tuple, cost: np.ndarray):
    """Potentials with phi_i + psi_j = ``cost`` on every staircase cell
    ``(ci, cj)`` of :func:`_staircase` in ``order``, and phi = 0 on the
    first row of the order; None when the staircase has fewer than m + n - 1
    cells.

    The cells of a spanning staircase form a lattice path through the
    ordered grid whose every step goes one row down or one column right, so
    each cell's rank sum is its place on the path.  Along it phi changes
    only on down-steps and psi only on right-steps, each time by the cost
    difference of the step: phi is one cumulative sum, and psi the cost
    minus it.  These are the duals of the staircase master's optimal basis
    up to a constant: the u-v step of the transportation simplex."""
    rows, cols = order
    m, n = rows.size, cols.size
    if ci.size != m + n - 1:
        return None
    rank_i = np.empty(m, dtype=np.int64)
    rank_i[rows] = np.arange(m)
    rank_j = np.empty(n, dtype=np.int64)
    rank_j[cols] = np.arange(n)
    path = np.argsort(rank_i[ci] + rank_j[cj])
    pi, pj, c = ci[path], cj[path], cost[path]
    down = np.diff(rank_i[pi]) == 1
    step = np.diff(c)
    step[~down] = 0.0
    on_row = np.concatenate([[0.0], np.cumsum(step)])   # phi of each path cell's row
    phi = np.empty(m)
    psi = np.empty(n)
    first = np.concatenate([[True], down])      # the path cells that enter a new row
    phi[pi[first]] = on_row[first]
    first[1:] = ~down                           # ... and a new column
    psi[pj[first]] = (c - on_row)[first]
    return phi, psi


def _label_order(mu: ProbabilityVector, nu: ProbabilityVector, keep_i: np.ndarray,
                 keep_j: np.ndarray, loss: LossMatrix) -> tuple | None:
    """The kept rows and columns sorted by their labels' coordinates, as an
    order for :func:`_staircase`, when that order makes the staircase
    optimal; None otherwise.

    Both marginals must carry numeric labels on the kept atoms ``keep_i``
    and ``keep_j``, and the kept ``loss``, sorted so, must be supermodular
    on every adjacent 2 x 2 (a Monge cost for the max sense, as -|x - y|^r
    is on the line) up to ``_MONGE_ULPS`` ulps of max|L|, the rounding of
    such a loss where its mixed differences are 0.  A wrong verdict costs
    rounds, not the certificate."""
    x, y = (None if p.labels is None else _label_coordinates([p.labels[k] for k in keep])
            for p, keep in ((mu, keep_i), (nu, keep_j)))
    if x is None or y is None:
        return None
    rows, cols = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    s = loss.values[rows][:, cols]
    step = s[1:] - s[:-1]
    mixed = step[:, 1:] - step[:, :-1]
    if mixed.min(initial=0.0) < -_MONGE_ULPS * np.finfo(float).eps * np.abs(s).max():
        return None
    return rows, cols


def _staircase_basis(mass: np.ndarray, lvec: np.ndarray, grid: SpectralGrid, mm: int, nn: int):
    """The optimal basis of the staircase master, the lifted program on the
    staircase cells of masses ``mass`` and losses ``lvec``, as HiGHS status
    codes per column and per row; None when the staircase misses a row or a
    column (it has fewer than m + n - 1 cells).

    Every pi column is basic, and so is the first marginal row, whose dual
    is then 0: the cells form a spanning tree, on which pi is the
    north-west-corner plan.  Level k fills Theta^k = (1 - u_k)^{-1} pi from
    the largest loss down, ties in cell order.  On the cells it fills in
    full, zero-mass cells among them, Theta^k is basic and its density row
    tight.  On the cell where the mass
    1 - u_k runs out both are basic, so beta_k is that cell's loss: the VaR
    at u_k of the staircase law.  On the rest Theta^k is zero and the
    density row basic.  The basis is primal feasible, and dual feasible
    because the reduced cost of each Theta^k takes the sign of L - beta_k
    (Rockafellar-Uryasev at beta = VaR), so it is optimal as it stands."""
    n = mass.size
    if n != mm + nn - 1:
        return None
    K = grid.n_levels
    order = np.argsort(-lvec, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    cross = np.searchsorted(np.cumsum(mass[order]), 1.0 - grid.levels, side="right")
    rank = rank[None, :] - np.minimum(cross, n - 1)[:, None]   # 0 on the crossing cell
    cols = np.concatenate([np.full(n, BASIC), np.where(rank <= 0, BASIC, AT_LOWER).ravel()])
    rows = np.full(mm + nn + K, AT_LOWER)
    rows[0] = BASIC
    return cols, np.concatenate([rows, np.where(rank >= 0, BASIC, AT_UPPER).ravel()])


def _staircase_master(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                      grid: SpectralGrid, ci: np.ndarray, cj: np.ndarray,
                      mass: np.ndarray) -> LpModel:
    """The first master: an empty model on the marginal and Theta-mass rows,
    to which the staircase cells ``(ci, cj)`` are appended as every later
    round's cells are, with :func:`_staircase_basis` as its starting basis.
    It holds the lifted program on those cells in :func:`build_msp_lp`'s
    layout."""
    mm, nn = loss.shape
    master = LpModel("max", np.concatenate([mu.weights, nu.weights, np.ones(grid.n_levels)]),
                     basis=_staircase_basis(mass, loss.values[ci, cj], grid, mm, nn))
    master.append(*_lifted_columns(ci, cj, loss, grid, master.n_rows))
    return master


@dataclass(frozen=True)
class _LiftedSolve:
    """Full-instance primal and certificate data of one lifted solve; the
    primal is held on the master's cells."""

    value: float
    index: np.ndarray           # the master's cells, sorted row-major flat indices (s,)
    pi: np.ndarray              # (s,)
    tail: np.ndarray            # (K, s)
    phi: np.ndarray
    psi: np.ndarray
    beta: np.ndarray            # per level, beta(u_k)
    beta0: float
    rounds: int
    active_cells: int
    iterations: int
    first_round: str            # "tree": certified with no master; else "seeded" or "cold"
    order: str                  # the staircase's order: "label" or "mean-loss"


def _solve_lifted(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                  grid: SpectralGrid) -> _LiftedSolve:
    """Column generation on the lifted program of a grid; a grid without
    levels (K = 0) is plain optimal transport, with pi as the only variable.

    Zero-mass atoms are dropped; when there are none, the masters work on
    the caller's loss, with no copy.  Without levels, the staircase takes
    :func:`_label_order` when it applies: on a line ground the kept atoms'
    label order makes it optimal, and its zero-mass links join adjacent
    atoms.  Every other staircase, and every grid with levels, sorts by
    mean loss.

    Without levels, round 1 needs no master: its plan is the staircase's
    north-west-corner masses, and :func:`_tree_potentials` gives the duals
    of that basis.  When they price no cell as violated, the staircase is
    optimal and the solve ends there, with no LP model, as it does on every
    line-ground transport, between equal laws too.  Otherwise, and on every
    grid with levels, the first master, :func:`_staircase_master`, starts
    from the optimal basis of :func:`_staircase_basis`, or cold when the
    staircase misses a row or a column or HiGHS refuses the basis.  Each
    round solves the restricted master on the active cells, reads phi, psi
    and beta off its row duals and prices every cell with
    :func:`_entering_cells`.  Those cells join the active set, as new
    columns and density rows of the one master model, which the next round
    re-solves from its last basis.  Every round adds a cell, so the loop
    ends, at the latest on the whole kept instance; it stops when no cell is
    violated by more than ``_CERT_FEAS_TOL``, so the master's dual covers
    the whole kept instance.  Both exits map the result to the whole
    instance by :func:`_whole_instance`.
    """
    nx, ny = loss.shape
    K = grid.n_levels
    keep_i = np.nonzero(mu.weights > 0.0)[0]
    keep_j = np.nonzero(nu.weights > 0.0)[0]
    dropped = keep_i.size < nx or keep_j.size < ny
    # the masters see the kept weights renormalized, which can move a sum
    # that is off 1.0 by an ulp even when no atom is dropped
    mu_r = ProbabilityVector(mu.weights[keep_i])
    nu_r = ProbabilityVector(nu.weights[keep_j])
    # a row take, then a column take: C-ordered, as the mean-loss sums need
    loss_r = LossMatrix(loss.values[keep_i].take(keep_j, axis=1)) if dropped else loss
    mm, nn = loss_r.shape
    # the u = 0 atom is covered exactly by any beta0 below the whole loss range
    beta0 = float(loss.values.min() - 1.0)
    gammas = np.concatenate([[grid.z0], grid.gamma_weights])
    label = _label_order(mu, nu, keep_i, keep_j, loss_r) if K == 0 else None
    order = _mean_loss_order(mu_r, nu_r, loss_r) if label is None else label
    ci, cj, mass = _staircase(mu_r, nu_r, order)
    active = np.zeros((mm, nn), dtype=bool)
    active[ci, cj] = True
    whole = {"mu": mu, "nu": nu, "loss": loss, "keep_i": keep_i, "keep_j": keep_j,
             "gammas": gammas, "order": "mean-loss" if label is None else "label"}
    if K == 0:
        betas = np.array([beta0])
        lvec = loss_r.values[ci, cj]
        tree = _tree_potentials(ci, cj, order, _c_beta(lvec, gammas, betas))
        if tree is not None and not _entering_cells(loss_r, gammas, betas, *tree, active)[0].size:
            return _whole_instance(ci, cj, mass[None], *tree, betas, rounds=1, iterations=0,
                                   value=float(_lifted_cost(lvec, grid) @ mass),
                                   first_round="tree", **whole)
    master = _staircase_master(mu_r, nu_r, loss_r, grid, ci, cj, mass)
    col = np.arange(master.n_vars).reshape(K + 1, ci.size)  # master column of pi / Theta^k
    rounds = iterations = 0
    while True:
        rounds += 1
        sol = solve_lp(master)
        iterations += sol.iterations
        phi_r = sol.duals_eq[:mm] - grid.z0 * beta0
        psi_r = sol.duals_eq[mm:mm + nn]
        betas = np.concatenate([[beta0], sol.duals_eq[mm + nn:] / grid.weights])
        add_i, add_j = _entering_cells(loss_r, gammas, betas, phi_r, psi_r, active)
        if not add_i.size:
            break
        active[add_i, add_j] = True
        col = np.hstack([col, master.n_vars + np.arange((K + 1) * add_i.size).reshape(K + 1, -1)])
        master.append(*_lifted_columns(add_i, add_j, loss_r, grid, master.n_rows))
        ci = np.concatenate([ci, add_i])
        cj = np.concatenate([cj, add_j])
    return _whole_instance(ci, cj, sol.x[col], phi_r, psi_r, betas, rounds=rounds,
                           iterations=iterations, value=float(sol.objective),
                           first_round="seeded" if master.seeded else "cold", **whole)


def _entering_cells(loss_r: LossMatrix, gammas: np.ndarray, betas: np.ndarray,
                    phi_r: np.ndarray, psi_r: np.ndarray, active: np.ndarray):
    """Price every cell of the kept instance at once by
    C^beta_ij - phi_i - psi_j, and return the most-violated inactive cell of
    each row and of each column, where it is violated by more than
    ``_CERT_FEAS_TOL``, as sorted row and column indices without repeats:
    none when the potentials cover the whole kept instance."""
    nn = loss_r.shape[1]
    price = _c_beta(loss_r.values, gammas, betas)
    price -= phi_r[:, None]
    price -= psi_r[None, :]
    price[active] = -np.inf
    new_i = np.concatenate([np.arange(price.shape[0]), price.argmax(axis=0)])
    new_j = np.concatenate([price.argmax(axis=1), np.arange(nn)])
    hit = price[new_i, new_j] > _CERT_FEAS_TOL
    return np.divmod(np.unique(new_i[hit] * nn + new_j[hit]), nn)


def _whole_instance(ci: np.ndarray, cj: np.ndarray, x: np.ndarray, phi_r: np.ndarray,
                    psi_r: np.ndarray, betas: np.ndarray, *, mu: ProbabilityVector,
                    nu: ProbabilityVector, loss: LossMatrix, keep_i: np.ndarray,
                    keep_j: np.ndarray, gammas: np.ndarray, **record) -> _LiftedSolve:
    """A solve of the kept instance, mapped to the whole one.

    ``x`` holds pi, then Theta^1 .. Theta^K, over the kept cells
    ``(ci, cj)``; every other cell is 0.  The cells are mapped back through
    ``keep_i`` and ``keep_j`` and sorted once, into the support form that
    the solution objects hold: no dense primal array is made.  Dropped atoms
    get the smallest potentials that cover their cells against ``betas``
    (beta0, then one per level), and the potentials are normalized to
    phi[0] = 0: one certificate form for every exit of
    :func:`_solve_lifted`."""
    nx, ny = loss.shape
    dropped = keep_i.size < nx or keep_j.size < ny
    n = ci.size
    if dropped:
        ci, cj = keep_i[ci], keep_j[cj]
    flat = ci * ny + cj
    order = np.argsort(flat)
    x = x[:, order]
    if dropped:
        phi = np.zeros(nx)
        psi = np.zeros(ny)
        phi[keep_i] = phi_r
        psi[keep_j] = psi_r
        drop_i = np.flatnonzero(mu.weights == 0.0)
        drop_j = np.flatnonzero(nu.weights == 0.0)
        if drop_i.size:
            cover = _c_beta(loss.values[drop_i].take(keep_j, axis=1), gammas, betas)
            phi[drop_i] = (cover - psi[keep_j][None, :]).max(axis=1)
        if drop_j.size:
            cover = _c_beta(loss.values[:, drop_j], gammas, betas)
            psi[drop_j] = (cover - phi[:, None]).max(axis=0)
    else:
        phi, psi = phi_r, psi_r
    shift = phi[0]
    return _LiftedSolve(index=flat[order], pi=x[0], tail=x[1:], phi=phi - shift,
                        psi=psi + shift, beta=betas[1:], beta0=float(betas[0]), active_cells=n,
                        **record)


def _certified(sol, loss: LossMatrix, mu: ProbabilityVector, nu: ProbabilityVector,
               res: _LiftedSolve):
    """The exit gate of every solve: ``verify_duality`` on the original
    instance, then one info line on what the solve did."""
    report = verify_duality(sol, loss, mu, nu)
    log.info("%s: %d round(s), staircase in %s order, %s, "
             "%d of %d cells active, %d simplex iteration(s), worst cover residual %.3e",
             type(sol).__name__, sol.rounds, res.order,
             "tree certificate, no master" if res.first_round == "tree"
             else f"first master {res.first_round}",
             sol.active_cells, loss.values.size, sol.iterations, report.dual_residuals["cover"])
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
    if engine != "highs":
        raise InvalidParams(f"unknown engine {engine!r}; the only engine is 'highs'")
    a = _require_alpha(alpha)
    grid = SpectralGrid.dirac(a)
    res = _solve_lifted(mu, nu, loss, grid)
    cert = DualCertificate(phi=res.phi, psi=res.psi, beta=float(res.beta[0]))
    gap = abs(cert.value(mu, nu, grid) - res.value)
    sol = MesSolution(value=res.value,
                      coupling=Coupling.from_support(loss.shape, res.index, res.pi),
                      theta=res.tail[0], certificate=cert, gap=gap, alpha=a, rounds=res.rounds,
                      active_cells=res.active_cells, iterations=res.iterations)
    return _certified(sol, loss, mu, nu, res)


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
    if loss.values.size <= 16:
        plans = transport_polytope_vertices(mu, nu)
        enum_value = float((plans.reshape(len(plans), -1) @ np.maximum(L - beta_hat, 0.0).ravel()
                            ).max())
        if abs(value - enum_value) > 1e-9 * max(1.0, float(np.abs(L).max())):
            raise NumericalFailure(
                f"transport vertex enumeration disagrees with the LP: "
                f"{enum_value} vs {value}")
        checked = f"{len(plans)} vertices cross-checked"
    else:
        checked = "no vertex enumeration above 16 cells"
    log.info("brute_force_mes: %d transport(s), beta %r, certified bracket width %.3e, %s",
             len(evals), float(beta_hat), width, checked)
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


def solve_msp(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
              grid: SpectralGrid) -> MspSolution:
    """Maximum spectral measure against a grid, with an LP-certified dual.

    Solved by the column generation of :func:`_solve_lifted`.  The
    certificate's per-level beta comes from the Theta-mass row duals
    (rescaled by the level weights); its phi absorbs the u = 0 atom through
    beta0 = min L - 1, which is exact on a finite support.  A grid without
    levels (sigma == 1) is plain optimal transport and takes the same path.
    The solution has passed :func:`verify_duality` on the original
    instance.
    """
    check_instance(mu, nu, loss)
    if loss.values.size * max(grid.n_levels, 1) > MSP_MAX_CELLS_TIMES_LEVELS:
        raise ProblemTooLarge("cells x levels exceeds the desk-scale envelope")
    res = _solve_lifted(mu, nu, loss, grid)
    cert = DualCertificate(phi=res.phi, psi=res.psi, beta=res.beta,
                           beta0=res.beta0 if grid.z0 > 0.0 else None)
    gap = abs(cert.value(mu, nu, grid) - res.value)
    coupling = Coupling.from_support(loss.shape, res.index, res.pi)
    betas = var_levels(law_from_coupling(loss, coupling), grid.levels)
    sol = MspSolution(value=res.value, coupling=coupling, thetas=res.tail,
                      betas=betas, certificate=cert, gap=gap, grid=grid,
                      rounds=res.rounds, active_cells=res.active_cells,
                      iterations=res.iterations)
    return _certified(sol, loss, mu, nu, res)


def solve_transport(mu: ProbabilityVector, nu: ProbabilityVector, cost: LossMatrix,
                    sense: str = "max"
                    ) -> tuple[float, Coupling, tuple[np.ndarray, np.ndarray]]:
    """Extremal transport value over Pi(mu, nu), its plan, and Kantorovich
    potentials (phi, psi).

    :func:`solve_msp` on the grid without levels, whose lifted program is
    plain optimal transport, on ``-cost`` when ``sense`` is "min"; so the
    value has passed :func:`verify_duality`.  When the staircase's tree
    potentials cover every cell, as for |x - y|^r between labelled laws on
    the line, that is the whole solve: no LP model is built.  That certificate covers
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
    the coupling's marginals, the tail measures (sign, density box and
    mass), the cover condition phi_i + psi_j >= C^beta_ij on every cell,
    weak duality and the gap tolerance; raise ``CertificateInvalid`` with
    the violated constraints otherwise.

    First the coupling, phi, psi and beta (and beta0 when z0 > 0) must fit
    the instance and the grid, or ``DimensionMismatch`` names the field; the
    tail measures live on the coupling's cells, so the coupling's check
    covers them.  Every primal check runs on the support that the solution
    holds, in O(cells of the coupling); only the cover check, the
    certificate itself, runs over every cell.  Through its ``grid`` and
    ``tail``, an MES solution is checked as MSP on the Dirac grid at alpha.
    The cover residual is reported in loss units: max(C^beta - phi - psi)
    divided by the largest of 1, z0 and the grid's gamma weights, the most
    by which C^beta scales a loss.  For MES (gamma weight 1/(1-alpha)) this
    is (1-alpha) max(C^beta - phi - psi), which is
    max((L - beta)+ - (1-alpha)(phi + psi)) up to rounding.
    """
    check_instance(mu, nu, loss)
    grid, cert, pi, tail = sol.grid, sol.certificate, sol.coupling, sol.tail
    nx, ny = loss.shape
    for name, got, want in (("coupling", pi.shape, loss.shape),
                            ("certificate.phi", np.shape(cert.phi), (nx,)),
                            ("certificate.psi", np.shape(cert.psi), (ny,)),
                            ("certificate.beta", np.shape(np.atleast_1d(cert.beta)),
                             (grid.n_levels,))):
        if got != want:
            raise DimensionMismatch(f"{name} has shape {got}, but the instance and grid "
                                    f"need {want}")
    if grid.z0 > 0.0 and cert.beta0 is None:
        raise DimensionMismatch("certificate.beta0 is required when the grid has z0 > 0")
    unit = 1.0 / max(1.0, grid.z0, float(np.max(grid.gamma_weights, initial=0.0)))
    row_res, col_res = pi.marginal_residuals(mu, nu)
    # einsum, not BLAS: in some processes a threaded BLAS call costs
    # milliseconds.  One buffer for the box.
    lvec = loss.values.ravel()[pi.index]
    primal = grid.z0 * float(np.einsum("c,c->", lvec, pi.values))
    primal += float(grid.weights @ np.einsum("kc,c->k", tail, lvec))
    box = np.multiply(pi.values, (-1.0 / (1.0 - grid.levels))[:, None])
    box += tail
    theta_box = float(box.max(initial=0.0))
    theta_sign = max(0.0, -float(tail.min(initial=0.0)))
    mass_res = float(np.abs(tail.sum(axis=1) - 1.0).max(initial=0.0))
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
    if row_res > _PRIMAL_TOL or col_res > _PRIMAL_TOL:
        violations.append(f"coupling marginals off by ({row_res:.3e}, {col_res:.3e})")
    if theta_sign > _PRIMAL_TOL:
        violations.append(f"theta negative by {theta_sign:.3e}")
    if theta_box > _PRIMAL_TOL:
        violations.append(f"theta density bound violated by {theta_box:.3e}")
    if mass_res > _PRIMAL_TOL:
        violations.append(f"theta mass off by {mass_res:.3e}")
    gap = abs(dual - primal)
    if dual < primal - _WEAK_DUALITY_TOL:
        violations.append(f"weak duality violated: dual {dual} < primal {primal}")
    if gap > _GAP_TOL:
        violations.append(f"duality gap {gap:.3e} exceeds {_GAP_TOL}")
    if violations:
        raise CertificateInvalid("; ".join(violations))
    return GapReport(primal_value=primal, dual_value=dual, gap=gap,
                     primal_residuals={"row": row_res, "col": col_res, "theta_sign": theta_sign,
                                       "theta_box": theta_box, "theta_mass": mass_res},
                     dual_residuals={"cover": cover_res})


# ---------------------------------------------------------------------------
# Solution (de)serialization: {value, gap, coupling, theta, certificate}.
# Coupling-sized arrays are stored by their support as {shape, index, values}:
# row-major flat indices of the nonzeros, increasing, and their exact values.
# Writers and readers go straight between that and the support form of the
# solution objects.  Readers also take the dense nested lists of older
# files, and ignore the MES certificate's rho that older files carry.
# ---------------------------------------------------------------------------


def _encode_support(coupling: Coupling, values: np.ndarray, lead: tuple = ()) -> dict:
    """The field of shape ``lead + coupling.shape`` that holds ``values``,
    ``lead + (s,)``, on the coupling's cells and 0 elsewhere, by its
    nonzeros in increasing row-major flat index."""
    rows = values.reshape(math.prod(lead), coupling.index.size)
    k, c = np.nonzero(rows)
    index = k * math.prod(coupling.shape) + coupling.index[c]
    return {"shape": [*lead, *coupling.shape], "index": index.tolist(),
            "values": rows[k, c].tolist()}


def _decode_support(obj, field: str, shape: tuple | None = None):
    """(shape, index, values) of a solution field, written by
    :func:`_encode_support` or, in older files, as a dense nested list
    (whose support is its nonzeros); ``shape``, when given, is the one it
    must have.  Malformed input raises ``DimensionMismatch`` naming the
    field."""
    if not isinstance(obj, dict):
        dense = _decode_array(obj, field, shape)
        index = np.flatnonzero(dense)
        return dense.shape, index, dense.ravel()[index]
    try:
        got = tuple(int(s) for s in obj["shape"])
        index = np.asarray(obj["index"], dtype=np.int64)
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{field}: {type(exc).__name__}: {exc}") from exc
    if (list(got) != list(obj["shape"]) or min(got, default=0) < 0
            or not np.array_equal(index, obj["index"])):
        raise DimensionMismatch(f"{field}: shape and index must hold nonnegative integers")
    if shape is not None and got != tuple(shape):
        raise DimensionMismatch(f"{field} has shape {got}, expected {tuple(shape)}")
    return (got, *_support(got, index, values, field))


def _decode_array(obj, field: str, shape: tuple | None = None) -> np.ndarray:
    """The dense array of a solution field, as a nested list or by its
    support; ``shape``, when given, is the one it must have.  Malformed
    input raises ``DimensionMismatch`` naming the field."""
    if isinstance(obj, dict):
        return _spread(*_decode_support(obj, field, shape))
    try:
        out = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{field}: {type(exc).__name__}: {exc}") from exc
    if out.size == 0 and shape is not None and 0 in shape:
        out = out.reshape(shape)        # K = 0 tail measures were written as []
    if shape is not None and out.shape != tuple(shape):
        raise DimensionMismatch(f"{field} has shape {out.shape}, expected {tuple(shape)}")
    return out


def _decode_primal(d: dict, lead: tuple):
    """A solution dict's coupling, and its tail measures as values on the
    coupling's cells, ``lead + (s,)``; the coupling gains zero-mass cells
    where a tail measure has mass off it.  A tail entry below -1e-9 raises
    ``NegativeWeight``."""
    coupling = Coupling.from_support(*_decode_support(d["coupling"], "coupling"))
    _, index, values = _decode_support(d["theta"], "theta", lead + coupling.shape)
    if values.size and values.min() < -_PRIMAL_TOL:
        raise NegativeWeight(f"theta entry {values.min()} below -{_PRIMAL_TOL}")
    coupling, tail = _place_tails(coupling, math.prod(lead), index, values)
    return coupling, tail.reshape(lead + tail.shape[1:])


def _decode_scalar(obj, field: str) -> float:
    """A scalar solution field, which must be a number; anything else (null,
    a string, a list) raises ``DimensionMismatch`` naming the field."""
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise DimensionMismatch(f"{field} must be a number, got {type(obj).__name__}")
    return float(obj)


def _decode_counts(d: dict) -> dict:
    """The solve record's counters, each a nonnegative integer; a missing one
    reads as 0, anything else raises ``DimensionMismatch`` naming it."""
    counts = {}
    for field in ("rounds", "active_cells", "iterations"):
        obj = d.get(field, 0)
        if isinstance(obj, bool) or not isinstance(obj, numbers.Integral) or obj < 0:
            raise DimensionMismatch(f"{field} must be a nonnegative integer, got {obj!r}")
        counts[field] = int(obj)
    return counts


def mes_solution_to_dict(sol: MesSolution) -> dict:
    return {
        "kind": "mes",
        "alpha": sol.alpha,
        "value": sol.value,
        "gap": sol.gap,
        "coupling": _encode_support(sol.coupling, sol.coupling.values),
        "theta": _encode_support(sol.coupling, sol.tail[0]),
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
    coupling, theta = _decode_primal(d, ())
    cert = DualCertificate(**_decode_potentials(d["certificate"], coupling.shape),
                           beta=_decode_scalar(d["certificate"]["beta"], "certificate.beta"))
    return MesSolution(value=_decode_scalar(d["value"], "value"), coupling=coupling,
                       theta=theta, certificate=cert,
                       gap=_decode_scalar(d["gap"], "gap"),
                       alpha=_decode_scalar(d["alpha"], "alpha"), **_decode_counts(d))


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
        "coupling": _encode_support(sol.coupling, sol.coupling.values),
        "theta": _encode_support(sol.coupling, sol.tail, (sol.grid.n_levels,)),
        "betas": sol.betas.tolist(),
        "certificate": cert,
        "rounds": sol.rounds,
        "active_cells": sol.active_cells,
        "iterations": sol.iterations,
    }


def msp_solution_from_dict(d: dict) -> MspSolution:
    levels = _decode_array(d["grid"]["levels"], "grid.levels")
    if levels.ndim != 1:
        raise DimensionMismatch(f"grid.levels must be a list, got {d['grid']['levels']!r}")
    grid = SpectralGrid(z0=_decode_scalar(d["grid"]["z0"], "grid.z0"), levels=levels,
                        weights=_decode_array(d["grid"]["weights"], "grid.weights",
                                              levels.shape))
    coupling, thetas = _decode_primal(d, (grid.n_levels,))
    beta0 = d["certificate"].get("beta0")
    if beta0 is None and grid.z0 > 0.0:
        raise DimensionMismatch("certificate.beta0 is required when the grid has z0 > 0")
    if beta0 is not None:
        beta0 = _decode_scalar(beta0, "certificate.beta0")
    cert = DualCertificate(**_decode_potentials(d["certificate"], coupling.shape),
                           beta=_decode_array(d["certificate"]["beta"], "certificate.beta",
                                              (grid.n_levels,)),
                           beta0=beta0)
    return MspSolution(value=_decode_scalar(d["value"], "value"), coupling=coupling,
                       thetas=thetas, betas=_decode_array(d["betas"], "betas", (grid.n_levels,)),
                       certificate=cert, gap=_decode_scalar(d["gap"], "gap"), grid=grid,
                       **_decode_counts(d))


__all__ = [
    "DualCertificate",
    "GapReport",
    "MesSolution",
    "MspSolution",
    "brute_force_mes",
    "build_mes_lp",
    "build_msp_lp",
    "mes_solution_from_dict",
    "mes_solution_to_dict",
    "msp_solution_from_dict",
    "msp_solution_to_dict",
    "solve_mes",
    "solve_msp",
    "solve_transport",
    "verify_duality",
]
