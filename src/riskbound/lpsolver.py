"""
Linear programming layer: one LP engine, a persistent model of it, and the
transport model of the MES oracle.  Every solve returns primal values, row
duals, and reduced costs, and is certified against feasibility /
complementary-slackness / duality-gap residuals before being handed back.

Engine
------
HiGHS's dual simplex (Huangfu & Hall 2018), called through the binding that
scipy bundles (``scipy.optimize._highspy``), with presolve on and primal and
dual feasibility tolerances of 1e-9.  Every solve runs on an
:class:`LpModel`: one HiGHS model plus a column-wise mirror of the program
it holds, against which the solve is certified.  A model starts on its
equality rows alone, optionally with a starting basis that HiGHS gets right
after the model and starts its first solve from; every column, each in
[0, inf), and every ``<=`` row arrive by :meth:`LpModel.append`, and
:meth:`LpModel.set_cost` replaces the objective.  HiGHS then re-solves from
the basis it already holds, with the primal simplex and without presolve.
The column generation of :mod:`riskbound.bounds` starts each master so,
from the staircase cells and their basis, and grows it between solves; its
MES oracle appends every cell of one transport model at once and then
changes only its cost.  Both models are feasible and bounded by
construction, so any HiGHS status other than optimal is a failure.

The binding is private scipy API; ``scipy.optimize._highspy`` ships with
scipy 1.15 and later, the floor ``pyproject.toml`` sets, and it is the only
route to the engine.  It is one extension module, ``_core``, and
:func:`_load_highs` loads that file from scipy's ``optimize/_highspy``
directory without running ``scipy/optimize/__init__.py``, which would
import scipy.linalg, scipy.sparse, scipy.special and more that no solve
uses (about 0.35 s and 44 MB of an import on a 2-core VM).  The module is registered under
its canonical name, so a later ``import scipy.optimize`` reuses it, and a
module already imported under that name is taken as it is: the extension
is initialised once per process.  :class:`LinearProgram` is the export
type of the whole lifted program: :func:`write_mps` writes it, and no solve
takes it; scipy.sparse, its matrix type, is imported by those two alone.

The MES oracle of :mod:`riskbound.bounds` (``brute_force_mes``) runs on the
same engine as the lifted programs it checks.  Its independence rests on
its own assembly (:class:`_Transport`: the plain transport rows over the
cells between atoms of positive mass, whole, with no lifted variables and
no column generation) and on the cross-check of its transport values with
:func:`transport_polytope_vertices` on tiny instances.  Optimal transport
for callers is ``bounds.solve_transport``, the certified column generation
on the grid without levels.

Dual sign convention: duals are reported for the problem *as posed*, so
that  objective == duals_eq . b_eq + duals_ub . b_ub.  For a maximization
this makes duals of binding <=-rows nonnegative.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import combinations, islice
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DimensionMismatch,
    NumericalFailure,
    ProbabilityVector,
    ProblemTooLarge,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


def _load_highs():
    """scipy's HiGHS binding, ``scipy.optimize._highspy._core``, loaded from
    its file without importing the package ``scipy.optimize``, and
    registered in ``sys.modules`` under that name; a module already there
    is returned as it is."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS binding _core in {where}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_highspy = _load_highs()        # private scipy API

_VERTEX_CHUNK = 512             # candidate bases tested and solved per batch

# residual contract for certified optimal solutions
PRIMAL_RES_TOL = 1e-8
DUAL_RES_TOL = 1e-8
CS_RES_TOL = 1e-8
GAP_TOL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """min/max  c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0."""

    sense: str
    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        import scipy.sparse as sp

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

    @property
    def n_vars(self) -> int:
        return int(self.c.size)


@dataclass(frozen=True)
class LpSolution:
    """Certified solver output.

    The stored residuals satisfy the module contract (primal/dual
    feasibility and complementary slackness <= 1e-8, duality gap <= 1e-7);
    :func:`solve_lp` raises ``NumericalFailure`` otherwise.
    ``duals_ub``/``duals_eq`` follow the sign convention in the module
    docstring; ``reduced_costs`` match the posed sense.
    """

    objective: float
    x: np.ndarray
    duals_ub: np.ndarray
    duals_eq: np.ndarray
    reduced_costs: np.ndarray
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    engine: str = ""


# ---------------------------------------------------------------------------
# The persistent model and the HiGHS engine
# ---------------------------------------------------------------------------

_HIGHS_TOL = 1e-9               # HiGHS primal and dual feasibility tolerances
_HIGHS_OPTIONS = (("output_flag", False), ("solver", "simplex"), ("presolve", "on"),
                  ("primal_feasibility_tolerance", _HIGHS_TOL),
                  ("dual_feasibility_tolerance", _HIGHS_TOL))
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4     # HiGHS simplex_strategy values
AT_LOWER, BASIC, AT_UPPER = 0, 1, 2       # HiGHS HighsBasisStatus codes


def _check_status(status, what: str) -> None:
    if status == _highspy.HighsStatus.kError:
        raise NumericalFailure(f"HiGHS rejected the {what}")


class LpModel:
    """A linear program held by one HiGHS model, kept between solves and
    edited in place.

    The model starts on the equality rows ``x = b_eq`` over no columns: the
    columns, each with bounds [0, inf), and any ``<=`` rows arrive by
    :meth:`append`, the ``<=`` rows numbered after the equality rows.  The
    model mirrors the program HiGHS holds column-wise (CSC buffers
    ``start``, ``index``, ``value``), so that :func:`solve_lp` certifies
    every solve against exactly that program, and appending columns only
    concatenates buffers.  The HiGHS model itself is passed at the first
    solve; after it, every edit goes to both, and HiGHS re-solves from the
    basis it holds.

    ``basis``, when given, is a starting basis for the first solve: one
    ``HighsBasisStatus`` code per column and per row the model holds by
    then, rows in the model's order.  It is handed to HiGHS right after the
    model, and :attr:`seeded` records whether HiGHS took it; a refused basis
    leaves the model to solve cold.
    """

    def __init__(self, sense: str, b_eq, basis: tuple | None = None) -> None:
        if sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.c = self.b_ub = np.zeros(0)
        self.b_eq = np.asarray(b_eq, dtype=float)
        self._start = np.zeros(1, dtype=np.int32)
        self._index = np.zeros(0, dtype=np.int32)
        self._value = np.zeros(0)
        self._highs = None
        self._basis = basis
        self.seeded = False

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
            int(_highspy.ObjSense.kMinimize), 0.0, self._sign * self.c, np.zeros(n),
            np.full(n, np.inf), np.concatenate([self.b_eq, np.full(self.b_ub.size, -np.inf)]),
            np.concatenate([self.b_eq, self.b_ub]),
            self._start[:-1], self._index, self._value, np.zeros(n, dtype=np.int32)),
            "model")
        if self._basis is not None:
            status = np.array([_highspy.HighsBasisStatus(code)
                               for code in (AT_LOWER, BASIC, AT_UPPER)], dtype=object)
            basis = _highspy.HighsBasis()
            basis.alien = False
            basis.col_status = status[self._basis[0]].tolist()
            basis.row_status = status[self._basis[1]].tolist()
            self.seeded = highs.setBasis(basis) != _highspy.HighsStatus.kError
        return highs


def _highs_run(model: LpModel):
    """Run HiGHS on the model's min-sense program, passing it at the first
    run.  A cold model runs the dual simplex, after presolve.  A model that
    holds a basis, from its last solve or the starting basis passed with
    it, starts from it and skips presolve.  Appended columns enter that
    basis at zero, so a new cost, or new rows with a nonnegative right-hand
    side, leave it primal feasible, and the model re-solves with the primal
    simplex."""
    if model._highs is None:
        model._highs = model._pass()
    highs = model._highs
    warm = highs.getBasis().valid
    highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX if warm else _DUAL_SIMPLEX)
    highs.run()
    return highs


def _solve_highs(model: LpModel) -> LpSolution:
    highs = _highs_run(model)
    status = highs.getModelStatus()
    if status != _highspy.HighsModelStatus.kOptimal:
        raise NumericalFailure(
            f"HiGHS terminated abnormally: {highs.modelStatusToString(status)}")
    sign = model._sign
    res = highs.getSolution()
    x = np.asarray(res.col_value, dtype=float)
    y = sign * np.asarray(res.row_dual, dtype=float)
    m_eq = model.b_eq.size
    return LpSolution(objective=float(model.c @ x), x=x, duals_ub=y[m_eq:], duals_eq=y[:m_eq],
                      reduced_costs=sign * np.asarray(res.col_dual, dtype=float),
                      iterations=int(highs.getInfo().simplex_iteration_count), engine="highs")


# ---------------------------------------------------------------------------
# Certification and the public entry point
# ---------------------------------------------------------------------------


def _certify(model: LpModel, sol: LpSolution) -> dict:
    """Residuals in the min-sense canonical form, every column in [0, inf);
    see module contract."""
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
                 float(np.maximum(-x, 0.0).max(initial=0.0)))
    # min-sense: y_ub <= 0 and reduced costs >= 0
    dual = max(float(np.maximum(y_ub, 0.0).max(initial=0.0)),
               float(np.maximum(-rc, 0.0).max(initial=0.0)))
    cs = max(float(np.abs(y_ub * slack).max(initial=0.0)),
             float(np.abs(rc * x).max(initial=0.0)))
    gap = abs(float(c @ x) - (float(y_eq @ model.b_eq) + float(y_ub @ model.b_ub)))
    return {"primal": primal, "dual": dual, "compslack": cs, "gap": gap}


def solve_lp(model: LpModel) -> LpSolution:
    """Solve and certify a live model as it stands, from the basis of its
    last solve.

    The solution is certified against the program the model holds.  Raises
    ``NumericalFailure`` when HiGHS ends in any status but optimal (named in
    the message), or when the optimal solution cannot meet the residual
    contract (the failing residuals are reported in the message).
    """
    sol = _solve_highs(model)
    residuals = _certify(model, sol)
    if (residuals["primal"] > PRIMAL_RES_TOL or residuals["dual"] > DUAL_RES_TOL
            or residuals["compslack"] > CS_RES_TOL or residuals["gap"] > GAP_TOL):
        raise NumericalFailure(
            f"optimal solve failed certification: {residuals} (engine {sol.engine})"
        )
    return replace(sol, residuals=residuals)


# ---------------------------------------------------------------------------
# The MES oracle's transport model
# ---------------------------------------------------------------------------


class _Transport:
    """Extremal transport over Pi(mu, nu) as one model that only the cost
    changes between solves.

    Zero-mass atoms are dropped before assembly: the model starts empty on
    one equality row per kept row of the plan, then per kept column, and
    receives in one append a variable per cell between kept atoms,
    row-major, with its two entries.  :meth:`solve` re-inserts the dropped
    atoms as zero rows/columns of the plan.
    """

    def __init__(self, mu: ProbabilityVector, nu: ProbabilityVector, sense: str) -> None:
        self.shape = (mu.size, nu.size)
        self.keep_i = np.nonzero(mu.weights > 0.0)[0]
        self.keep_j = np.nonzero(nu.weights > 0.0)[0]
        mm, nn = self.keep_i.size, self.keep_j.size
        self.model = LpModel(sense, np.concatenate([mu.weights[self.keep_i],
                                                    nu.weights[self.keep_j]]))
        # cell (i, j) enters rows i and mm + j
        ci, cj = np.divmod(np.arange(mm * nn), nn)
        self.model.append(np.zeros(mm * nn), 2 * np.arange(mm * nn),
                          np.column_stack([ci, mm + cj]).ravel(), np.ones(2 * mm * nn),
                          np.zeros(0))

    def solve(self, cost: np.ndarray) -> tuple[LpSolution, np.ndarray]:
        """Certified solution and the full plan for the cost matrix ``cost``."""
        self.model.set_cost(cost[np.ix_(self.keep_i, self.keep_j)].ravel())
        sol = solve_lp(self.model)
        plan = np.zeros(self.shape)
        plan[np.ix_(self.keep_i, self.keep_j)] = sol.x.reshape(self.keep_i.size,
                                                               self.keep_j.size)
        return sol, plan


@cache
def _spanning_trees(m: int, n: int) -> np.ndarray:
    """The supports of the bases of the m-by-n transportation polytope, one
    read-only row of m + n - 1 row-major cell indices each, in
    ``combinations`` order: the spanning trees of K_{m,n}, m^(n-1) n^(m-1)
    of them (Klee & Witzgall 1968).  Found once per shape by testing
    candidate supports in chunks of ``_VERTEX_CHUNK``, never all at once (36
    cells allow C(36, 11) of them).  The constraint matrix is totally
    unimodular, so a candidate has determinant 0 or +-1 and the determinant
    decides its rank exactly."""
    r = m + n - 1
    cell_cols = _cell_columns(m, n)
    found = []
    combos = combinations(range(m * n), r)
    while True:
        chunk = np.array(list(islice(combos, _VERTEX_CHUNK)), dtype=np.int8).reshape(-1, r)
        if not chunk.size:
            break
        found.append(chunk[np.abs(np.linalg.det(cell_cols[chunk].transpose(0, 2, 1))) > 0.5])
    trees = np.concatenate(found)
    trees.flags.writeable = False
    return trees


def _cell_columns(m: int, n: int) -> np.ndarray:
    """Row k: column k of the transport constraint matrix, less the
    redundant last column sum."""
    return np.hstack([np.repeat(np.eye(m), n, axis=0), np.tile(np.eye(n), (m, 1))])[:, :-1]


def transport_polytope_vertices(mu: ProbabilityVector, nu: ProbabilityVector) -> np.ndarray:
    """Every basic feasible plan of the transportation polytope, each once,
    stacked: an array of shape (vertices, m, n).

    Basic solutions correspond to spanning trees of K_{m,n} with m+n-1
    support cells.  The trees of each shape are found once and kept as int8
    cell indices (:func:`_spanning_trees`): trees x (m+n-1) bytes per shape,
    about 90 KB over all shapes of at most 16 cells, the ones the oracle
    enumerates; larger shapes, up to 36 cells, are reached only by direct
    calls (5x5 holds 3.5 MB).  Each call solves the flows of the cached
    bases in stacked batches of ``_VERTEX_CHUNK`` and keeps the nonnegative
    ones.  A degenerate vertex is the plan of several bases: plans equal
    after rounding to 12 decimals are kept once, in the order the bases
    first reach them.  Exponential: intended only for the oracle
    cross-checks on tiny instances.
    """
    m, n = mu.size, nu.size
    if m * n > 36:
        raise ProblemTooLarge("vertex enumeration limited to 36 cells")
    trees = _spanning_trees(m, n)
    cell_cols = _cell_columns(m, n)
    b = np.concatenate([mu.weights, nu.weights])[:-1]
    found = []
    for start in range(0, trees.shape[0], _VERTEX_CHUNK):
        chunk = trees[start:start + _VERTEX_CHUNK]
        flows = np.linalg.solve(cell_cols[chunk].transpose(0, 2, 1),
                                np.broadcast_to(b, chunk.shape)[..., None])[..., 0]
        ok = np.all(flows >= -1e-10, axis=1)
        chunk, flows = chunk[ok], flows[ok]
        plans = np.zeros((chunk.shape[0], m * n))
        np.put_along_axis(plans, chunk, flows, axis=1)
        ok = np.abs(plans.reshape(-1, m, n).sum(axis=1) - nu.weights).max(axis=1,
                                                                          initial=0.0) <= 1e-9
        found.append(plans[ok])
    plans = np.concatenate(found)
    # + 0.0 makes -0.0 and 0.0 one key
    _, first = np.unique(np.round(plans, 12) + 0.0, axis=0, return_index=True)
    return plans[np.sort(first)].reshape(-1, m, n)


# ---------------------------------------------------------------------------
# MPS export
# ---------------------------------------------------------------------------


MPS_NAME_DIGITS = 7             # digits of the row and column numbers in MPS names
_MPS_CHUNK_LINES = 1 << 11      # lines per block of write_mps: about 128 KB of bytes


@cache
def _four_digits() -> np.ndarray:
    """The strings "0000" to "9999", each as the uint32 of its four bytes."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32)[:, 0]


def _mps_table(mat: np.ndarray, pad: int):
    """A byte table, one entry per row, in which NUL bytes end the rows
    shorter than the table, with every row padded by spaces to at least
    ``pad`` bytes; returned with whether any row is still shorter."""
    if mat.shape[1] < pad:
        mat = np.pad(mat, ((0, 0), (0, pad - mat.shape[1])))
    head = mat[:, :pad]
    head[head == 0] = ord(" ")
    return mat, not mat.all()


def _mps_names(letters, numbers: np.ndarray, pad: int):
    """Names: each letter followed by its number, zero-padded to
    ``MPS_NAME_DIGITS`` digits or as wide as the number needs, as a
    :func:`_mps_table`.  The digits are gathered four at a time, as whole
    words, from a table of all four-digit strings."""
    numbers = np.asarray(numbers, dtype=np.int64)
    top = max(MPS_NAME_DIGITS, len(str(numbers.max(initial=0))))
    words = np.empty((numbers.size, (top + 4) // 4), dtype=np.uint32)
    rest = numbers
    for k in range(words.shape[1] - 1, -1, -1):
        rest, last = np.divmod(rest, 10000)
        words[:, k] = _four_digits()[last]
    # the digits end each row right-aligned; the letter goes just before them
    mat = words.view(np.uint8)[:, words.shape[1] * 4 - 1 - top:]
    mat[:, 0] = letters
    mat = np.ascontiguousarray(mat)
    if top > MPS_NAME_DIGITS:
        # a number of d < top digits keeps d of them, left-aligned
        digits = np.maximum(MPS_NAME_DIGITS, np.searchsorted(
            10 ** np.arange(1, top, dtype=np.int64), numbers, side="right") + 1)
        for d in range(MPS_NAME_DIGITS, top):
            rows = np.flatnonzero(digits == d)
            mat[rows, 1:1 + d] = mat[rows, 1 + top - d:]
            mat[rows, 1 + d:] = 0
    return _mps_table(mat, pad)


def _mps_numbers(values: np.ndarray, exact: bool, pad: int):
    """The values as a :func:`_mps_table`, each printed as ``repr`` or, if
    not exact, with six significant digits ("{:.6G}"), and padded with
    spaces to ``pad`` bytes."""
    # the widest repr of a finite float has 24 characters
    # (-2.2250738585072014e-308), the widest "%.6G" 13 (-2.22507E-308), so
    # left-justified to that width every number is one record
    fmt, width = ("%-24r", 24) if exact else ("%-13.6G", 13)
    text = (fmt * values.size % tuple(values.tolist())).encode("ascii")
    mat = np.frombuffer(text, dtype=np.uint8).reshape(values.size, width)
    while width > pad and (mat[:, width - 1] == ord(" ")).all():
        width -= 1
    mat = mat[:, :width].copy()
    tail = mat[:, pad:]
    tail[tail == ord(" ")] = 0
    return mat, not mat.all()


def _mps_lines(fields, second=(), present=None) -> np.ndarray:
    """Lines whose fields lie side by side, as one flat byte array in line
    order: ``fields``, then ``second`` on the lines where ``present`` is
    true (on every line where it is None), then a newline.  A field is a
    byte string repeated on every line or a pair of a :func:`_mps_table`
    and each line's row in it.  Each line is a fixed-width record: the
    byte strings come from one template, and each table field is filled by
    one gather of whole rows.  Only where lines differ in width are the NUL
    bytes that end shorter rows, and the second fields of lines without
    them, dropped."""
    split = len(fields)
    fields = [*fields, *second, b"\n"]
    template, names, formats, offsets, gathers = [], [], [], [], []
    ragged = False
    for f in fields:
        col = sum(map(len, template))
        if isinstance(f, bytes):
            template.append(f)
            continue
        (mat, short), index = f
        ragged |= short
        width = mat.shape[1]
        template.append(bytes(width))
        names.append(f"f{len(names)}")
        formats.append(f"V{width}")
        offsets.append(col)
        # one void item per row gathers much faster than a 2-D uint8 take
        gathers.append((mat.view(f"V{width}")[:, 0], index))
    row = b"".join(template)
    n = len(gathers[0][1])
    out = np.empty((n, len(row)), dtype=np.uint8)
    out[:] = np.frombuffer(row, dtype=np.uint8)
    records = out.view(np.dtype({"names": names, "formats": formats, "offsets": offsets,
                                 "itemsize": len(row)}))[:, 0]
    for name, (items, index) in zip(names, gathers):
        records[name] = items[index]
    if present is not None and not present.all():
        out[~present, len(b"".join(template[:split])):-1] = 0
        ragged = True
    out = out.ravel()
    return out[out != 0] if ragged else out


def write_mps(lp: LinearProgram, path, name: str = "RISKLP", exact: bool = False) -> None:
    """Dump the program in MPS format (objective always minimized; a
    maximization is negated and flagged in a comment).

    By default every number keeps six significant digits in its fixed-format
    field, and row and column names have ``MPS_NAME_DIGITS`` digits; a
    program with more rows of a kind or more columns than those digits can
    number raises ``ProblemTooLarge``.  With ``exact=True`` every
    coefficient and right-hand side is printed as ``repr(float(v))``,
    which reads back bit for bit; such a file is free MPS, because a number
    may outgrow its fixed field, and names widen as their numbers need.

    Each column lists its cost first, then its nonzeros by row, two entries
    per line.  The file is the same, byte for byte, as one written entry by
    entry with the formats above.  BOUNDS is empty: every variable has the
    default bounds [0, inf).

    The ROWS, COLUMNS and RHS sections are assembled from numpy arrays.
    The cost row, ``a_eq`` and ``a_ub`` are stacked by joining their CSR
    buffers (duplicates summed, stored zeros dropped) and turned into
    columns by one conversion, which leaves each column's rows sorted.  The
    distinct numbers of each source (costs, coefficients, right-hand sides)
    are found by one sort each and printed once, and the row and column
    names are built once per call from a table of four-digit strings.
    Lines are laid out in blocks of ``_MPS_CHUNK_LINES`` as fixed-width
    records, one whole-row gather per field; only blocks whose lines differ
    in width are compacted.  The MES program of LG 50x100 (seed 701,
    alpha 0.9) writes in 5.3 ms (fixed) and 8.1 ms (exact), and that of
    LG 200x400 in 134 ms (exact), against 10.1, 13.0 and 223 ms for the
    previous writer (medians of 5 alternating timeit runs each, 2-vCPU VM).
    """
    import scipy.sparse as sp

    sign = 1.0 if lp.sense == "min" else -1.0
    m_eq = lp.a_eq.shape[0] if lp.a_eq is not None else 0
    m_ub = lp.a_ub.shape[0] if lp.a_ub is not None else 0
    if not exact and max(m_eq, m_ub, lp.n_vars) >= 10 ** MPS_NAME_DIGITS:
        raise ProblemTooLarge(f"{m_eq}+{m_ub} rows and {lp.n_vars} columns exceed the "
                              f"{MPS_NAME_DIGITS}-digit names of fixed-format MPS; "
                              f"write it with exact=True")
    head = [f"* sense: {lp.sense}" + (" (objective negated)" if sign < 0 else "")
            + ("; free MPS, exact floats" if exact else ""),
            f"NAME          {name:<8s}", "ROWS", " N  COST"]
    # row 0 of the stacked matrix is the cost, rows 1.. the E rows, then the L rows
    blocks = [a for a in (lp.a_eq, lp.a_ub) if a is not None]
    costed = np.flatnonzero(lp.c)
    starts = np.cumsum([costed.size] + [a.indptr[-1] for a in blocks])
    stacked = sp.csr_matrix(
        (np.concatenate([sign * lp.c[costed]] + [a.data[:a.indptr[-1]] for a in blocks]),
         np.concatenate([costed] + [a.indices[:a.indptr[-1]] for a in blocks]),
         np.concatenate([[0, costed.size]] + [a.indptr[1:] + s for a, s in zip(blocks, starts)])),
        shape=(1 + m_eq + m_ub, lp.n_vars))
    stacked.sum_duplicates()
    stacked.eliminate_zeros()
    b_all = np.concatenate([[0.0]] + [b for b in (lp.b_eq, lp.b_ub) if b is not None])
    rhs_rows = np.flatnonzero(b_all)
    # the values of each source (costs, coefficients, right-hand sides)
    # become indices into one table of numbers, each printed once
    distinct, number_of, size = [], [], 0
    for v in (stacked.data[:stacked.indptr[1]], stacked.data[stacked.indptr[1]:],
              b_all[rhs_rows]):
        u = np.unique(v)
        # a source without repeats is printed as it stands
        u, at = (v, np.arange(v.size)) if u.size == v.size else (u, np.searchsorted(u, v))
        distinct.append(u)
        number_of.append(at + size)
        size += u.size
    numbers = _mps_numbers(np.concatenate(distinct), exact, 12)
    stacked.data = np.concatenate(number_of[:2])
    cols = stacked.tocsc()                          # each column's rows come sorted
    rows = np.arange(1, m_eq + m_ub + 1)
    names = _mps_names(np.where(rows <= m_eq, ord("E"), ord("L")),
                       np.where(rows <= m_eq, rows, rows - m_eq), 0)
    letters = (np.ascontiguousarray(names[0][:, :1]), False)
    mat = np.zeros((1 + rows.size, max(4, names[0].shape[1])), dtype=np.uint8)
    mat[0, :4] = np.frombuffer(b"COST", dtype=np.uint8)
    mat[1:, :names[0].shape[1]] = names[0]
    row_table = _mps_table(mat, 8)
    col_table = _mps_names(ord("X"), np.arange(1, lp.n_vars + 1), 8)
    # column j has ceil(entries / 2) lines; its line t starts at entry 2t
    n_lines = (np.diff(cols.indptr) + 1) // 2
    line_col = np.repeat(np.arange(lp.n_vars), n_lines)
    line_first = (cols.indptr[:-1] - 2 * (np.cumsum(n_lines) - n_lines))[line_col]
    line_first += 2 * np.arange(line_col.size)
    nnz = cols.data.size
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        for lo in range(0, rows.size, _MPS_CHUNK_LINES):
            at = np.arange(lo, min(lo + _MPS_CHUNK_LINES, rows.size))
            fh.write(_mps_lines([b" ", (letters, at), b"  ", (names, at)]))
        fh.write(b"COLUMNS\n")
        for lo in range(0, line_col.size, _MPS_CHUNK_LINES):
            at = line_col[lo:lo + _MPS_CHUNK_LINES]
            first = line_first[lo:lo + _MPS_CHUNK_LINES]
            second = np.minimum(first + 1, nnz - 1)
            fh.write(_mps_lines(
                [b"    ", (col_table, at), b"  ", (row_table, cols.indices[first]),
                 b"  ", (numbers, cols.data[first])],
                [b"   ", (row_table, cols.indices[second]), b"  ", (numbers, cols.data[second])],
                first + 1 < cols.indptr[at + 1]))
        fh.write(b"RHS\n")
        for lo in range(0, rhs_rows.size, _MPS_CHUNK_LINES):
            fh.write(_mps_lines([b"    RHS       ", (row_table, rhs_rows[lo:lo + _MPS_CHUNK_LINES]),
                                 b"  ", (numbers, number_of[2][lo:lo + _MPS_CHUNK_LINES])]))
        # every variable has the MPS default bounds [0, inf)
        fh.write(b"BOUNDS\nENDATA\n")


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
