"""The tests' reference for every linear program: ``scipy.optimize.linprog``'s
HiGHS dual simplex, whose assembly and sign mapping are scipy's, not
riskbound's."""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from riskbound.lpsolver import LinearProgram


def reference_solve(lp, bounds=(0.0, None)):
    """``lp`` (anything with ``sense``, ``c``, ``a_ub``, ``b_ub``, ``a_eq``
    and ``b_eq``) solved over ``bounds``, linprog's argument, [0, inf) for
    every variable by default: objective, primal values, then row duals and
    reduced costs in the sign convention of :class:`lpsolver.LpSolution`."""
    sign = 1.0 if lp.sense == "min" else -1.0
    res = linprog(sign * lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                  bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    assert res.status == 0, res.message
    return {"objective": float(lp.c @ res.x), "x": res.x,
            "duals_eq": sign * res.eqlin.marginals, "duals_ub": sign * res.ineqlin.marginals,
            "reduced_costs": sign * (res.lower.marginals + res.upper.marginals)}


def model_program(model) -> LinearProgram:
    """The program an :class:`lpsolver.LpModel` holds, rebuilt from its
    column-wise buffers."""
    a = sp.csc_matrix((model._value, model._index, model._start),
                      shape=(model.n_rows, model.n_vars)).tocsr()
    m_eq = model.b_eq.size
    return LinearProgram(sense=model.sense, c=model.c,
                         a_eq=a[:m_eq] if m_eq else None, b_eq=model.b_eq if m_eq else None,
                         a_ub=a[m_eq:] if model.b_ub.size else None,
                         b_ub=model.b_ub if model.b_ub.size else None)


def assert_model_holds(model, lp: LinearProgram) -> None:
    """The model holds ``lp`` buffer for buffer: its cost and right-hand
    sides, and its CSC buffers are those of ``lp``'s rows, equality rows
    first, converted by scipy."""
    a = sp.vstack([b for b in (lp.a_eq, lp.a_ub) if b is not None]).tocsc()
    a.sort_indices()
    b_ub = np.zeros(0) if lp.b_ub is None else lp.b_ub
    for name, want in (("c", lp.c), ("b_eq", lp.b_eq), ("b_ub", b_ub), ("_start", a.indptr),
                       ("_index", a.indices), ("_value", a.data)):
        got = getattr(model, name)
        assert np.array_equal(got, want), name
    assert model._start.dtype == model._index.dtype == np.int32
    assert model._value.dtype == model.c.dtype == np.float64
