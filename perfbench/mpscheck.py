"""Read a written MPS file back and compare it with the in-memory program.

Structure (rows, columns, nonzero pattern, right-hand sides) must match
exactly; a mismatch raises ``ValueError``.  Coefficient values are compared
bit for bit: the count of entries that do not round-trip and the largest
relative error are returned as numbers, since the fixed-format export is
known to keep only six significant digits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _parse(path) -> tuple[dict, dict, dict]:
    rows: dict[str, str] = {}
    entries: dict[tuple[str, str], float] = {}
    rhs: dict[str, float] = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0]
                continue
            f = line.split()
            if section == "ROWS":
                rows[f[1]] = f[0]
            elif section == "COLUMNS":
                for k in range(1, len(f) - 1, 2):
                    entries[(f[0], f[k])] = float(f[k + 1])
            elif section == "RHS":
                for k in range(1, len(f) - 1, 2):
                    rhs[f[k]] = float(f[k + 1])
    return rows, entries, rhs


def compare_mps(lp, path) -> tuple[int, float]:
    """(coefficients that do not round-trip, max relative error) over the
    objective, matrix and right-hand side of ``lp`` as written to ``path``."""
    rows, entries, rhs = _parse(path)
    sign = 1.0 if lp.sense == "min" else -1.0
    blocks = [(lp.a_eq, lp.b_eq, "E"), (lp.a_ub, lp.b_ub, "L")]
    blocks = [b for b in blocks if b[0] is not None]
    names = [f"{kind}{i + 1:07d}" for a, _, kind in blocks for i in range(a.shape[0])]
    if len(rows) != len(names) + 1 or any(rows.get(n) != n[0] for n in names):
        raise ValueError("MPS rows do not match the program's constraints")
    coo = sp.vstack([a for a, _, _ in blocks], format="coo")
    expected = {(f"X{j + 1:07d}", names[i]): float(v)
                for i, j, v in zip(coo.row, coo.col, coo.data) if v != 0.0}
    for j in np.nonzero(lp.c)[0]:
        expected[(f"X{j + 1:07d}", "COST")] = float(sign * lp.c[j])
    b_all = np.concatenate([b for _, b, _ in blocks])
    expected_rhs = {n: float(v) for n, v in zip(names, b_all) if v != 0.0}
    if expected.keys() != entries.keys() or expected_rhs.keys() != rhs.keys():
        raise ValueError("MPS nonzero pattern does not match the program")
    want = np.array([expected[k] for k in entries] + [expected_rhs[k] for k in rhs])
    got = np.array(list(entries.values()) + list(rhs.values()))
    rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    return int(np.count_nonzero(got != want)), float(rel.max(initial=0.0))
