"""In-memory spans around riskbound's public functions, recorded from outside.

``Tracer.install`` replaces each public function at the module attribute the
package calls it through (``riskbound.bounds.solve_lp``,
``riskbound.stability.solve_transport``, ...) with a wrapper that records one
span per call; ``uninstall`` restores the originals.  Each alias wraps the
original function, so a call yields exactly one span whichever module it goes
through.  Private engine functions (``_solve_highs``, ``_solve_simplex``,
``_certify``) are never wrapped.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


def _lp_attrs(sol) -> dict:
    return {"engine": sol.engine, "iterations": int(sol.iterations)}


def _build_attrs(lp) -> dict:
    # every lifted program has one <=-row per (cell, level) and (levels+1)
    # variables per cell, so cells = variables - <=-rows
    return {"nnz": int(lp.a_eq.nnz + lp.a_ub.nnz),
            "cells": int(lp.n_vars - lp.a_ub.shape[0])}


# (module the package calls through, attribute, layer name, result annotator)
TARGETS = (
    ("riskbound.bounds", "solve_mes", "bounds.solve_mes", None),
    ("riskbound.bounds", "solve_msp", "bounds.solve_msp", None),
    ("riskbound.bounds", "verify_duality", "bounds.verify_duality", None),
    ("riskbound.bounds", "brute_force_mes", "bounds.brute_force_mes", None),
    ("riskbound.bounds", "build_mes_lp", "bounds.build_mes_lp", _build_attrs),
    ("riskbound.bounds", "build_msp_lp", "bounds.build_msp_lp", _build_attrs),
    ("riskbound.bounds", "solve_lp", "lpsolver.solve_lp", _lp_attrs),
    ("riskbound.bounds", "solve_transport", "lpsolver.solve_transport", None),
    ("riskbound.lpsolver", "solve_lp", "lpsolver.solve_lp", _lp_attrs),
    ("riskbound.lpsolver", "write_mps", "lpsolver.write_mps", None),
    ("riskbound.stability", "solve_mes", "bounds.solve_mes", None),
    ("riskbound.stability", "solve_msp", "bounds.solve_msp", None),
    ("riskbound.stability", "solve_transport", "lpsolver.solve_transport", None),
    ("riskbound.stability", "wasserstein_discrete", "stability.wasserstein_discrete", None),
    ("riskbound.stability", "lipschitz_estimate", "stability.lipschitz_estimate", None),
    ("riskbound.stability", "perturbation_sweep", "stability.perturbation_sweep", None),
    ("riskbound.asymptotics", "solve_mes", "bounds.solve_mes", None),
    ("riskbound.asymptotics", "solve_lp", "lpsolver.solve_lp", _lp_attrs),
    ("riskbound.asymptotics", "sample_empirical", "asymptotics.sample_empirical", None),
)


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, op, attrs]``;
    ``parent`` indexes ``spans`` (-1 for a root) and ``op`` numbers the
    benchmark operation that caused it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name: str, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(result)
                return result
            except Exception as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                self.end(idx, attrs)
        return traced

    def install(self) -> None:
        for mod_name, attr, name, annotate in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, annotate))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def totals(self, ops: set[int] | None = None) -> dict[str, dict]:
        """Per layer name: calls, busy seconds, self seconds (busy minus the
        time covered by child spans), errors, and the summed numeric
        attributes, over the spans of the given operations (all if None)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, attrs in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for idx, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "errors": 0})
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[idx]
            for key, value in (attrs or {}).items():
                if key == "error":
                    row["errors"] += 1
                elif key == "engine":
                    sub = out.setdefault(f"{name}[{value}]", {
                        "calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0,
                        "iterations": 0})
                    sub["calls"] += 1
                    sub["busy_s"] += t1 - t0
                    sub["iterations"] += attrs.get("iterations", 0)
                elif isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made (at any depth) under ``parent_name``."""
        count = 0
        for name, _, _, parent, _, _ in self.spans:
            if name != child_name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == parent_name:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def dump(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p, "op": op,
                 "attrs": a} for n, t0, t1, p, op, a in self.spans]


@contextlib.contextmanager
def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing is on, nothing otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
