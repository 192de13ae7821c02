"""The benchmark's three workloads.

Each workload builds its inputs from the seed and yields operations.  An
operation's ``run`` is the timed call sequence a user of riskbound makes; its
``check`` runs afterwards, outside the timed region, and raises
``CheckFailed`` when a returned answer is wrong.  All calls go through
module attributes (``bounds.solve_mes``, ...) so the tracer can wrap them.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from riskbound import asymptotics, bounds, losses, lpsolver, stability
from riskbound.core import LossMatrix, SpectralFunction, SpectralGrid, discretize_spectrum
from riskbound.core import validate_marginal
from riskbound.riskmeasures import DiscreteLaw, es_tail_average
from riskbound.rng import substream

from .mpscheck import compare_mps
from .tracing import Tracer, maybe_span

ALPHA = 0.9
# fixed cycle of loss scales in the timed desk-small stream
SCALE_CYCLE = (1.0,) * 6 + (1e3,) * 3
# currency-scale credit losses are real traffic, but most requests at that
# scale raise CertificateInvalid or NumericalFailure: they run as a fixed
# probe of their own in traced runs, and the failed fraction is reported
PROBE_SCALE = 1e7
PROBE_REQUESTS = 20
SCALE_TAGS = {1.0: "scale_1", 1e3: "scale_1e3", 1e7: "scale_1e7"}
C2_GRID = SpectralGrid(z0=0.4, levels=np.array([0.3, 0.7]), weights=np.array([0.3, 0.3]))
ORACLE_TOL = 1e-5        # LP vs oracle, per unit of loss scale (criterion C3)
CLOSED_FORM_TOL = 1e-6   # comonotone ES(mu) + ES(nu) (criterion C4)
_GOLDEN = (5 ** 0.5 - 1) / 2


class CheckFailed(Exception):
    """A returned answer disagrees with the benchmark's independent check."""


@dataclass
class Op:
    kind: str
    round: int
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    tag: str = ""


@dataclass
class Context:
    """What operations need besides their inputs: the tracer (None when the
    operation is not traced) and a scratch directory for written files."""

    workdir: str
    tracer: Tracer | None = None
    counter: itertools.count = field(default_factory=itertools.count)

    def path(self, suffix: str) -> str:
        return os.path.join(self.workdir, f"{next(self.counter)}{suffix}")


def closed_form(mu, nu, alpha: float = ALPHA) -> float:
    """Comonotone MES of L = x + y on the labelled supports."""
    return (es_tail_average(DiscreteLaw(np.asarray(mu.labels, dtype=float), mu), alpha)
            + es_tail_average(DiscreteLaw(np.asarray(nu.labels, dtype=float), nu), alpha))


def _check_closed_form(value: float, mu, nu, what: str) -> None:
    err = abs(value - closed_form(mu, nu))
    if not err <= CLOSED_FORM_TOL:
        raise CheckFailed(f"{what}: value {value!r} is {err:.3e} off the closed form")


def _active_cells(sol) -> int:
    return int(np.count_nonzero(sol.coupling.matrix > 0.0))


def _solve_and_export(ctx: Context, kind: str, mu, nu, loss, target):
    """The ``riskbound mes``/``msp`` path: solve, verify, write solution.json."""
    if kind == "mes":
        sol = bounds.solve_mes(mu, nu, loss, target)
    else:
        sol = bounds.solve_msp(mu, nu, loss, target)
    bounds.verify_duality(sol, loss, mu, nu)
    path = ctx.path(".json")
    with maybe_span(ctx.tracer, "output.solution_json"):
        payload = (bounds.mes_solution_to_dict(sol) if kind == "mes"
                   else bounds.msp_solution_to_dict(sol))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return sol, path


def _check_export(out, closed=None) -> dict:
    sol, path = out
    with open(path, "r", encoding="utf-8") as fh:
        value = json.load(fh)["value"]
    if value != sol.value:
        raise CheckFailed(f"solution.json value {value!r} != solved {sol.value!r}")
    if closed is not None:
        _check_closed_form(sol.value, *closed, what="lifted MES")
    return {"active_cells": _active_cells(sol), "json_bytes": os.path.getsize(path)}


class DeskSmall:
    """A stream of small random requests: MES + verify, MSP on the C2 grid +
    verify, then the brute-force oracle, which must agree with the LP."""

    name = "desk-small"
    kinds = ("request",)

    def __init__(self, seed: int, smoke: bool, ctx: Context):
        self.seed = seed
        self.max_side = 3 if smoke else 8
        self.probe_requests = 3 if smoke else PROBE_REQUESTS
        self.ctx = ctx
        self.params = {"sides": [2, self.max_side], "alpha": [0.1, 0.9],
                       "scale_cycle": list(SCALE_CYCLE), "msp_grid": "C2",
                       "oracle_tol_per_scale": ORACLE_TOL,
                       "probe": {"scale": PROBE_SCALE, "requests": self.probe_requests,
                                 "stream": [self.seed, 1]}}

    def _instances(self, rng):
        sides = range(2, self.max_side + 1)
        pairs = sorted(((m, n) for m in sides for n in sides), key=lambda p: (p[0] * p[1], p))
        # size pairs follow a golden-ratio sequence over the pairs sorted by
        # cell count, from a seeded start: every prefix of the stream, and so
        # every run, holds nearly the same mix of sizes
        start = rng.random()
        for k in itertools.count():
            m, n = pairs[int((start + k * _GOLDEN) % 1.0 * len(pairs))]
            yield (validate_marginal(rng.dirichlet(np.ones(m))),
                   validate_marginal(rng.dirichlet(np.ones(n))),
                   rng.normal(size=(m, n)), float(rng.uniform(0.1, 0.9)))

    def ops(self):
        instances = self._instances(np.random.default_rng(self.seed))
        for k, (mu, nu, z, alpha) in enumerate(instances):
            scale = SCALE_CYCLE[k % len(SCALE_CYCLE)]
            # a round is one pass over the scale cycle, so traced and bare
            # rounds both hold every scale
            yield self._op(k // len(SCALE_CYCLE), mu, nu, z, alpha, scale)

    def probe_ops(self):
        """A fixed number of requests at loss scale 1e7 from a stream of
        their own, so the same seed gives the same probe whatever the
        timed stream did."""
        instances = self._instances(np.random.default_rng([self.seed, 1]))
        for mu, nu, z, alpha in itertools.islice(instances, self.probe_requests):
            yield self._op(0, mu, nu, z, alpha, PROBE_SCALE)

    def _op(self, round_, mu, nu, z, alpha, scale):
        return Op("request", round_, partial(self._request, mu, nu, LossMatrix(z * scale), alpha),
                  partial(self._check, scale), tag=SCALE_TAGS[scale])

    @staticmethod
    def _request(mu, nu, loss, alpha):
        mes = bounds.solve_mes(mu, nu, loss, alpha)
        bounds.verify_duality(mes, loss, mu, nu)
        msp = bounds.solve_msp(mu, nu, loss, C2_GRID)
        bounds.verify_duality(msp, loss, mu, nu)
        return mes, msp, bounds.brute_force_mes(mu, nu, loss, alpha)

    @staticmethod
    def _check(scale: float, out) -> dict:
        mes, msp, oracle = out
        err = abs(mes.value - oracle)
        if not err <= ORACLE_TOL * scale:
            raise CheckFailed(f"LP {mes.value!r} vs oracle {oracle!r}: {err:.3e}")
        return {"active_cells": _active_cells(mes) + _active_cells(msp)}


class LiftedLarge:
    """Fixed large instances along the CLI paths; each operation hands one
    whole lifted LP to the solver."""

    name = "lifted-large"
    kinds = ("mes.lg200x400", "mes.ccr100", "msp.ccr40_k16", "mps.lg50x100")

    def __init__(self, seed: int, smoke: bool, ctx: Context):
        self.ctx = ctx
        lg, ccr, ccr_k, mps, levels = (((20, 40), 10, 6, (5, 10), 4) if smoke
                                       else ((200, 400), 100, 40, (50, 100), 16))
        self.params = {"mes.lg200x400": {"generator": "gaussian-linear", "n": lg,
                                         "seed": 701, "alpha": ALPHA},
                       "mes.ccr100": {"generator": "ccr", "n": ccr, "seed": 31,
                                      "alpha": ALPHA},
                       "msp.ccr40_k16": {"generator": "ccr", "n": ccr_k, "seed": 31,
                                         "sigma": "power-sqrt", "levels": levels},
                       "mps.lg50x100": {"generator": "gaussian-linear", "n": mps,
                                        "seed": 701, "alpha": ALPHA}}
        self.lg = losses.build_gaussian_linear_instance(*lg, 701)
        self.ccr = losses.build_ccr_instance(losses.DEFAULT_CCR_PARAMS, ccr, 31)
        self.ccr_k = losses.build_ccr_instance(losses.DEFAULT_CCR_PARAMS, ccr_k, 31)
        self.grid = discretize_spectrum(SpectralFunction.power_sqrt(), levels)
        self.mps = losses.build_gaussian_linear_instance(*mps, 701)

    def ops(self):
        ctx = self.ctx
        for r in itertools.count():
            yield Op("mes.lg200x400", r, partial(_solve_and_export, ctx, "mes", *self.lg, ALPHA),
                     partial(_check_export, closed=self.lg[:2]))
            yield Op("mes.ccr100", r, partial(_solve_and_export, ctx, "mes", *self.ccr, ALPHA),
                     _check_export)
            yield Op("msp.ccr40_k16", r,
                     partial(_solve_and_export, ctx, "msp", *self.ccr_k, self.grid),
                     _check_export)
            yield Op("mps.lg50x100", r, self._write_mps, self._check_mps)

    def _write_mps(self):
        lp = bounds.build_mes_lp(*self.mps, ALPHA)
        path = self.ctx.path(".mps")
        lpsolver.write_mps(lp, path, name="MESLP")
        return lp, path

    @staticmethod
    def _check_mps(out) -> dict:
        lp, path = out
        try:
            mismatch, rel = compare_mps(lp, path)
        except ValueError as exc:
            raise CheckFailed(str(exc)) from None
        # the fixed format promises six significant digits and no fewer
        if rel > 5e-6:
            raise CheckFailed(f"MPS coefficient off by relative {rel:.3e}")
        return {"mps_mismatch": mismatch, "mps_max_rel_err": rel,
                "mps_bytes": os.path.getsize(path)}


class Resample:
    """CLT replications of configs/example1-clt.json (empirical marginals
    re-solved on one loss) plus one mixing stability sweep."""

    name = "resample"
    kinds = ("stability.sweep", "clt.rep")

    def __init__(self, seed: int, smoke: bool, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        base, samples, sweep, steps = (((20, 40), (20, 40), (6, 12), 3) if smoke
                                       else ((200, 400), (200, 400), (30, 60), 8))
        self.params = {"clt": {"generator": "gaussian-linear", "n": base, "seed": 701,
                               "alpha": ALPHA, "samples": samples,
                               "replication_streams": f"substream({seed}, k)"},
                       "sweep": {"generator": "gaussian-linear", "n": sweep, "seed": 5,
                                 "alpha": ALPHA, "scheme": "mixing", "steps": steps}}
        self.samples = samples
        self.steps = steps
        self.base = losses.build_gaussian_linear_instance(*base, 701)
        self.sweep = losses.build_gaussian_linear_instance(*sweep, 5)

    def ops(self):
        yield Op("stability.sweep", 0, self._sweep, self._check_sweep)
        for k in itertools.count():
            yield Op("clt.rep", k + 1, partial(self._replication, k), self._check_rep)

    def _replication(self, k: int):
        mu, nu, loss = self.base
        rng = substream(self.seed, k)
        mu_n = asymptotics.sample_empirical(mu, self.samples[0], rng)
        nu_n = asymptotics.sample_empirical(nu, self.samples[1], rng)
        sol = bounds.solve_mes(mu_n, nu_n, loss, ALPHA)
        bounds.verify_duality(sol, loss, mu_n, nu_n)
        return mu_n, nu_n, sol

    @staticmethod
    def _check_rep(out) -> dict:
        mu_n, nu_n, sol = out
        _check_closed_form(sol.value, mu_n, nu_n, "replication")
        kept = int(np.count_nonzero(mu_n.weights) * np.count_nonzero(nu_n.weights))
        return {"active_cells": _active_cells(sol), "kept_cells": kept,
                "cells": mu_n.size * nu_n.size}

    def _sweep(self):
        mu, nu, loss = self.sweep
        return stability.perturbation_sweep(mu, nu, loss, ALPHA, scheme="mixing",
                                            steps=self.steps)

    def _check_sweep(self, report) -> dict:
        mu, nu, _ = self.sweep
        for row in report.rows:
            # the mixing scheme blends each marginal with the uniform law
            mixed = []
            for p in (mu, nu):
                w = (1.0 - row.epsilon) * p.weights + row.epsilon / p.size
                mixed.append(validate_marginal(w / w.sum(), labels=p.labels))
            _check_closed_form(row.value, *mixed, what=f"sweep eps={row.epsilon!r}")
        return {}


WORKLOADS = {w.name: w for w in (DeskSmall, LiftedLarge, Resample)}
