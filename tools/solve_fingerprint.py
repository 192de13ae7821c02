"""Print one sha256 per kind of benchmark solve traffic, to check that a
change leaves every solve result equal.

Usage::

    python tools/solve_fingerprint.py

Each line reads ``<kind> <sha256>``.  A digest covers, for every solution of
its kind, the value, gap, certificate bytes, betas, rounds, active cells and
iteration count, the dense coupling and tail measures (``+ 0.0``, so equal
by ``==``), the ``solution.json`` bytes, and the verdict of
``verify_duality`` (not its sums, which may move in the last bits when only
their summation order changes).  A failed solve enters as its exception type.
Run it on two commits and compare the lines.

The traffic is the benchmark's own, read from ``perfbench.workloads``:

- ``desk``: 300 desk-small requests from ``default_rng(1)``: MES, MSP on the
  C2 grid, and the oracle ``brute_force_mes``;
- ``lifted``: the three lifted-large solves;
- ``clt``: 30 resample CLT replications at ``substream(11, k)``;
- ``sweep``: the rows of the resample stability sweep.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import (ALPHA, C2_GRID, SCALE_CYCLE, Context, DeskSmall,  # noqa: E402
                                 LiftedLarge, Resample)
from riskbound import asymptotics, bounds  # noqa: E402
from riskbound.core import LossMatrix, RiskBoundError  # noqa: E402
from riskbound.rng import substream  # noqa: E402


class Digest:
    """A sha256 fed with tagged, length-prefixed items."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, tag: str, data) -> None:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data, dtype=float).tobytes()
        elif not isinstance(data, bytes):
            data = repr(data).encode()
        self.h.update(f"{tag}:{len(data)}:".encode() + data)

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def add_solution(dig: Digest, sol, loss, mu, nu) -> None:
    cert = sol.certificate
    dig.add("value", sol.value)
    dig.add("gap", sol.gap)
    dig.add("phi", cert.phi)
    dig.add("psi", cert.psi)
    dig.add("beta", np.atleast_1d(np.asarray(cert.beta, dtype=float)))
    dig.add("beta0", cert.beta0)
    dig.add("counts", (sol.rounds, sol.active_cells, sol.iterations))
    dig.add("coupling", sol.coupling.matrix + 0.0)
    dig.add("thetas", sol.thetas + 0.0)
    if isinstance(sol, bounds.MspSolution):
        dig.add("betas", sol.betas)
        payload = bounds.msp_solution_to_dict(sol)
    else:
        payload = bounds.mes_solution_to_dict(sol)
    dig.add("json", json.dumps(payload, sort_keys=True, indent=2).encode())
    try:
        bounds.verify_duality(sol, loss, mu, nu)
        dig.add("verify", "ok")
    except RiskBoundError as exc:
        dig.add("verify", type(exc).__name__)


def guarded(dig: Digest, tag: str, solve, *instance) -> None:
    """Add one solve's solution, or its failure, to ``dig``."""
    try:
        sol = solve()
    except RiskBoundError as exc:
        dig.add(tag, type(exc).__name__)
        return
    add_solution(dig, sol, *instance)


def desk(requests: int) -> str:
    dig = Digest()
    workload = DeskSmall(1, False, Context(workdir=""))
    instances = workload._instances(np.random.default_rng(1))
    for k, (mu, nu, z, alpha) in enumerate(itertools.islice(instances, requests)):
        loss = LossMatrix(z * SCALE_CYCLE[k % len(SCALE_CYCLE)])
        inst = (loss, mu, nu)
        guarded(dig, "mes", lambda: bounds.solve_mes(mu, nu, loss, alpha), *inst)
        guarded(dig, "msp", lambda: bounds.solve_msp(mu, nu, loss, C2_GRID), *inst)
        try:
            dig.add("oracle", bounds.brute_force_mes(mu, nu, loss, alpha))
        except RiskBoundError as exc:
            dig.add("oracle", type(exc).__name__)
    return dig.hexdigest()


def lifted() -> str:
    dig = Digest()
    workload = LiftedLarge(1, False, Context(workdir=""))
    for mu, nu, loss in (workload.lg, workload.ccr):
        guarded(dig, "mes", lambda: bounds.solve_mes(mu, nu, loss, ALPHA), loss, mu, nu)
    mu, nu, loss = workload.ccr_k
    guarded(dig, "msp", lambda: bounds.solve_msp(mu, nu, loss, workload.grid), loss, mu, nu)
    return dig.hexdigest()


def clt(reps: int) -> str:
    dig = Digest()
    workload = Resample(11, False, Context(workdir=""))
    mu, nu, loss = workload.base
    for k in range(reps):
        rng = substream(workload.seed, k)
        mu_n = asymptotics.sample_empirical(mu, workload.samples[0], rng)
        nu_n = asymptotics.sample_empirical(nu, workload.samples[1], rng)
        guarded(dig, "rep", lambda: bounds.solve_mes(mu_n, nu_n, loss, ALPHA), loss, mu_n, nu_n)
    return dig.hexdigest()


def sweep() -> str:
    dig = Digest()
    report = Resample(11, False, Context(workdir=""))._sweep()
    for row in report.rows:
        dig.add("row", (row.epsilon, row.w_r_mu, row.w_r_nu, row.value, row.delta_value,
                        row.bound))
    dig.add("summary", (report.base_value, report.lipschitz, report.sigma_norm))
    return dig.hexdigest()


def fingerprints(requests: int = 300, reps: int = 30) -> dict[str, str]:
    return {"desk": desk(requests), "lifted": lifted(), "clt": clt(reps), "sweep": sweep()}


def main() -> int:
    for kind, digest in fingerprints().items():
        print(kind, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
