"""
End-to-end acceptance suite: one test per shipped criterion.

Each test pins its tolerance and wall-clock budget, runs the full check on
seeded data, and prints one PASS line (visible with ``pytest -s`` or in the
captured output).  Heavy experiment criteria (5 and 8) use two worker
processes; per-replication substreams make the results identical to a
sequential run.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from riskbound.core import (
    LossMatrix,
    SpectralFunction,
    SpectralGrid,
    discretize_spectrum,
    validate_marginal,
)
from riskbound.asymptotics import (
    CltExperiment,
    DualFace,
    anderson_darling_normal,
    replication_value,
    simulate_limit_distribution,
)
from riskbound.bounds import brute_force_mes, solve_mes, solve_msp, verify_duality
from riskbound.cli import main
from riskbound.losses import build_gaussian_linear_instance
from riskbound.lpsolver import _Transport
from riskbound.riskmeasures import (
    DiscreteLaw,
    es_dual_density,
    es_rockafellar_uryasev,
    es_tail_average,
)
from riskbound.stability import perturbation_sweep

_WORKERS = 2


def _report(cid: str, detail: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {cid} PASS in {elapsed:.1f}s (budget {budget:.0f}s): {detail}")


def _random_instance(rng, max_side, min_side=1):
    m = int(rng.integers(min_side, max_side + 1))
    n = int(rng.integers(min_side, max_side + 1))
    mu = validate_marginal(rng.dirichlet(np.ones(m)))
    nu = validate_marginal(rng.dirichlet(np.ones(n)))
    loss = LossMatrix(rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0))
    return mu, nu, loss


def test_c01_es_route_equivalence():
    budget = 5.0
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        x = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        w = rng.uniform(0.05, 1.0, size=n)
        law = DiscreteLaw(x, validate_marginal(w / w.sum()))
        a = float(rng.uniform(0.02, 0.98))
        es1 = es_tail_average(law, a)
        es2, _, _ = es_rockafellar_uryasev(law, a)
        theta = es_dual_density(law, a)
        es3 = float(np.dot(theta.weights, law.losses))
        worst = max(worst, abs(es1 - es2), abs(es1 - es3))
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < budget
    _report("C1", f"1000 laws, max route disagreement {worst:.2e}", elapsed, budget)


def test_c02_lp_duality_certificates():
    budget = 30.0
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_gap = 0.0
    worst_weak = 0.0
    for k in range(200):
        mu, nu, loss = _random_instance(rng, 10)
        a = float(rng.uniform(0.1, 0.9))
        sol = solve_mes(mu, nu, loss, a)
        rep = verify_duality(sol, loss, mu, nu)
        worst_gap = max(worst_gap, rep.gap)
        worst_weak = max(worst_weak, rep.primal_value - rep.dual_value)
        if k % 2 == 0:
            grid = SpectralGrid.dirac(a) if k % 4 == 0 else SpectralGrid(
                z0=0.4, levels=np.array([0.3, 0.7]), weights=np.array([0.3, 0.3]))
            msol = solve_msp(mu, nu, loss, grid)
            mrep = verify_duality(msol, loss, mu, nu)
            worst_gap = max(worst_gap, mrep.gap)
            worst_weak = max(worst_weak, mrep.primal_value - mrep.dual_value)
    elapsed = time.time() - t0
    assert worst_gap <= 1e-7
    assert worst_weak <= 1e-9
    assert elapsed < budget
    _report("C2", f"200 instances, max gap {worst_gap:.2e}, "
            f"max weak-duality violation {worst_weak:.2e}", elapsed, budget)


def test_c03_oracle_equivalence():
    budget = 120.0
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        mu, nu, loss = _random_instance(rng, 8)
        a = float(rng.choice(np.round(np.arange(0.1, 0.91, 0.1), 2)))
        v_lp = solve_mes(mu, nu, loss, a).value
        v_oracle = brute_force_mes(mu, nu, loss, a)
        worst = max(worst, abs(v_lp - v_oracle))
    elapsed = time.time() - t0
    assert worst <= 1e-5
    assert elapsed < budget
    _report("C3", f"200 instances, max |LP - oracle| {worst:.2e}", elapsed, budget)


def test_c04_comonotone_reproduction():
    budget_per_instance = 30.0
    details = []
    for seed in (701, 702):
        t0 = time.time()
        mu, nu, loss = build_gaussian_linear_instance(200, 400, seed=seed)
        v = solve_mes(mu, nu, loss, 0.9).value
        es_x = es_tail_average(DiscreteLaw(np.array(mu.labels), mu), 0.9)
        es_y = es_tail_average(DiscreteLaw(np.array(nu.labels), nu), 0.9)
        err = abs(v - (es_x + es_y))
        elapsed = time.time() - t0
        assert err <= 1e-6
        assert elapsed < budget_per_instance
        details.append(f"seed {seed}: error {err:.2e} in {elapsed:.1f}s")
    _report("C4", "; ".join(details), 0.0, budget_per_instance)


def test_c05_clt_gaussian_shape():
    budget = 600.0
    t0 = time.time()
    mu, nu, loss = build_gaussian_linear_instance(200, 400, seed=701)
    true_value = solve_mes(mu, nu, loss, 0.9).value
    exp = CltExperiment(mu=mu, nu=nu, loss=loss, alpha=0.9, n_x=200, n_y=400,
                        replications=200, seed=11)
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        values = np.array(list(pool.map(partial(replication_value, exp),
                                        range(exp.replications), chunksize=4)))
    deviations = math.sqrt(exp.n_x) * (values - true_value)
    stat, pval, reject = anderson_darling_normal(deviations)
    elapsed = time.time() - t0
    assert not reject
    assert elapsed < budget
    _report("C5", f"R=200 n=200/400 seed 11: AD stat {stat:.3f}, p {pval:.3f}, "
            "normality not rejected", elapsed, budget)


def test_c06_hadamard_vs_finite_differences():
    budget = 60.0
    t0 = time.time()
    rng = np.random.default_rng(1006)
    worst = 0.0
    checked = 0
    while checked < 50:
        mu, nu, loss = _random_instance(rng, 5, min_side=2)
        a = float(rng.uniform(0.15, 0.85))
        d_mu = rng.normal(size=mu.size)
        d_mu -= d_mu.mean()
        d_nu = rng.normal(size=nu.size)
        d_nu -= d_nu.mean()
        t = 1e-4
        if np.any(mu.weights + t * d_mu < 0) or np.any(nu.weights + t * d_nu < 0):
            continue
        face = DualFace(mu, nu, loss, a)
        deriv = face.derivative(d_mu, d_nu)
        fd = (solve_mes(validate_marginal(mu.weights + t * d_mu),
                        validate_marginal(nu.weights + t * d_nu),
                        loss, a).value - face.value) / t
        worst = max(worst, abs(deriv - fd))
        checked += 1
    elapsed = time.time() - t0
    assert worst <= 1e-3
    assert elapsed < budget
    _report("C6", f"50 instances, max |LP derivative - FD| {worst:.2e}", elapsed, budget)


def test_c07_limit_distribution_dichotomy():
    budget = 120.0
    t0 = time.time()
    # alpha on a cumulative boundary: dual face is a segment, limit non-Gaussian
    mu = validate_marginal([0.5, 0.5])
    nu = validate_marginal([0.5, 0.5])
    tie_loss = LossMatrix(np.array([[0.0, 2.0], [1.0, 3.0]]))
    tie = simulate_limit_distribution(mu, nu, tie_loss, 0.5, 1000, 2024)
    t_stat, t_p, t_reject = anderson_darling_normal(tie.draws)
    # generic instance: unique dual, linear derivative, Gaussian limit
    mu_u = validate_marginal([0.3, 0.7])
    nu_u = validate_marginal([0.6, 0.4])
    uni_loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.3]]))
    uni = simulate_limit_distribution(mu_u, nu_u, uni_loss, 0.45, 1000, 12345)
    u_stat, u_p, u_reject = anderson_darling_normal(uni.draws)
    elapsed = time.time() - t0
    assert t_reject
    assert not u_reject
    # the face diagnostics agree with the dichotomy
    assert not DualFace(mu, nu, tie_loss, 0.5).linearity_diagnostic(seed=4)["linear"]
    assert DualFace(mu_u, nu_u, uni_loss, 0.45).linearity_diagnostic(seed=4)["linear"]
    assert elapsed < budget
    _report("C7", f"tie: AD {t_stat:.2f} rejects (p {t_p:.1e}); "
            f"unique: AD {u_stat:.2f} does not (p {u_p:.2f})", elapsed, budget)


def test_c08_ccr_pipeline(tmp_path):
    budget = 600.0
    t0 = time.time()
    cfg = {
        "generator": {"kind": "ccr", "n": 100, "seed": 31},
        "alpha": 0.9,
        "sample_n_x": 100,
        "sample_n_y": 100,
        "replications": 200,
        "seed": 17,
        "threads": _WORKERS,
        "gev_overlay": True,
        "dual_face_diagnostics": False,
    }
    cfg_path = tmp_path / "ccr.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["clt", str(cfg_path), "--out", str(out)])
    elapsed = time.time() - t0
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 200
    gev = summary["gev"]
    assert all(np.isfinite(gev[k]) for k in ("shape", "loc", "scale"))
    svg = (out / "histogram.svg").read_text()
    assert "GEV fit" in svg and svg.startswith("<svg")
    rows = (out / "deviations.csv").read_text().splitlines()
    assert len(rows) == 201
    # no distributional assertion: the finite-support theory does not cover
    # continuous sampling; the fit is reported only
    assert elapsed < budget
    _report("C8", f"n=100 R=200 pipeline emitted histogram + GEV "
            f"(shape {gev['shape']:.3f})", elapsed, budget)


def test_c09_value_map_coherence():
    budget = 30.0
    t0 = time.time()
    rng = np.random.default_rng(1009)
    worst_shift = worst_scale = worst_dirac = worst_flat = 0.0
    for k in range(100):
        mu, nu, loss = _random_instance(rng, 6)
        a = float(rng.uniform(0.1, 0.9))
        v = solve_mes(mu, nu, loss, a).value
        c = float(rng.normal())
        lam = float(rng.uniform(0.2, 2.5))
        v_shift = solve_mes(mu, nu, LossMatrix(loss.values + c), a).value
        v_scale = solve_mes(mu, nu, LossMatrix(lam * loss.values), a).value
        worst_shift = max(worst_shift, abs(v_shift - (v + c)))
        worst_scale = max(worst_scale, abs(v_scale - lam * v))
        if k % 5 == 0:
            worst_dirac = max(worst_dirac, abs(
                solve_msp(mu, nu, loss, SpectralGrid.dirac(a)).value - v))
            flat = discretize_spectrum(SpectralFunction.flat(), 1)
            v_ot = _Transport(mu, nu, "max").solve(loss.values)[0].objective
            worst_flat = max(worst_flat, abs(
                solve_msp(mu, nu, loss, flat).value - v_ot))
    elapsed = time.time() - t0
    assert worst_shift <= 1e-8
    assert worst_scale <= 1e-8
    assert worst_dirac <= 1e-8
    assert worst_flat <= 1e-8
    assert elapsed < budget
    _report("C9", f"translation {worst_shift:.1e}, scaling {worst_scale:.1e}, "
            f"dirac-grid {worst_dirac:.1e}, flat-grid {worst_flat:.1e}",
            elapsed, budget)


def test_c10_stability_trend():
    budget = 120.0
    t0 = time.time()
    rng = np.random.default_rng(1010)
    slopes = []
    first_last = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=m))
        mu = validate_marginal(rng.dirichlet(np.ones(n) * 2.0), labels=x.tolist())
        nu = validate_marginal(rng.dirichlet(np.ones(m) * 2.0), labels=y.tolist())
        loss = LossMatrix(x[:, None] + y[None, :])   # Lipschitz constant 1
        rep = perturbation_sweep(mu, nu, loss, 0.5, scheme="mixing", steps=11,
                                 seed=int(rng.integers(2 ** 32)))
        slopes.append(rep.loglog_slope)
        deltas = [row.delta_value for row in rep.rows[:-1]]
        first_last.append(deltas[-1] <= deltas[0] + 1e-12)
    elapsed = time.time() - t0
    assert all(s >= 0.5 for s in slopes)
    assert all(first_last)
    assert elapsed < budget
    finite = [s for s in slopes if math.isfinite(s)]
    _report("C10", f"20 instances, min slope {min(finite):.2f} (>= 0.5), "
            f"final step never exceeds first", elapsed, budget)
