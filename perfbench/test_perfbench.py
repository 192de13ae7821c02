"""Smoke tests of the benchmark itself, on tiny instances."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.tracing import Tracer
from perfbench.workloads import Context, DeskSmall
from riskbound import bounds
from riskbound.core import LossMatrix, validate_marginal

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["desk-small", "lifted-large", "resample"])
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    if trace and workload == "lifted-large":
        # the fixed-format export keeps six significant digits
        assert result["metrics"]["lpsolver.write_mps.coef_mismatch"]["value"] > 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_certificate_is_counted_as_failed(monkeypatch, tmp_path):
    solve_mes = bounds.solve_mes
    calls = []

    def corrupted(mu, nu, loss, alpha, **kw):
        sol = solve_mes(mu, nu, loss, alpha, **kw)
        calls.append(1)
        if len(calls) > 1:
            return sol
        cert = sol.certificate
        bad = type(cert)(phi=cert.phi - 1.0, psi=cert.psi, beta=cert.beta, rho=cert.rho)
        return type(sol)(value=sol.value, coupling=sol.coupling, theta=sol.theta,
                         certificate=bad, gap=sol.gap, alpha=sol.alpha)

    monkeypatch.setattr(bounds, "solve_mes", corrupted)
    log = io.StringIO()
    records = harness.measure(DeskSmall(5, True, Context(str(tmp_path))), 0.5, None, log)
    assert len(records) >= 2
    assert not records[0].ok and not records[0].wrong
    assert "CertificateInvalid" in log.getvalue()
    assert harness.failure_fractions(records)["failed_frac"] > 0.0


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "desk-small", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    tot = tracer.totals()
    outer, inner = tot["outer"], tot["inner"]
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"])
    assert tracer.child_calls("outer", "inner") == 1


def test_install_wraps_and_uninstall_restores():
    original = bounds.solve_lp
    tracer = Tracer()
    tracer.install()
    try:
        assert bounds.solve_lp is not original
        mu = validate_marginal([0.5, 0.5])
        bounds.solve_mes(mu, mu, LossMatrix(np.eye(2)), 0.5)
    finally:
        tracer.uninstall()
    assert bounds.solve_lp is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bounds.solve_mes" and "lpsolver.solve_lp" in names
