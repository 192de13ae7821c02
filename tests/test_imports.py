"""What importing riskbound loads: numpy and scipy's HiGHS binding, and no
other part of scipy until a path that uses it runs.  Each case runs in a
fresh interpreter, since the test process has imported scipy already."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskbound
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance

SRC = str(Path(riskbound.__file__).resolve().parents[1])
CORE = "scipy.optimize._highspy._core"
DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter that imports riskbound from this
    checkout, and return the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["riskbound", "riskbound.cli"])
def test_import_loads_the_binding_and_defers_the_rest(module):
    got = run_fresh(f"""
import json, sys
import {module}
print(json.dumps({{name: name in sys.modules for name in {DEFERRED + (CORE,)!r}}}))
""")
    assert got == {**{name: False for name in DEFERRED}, CORE: True}


@pytest.mark.parametrize("order", ["scipy-first", "riskbound-first"])
def test_the_binding_is_one_module_whatever_the_import_order(order):
    first, second = "import scipy.optimize", "from riskbound import lpsolver"
    if order == "riskbound-first":
        first, second = second, first
    got = run_fresh(f"""
import json, sys
{first}
{second}
from scipy.optimize._highspy import _core
print(json.dumps({{"registered": lpsolver._highspy is sys.modules["{CORE}"],
                  "scipy's": lpsolver._highspy is _core}}))
""")
    assert got == {"registered": True, "scipy's": True}


def test_linprog_solves_after_riskbound_loaded_the_binding():
    got = run_fresh("""
import json
import numpy as np
from riskbound import LossMatrix, solve_mes, validate_marginal
from scipy.optimize import linprog
res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], method="highs")
mu = validate_marginal([0.5, 0.5])
sol = solve_mes(mu, mu, LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]])), 0.5)
print(json.dumps({"status": res.status, "fun": res.fun, "mes": sol.value}))
""")
    assert got == {"status": 0, "fun": -2.0, "mes": 2.0}


def test_mps_export_and_instance_generators_load_what_they_use(tmp_path):
    mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 6, 31)
    here = hashlib.sha256(b"".join(a.tobytes() for a in (mu.weights, nu.weights,
                                                         loss.values))).hexdigest()
    path = tmp_path / "ccr6.mps"
    got = run_fresh(f"""
import hashlib, json, sys
from riskbound.bounds import build_mes_lp
from riskbound.losses import DEFAULT_CCR_PARAMS, build_ccr_instance
from riskbound.lpsolver import write_mps
mu, nu, loss = build_ccr_instance(DEFAULT_CCR_PARAMS, 6, 31)
write_mps(build_mes_lp(mu, nu, loss, 0.9), {str(path)!r}, exact=True)
print(json.dumps({{"sha": hashlib.sha256(b"".join(a.tobytes() for a in (
    mu.weights, nu.weights, loss.values))).hexdigest(),
    "sparse": "scipy.sparse" in sys.modules, "special": "scipy.special" in sys.modules}}))
""")
    assert got == {"sha": here, "sparse": True, "special": True}
    assert path.read_text().endswith("ENDATA\n")


def test_missing_binding_names_the_directory_and_scipy_version(tmp_path):
    fake = tmp_path / "scipy"
    got = run_fresh(f"""
import json, scipy
scipy.__file__ = {str(fake / "__init__.py")!r}
try:
    import riskbound
except ImportError as exc:
    print(json.dumps({{"message": str(exc), "version": scipy.__version__}}))
""")
    assert str(fake / "optimize" / "_highspy") in got["message"]
    assert f"scipy {got['version']}" in got["message"]
