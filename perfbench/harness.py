"""Closed-loop runner, metrics, set-up probes and provenance.

One client in one process sends the next operation only after the previous
one has finished and been checked.  A run measures for ``seconds``: every
kind of operation runs at least once; after that an operation is skipped when
its kind's last duration would carry it past the deadline, and the run ends
once as many operations in a row as there are kinds have been skipped.  A
traced run first runs the workload's fixed probe operations, if it has any,
within the same ``seconds``; they count in no end-to-end metric and not in
the result line's ``attempted`` and ``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from riskbound import bounds
from riskbound.core import LossMatrix, RiskBoundError, validate_marginal

from .tracing import Tracer
from .workloads import SCALE_TAGS, WORKLOADS, CheckFailed, Context

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 3

# name -> unit; printed with --trace 0 (gated, see BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
}

# name -> unit; printed with --trace 1 (zero where a workload lacks the layer)
PER_LAYER = {
    "failed_frac": "frac",
    "desk.failed_frac.scale_1": "frac",
    "desk.failed_frac.scale_1e3": "frac",
    "desk.failed_frac.scale_1e7": "frac",
    "lpsolver.solve_lp.calls_simplex": "count",
    "lpsolver.solve_lp.busy_s_simplex": "s",
    "lpsolver.solve_lp.iterations_simplex": "count",
    "lpsolver.solve_lp.calls_highs": "count",
    "lpsolver.solve_lp.busy_s_highs": "s",
    "lpsolver.solve_lp.iterations_highs": "count",
    "lp.active_cell_frac": "frac",
    "lp.nnz": "count",
    "bounds.build_mes_lp.busy_s": "s",
    "bounds.build_msp_lp.busy_s": "s",
    "bounds.solve_mes.self_s": "s",
    "bounds.solve_msp.self_s": "s",
    "bounds.verify_duality.calls": "count",
    "bounds.verify_duality.busy_s": "s",
    "bounds.verify_duality.failures": "count",
    "bounds.brute_force_mes.busy_s": "s",
    "bounds.brute_force_mes.self_s": "s",
    "bounds.brute_force_mes.transport_calls_per_call": "count",
    "lpsolver.solve_transport.calls": "count",
    "lpsolver.solve_transport.busy_s": "s",
    "lpsolver.write_mps.busy_s": "s",
    "lpsolver.write_mps.bytes": "bytes",
    "lpsolver.write_mps.coef_mismatch": "count",
    "lpsolver.write_mps.coef_max_rel_err": "frac",
    "output.solution_json.busy_s": "s",
    "output.solution_json.bytes": "bytes",
    "asymptotics.sample_empirical.busy_s": "s",
    "clt.kept_cell_frac": "frac",
    "stability.wasserstein_discrete.busy_s": "s",
    "stability.lipschitz_estimate.busy_s": "s",
    "stability.perturbation_sweep.self_s": "s",
    "tracing.overhead_frac": "frac",
}

# per-kind medians printed in the report under the names a user of each path
# knows them by
KIND_NAMES = {
    "mes.ccr100": "mes.ccr100_s",
    "msp.ccr40_k16": "msp.ccr40_k16_s",
    "mps.lg50x100": "mps.lg50x100_s",
    "mes.lg200x400": "mes.lg200x400_s",
    "stability.sweep": "stability.sweep_s",
}


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool
    traced: bool
    op: int
    tag: str
    counters: dict
    wrong: bool   # returned an answer that a check rejected


def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


def setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Build the workload's inputs, then warm every code path it uses with
    one smoke-size operation of each kind and one HiGHS solve."""
    wl = WORKLOADS[workload](seed, smoke, Context(workdir))
    warm = WORKLOADS[workload](seed, True, Context(workdir))
    pending = set(warm.kinds)
    for op in warm.ops():
        if op.kind in pending:
            pending.discard(op.kind)
            try:
                op.check(op.run())
            except (RiskBoundError, CheckFailed):
                pass  # warm-up only; the measured operations are checked
        if not pending:
            break
    mu = validate_marginal([0.5, 0.5])
    bounds.solve_mes(mu, mu, LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]])), 0.5,
                     engine="highs")
    return wl


def probe_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of a fresh interpreter that imports riskbound and runs
    ``setup``, once per probe (once in total on smoke instances)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(1 if smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_op(wl, op, n: int, tracer: Tracer | None, log) -> Record:
    """Time one operation (traced when a tracer is given), then check it."""
    if tracer is not None:
        tracer.op = n
        tracer.install()
    wl.ctx.tracer = tracer
    error = None
    gc.collect()  # garbage left by earlier operations is not this one's cost
    t0 = time.perf_counter()
    try:
        out = op.run()
    except RiskBoundError as exc:
        error = exc
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    counters = {}
    if error is None:
        try:
            counters = op.check(out)
        except CheckFailed as exc:
            error = exc
    if error is not None:
        print(f"FAILED op {n} {op.kind} {op.tag}: {type(error).__name__}: {error}",
              file=log)
    return Record(op.kind, dt, error is None, tracer is not None, n, op.tag, counters,
                  isinstance(error, CheckFailed))


def measure(wl, seconds: float, tracer: Tracer | None, log) -> list[Record]:
    """Closed loop over the workload's operations; with a tracer, operations
    of even rounds are traced and odd rounds run bare for the overhead."""
    records: list[Record] = []
    last: dict[str, float] = {}
    skipped = 0
    deadline = time.perf_counter() + seconds
    for n, op in enumerate(wl.ops()):
        if op.kind in last and time.perf_counter() + last[op.kind] > deadline:
            skipped += 1
            if skipped == len(wl.kinds):
                break
            continue
        skipped = 0
        traced = tracer is not None and op.round % 2 == 0
        records.append(run_op(wl, op, n, tracer if traced else None, log))
        last[op.kind] = records[-1].seconds
    return records


def probe(wl, log) -> tuple[Tracer, list[Record]]:
    """The workload's fixed probe operations, each traced, numbered -1, -2,
    ... so that their spans are told apart from the measured ones."""
    tracer = Tracer()
    ops = getattr(wl, "probe_ops", tuple)()
    return tracer, [run_op(wl, op, -1 - k, tracer, log) for k, op in enumerate(ops)]


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_kind(records: list[Record], kinds) -> dict[str, list[float]]:
    """Durations of the passed operations of each kind."""
    out = {k: [r.seconds for r in records if r.kind == k and r.ok] for k in kinds}
    missing = [k for k, v in out.items() if not v]
    if missing:
        raise SystemExit(f"no operation of kind {missing} passed; nothing to measure")
    return out


def end_to_end(records: list[Record], kinds, setup_times: list[float]) -> dict:
    """Latency is the per-kind median of passed operations and throughput the
    per-kind passed operations per busy second, each combined over the
    workload's kinds by geometric mean.  No higher percentile is gated: a
    lifted-large or resample run holds one to a few operations of a kind."""
    times = per_kind(records, kinds).values()
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": _geomean([len(t) / sum(t) for t in times]),
        "latency_ms.p50": 1e3 * _geomean([statistics.median(t) for t in times]),
    }


def report_lines(workload: str, records: list[Record], kinds, probed: list[Record]) -> dict:
    """The per-path figures users know: request rate and latency on
    desk-small, per-operation medians elsewhere."""
    times = per_kind(records, kinds)
    out = {}
    if workload == "desk-small":
        t = times["request"]
        out["desk.requests_per_s"] = (len(t) / sum(t), "1/s")
        out["desk.request_ms.p50"] = (1e3 * statistics.median(t), "ms")
        out["desk.request_ms.p90"] = (1e3 * _nearest_rank(t, 0.9), "ms")
    if workload == "resample":
        t = times["clt.rep"]
        out["clt.reps_per_s"] = (len(t) / sum(t), "1/s")
        out["clt.rep_s.p50"] = (statistics.median(t), "s")
    for kind, t in times.items():
        if kind in KIND_NAMES:
            out[KIND_NAMES[kind]] = (statistics.median(t), "s")
    for name, value in failure_fractions(records, probed).items():
        out[name] = (value, "frac")
    for kind, t in times.items():
        out[f"samples.{kind}"] = (len(t), "count")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def failure_fractions(records: list[Record], probed: list[Record] = ()) -> dict:
    """Failed over attempted operations: overall over the measured ones, and
    per desk-small loss scale over the measured and probe operations (0.0
    where a workload has no such operations)."""
    out = {"failed_frac": _ratio(sum(not r.ok for r in records), len(records))}
    for tag in SCALE_TAGS.values():
        tagged = [r for r in (*records, *probed) if r.tag == tag]
        out[f"desk.failed_frac.{tag}"] = _ratio(sum(not r.ok for r in tagged), len(tagged))
    return out


def per_layer(tracer: Tracer, records: list[Record], probe_tracer: Tracer,
              probed: list[Record]) -> dict:
    """Layer totals over the traced measured operations; failure fractions
    and certificate failures also over the probe operations."""
    traced = [r for r in records if r.traced]
    tot = tracer.totals()

    def get(name, key="busy_s"):
        return tot.get(name, {}).get(key, 0)

    out = failure_fractions(records, probed)
    for engine in ("simplex", "highs"):
        row = tot.get(f"lpsolver.solve_lp[{engine}]", {})
        out[f"lpsolver.solve_lp.calls_{engine}"] = row.get("calls", 0)
        out[f"lpsolver.solve_lp.busy_s_{engine}"] = row.get("busy_s", 0.0)
        out[f"lpsolver.solve_lp.iterations_{engine}"] = row.get("iterations", 0)
    # useful cells (carrying mass) over cells handed to the solver, on the
    # passed operations whose solutions the checks inspected
    with_cells = {r.op for r in traced if r.ok and "active_cells" in r.counters}
    lp_cells = sum(row.get("cells", 0) for name, row in tracer.totals(with_cells).items()
                   if name in ("bounds.build_mes_lp", "bounds.build_msp_lp"))
    out["lp.active_cell_frac"] = _ratio(
        sum(r.counters["active_cells"] for r in traced if r.op in with_cells), lp_cells)
    builds = get("bounds.build_mes_lp", "calls") + get("bounds.build_msp_lp", "calls")
    out["lp.nnz"] = _ratio(get("bounds.build_mes_lp", "nnz")
                          + get("bounds.build_msp_lp", "nnz"), builds)
    out["bounds.build_mes_lp.busy_s"] = get("bounds.build_mes_lp")
    out["bounds.build_msp_lp.busy_s"] = get("bounds.build_msp_lp")
    out["bounds.solve_mes.self_s"] = get("bounds.solve_mes", "self_s")
    out["bounds.solve_msp.self_s"] = get("bounds.solve_msp", "self_s")
    out["bounds.verify_duality.calls"] = get("bounds.verify_duality", "calls")
    out["bounds.verify_duality.busy_s"] = get("bounds.verify_duality")
    out["bounds.verify_duality.failures"] = get("bounds.verify_duality", "errors") + \
        probe_tracer.totals().get("bounds.verify_duality", {}).get("errors", 0)
    out["bounds.brute_force_mes.busy_s"] = get("bounds.brute_force_mes")
    out["bounds.brute_force_mes.self_s"] = get("bounds.brute_force_mes", "self_s")
    out["bounds.brute_force_mes.transport_calls_per_call"] = _ratio(
        tracer.child_calls("bounds.brute_force_mes", "lpsolver.solve_transport"),
        get("bounds.brute_force_mes", "calls"))
    out["lpsolver.solve_transport.calls"] = get("lpsolver.solve_transport", "calls")
    out["lpsolver.solve_transport.busy_s"] = get("lpsolver.solve_transport")
    out["lpsolver.write_mps.busy_s"] = get("lpsolver.write_mps")
    mps = [r.counters for r in traced if "mps_bytes" in r.counters]
    out["lpsolver.write_mps.bytes"] = sum(c["mps_bytes"] for c in mps)
    out["lpsolver.write_mps.coef_mismatch"] = sum(c["mps_mismatch"] for c in mps)
    out["lpsolver.write_mps.coef_max_rel_err"] = max(
        [c["mps_max_rel_err"] for c in mps], default=0.0)
    out["output.solution_json.busy_s"] = get("output.solution_json")
    out["output.solution_json.bytes"] = sum(r.counters.get("json_bytes", 0) for r in traced)
    out["asymptotics.sample_empirical.busy_s"] = get("asymptotics.sample_empirical")
    out["clt.kept_cell_frac"] = _ratio(sum(r.counters.get("kept_cells", 0) for r in traced),
                                      sum(r.counters.get("cells", 0) for r in traced))
    out["stability.wasserstein_discrete.busy_s"] = get("stability.wasserstein_discrete")
    out["stability.lipschitz_estimate.busy_s"] = get("stability.lipschitz_estimate")
    out["stability.perturbation_sweep.self_s"] = get("stability.perturbation_sweep", "self_s")
    out["tracing.overhead_frac"] = tracing_overhead(records)
    return out


def tracing_overhead(records: list[Record]) -> float:
    """Median traced over median bare duration of passed operations, per
    kind, combined by geometric mean, minus one; 0.0 when no kind ran both
    ways."""
    ratios = []
    for kind in {r.kind for r in records}:
        on = [r.seconds for r in records if r.kind == kind and r.ok and r.traced]
        off = [r.seconds for r in records if r.kind == kind and r.ok and not r.traced]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return _geomean(ratios) - 1.0 if ratios else 0.0


def _threads() -> int | None:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _commit() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(workload: str, seed: int, smoke: bool, wl) -> dict:
    """Environment and inputs of a run; ``threads`` is read after setup,
    which ends with a HiGHS solve."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "riskbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "smoke": smoke, "params": wl.params,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_after_highs": _threads(), "git_commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        log=sys.stderr) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    setup_times = probe_setup(workload, seed, smoke)
    with scratch_dir() as workdir:
        wl = setup(workload, seed, smoke, workdir)
        prov = provenance(workload, seed, smoke, wl)
        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        probe_tracer, probed = probe(wl, log) if trace else (None, [])
        records = measure(wl, max(seconds - (time.perf_counter() - t0), 0.0), tracer, log)
    result = {
        "correct": not any(r.wrong for r in (*records, *probed)),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
    }
    report = {"provenance": prov, "setup_probes_s": setup_times,
              "figures": report_lines(workload, records, wl.kinds, probed)}
    if trace:
        metrics = per_layer(tracer, records, probe_tracer, probed)
        units = PER_LAYER
        report["spans"] = tracer.dump()
        report["probe_spans"] = probe_tracer.dump()
    else:
        metrics = end_to_end(records, wl.kinds, setup_times)
        units = END_TO_END
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return result, report
