"""
Batch front end: solve single instances, run experiment suites, emit
tables and figures.

Commands: ``mes``, ``msp``, ``oracle``, ``clt``, ``stability``.  Experiment
commands are driven by JSON config files with flag overrides (flags win).
Exit codes: 0 optimal/success, 2 infeasible or invalid input, 1 any other
error.  Verbosity via the RISKBOUND_LOG env var (error | info | debug).

All outputs are deterministic for a fixed config and seed: replications use
per-index Philox substreams, deviations are sorted before writing, floats
are serialized with round-trip repr, and figures carry no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import asymptotics as asym
from . import bounds, losses, stability
from .core import (
    AlphaOutOfRange,
    DimensionMismatch,
    DomainError,
    Empty,
    InvalidParams,
    InvalidSpectrum,
    LossMatrix,
    NegativeWeight,
    ProbabilityVector,
    RiskBoundError,
    SpectralFunction,
    SpectralGrid,
    SumNotOne,
    discretize_spectrum,
    load_instance,
)
from .lpsolver import write_mps
from .rng import GENERATOR_NAME
from .svgplot import histogram_svg

# validation failures count as "infeasible input" (exit 2); anything else
# that goes wrong is a plain error (exit 1)
_INFEASIBLE_INPUT = (NegativeWeight, SumNotOne, Empty, AlphaOutOfRange,
                     InvalidSpectrum, DimensionMismatch, InvalidParams, DomainError)

log = logging.getLogger("riskbound")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
_CLT_CHUNK = 8   # replications per task handed to a clt worker process


def _setup_logging() -> None:
    level = os.environ.get("RISKBOUND_LOG", "error").strip().lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration: config-file parameters with flag
    overrides applied (flags win), plus the effective seed and output
    directory.  Referenced input files must exist and the output directory
    is created up front."""

    params: dict
    seed: int
    out_dir: Path

    @classmethod
    def load(cls, config_path: str, seed_flag: int | None, out_flag: str | None
             ) -> "RunConfig":
        with open(config_path, "r", encoding="utf-8") as fh:
            params = json.load(fh)
        if not isinstance(params, dict):
            raise InvalidParams(f"config must be a JSON object, got {type(params).__name__}")
        ref = _instance_file(params)
        if ref is not None and not Path(ref).exists():
            raise FileNotFoundError(f"instance file not found: {ref}")
        seed = seed_flag if seed_flag is not None else _field(params, "seed", int, 0)
        out_dir = _out_dir(out_flag or _field(params, "out_dir", os.fspath, None))
        return cls(params=params, seed=seed, out_dir=out_dir)


_REQUIRED = object()


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _field(obj: dict, name: str, convert, default=_REQUIRED, where: str = ""):
    """Config field ``name`` of ``obj`` through ``convert`` (``int``,
    ``float``, ``_object``, ``_flag``, ...), or ``default`` when it is missing; a
    required field that is missing, or one that ``convert`` refuses, raises
    ``InvalidParams`` naming the field, prefixed by ``where``."""
    if name not in obj:
        if default is _REQUIRED:
            raise InvalidParams(f"config field '{where}{name}' is missing")
        return default
    try:
        return convert(obj[name])
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"config field '{where}{name}': {exc}") from None


def _instance_file(cfg: dict):
    """The config's ``instance.file``, or None when it names none."""
    return _field(_field(cfg, "instance", _object, {}), "file", os.fspath, None, "instance.")


def parse_sigma_spec(spec: str, levels: int) -> tuple[SpectralFunction, SpectralGrid]:
    """Inline spectrum grammar: ``es:0.9`` | ``flat`` | ``power-sqrt`` |
    ``pc:b1,..,bm:l0,..,lm`` | ``table:u0,..,uk:s0,..,sk``.  A malformed
    or invalid spec raises ``InvalidSpectrum`` naming it."""
    spec = spec.strip()
    try:
        if spec.startswith("es:"):
            sf = SpectralFunction.expected_shortfall(float(spec[3:]))
        elif spec == "flat":
            sf = SpectralFunction.flat()
        elif spec == "power-sqrt":
            sf = SpectralFunction.power_sqrt()
        elif spec.startswith("pc:"):
            _, bp, lv = spec.split(":")
            sf = SpectralFunction.piecewise_constant(
                [float(v) for v in bp.split(",") if v], [float(v) for v in lv.split(",")])
        elif spec.startswith("table:"):
            _, us, ss = spec.split(":")
            sf = SpectralFunction.table([float(v) for v in us.split(",")],
                                        [float(v) for v in ss.split(",")])
        else:
            raise InvalidSpectrum("unknown kind")
    except ValueError:
        raise InvalidSpectrum(f"malformed sigma spec {spec!r}") from None
    except InvalidSpectrum as exc:
        raise InvalidSpectrum(f"sigma spec {spec!r}: {exc}") from None
    return sf, discretize_spectrum(sf, levels)


def _json_dump(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(value: str | None) -> Path:
    out = Path(value) if value else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_from_generator(gen: dict):
    kind = gen.get("kind")
    field = partial(_field, gen, where="generator.")
    if kind == "gaussian-linear":
        return losses.build_gaussian_linear_instance(
            field("n_x", int), field("n_y", int), field("seed", int, 0))
    if kind == "ccr":
        params = field("params", lambda p: losses.CcrParams(**p) if p else None, None)
        return losses.build_ccr_instance(params or losses.DEFAULT_CCR_PARAMS, field("n", int),
                                         field("seed", int, 0))
    raise InvalidParams(f"unknown generator kind {kind!r}")


def _instance_from_config(cfg: dict):
    ref = _instance_file(cfg)
    if ref is not None:
        mu, nu, loss, _ = load_instance(ref)
        return mu, nu, loss
    if "generator" in cfg:
        return _build_from_generator(_field(cfg, "generator", _object))
    raise DomainError("config needs either instance.file or generator")


# ---------------------------------------------------------------------------
# mes / msp / oracle
# ---------------------------------------------------------------------------


def cmd_mes(args) -> int:
    mu, nu, loss, _ = load_instance(args.instance)
    if args.dump_mps:
        write_mps(bounds.build_mes_lp(mu, nu, loss, args.alpha), args.dump_mps,
                  name="MESLP", exact=True)
    sol = bounds.solve_mes(mu, nu, loss, args.alpha)
    out = _out_dir(args.out)
    _json_dump(out / "solution.json", bounds.mes_solution_to_dict(sol))
    nz = int((sol.coupling.values > 1e-10).sum())
    print(f"value = {sol.value!r}")
    print(f"gap = {sol.gap:.3e}")
    print(f"nonzero coupling cells: {nz} of {math.prod(sol.coupling.shape)}")
    return EXIT_OK


def cmd_msp(args) -> int:
    mu, nu, loss, sigma_file = load_instance(args.instance)
    if args.sigma_spec:
        sf, grid = parse_sigma_spec(args.sigma_spec, args.levels)
    elif sigma_file is not None:
        sf, grid = sigma_file, discretize_spectrum(sigma_file, args.levels)
    else:
        raise InvalidSpectrum("no spectrum: pass --sigma-spec or embed one in the instance")
    if args.dump_mps:
        write_mps(bounds.build_msp_lp(mu, nu, loss, grid), args.dump_mps, name="MSPLP",
                  exact=True)
    sol = bounds.solve_msp(mu, nu, loss, grid)
    out = _out_dir(args.out)
    payload = bounds.msp_solution_to_dict(sol)
    payload["sigma"] = {"spec": args.sigma_spec or "instance", "levels_requested": args.levels}
    _json_dump(out / "solution.json", payload)
    print(f"value = {sol.value!r}")
    print(f"gap = {sol.gap:.3e}")
    print(f"grid: z0 = {grid.z0!r}, levels = {grid.levels.tolist()}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    mu, nu, loss, _ = load_instance(args.instance)
    value = bounds.brute_force_mes(mu, nu, loss, args.alpha)
    print(f"value = {value!r}")
    if args.out:
        _json_dump(_out_dir(args.out) / "oracle.json",
                   {"alpha": args.alpha, "value": value})
    return EXIT_OK


# ---------------------------------------------------------------------------
# clt
# ---------------------------------------------------------------------------


def _clt_deviations(exp: asym.CltExperiment, true_value: float, threads: int) -> np.ndarray:
    """Scaled deviations on at most ``threads`` worker processes, capped by the
    CPUs and the chunks (the pool forks them all at once); one runs in process."""
    scale = math.sqrt(exp.n_x)
    workers = min(threads, os.cpu_count() or 1, math.ceil(exp.replications / _CLT_CHUNK))
    log.info("running %d replications on %d worker(s)", exp.replications, max(workers, 1))
    if workers <= 1:
        return asym.simulate_error_distribution(exp, true_value=true_value)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        values = list(pool.map(partial(asym.replication_value, exp),
                               range(exp.replications), chunksize=_CLT_CHUNK))
    return scale * (np.asarray(values) - true_value)


def cmd_clt(args) -> int:
    run = RunConfig.load(args.config, args.seed, args.out)
    cfg = run.params
    mu, nu, loss = _instance_from_config(cfg)
    alpha = _field(cfg, "alpha", float)
    seed = run.seed
    threads = (args.threads if args.threads is not None
               else _field(cfg, "threads", int, os.cpu_count() or 1))
    limit_draws = _field(cfg, "limit_draws", int, 0)
    gev_overlay = _field(cfg, "gev_overlay", _flag, False)
    face_diagnostics = _field(cfg, "dual_face_diagnostics", _flag, True)
    exp = asym.CltExperiment(
        mu=mu, nu=nu, loss=loss, alpha=alpha,
        n_x=_field(cfg, "sample_n_x", int, mu.size),
        n_y=_field(cfg, "sample_n_y", int, nu.size),
        replications=_field(cfg, "replications", int), seed=seed)
    out = run.out_dir
    true_value = bounds.solve_mes(mu, nu, loss, alpha).value
    log.info("true value %s", true_value)
    deviations = np.sort(_clt_deviations(exp, true_value, threads))
    with open(out / "deviations.csv", "w", encoding="utf-8") as fh:
        fh.write("deviation\n")
        for d in deviations:
            fh.write(f"{float(d)!r}\n")
    stat, pval, reject = asym.anderson_darling_normal(deviations)
    mean = float(deviations.mean())
    sd = float(deviations.std(ddof=1))
    summary = {
        "command": "clt",
        "rng": GENERATOR_NAME,
        "seed": seed,
        "alpha": alpha,
        "n_x": exp.n_x,
        "n_y": exp.n_y,
        "replications": exp.replications,
        "true_value": true_value,
        "mean": mean,
        "sd": sd,
        "ad_statistic": stat,
        "ad_p_value": pval,
        "reject_at_5pct": reject,
    }
    overlays = []
    if sd > 0:
        overlays.append(("normal fit", lambda xs, m=mean, s=sd:
                         np.exp(-0.5 * ((xs - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))))
    if gev_overlay:
        from scipy.stats import genextreme
        shape, locp, scalep = genextreme.fit(deviations)
        summary["gev"] = {"shape": float(shape), "loc": float(locp), "scale": float(scalep)}
        overlays.append(("GEV fit", lambda xs, c=shape, l=locp, s=scalep:
                         genextreme.pdf(xs, c, loc=l, scale=s)))
    if face_diagnostics:
        diag = asym.DualFace(mu, nu, loss, alpha, value=true_value).linearity_diagnostic(
            seed=seed)
        summary["dual_face"] = diag
    if limit_draws > 0:
        y_scale = math.sqrt(exp.n_x / exp.n_y)
        ls = asym.simulate_limit_distribution(mu, nu, loss, alpha, limit_draws, seed,
                                              y_scale=y_scale)
        l_stat, l_p, l_rej = asym.anderson_darling_normal(ls.draws)
        summary["limit"] = {"mean": float(ls.draws.mean()),
                            "sd": float(ls.draws.std(ddof=1)),
                            "ad_statistic": l_stat, "ad_p_value": l_p,
                            "reject_at_5pct": l_rej}
    _json_dump(out / "summary.json", summary)
    histogram_svg(deviations, out / "histogram.svg",
                  title=f"scaled optimal-value deviations (alpha={alpha:g})",
                  overlays=overlays, x_label="sqrt(n) * (V_n - V)")
    print(f"replications = {exp.replications}")
    print(f"mean = {mean!r}, sd = {sd!r}")
    print(f"AD statistic = {stat!r}, p = {pval!r}, reject at 5% = {reject}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def cmd_stability(args) -> int:
    run = RunConfig.load(args.config, args.seed, args.out)
    cfg = run.params
    mu, nu, loss = _instance_from_config(cfg)
    if "sigma_spec" in cfg:
        _, target = parse_sigma_spec(_field(cfg, "sigma_spec", str), _field(cfg, "levels", int, 8))
    else:
        target = _field(cfg, "alpha", float)
    seed = run.seed
    min_slope = _field(cfg, "min_slope", float, 0.0)
    report = stability.perturbation_sweep(
        mu, nu, loss, target, scheme=cfg.get("scheme", "mixing"),
        steps=_field(cfg, "steps", int, 8), seed=seed, r=_field(cfg, "r", float, 1.0))
    out = run.out_dir
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write("epsilon,w_r_mu,w_r_nu,value,delta_value,bound\n")
        for row in report.rows:
            fh.write(f"{row.epsilon!r},{row.w_r_mu!r},{row.w_r_nu!r},"
                     f"{row.value!r},{row.delta_value!r},{row.bound!r}\n")
    summary = {
        "command": "stability",
        "rng": GENERATOR_NAME,
        "seed": seed,
        "scheme": report.scheme,
        "base_value": report.base_value,
        "lipschitz": report.lipschitz,
        "sigma_norm": report.sigma_norm,
        "loglog_slope": None if math.isinf(report.loglog_slope) else report.loglog_slope,
    }
    _json_dump(out / "summary.json", summary)
    print(f"base value = {report.base_value!r}")
    print(f"log-log slope = {report.loglog_slope!r}")
    if report.loglog_slope < min_slope:
        print(f"trend check failed: slope {report.loglog_slope!r} < {min_slope!r}",
              file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="riskbound",
        description="Worst-case spectral risk bounds under fixed marginals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mes", help="maximum Expected Shortfall of an instance")
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-mps", default=None)
    p.set_defaults(func=cmd_mes)

    p = sub.add_parser("msp", help="maximum spectral measure of an instance")
    p.add_argument("instance")
    p.add_argument("--sigma-spec", default=None)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-mps", default=None)
    p.set_defaults(func=cmd_msp)

    p = sub.add_parser("oracle", help="independent brute-force MES value")
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("clt", help="finite-sample error distribution experiment")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("stability", help="marginal perturbation sweep")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stability)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}",
              file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ERROR
    except _INFEASIBLE_INPUT as e:
        print(f"invalid input ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RiskBoundError as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # pragma: no cover - defensive
        log.debug("unexpected failure", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
