"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-small --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from ``--seed``, measures one client in a closed
loop for ``--seconds``, checks every answer, and prints a report (lines
starting with ``#``) followed by one JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps riskbound's public functions,
reports the per-layer metrics and writes every span to
``perfbench/out/trace-<workload>-<seed>.json``.  ``--smoke`` shrinks every
instance to a few cells.  It runs riskbound from the ``src/`` directory next
to ``perfbench/`` and exits with code 1, printing no result, if that is
missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_harness():
    if not (SRC / "riskbound" / "__init__.py").is_file():
        raise SystemExit(f"riskbound sources not found under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import riskbound
    if Path(riskbound.__file__).resolve().parent != SRC / "riskbound":
        raise SystemExit(f"imported riskbound from {riskbound.__file__}, not {SRC}")
    from perfbench import harness
    return harness


def main(argv=None) -> int:
    harness = _import_harness()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        with harness.scratch_dir() as workdir:
            harness.setup(args.workload, args.seed, args.smoke, workdir)
        return 0
    result, report = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke)
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("# setup probes (s): " + " ".join(repr(t) for t in report["setup_probes_s"]))
    for name, (value, unit) in report["figures"].items():
        print(f"# {name:<40s} {value!r} {unit}")
    for name, m in result["metrics"].items():
        print(f"# {name:<40s} {m['value']!r} {m['unit']}")
    if args.trace:
        path = harness.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": report["provenance"], "result": result,
                       "spans": report["spans"], "probe_spans": report["probe_spans"]}, fh)
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
