"""Benchmark of the frue package, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  rotate-640         storage side: token parse + read/update/pack per ciphertext
  lifecycle-cli-640  key holder: seven `python -m frue.cli` steps per round
  oracle-toy16       test oracles: real/hybrid update draws and games on toy-16

The program is used as shipped in ./src (PYTHONPATH=src, as the tests do),
only through its public functions and its command line.  All inputs derive
from --seed.  With --trace 0 the run measures for --seconds seconds, with
tracing off, and reports the end-to-end metrics.  With --trace 1 it runs a
fixed amount of the workload once untraced and twice traced, and reports the
per-layer metrics and the tracing overhead.  Lines starting with "metric"
give every metric by name and unit; the last line is one JSON object with
the keys correct, attempted, failed and metrics.

BLAS runs single-threaded (the thread variables below are set to 1 for this
process and every subprocess), so the load is one process on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Also in common.py, which imports numpy: that must wait for THREAD_VARS.
ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("rotate-640", "lifecycle-cli-640", "oracle-toy16")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """`git rev-parse HEAD` of the checkout, or "none" if it is no git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "frue" / "__init__.py").is_file():
        print(f"error: no frue package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy is imported, here and in every CLI subprocess.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    import lifecycle
    import oracle
    import rotate
    module = {"rotate-640": rotate, "lifecycle-cli-640": lifecycle,
              "oracle-toy16": oracle}[args.workload]

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        out = module.trace(args.seed)
        out.metrics["cli.import_s"] = (lifecycle.import_seconds(), "s")
        for kind in lifecycle.KINDS:
            out.metrics.setdefault(f"cli.{kind}.inproc_s", (0.0, "s"))
    else:
        out = module.run(args.seed, args.seconds)
    for line in out.named:
        print(line)
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in out.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
