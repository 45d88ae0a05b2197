#!/usr/bin/env python3
"""cmrs benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 benchmark/run.py --workload cs_wide_fade --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, run time, points
per second, diagnose time, peak memory, share accuracy and fade points);
``--trace 1`` prints the per-layer split from a traced run instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  Workloads are described in ``workloads.py``.

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits with code 2 and prints no result.  Generated
configs and span files go to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description="cmrs benchmark (one workload per call)")
    ap.add_argument("--workload", required=True, help="see workloads.py")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0.0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cmrs", "__init__.py")):
        print(f"error: no cmrs sources under {SRC}", file=sys.stderr)
        return 2
    # one client, no extra threads: pin BLAS pools unless the caller chose
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [SRC, HERE]

    import platform

    import numpy
    import scipy

    import cmrs
    from bench import measure
    from workloads import make_workload

    if os.path.dirname(os.path.abspath(cmrs.__file__)) != os.path.join(SRC, "cmrs"):
        print(f"error: cmrs imported from {cmrs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    print("env " + json.dumps(env), flush=True)
    try:
        wl = make_workload(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(wl, args.seconds, bool(args.trace), OUT)
    info = result.pop("info")
    print("info " + json.dumps(info, default=str))
    for msg in info["failures"]:
        print(f"CHECK FAILED: {msg}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
