#!/usr/bin/env python3
"""Raw timing of one large heterogeneous common-shock pool, in one process.

    python3 scripts/large_pool_timing.py ROOT [--n 10000] [--points 100] [--reps 5]

ROOT is a checkout with ``src/cmrs``; its package is the one imported.  The
pool has no two identical risks, so it runs without a risk map:
lambda_i ~ U(0.5, 1.5) rescaled to sum 3, beta_i ~ U(0.6, 2.0) and
w_i ~ U(0.5, 1.5) normalised, drawn in that order from
``np.random.default_rng(3)``, with lambda0 = 1.5 and beta0 = 0.9, on the grid
``np.linspace(0.5, 12, points)`` under default Euler.

One untimed ``allocate`` comes first.  Then each rep times ``allocate`` and
``write_csv`` (into an in-memory buffer) separately.  The script prints one
JSON object: the per-rep seconds of each, their medians, the CSV size, the
status counts and the process's peak RSS in MB.  Run parent and change in
alternating fresh processes to compare two trees.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root")
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--points", type=int, default=100)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from cmrs import AllocationRequest, CommonShockCPSpec, EulerScheme, allocate
    from cmrs import build_common_shock_cp
    from cmrs.cli import write_csv

    rng = np.random.default_rng(3)
    lam = rng.uniform(0.5, 1.5, args.n)
    lam *= 3.0 / lam.sum()
    bet = rng.uniform(0.6, 2.0, args.n)
    w = rng.uniform(0.5, 1.5, args.n)
    w /= w.sum()
    model = build_common_shock_cp(CommonShockCPSpec(1.5, tuple(lam), 0.9, tuple(bet), tuple(w)))
    request = AllocationRequest(
        model=model, s_grid=tuple(np.linspace(0.5, 12.0, args.points)), scheme=EulerScheme()
    )
    allocate(request)
    alloc_s, csv_s = [], []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        result = allocate(request)
        alloc_s.append(time.perf_counter() - t0)
        buf = io.StringIO()
        t0 = time.perf_counter()
        write_csv(result, buf)
        csv_s.append(time.perf_counter() - t0)
    print(
        json.dumps(
            {
                "n": args.n,
                "points": args.points,
                "allocate_s": alloc_s,
                "allocate_s_median": statistics.median(alloc_s),
                "write_csv_s": csv_s,
                "write_csv_s_median": statistics.median(csv_s),
                "csv_bytes": len(buf.getvalue()),
                "status_counts": {st: result.status.count(st) for st in sorted(set(result.status))},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
