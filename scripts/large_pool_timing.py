#!/usr/bin/env python3
"""Raw timing of one large pool, in one process.

    python3 scripts/large_pool_timing.py ROOT [--family common_shock_cp]
        [--n N] [--points P] [--scheme euler] [--reps 5]

ROOT is a checkout with ``src/cmrs``; its package is the one imported.  The
pools run under default Euler (41 nodes per point) or default
Gaver-Stehfest (16 nodes).  All but ``common_shock_replicated`` have no two
identical risks, so their models carry the identity risk map (m = n); that
one is a class pool.

* ``common_shock_cp`` (default n = 10000, 100 points): lambda_i ~ U(0.5, 1.5)
  rescaled to sum 3, beta_i ~ U(0.6, 2.0) and w_i ~ U(0.5, 1.5) normalised,
  drawn in that order from ``np.random.default_rng(3)``, with lambda0 = 1.5
  and beta0 = 0.9, on the grid ``np.linspace(0.5, 12, points)``.
* ``mixed_exp_frailty`` (default n = 1000, 10 points): the gamma frailty
  ``gamma_mixing(3.0)`` with lambda_j = 3 U(0.5, 2)/n drawn from
  ``np.random.default_rng(5)``, on the grid ``np.linspace(0.5, 8, points)``.
* ``common_shock_replicated`` (default n = 10000, 100 points): the three
  base risks of the ``cs_large_pool`` workload (lambda = 0.8, 1.1, 0.6,
  beta = 1.4, 0.7, 1.9, lambda0 = 1.5, beta0 = 0.9) cycled to n by
  ``cmrs.cli._scaled_cscp``, the way ``cmrs bench`` replicates a pool: the
  rates rescaled to the base total, equal weights.  Its builder finds
  m = 4 classes (the last weight absorbs the rounding), on the grid
  ``np.linspace(0.5, 12, points)``.
* ``matrix_exp`` (default n = 300, 10 points): distinct Erlang(3) risks
  with rates U(0.5, 2) n / 3 drawn from ``np.random.default_rng(7)``, on
  ``points`` levels evenly over E[S] +- 2.5 sd(S).  Every risk is its own
  class, and all of them share one solve group.

One untimed ``allocate`` comes first.  Then each rep times ``allocate``,
``write_csv`` (into an in-memory buffer) and
``diagonal_diagnostic(model, np.logspace(-2, 2, 25))`` separately.  The
script prints one JSON object: the family, the scheme, the per-rep seconds
of each, their medians and minima (the fastest rep), the CSV size, the
status counts and the process's peak RSS in MB.
Run parent and change in alternating fresh processes to compare two trees,
and compare the minima (``allocate_s_min``, ``write_csv_s_min``,
``diagnostic_s_min``): the medians of 5 reps spread about 17% across
processes of one tree at n = 3000, the host's slow spells included.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

# family: (n, points, last gridpoint; None where the pool sets the grid)
DEFAULTS = {
    "common_shock_cp": (10_000, 100, 12.0),
    "mixed_exp_frailty": (1000, 10, 8.0),
    "common_shock_replicated": (10_000, 100, 12.0),
    "matrix_exp": (300, 10, None),
}


def pool(family: str, n: int, points: int):
    """The model and grid of one family's pool, from the ``cmrs`` package on
    ``sys.path``."""
    from cmrs import CommonShockCPSpec, MixedExpFrailtySpec
    from cmrs import build_common_shock_cp, build_mixed_exp_frailty, gamma_mixing
    from cmrs.cli import _scaled_cscp
    from cmrs.models import build_matrix_exp, erlang_me_spec

    top = DEFAULTS[family][2]
    if family == "common_shock_cp":
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.5, 1.5, n)
        lam *= 3.0 / lam.sum()
        bet = rng.uniform(0.6, 2.0, n)
        w = rng.uniform(0.5, 1.5, n)
        w /= w.sum()
        model = build_common_shock_cp(CommonShockCPSpec(1.5, tuple(lam), 0.9, tuple(bet), tuple(w)))
    elif family == "common_shock_replicated":
        base = CommonShockCPSpec(1.5, (0.8, 1.1, 0.6), 0.9, (1.4, 0.7, 1.9), (0.2, 0.3, 0.5))
        model = build_common_shock_cp(_scaled_cscp(base, n))
    elif family == "matrix_exp":
        rates = np.random.default_rng(7).uniform(0.5, 2.0, n) * n / 3.0
        model = build_matrix_exp([erlang_me_spec(3, r) for r in rates])
        mean, sd = (3.0 / rates).sum(), math.sqrt((3.0 / rates**2).sum())
        grid = np.linspace(mean - 2.5 * sd, mean + 2.5 * sd, points)
    else:
        lam = 3.0 * np.random.default_rng(5).uniform(0.5, 2.0, n) / n
        model = build_mixed_exp_frailty(MixedExpFrailtySpec(tuple(lam), gamma_mixing(3.0)))
    if top is not None:
        grid = np.linspace(0.5, top, points)
    return model, tuple(grid)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root")
    ap.add_argument("--family", choices=sorted(DEFAULTS), default="common_shock_cp")
    ap.add_argument("--n", type=int, help="pool size (default per family)")
    ap.add_argument("--points", type=int, help="gridpoints (default per family)")
    ap.add_argument("--scheme", choices=["euler", "gaver-stehfest"], default="euler")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    n, points, _ = DEFAULTS[args.family]
    n = args.n or n
    points = args.points or points
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from cmrs import AllocationRequest, EulerScheme, GsScheme, allocate
    from cmrs.cli import write_csv
    from cmrs.transforms import diagonal_diagnostic

    model, grid = pool(args.family, n, points)
    request = AllocationRequest(
        model=model,
        s_grid=grid,
        scheme=EulerScheme() if args.scheme == "euler" else GsScheme(),
    )
    allocate(request)
    t_grid = np.logspace(-2, 2, 25)
    alloc_s, csv_s, diag_s = [], [], []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        result = allocate(request)
        alloc_s.append(time.perf_counter() - t0)
        buf = io.StringIO()
        t0 = time.perf_counter()
        write_csv(result, buf)
        csv_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        diagonal_diagnostic(model, t_grid)
        diag_s.append(time.perf_counter() - t0)
    print(
        json.dumps(
            {
                "family": args.family,
                "scheme": args.scheme,
                "n": n,
                "points": points,
                "allocate_s": alloc_s,
                "allocate_s_median": statistics.median(alloc_s),
                "allocate_s_min": min(alloc_s),
                "write_csv_s": csv_s,
                "write_csv_s_median": statistics.median(csv_s),
                "write_csv_s_min": min(csv_s),
                "diagnostic_s": diag_s,
                "diagnostic_s_median": statistics.median(diag_s),
                "diagnostic_s_min": min(diag_s),
                "csv_bytes": len(buf.getvalue()),
                "status_counts": {st: result.status.count(st) for st in sorted(set(result.status))},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
