"""Common-shock pool study.

Runs the three-risk compound Poisson pool with a shared shock component
through the inversion engine, then looks at three things:

* how the shares split a given aggregate level, against the series reference;
* how far along the grid each contour scheme survives before the recovered
  density degrades (the tilted contour should reach deepest);
* the expected contribution of each risk to aggregate outcomes at or above
  a threshold, E[X_i 1{S >= s*}], against the series reference.

Usage: python3 scripts/run_common_shock_study.py [--out results.csv]
"""

import argparse
import sys
import time

import numpy as np
from scipy.integrate import quad

from cmrs import (
    AllocationRequest,
    CommonShockCPSpec,
    EulerScheme,
    GsScheme,
    allocate,
    breakdown_scan,
    build_common_shock_cp,
    cscp_series_oracle,
    proportions,
    tail_contribution,
)
from cmrs.cli import write_csv

SPEC = CommonShockCPSpec(
    lambda0=1.5,
    lambdas=(0.8, 1.1, 0.6),
    beta0=0.9,
    betas=(1.4, 0.7, 1.9),
    weights=(0.2, 0.3, 0.5),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the tilted-run CSV here")
    args = ap.parse_args(argv)

    model = build_common_shock_cp(SPEC)
    grid = tuple(np.arange(1, 751) * 0.1)

    print("== scheme endurance on [0.1, 75] ==")
    runs = {}
    for name, scheme in [
        ("gaver-stehfest M=8", GsScheme(M=8)),
        ("euler untilted", EulerScheme(A=30.4)),
        ("euler theta=0.2", EulerScheme(A=30.4, theta=0.2)),
    ]:
        start = time.perf_counter()
        res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=scheme))
        elapsed = time.perf_counter() - start
        scan = breakdown_scan(res)
        where = "clean" if scan.clean else f"first violation at s = {scan.breakdown_s:g}"
        print(f"  {name:>20}: {where}  ({scan.n_ok} ok / {len(grid)}, {elapsed:.2f}s)")
        runs[name] = res

    res = runs["euler theta=0.2"]
    oracle = cscp_series_oracle(SPEC)
    print(f"\n== shares vs series reference (K = {oracle.K}) ==")
    print(f"{'s':>6} {'f_S':>12} {'h_1':>9} {'h_2':>9} {'h_3':>9} {'max |err|':>10}")
    for s_t in (0.5, 1.0, 3.0, 7.0, 12.0):
        k = int(round(s_t / 0.1)) - 1
        err = max(abs(res.h[k, i] - oracle.h(i, s_t)) for i in range(3))
        print(
            f"{s_t:>6.1f} {res.density[k]:>12.6e} "
            + " ".join(f"{res.h[k, i]:>9.5f}" for i in range(3))
            + f" {err:>10.2e}"
        )

    print("\n== proportional shares drift with s ==")
    pi = proportions(res)
    for s_t in (0.5, 2.0, 10.0, 30.0):
        k = int(round(s_t / 0.1)) - 1
        print(f"  s = {s_t:>5.1f}: pi = " + np.array2string(pi[k], precision=4))

    print("\n== expected contributions at or above s* = 10 ==")
    tc = tail_contribution(res, 10.0)
    for i, v in enumerate(tc.per_risk):
        ref = quad(lambda u: oracle.xi(i, u), 10.0, np.inf, limit=200)[0]
        print(f"  risk {i + 1}: {v:.6f} (series {ref:.6f})")
    print(f"  total: {tc.total:.6f}")

    if args.out:
        with open(args.out, "w") as fh:
            write_csv(res, fh)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
