"""Lognormal pool study.

Three independent lognormal risks with equal-mean pairs distinguished only
by variance.  No closed form exists for the shares, so the run is checked
two ways: the budget identity on the grid, and Monte Carlo, kernel-smoothed
at a few aggregate levels and plain for the tail contributions
E[X_i 1{S >= 10}].  The interesting output is how the share of the
high-variance risks grows with the aggregate level while the low-variance
risk saturates.

Usage: python3 scripts/run_lognormal_study.py [--samples 400000]
"""

import argparse
import sys
import time

import numpy as np

from cmrs import (
    AllocationRequest,
    EulerScheme,
    LognormalPortfolioSpec,
    allocate,
    build_lognormal_portfolio,
    make_sampler,
    mc_conditional_mean,
    proportions,
    tail_contribution,
)
from cmrs.oracles import philox_generator

MEANS = (1.0, 2.0, 2.0)
VARIANCES = (5.0, 2.0, 5.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)

    spec = LognormalPortfolioSpec.from_moments(MEANS, VARIANCES)
    model = build_lognormal_portfolio(spec)
    grid = tuple(np.arange(5, 151) * 0.1)
    start = time.perf_counter()
    res = allocate(
        AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme())
    )
    elapsed = time.perf_counter() - start
    worst = float(np.nanmax(res.balance_residual))
    print(f"grid [0.5, 15]: worst status {res.worst_status}, "
          f"worst balance residual {worst:.2e}, {elapsed:.2f}s")

    print("\n== proportional shares along the grid ==")
    pi = proportions(res)
    print(f"{'s':>6} " + " ".join(f"{'pi_' + str(i + 1):>8}" for i in range(3)))
    for s_t in (1.0, 2.0, 5.0, 10.0, 15.0):
        k = int(round(s_t / 0.1)) - 5
        print(f"{s_t:>6.1f} " + " ".join(f"{pi[k, i]:>8.4f}" for i in range(3)))

    print(f"\n== Monte Carlo spot checks ({args.samples} samples/point) ==")
    sampler = make_sampler(spec)
    sub = 0
    for s_t in (2.0, 6.0, 10.0):
        k = int(round(s_t / 0.1)) - 5
        line = [f"s = {s_t:>4.1f}:"]
        for i in range(3):
            sub += 1
            est = mc_conditional_mean(
                sampler, i, s_t, n_samples=args.samples, seed=args.seed, substream=sub
            )
            z = abs(res.h[k, i] - est.value) / est.std_error
            line.append(f"h_{i + 1} = {res.h[k, i]:.4f} (mc {est.value:.4f}, {z:.1f} se)")
        print("  " + "  ".join(line))

    print("\n== expected contributions at or above s* = 10 ==")
    tc = tail_contribution(res, 10.0)
    S, X = sampler(philox_generator(args.seed, sub + 1), args.samples)
    tail = X * (S >= 10.0)[:, None]
    for i, v in enumerate(tc.per_risk):
        print(f"  risk {i + 1}: {v:.6f} (mc {tail[:, i].mean():.6f})")
    se = tail.sum(axis=1).std() / np.sqrt(args.samples)
    print(f"  total: {tc.total:.6f} (mc {tail.sum(axis=1).mean():.6f} +- {se:.1e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
