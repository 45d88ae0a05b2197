#!/usr/bin/env python3
"""Paired fade gate: the cs_wide_fade accuracy metrics of two source trees,
compared seed by seed.

    python3 scripts/fade_gate.py PARENT_ROOT CHANGE_ROOT [--seeds 0-19]

Each ROOT is a checkout with ``src/cmrs`` and ``benchmark/``.  For each tree a
subprocess imports that tree's package and benchmark modules and, for every
seed, builds the three legs of ``cs_wide_fade`` (Gaver-Stehfest, Euler,
tilted Euler) the way ``benchmark/bench.py`` ``Bench.setup`` builds them,
runs ``allocate`` and ``breakdown_scan`` on each, and scores the legs with
``checks.evaluate`` after ``workloads.attach_reference``.

The fade points sit where roundoff decides whether one gridpoint still meets
its tolerance, so a change that rounds differently moves them a little either
way at single seeds.  The gate therefore looks at d = change - parent over
all seeds:

* ``fade_s_gs`` is equal at every seed;
* ``fade_s_euler``, ``fade_s_tilted``, ``ok_fraction``: mean(d) >= -2 sd(d)/sqrt(k);
* ``max_ref_err``, ``max_ref_err_gs``, ``max_balance_residual``:
  mean(d) <= +2 sd(d)/sqrt(k);
* no seed is worse than the parent by more than the metric's relative bound
  in the change's ``BENCHMARK.json``;
* ``evaluate`` reports no failed check on the change.

It prints the per-seed table and the verdict, and exits 1 when the gate
fails (2 when a tree cannot be run).  One seed takes a few seconds per tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

# metric: the direction that is better
METRICS = {
    "fade_s_gs": "higher",
    "fade_s_euler": "higher",
    "fade_s_tilted": "higher",
    "ok_fraction": "higher",
    "max_ref_err": "lower",
    "max_ref_err_gs": "lower",
    "max_balance_residual": "lower",
}


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _worker(root: str, seeds: list[int]) -> None:
    """Print one JSON line of metrics and failed checks per seed."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmark")]
    from bench import Bench
    from checks import evaluate
    from cmrs import allocate, breakdown_scan
    from workloads import attach_reference, make_workload

    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            wl = make_workload("cs_wide_fade", seed)
            cfg, _, requests = Bench(wl, os.path.join(tmp, f"seed{seed}.yaml")).setup()
            attach_reference(wl, requests[0].s_grid)
            legs = []
            for leg, request in zip(wl.legs, requests):
                result = allocate(request)
                legs.append((leg, result, breakdown_scan(result)))
            accuracy, failures = evaluate(wl, legs, cfg.tolerance.balance)
            row = {"seed": seed, "metrics": accuracy["metrics"], "failures": failures}
            print(json.dumps(row), flush=True)


def _run_tree(root: str, spec: str) -> dict[int, dict]:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", root, "--seeds", spec]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"fade_gate: the run in {root} failed (exit {proc.returncode})")
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {row["seed"]: row for row in rows}


def _bounds(root: str) -> dict[str, float]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def gate(parent: dict[int, dict], change: dict[int, dict], bounds: dict[str, float]) -> list[str]:
    """The failed conditions (empty when the gate holds), printing the table."""
    seeds = sorted(parent)
    failures = []
    print("seed " + " ".join(f"{name:>28}" for name in METRICS) + "  (parent -> change)")
    for seed in seeds:
        p, c = parent[seed]["metrics"], change[seed]["metrics"]
        cells = " ".join(f"{p[m]:>13.6g} -> {c[m]:<10.6g}" for m in METRICS)
        print(f"{seed:>4} {cells}")
        for msg in change[seed]["failures"]:
            failures.append(f"seed {seed}: evaluate: {msg}")
    print()
    k = len(seeds)
    for name, better in METRICS.items():
        p = [parent[s]["metrics"][name] for s in seeds]
        d = [change[s]["metrics"][name] - v for s, v in zip(seeds, p)]
        mean = statistics.fmean(d)
        se2 = 2.0 * (statistics.stdev(d) if k > 1 else 0.0) / math.sqrt(k)
        sign = 1.0 if better == "higher" else -1.0
        worst = max(-sign * dk / abs(pk) if pk else -sign * dk for dk, pk in zip(d, p))
        verdict = "ok"
        if name == "fade_s_gs":
            if any(dk != 0.0 for dk in d):
                verdict = "FAIL (not equal at every seed)"
        elif sign * mean < -se2:
            verdict = f"FAIL (mean d {'below' if sign > 0 else 'above'} the 2 SE band)"
        if worst > bounds[name]:
            verdict = f"FAIL (a seed is worse by {worst:.1%}, bound {bounds[name]:.0%})"
        print(
            f"{name:<22} mean d {mean:+.3g}  2 SE {se2:.3g}  "
            f"worst seed {max(0.0, worst):.2%} (bound {bounds[name]:.0%})  {verdict}"
        )
        if verdict != "ok":
            failures.append(f"{name}: {verdict}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", nargs="?")
    ap.add_argument("change_root", nargs="?")
    ap.add_argument("--seeds", default="0-19", help="e.g. 0-19 or 0,3,5")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker, _seeds(args.seeds))
        return 0
    if not (args.parent_root and args.change_root):
        ap.error("need PARENT_ROOT and CHANGE_ROOT")
    parent = _run_tree(os.path.abspath(args.parent_root), args.seeds)
    change = _run_tree(os.path.abspath(args.change_root), args.seeds)
    if sorted(parent) != sorted(change) or not parent:
        print("fade_gate: the two trees did not report the same seeds", file=sys.stderr)
        return 2
    failures = gate(parent, change, _bounds(args.change_root))
    print()
    print("gate: PASS" if not failures else "gate: FAIL\n  " + "\n  ".join(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
