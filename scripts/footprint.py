#!/usr/bin/env python3
"""Memory footprint and page faults of one tree, measured from outside.

    python3 scripts/footprint.py ROOT [--workload cs_large_pool --seed 0
        --seconds 5]

ROOT is a checkout with ``src/cmrs`` and ``benchmark/``.  The script starts
two child processes and reads each one's own resource usage from
``os.wait4`` once it exits:

* ``import``: a fresh interpreter that imports ``cmrs`` from ROOT.  It
  reports the import's wall time, the child's peak RSS in MB, its minor
  faults, and which of ``scipy.stats``, ``scipy.linalg`` and
  ``scipy.special`` the import loaded.
* ``run`` (only with ``--workload``): ROOT's ``benchmark/run.py``, unchanged,
  with ``--trace 0``.  It reports the child's wall time, exit code, peak RSS
  in MB, minor and major faults (``ru_minflt``, ``ru_majflt``), the
  benchmark's own metrics, read from the last line of its output, and the
  raw (unscaled) medians and run count from its ``info`` line.

The script prints one JSON object with the keys ``root``, ``import`` and
``run`` (null without ``--workload``), so the fault counts can go into a
``BENCH_*.json`` record next to the benchmark's metrics.  Compare two trees
in alternating fresh runs, parent then change then parent, and so on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

MODULES = ("scipy.stats", "scipy.linalg", "scipy.special")
INFO_KEYS = ("runs", "run_raw_s_median", "diagnose_raw_s_median", "setup_raw_s_median")
IMPORT_CODE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import cmrs\n"
    "t = time.perf_counter() - t\n"
    f"print(json.dumps({{'import_s': t, 'loaded': {{m: m in sys.modules for m in {MODULES!r}}}}}))\n"
)


def _child(argv: list[str], env: dict[str, str]) -> tuple[int, float, object, str]:
    """Run ``argv`` with standard output in a file.  Returns (exit code,
    wall seconds, the child's rusage, its standard output)."""
    with tempfile.TemporaryFile("w+") as out:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        out.seek(0)
        return os.waitstatus_to_exitcode(status), wall, usage, out.read()


def _usage(usage) -> dict:
    return {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
    }


def measure_import(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code, wall, usage, out = _child([sys.executable, "-c", IMPORT_CODE], env)
    if code != 0:
        raise SystemExit(f"footprint: importing cmrs from {root} failed (exit {code})")
    return {**json.loads(out.splitlines()[-1]), **_usage(usage)}


def measure_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, os.path.join(root, "benchmark", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    code, wall, usage, out = _child(argv, dict(os.environ))
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "exit": code,
        "wall_s": wall, **_usage(usage), "metrics": metrics,
        "info": {key: info.get(key) for key in INFO_KEYS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root")
    ap.add_argument("--workload", help="a benchmark workload; omit to measure the import only")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "cmrs", "__init__.py")):
        ap.error(f"no cmrs sources under {root}")
    report = {"root": root, "import": measure_import(root), "run": None}
    if args.workload:
        report["run"] = measure_run(root, args.workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0 if report["run"] is None or report["run"]["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
