#!/usr/bin/env python3
"""Bit-equality gate: the allocation output of two source trees, compared
leg by leg.

    python3 scripts/bit_equal.py PARENT_ROOT CHANGE_ROOT [--seeds 0-4]

Each ROOT is a checkout with ``src/cmrs``, ``benchmark/`` and ``configs/``.
For each tree a subprocess imports that tree's package and benchmark
modules and, for every seed, builds every leg of the benchmark workloads
(``me_erlang_pool``, ``cs_large_pool``, ``cs_wide_fade``) through
``Bench.setup``, the way the benchmark builds them, and runs ``allocate``,
``write_csv`` and ``breakdown_scan`` on each.  The CSV is written twice
from the result, and once more after a second ``allocate`` on the same
model; all three must give the same bytes, in each tree, since the writer
derives its header once per model.  It also runs all three on
every ``configs/*.yaml`` of its tree, with the request ``cmrs allocate``
builds from the file, and, under default Euler, on two pools of distinct
risks (m = n) that ``scripts/large_pool_timing.py`` builds, at 10 points
each: the heterogeneous common-shock pool at n = 3000, whose 3000 classes
take the node-major layout of ``models._class_rows``, and distinct
Erlang(3) risks at n = 300, the product rule with no repeated class.

Every leg also keeps the residuals and pass flags of
``diagonal_diagnostic(model, np.logspace(-2, 2, 25))`` (the grid of
``cmrs diagnose``), ``numerical_aggregate_derivative`` on the same grid, and
the per-risk ``tail_contribution`` at the leg's middle grid level, or the
error it raises.  Two kinds of leg compare the series references instead
of an allocation: the ``h_ref`` and ``ref_meta`` that
``workloads.attach_reference`` fills for the two common-shock workloads at
every seed, and, for every config with ``verify: series``, f_S and every xi of
``cscp_series_oracle`` (at the config's ``mass_tol``) on the config's grid.

Every config the worker loads (each ``configs/*.yaml`` and each workload's
YAML at each seed) is also a ``load_config`` leg, compared field by field:
the document ``load_config`` hands to ``parse_config`` and every field of
the ``RunConfig`` and of the specs in it, each reduced recursively to a
record in which a float is its ``float.hex`` (the sign of zero kept), an
int, bool, str, list, tuple or numpy scalar keeps its type, a numpy array
is its dtype, shape and bytes, a dict keeps its key order, and a handle's
function is its name and the values it closes over.  A loader change that
moves a type or a sign bit fails here even where a spec constructor would
coerce the value back.

A leg is equal when every array field is ``np.array_equal`` (NaN equal to
NaN) with equal ``np.signbit`` on the entries that are NaN in neither tree,
and every other field is equal.  ``np.array_equal`` alone takes -0.0 for
0.0, and a signed zero reaches the CSV (``%.12g`` writes ``-0``).  The
array fields are the result arrays (``density``, ``raw_xi``, ``xi``, ``h``,
``sum_h`` and ``balance_residual``), the diagonal residuals, the
derivative, the tail contributions and the reference arrays.  The other
fields are ``status``, the CSV bytes of each write, the ``breakdown_scan``
fields (``first_violation``, ``breakdown_s`` and the three counts), the
diagonal pass flags, a refusal's message and the reference metadata.  The
script prints the legs that differ, naming the fields that differ in each,
and the legs of either tree whose CSV bytes change on a repeated write, and
exits 1 when there is any (2 when a tree cannot be run).  For each
differing array it also prints the largest |change - parent| over the
entries finite in both trees, and whether the NaN positions and the sign
bits match.  A change that passes it needs no fade gate
(``scripts/fade_gate.py``).  The five default seeds and the two pools take
a few seconds per tree, and the series references about 3.5 s more per
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import io
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

from fade_gate import _seeds
from large_pool_timing import pool

ARRAYS = ("density", "raw_xi", "xi", "h", "sum_h", "balance_residual")
SCAN = ("first_violation", "breakdown_s", "n_ok", "n_degraded", "n_failed")
# the t grid of `cmrs diagnose`
DIAG_T = np.logspace(-2, 2, 25)
# (family, n, points) of the large_pool_timing pools run as legs
POOLS = (("common_shock_cp", 3000, 10), ("matrix_exp", 300, 10))


def _record(value, seen: dict):
    """A picklable record of ``value`` that is equal in two trees only when
    the values have equal types and bits throughout (the module docstring).
    An object met again in ``seen`` is recorded by its first ordinal, so
    shared handles stay shared."""
    if isinstance(value, np.generic):
        return (type(value).__name__, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if value is None or isinstance(value, (bool, int, str)):
        return (type(value).__name__, value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_record(v, seen) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((_record(k, seen), _record(v, seen)) for k, v in value.items()))
    if id(value) in seen:
        return ("the object", seen[id(value)])
    seen[id(value)] = len(seen)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__, tuple((f.name, _record(getattr(value, f.name), seen)) for f in fields))
    if callable(value):
        cells = getattr(value, "__closure__", None) or ()
        return ("function", value.__qualname__, tuple(_record(c.cell_contents, seen) for c in cells))
    raise TypeError(f"no record for {type(value).__name__}")


def _worker(root: str, seeds: list[int], out: str) -> None:
    """Pickle {leg key: output} for every leg and shipped config to ``out``."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmark")]
    from bench import Bench
    from cmrs import (
        AllocationRequest,
        EulerScheme,
        allocate,
        breakdown_scan,
        load_config,
        tail_contribution,
    )
    from cmrs import config
    from cmrs.cli import _build_request, write_csv
    from cmrs.errors import CmrsError
    from cmrs.oracles import cscp_series_oracle
    from cmrs.transforms import diagonal_diagnostic, numerical_aggregate_derivative
    from workloads import NAMES, attach_reference, make_workload

    def csv(result):
        buf = io.StringIO()
        write_csv(result, buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    def output(request):
        result = allocate(request)
        row = {name: getattr(result, name) for name in ARRAYS}
        row["status"] = list(result.status)
        row["csv"] = csv(result)
        # the writer keeps per-model state, so it must repeat its bytes
        row["csv_repeats"] = [csv(result), csv(allocate(request))]
        scan = breakdown_scan(result)
        row.update((name, getattr(scan, name)) for name in SCAN)
        report = diagonal_diagnostic(request.model, DIAG_T)
        row["diagonal_residual"] = np.array(report.residual)
        row["diagonal_passed"] = report.passed
        row["aggregate_derivative"] = numerical_aggregate_derivative(request.model, DIAG_T)
        s_star = float(result.s_grid[len(result.s_grid) // 2])
        try:
            row["tail_contribution"] = np.array(tail_contribution(result, s_star).per_risk)
        except CmrsError as exc:  # a refusal must repeat too
            row["tail_contribution"] = f"{type(exc).__name__}: {exc}"
        return row

    documents = []  # what load_config hands to parse_config
    parse_config = config.parse_config

    def recorded_parse(data):
        documents.append(data)
        return parse_config(data)

    config.parse_config = recorded_parse

    def loaded(path):
        """The load_config leg of the file at ``path``: its document and
        each field of its RunConfig and of the specs in it."""
        documents.clear()
        cfg = load_config(path)
        seen = {}
        row = {"document": _record(documents[0], seen)}
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                for g in dataclasses.fields(value):
                    row[f"{f.name}.{g.name}"] = _record(getattr(value, g.name), seen)
            else:
                row[f.name] = _record(value, seen)
        return row

    legs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            for seed in sorted(set(seeds)):
                wl = make_workload(name, seed)
                path = os.path.join(tmp, f"{name}-{seed}.yaml")
                _, _, requests = Bench(wl, path).setup()
                legs[f"{name}/seed{seed}/load_config"] = loaded(path)
                for leg, request in zip(wl.legs, requests):
                    legs[f"{name}/seed{seed}/{leg.label}"] = output(request)
                if wl.config["model"]["family"] == "common_shock_cp":
                    attach_reference(wl, requests[0].s_grid)
                    legs[f"{name}/seed{seed}/reference"] = {"h_ref": wl.h_ref, "ref_meta": wl.ref_meta}
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.yaml"))):
        key = f"configs/{os.path.basename(path)}"
        legs[key + "/load_config"] = loaded(path)
        cfg = load_config(path)
        request = _build_request(cfg)
        legs[key] = output(request)
        if cfg.verify.method == "series":
            oracle = cscp_series_oracle(cfg.model, cfg.verify.mass_tol)
            grid = [float(s) for s in request.s_grid]
            legs[key + "/series"] = {
                "f_S": np.array([oracle.f_S(s) for s in grid]),
                "xi": np.array([[oracle.xi(i, s) for i in range(oracle.n)] for s in grid]),
            }
    for family, n, points in POOLS:
        model, grid = pool(family, n, points)
        legs[f"pools/{family}/n{n}"] = output(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
    with open(out, "wb") as fh:
        pickle.dump(legs, fh)


def _run_tree(root: str, spec: str, out: str) -> dict[str, dict]:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", root, "--seeds", spec, "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"bit_equal: the run in {root} failed (exit {proc.returncode})", file=sys.stderr)
        raise SystemExit(2)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def _signs_match(p: np.ndarray, c: np.ndarray) -> bool:
    """Whether the sign bits agree on the entries that are NaN in neither."""
    numbers = ~(np.isnan(p) | np.isnan(c))
    return np.array_equal(np.signbit(p[numbers]), np.signbit(c[numbers]))


def _equal(p: np.ndarray, c: np.ndarray) -> bool:
    """Equal arrays, NaN equal to NaN, with -0.0 and 0.0 told apart."""
    return np.array_equal(p, c, equal_nan=True) and _signs_match(p, c)


def _gap(name: str, p: np.ndarray, c: np.ndarray) -> str:
    """The name of a differing array, with its largest |c - p| over the
    entries finite in both and whether the NaN positions and the sign bits
    match."""
    if p.shape != c.shape:
        return f"{name} (shape {p.shape} against {c.shape})"
    both = np.isfinite(p) & np.isfinite(c)
    gap = np.abs(c[both] - p[both]).max(initial=0.0)
    nans = "match" if np.array_equal(np.isnan(p), np.isnan(c)) else "differ"
    signs = "match" if _signs_match(p, c) else "differ"
    return f"{name} (max |d| {gap:.3g}, NaN positions {nans}, sign bits {signs})"


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line per leg that differs or exists in one tree only."""
    out = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            out.append(f"{key}: only in the {'change' if key in change else 'parent'}")
            continue
        p, c = parent[key], change[key]
        fields = []
        for f in sorted(p.keys() | c.keys()):
            if f not in p or f not in c:
                fields.append(f"{f} (in one tree only)")
            elif type(p[f]) is not type(c[f]):
                fields.append(f"{f} ({type(p[f]).__name__} against {type(c[f]).__name__})")
            elif isinstance(p[f], np.ndarray):
                if not _equal(p[f], c[f]):
                    fields.append(_gap(f, p[f], c[f]))
            elif p[f] != c[f]:
                fields.append(f)
        if fields:
            out.append(f"{key}: {', '.join(fields)} differ")
    return out


def unrepeated(tree: dict[str, dict], side: str) -> list[str]:
    """One line per leg whose CSV bytes changed on a repeated write."""
    return [
        f"{key}: the {side}'s CSV bytes change on a repeated write"
        for key, row in sorted(tree.items())
        if any(h != row["csv"] for h in row.get("csv_repeats", ()))
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", nargs="?")
    ap.add_argument("change_root", nargs="?")
    ap.add_argument("--seeds", default="0-4", help="e.g. 0-4 or 0,3,5")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker, _seeds(args.seeds), args.out)
        return 0
    if not (args.parent_root and args.change_root):
        ap.error("need PARENT_ROOT and CHANGE_ROOT")
    with tempfile.TemporaryDirectory() as tmp:
        parent = _run_tree(os.path.abspath(args.parent_root), args.seeds, f"{tmp}/parent")
        change = _run_tree(os.path.abspath(args.change_root), args.seeds, f"{tmp}/change")
    diffs = differences(parent, change) + unrepeated(parent, "parent") + unrepeated(change, "change")
    print(f"{len(parent.keys() | change.keys())} legs compared")
    print("bit-equal: PASS" if not diffs else "bit-equal: FAIL\n  " + "\n  ".join(diffs))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
