"""Measure one workload: set-up, a closed loop of runs, the diagonal check.

One client, one thread, closed loop: each run starts when the previous one
has returned.  A run is ``allocate()`` on every leg of the workload plus
``write_csv`` of each result into an in-memory buffer, timed leg by leg;
``breakdown_scan`` and the output checks follow it, untimed.

Every timed part (a set-up, a leg of a run, a diagonal check) sits between
two runs of a fixed probe, and its time is reported at reference speed
(``Stopwatch``): on a shared host the CPU slows down with its neighbours'
load for seconds to minutes, and the probe slows down with it.  Set-up,
run and diagnose times are medians over the measurement of these scaled
times, leg by leg (``_median_run``); raw wall-time medians go to the info
line, and the per-layer times of a traced run stay raw.

The untraced path calls only ``load_config``, ``build_model_from_config``,
``AllocationRequest``, ``allocate``, ``breakdown_scan``, ``write_csv`` and
``diagonal_diagnostic``.

Every run after the warm-up must reproduce the warm-up's output bit for bit;
the warm-up's output is checked against the reference (``checks``).  A run
that differs or fails a check counts as a failed operation.

With tracing on, untraced and traced runs alternate.  The traced ones give
the per-layer split (``tracing``) and must repeat each other's counts and
accuracy metrics exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time
from dataclasses import replace

import numpy as np
from cmrs import AllocationRequest, allocate, breakdown_scan, build_model_from_config, load_config
from cmrs.cli import write_csv
from cmrs.transforms import diagonal_diagnostic

from checks import evaluate, same_output
from tracing import Tracer, patched, traced_model
from workloads import Workload, attach_reference

E2E_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "points_per_s": "points/s",
    "diagnose_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "ratio",
    "max_balance_residual": "ratio",
    "max_ref_err": "abs",
    "max_ref_err_gs": "abs",
    "fade_s_gs": "level",
    "fade_s_euler": "level",
    "fade_s_tilted": "level",
}

LAYER_UNITS = {
    "config.load_s": "s",
    "config.build_model_s": "s",
    "models.complex_solve_s": "s",
    "models.complex_solve_calls": "count",
    "models.aggregate_s": "s",
    "models.aggregate_calls": "count",
    "models.batch_s": "s",
    "models.batch_calls": "count",
    "transforms.diagonal_s": "s",
    "transforms.scalar_allocation_calls": "count",
    "inversion.scheme_nodes_s": "s",
    "inversion.scheme_nodes_calls": "count",
    "inversion.contour_refusals": "count",
    "inversion.invert_values_s": "s",
    "inversion.invert_values_calls": "count",
    "inversion.cells": "count",
    "allocation.allocate_s": "s",
    "allocation.allocate_self_s": "s",
    "allocation.values_at_self_s": "s",
    "allocation.nodes": "count",
    "allocation.breakdown_scan_s": "s",
    "allocation.points_ok": "count",
    "allocation.points_degraded": "count",
    "allocation.points_failed": "count",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

SETUP_REPS = 9
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
MIN_DIAG = 5
MAX_DIAG = 200  # enough for the median of millisecond checks to settle
DIAG_SHARE = 0.2  # diagonal-check time per unit of run time
DIAG_T = np.logspace(-2, 2, 25)
DIAG_TOL = 1e-5


def _plain(_name, fn, *args):
    return fn(*args)


# A fixed mix of the program's kinds of work: a Python float loop, complex
# scalar arithmetic, and small numpy array and linear-algebra calls.
_PROBE_M = np.eye(6) * 3.0 + np.ones((6, 6))
_PROBE_B = np.ones(6)
# The probe's time on an uncontended core of the reference host (2-vCPU KVM
# guest, Intel Xeon, Python 3.11, numpy 2.4): about 0.5 ms.
PROBE_REF_S = 5.0e-4


def _probe() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 2000):
        acc += math.sqrt(i) * 1.0001
    z = complex(0.3, 0.7)
    for _ in range(200):
        z = z * z * 0.5 + 0.1j
    a = np.arange(32.0) + 0.5j
    for k in range(30):
        a = np.exp(-a * 0.01) + a
        np.linalg.solve(_PROBE_M + k * 1j, _PROBE_B)
    return time.perf_counter() - t0


class Stopwatch:
    """Times a part between two probes.  ``stop`` returns the part's time
    at reference speed, raw seconds x PROBE_REF_S / (mean probe time), and
    keeps the raw seconds in ``raw``.

    On a shared 2-vCPU KVM guest neighbours slowed the CPU by 1.2-1.8x for
    seconds to minutes at a time.  Across processes, median raw run times
    spread 6-21% (range over median, 4-5 processes per workload) and the
    fastest ones 21-32%; the medians of the scaled times spread 4-5%."""

    def start(self) -> None:
        self._before = _probe()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        self.raw = time.perf_counter() - self._t0
        return self.raw * PROBE_REF_S * 2.0 / (self._before + _probe())


class Bench:
    """State of one workload's measurement in this process."""

    def __init__(self, wl: Workload, yaml_path: str) -> None:
        self.wl = wl
        self.yaml_path = yaml_path
        self.watch = Stopwatch()
        with open(yaml_path, "w") as fh:
            fh.write(wl.yaml_text())

    def setup(self, tracer: Tracer | None = None):
        """What ``cmrs allocate`` pays before the first gridpoint: load the
        YAML, build the model and one request per leg."""
        call = tracer.call if tracer else _plain
        cfg = call("config.load", load_config, self.yaml_path)
        model, _ = call("config.build_model", build_model_from_config, cfg.model)
        grid = cfg.grid.build()
        requests = [
            AllocationRequest(
                model=model,
                s_grid=grid,
                scheme=replace(
                    cfg.scheme,
                    rule=leg.rule,
                    theta=cfg.scheme.theta if leg.theta is None else leg.theta,
                ).build(),
                balance_tol=cfg.tolerance.balance,
                density_floor=cfg.tolerance.density_floor,
            )
            for leg in self.wl.legs
        ]
        return cfg, model, requests

    def run(self, requests, tracer: Tracer | None = None):
        """Each leg's ``allocate()`` plus its CSV output, timed leg by leg;
        then the breakdown scans.  Returns ([scaled seconds per leg],
        [raw seconds per leg], [(leg, result, scan)], csv bytes)."""
        call = tracer.call if tracer else _plain
        if tracer is not None:
            model = traced_model(tracer, requests[0].model)
            requests = [replace(r, model=model) for r in requests]
        times, raw, results, nbytes = [], [], [], 0
        with patched(tracer) if tracer else contextlib.nullcontext():
            for req in requests:
                buf = io.StringIO()
                self.watch.start()
                res = call("allocation.allocate", allocate, req)
                call("cli.write_csv", write_csv, res, buf)
                times.append(self.watch.stop())
                raw.append(self.watch.raw)
                results.append(res)
                nbytes += len(buf.getvalue())
            scans = [call("allocation.breakdown_scan", breakdown_scan, r) for r in results]
        return times, raw, list(zip(self.wl.legs, results, scans)), nbytes

    def diagnose(self, model, tracer: Tracer | None = None):
        """The first step of ``cmrs diagnose``.  Returns (scaled seconds,
        raw seconds, report)."""
        if tracer is not None:
            model = traced_model(tracer, model)
        call = tracer.call if tracer else _plain
        with patched(tracer) if tracer else contextlib.nullcontext():
            self.watch.start()
            report = call("transforms.diagonal", diagonal_diagnostic, model, DIAG_T, DIAG_TOL)
            return self.watch.stop(), self.watch.raw, report


def _median_run(part_times: list[list[float]]) -> float:
    """Time of one repetition: the sum over its parts (legs of a run) of
    each part's median time."""
    return sum(statistics.median(col) for col in zip(*part_times))


def _layer_metrics(summary: dict, cells: int, counts: dict, nbytes: int) -> dict:
    def get(name, key):
        row = summary.get(name)
        return row[key] if row else 0

    refusals = summary.get("inversion.scheme_nodes", {}).get("errors", {}).get("InversionError", 0)
    return {
        "models.complex_solve_s": get("models.complex_solve", "self_s"),
        "models.complex_solve_calls": get("models.complex_solve", "calls"),
        "models.aggregate_s": get("models.aggregate", "self_s"),
        "models.aggregate_calls": get("models.aggregate", "calls"),
        "models.batch_s": get("models.batch", "self_s"),
        "models.batch_calls": get("models.batch", "calls"),
        "inversion.scheme_nodes_s": get("inversion.scheme_nodes", "self_s"),
        "inversion.scheme_nodes_calls": get("inversion.scheme_nodes", "calls"),
        "inversion.contour_refusals": refusals,
        "inversion.invert_values_s": get("inversion.invert_values", "self_s"),
        "inversion.invert_values_calls": get("inversion.invert_values", "calls"),
        "inversion.cells": cells,
        "allocation.allocate_s": get("allocation.allocate", "total_s"),
        "allocation.allocate_self_s": get("allocation.allocate", "self_s"),
        "allocation.values_at_self_s": get("allocation.values_at", "self_s"),
        "allocation.nodes": get("allocation.values_at", "calls"),
        "allocation.breakdown_scan_s": get("allocation.breakdown_scan", "total_s"),
        "allocation.points_ok": counts["ok"],
        "allocation.points_degraded": counts["degraded"],
        "allocation.points_failed": counts["failed"],
        "cli.write_csv_s": get("cli.write_csv", "total_s"),
        "cli.csv_bytes": nbytes,
    }


def measure(wl: Workload, seconds: float, trace: bool, out_dir: str) -> dict:
    """Measure ``wl`` for about ``seconds`` seconds.  Returns the result
    object (correct, attempted, failed, metrics) plus an ``info`` block.

    Set-ups, runs and diagonal checks are interleaved in one loop, so all
    three see the same stretches of machine speed."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{wl.seed}")
    return _measure(Bench(wl, stem + ".yaml"), seconds, trace, stem)


def _measure(bench: Bench, seconds: float, trace: bool, stem: str) -> dict:
    wl = bench.wl
    tracer = Tracer() if trace else None
    failures: list[str] = []
    attempted = failed = 0

    cfg, model, requests = bench.setup()
    attach_reference(wl, requests[0].s_grid)
    balance_tol = cfg.tolerance.balance

    # warm-up: its output is the one checked against the reference
    _, _, baseline, base_bytes = bench.run(requests)
    attempted += 1
    accuracy, errs = evaluate(wl, baseline, balance_tol)
    if errs:
        failed += 1
        failures += errs

    def check_repeat(legs, what):
        nonlocal failed
        if not same_output(baseline, legs):
            failed += 1
            failures.append(f"{what}: output differs from the warm-up run")

    setup_times, setup_raw, load_s, build_s = [], [], [], []
    # per run: scaled and raw seconds per leg
    leg_times, leg_raw, traced_times, traced_rows = [], [], [], []
    diag_times, diag_raw, diag_reports, diag_calls = [], [], [], []
    min_runs = MIN_TRACED_RUNS if trace else MIN_RUNS

    def timed_setup():
        mark = tracer.mark() if tracer else 0
        bench.watch.start()
        bench.setup(tracer)
        setup_times.append(bench.watch.stop())
        setup_raw.append(bench.watch.raw)
        if tracer:
            summ = tracer.summary(mark)
            load_s.append(summ["config.load"]["self_s"])
            build_s.append(summ["config.build_model"]["self_s"])

    def timed_diagnose():
        nonlocal attempted
        mark = tracer.mark() if tracer else 0
        scaled, raw, report = bench.diagnose(model, tracer)
        attempted += 1
        diag_times.append(scaled)
        diag_raw.append(raw)
        diag_reports.append(report)
        if tracer:
            diag_calls.append(tracer.summary(mark).get("models.allocation", {}).get("calls", 0))

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(leg_times) < min_runs:
        timed_setup()
        times, raw, legs, _ = bench.run(requests)
        attempted += 1
        leg_times.append(times)
        leg_raw.append(raw)
        check_repeat(legs, "run")
        if trace:
            tracer.drop_before(tracer.mark())
            cells0 = tracer.cells
            times, _, legs, nbytes = bench.run(requests, tracer)
            attempted += 1
            traced_times.append(times)
            check_repeat(legs, "traced run")
            acc = evaluate(wl, legs, balance_tol)[0]
            counts = acc["status_counts"]
            row = _layer_metrics(tracer.summary(), tracer.cells - cells0, counts, nbytes)
            traced_rows.append((row, acc))

        while not diag_times or (
            sum(diag_times) < DIAG_SHARE * sum(map(sum, leg_times))
            and len(diag_times) < MAX_DIAG
        ):
            timed_diagnose()
    while len(setup_times) < SETUP_REPS:
        timed_setup()
    while len(diag_times) < MIN_DIAG:
        timed_diagnose()
    if not diag_reports[0].all_passed:
        failed += 1
        failures.append(
            f"transform diagonal fails: max residual {diag_reports[0].max_residual:.3e}"
            f" > {DIAG_TOL:g}"
        )
    if any(r != diag_reports[0] for r in diag_reports[1:]):
        failed += 1
        failures.append("diagonal check does not repeat")

    npoints = sum(len(r.s_grid) for r in requests)
    run_p50 = _median_run(leg_times)
    info = {
        "runs": len(leg_times),
        "run_raw_s_median": _median_run(leg_raw),
        "run_raw_s_min": sum(min(col) for col in zip(*leg_raw)),
        "diagnose_reps": len(diag_times),
        "diagnose_raw_s_median": statistics.median(diag_raw),
        "setup_reps": len(setup_times),
        "setup_raw_s_median": statistics.median(setup_raw),
        "points_per_run": npoints,
        "status_counts": accuracy["status_counts"],
        "reference": wl.ref_meta,
        "csv_bytes": base_bytes,
        "yaml": bench.yaml_path,
        "failures": failures,
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s_p50": run_p50,
            "points_per_s": npoints / run_p50,
            "diagnose_s_p50": statistics.median(diag_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **accuracy["metrics"],
        }
        units = E2E_UNITS
    else:
        first_row, first_acc = traced_rows[0]
        count_keys = [k for k in first_row if LAYER_UNITS[k] in ("count", "bytes")]
        for row, acc in traced_rows[1:]:
            if any(row[k] != first_row[k] for k in count_keys):
                failed += 1
                failures.append("traced runs disagree on counts")
            if acc["metrics"] != first_acc["metrics"]:
                failed += 1
                failures.append("traced runs disagree on accuracy metrics")
        if len(set(diag_calls)) > 1:
            failed += 1
            failures.append("traced diagonal checks disagree on call counts")
        # the split of the median traced run, so the layers add up to one run
        order = sorted(range(len(traced_times)), key=lambda k: sum(traced_times[k]))
        values = dict(traced_rows[order[len(order) // 2]][0])
        values["config.load_s"] = statistics.median(load_s)
        values["config.build_model_s"] = statistics.median(build_s)
        values["transforms.diagonal_s"] = statistics.median(diag_raw)
        values["transforms.scalar_allocation_calls"] = diag_calls[0]
        values["trace.overhead_frac"] = _median_run(traced_times) / run_p50 - 1.0
        units = LAYER_UNITS
        info["traced_runs"] = len(traced_times)
        info["absent_spans"] = sorted(tracer.absent)
        info["spans_written"] = tracer.write(
            stem + ".spans.gz", {"workload": wl.name, "seed": wl.seed}
        )
        info["spans_file"] = stem + ".spans.gz"
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    for k, u in units.items():
        if u in ("count", "bytes"):
            metrics[k]["value"] = int(values[k])
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
