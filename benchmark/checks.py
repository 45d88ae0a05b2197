"""Output checks and accuracy metrics of one benchmark run.

A run is every leg of a workload.  ``evaluate`` turns the legs' results into
the accuracy metrics and a list of failed checks; an empty list means the
output is correct.  The checks:

* every ``ok`` point meets the budget identity within ``tolerance.balance``;
* on ``ok`` points of the Euler legs, |h - reference| <= the workload's
  reference tolerance, over at least one point of the reference's trust
  region (the Gaver-Stehfest leg's error is reported, not gated: it is the
  M = 8 rule's own truncation error);
* shares of exchangeable risks agree on every ``ok`` point;
* with Gaver-Stehfest, untilted and tilted legs, each leg fades and the fade
  points are ordered gs < euler < tilted (acceptance criterion C5).
"""

from __future__ import annotations

import math

import numpy as np

from workloads import EXCHANGE_TOL, Workload

# Reference errors below this share of the workload's reference tolerance
# are roundoff at single gridpoints and change by multiples from seed to seed,
# so the metric reads them as that resolution.
REF_RESOLUTION = 1e-3

# Fade points of legs a workload does not run read as the grid's end (nothing
# fades on it), and the Gaver-Stehfest error of a workload without that leg
# reads as this constant: both stay fixed, so they can never flag a change.
NO_GS_LEG_ERROR = 1.0


def _ok_mask(result) -> np.ndarray:
    return np.array([st == "ok" for st in result.status])


def evaluate(wl: Workload, legs: list, balance_tol: float) -> tuple[dict, list[str]]:
    """``legs`` is a list of (Leg, AllocationResult, BreakdownReport)."""
    failures: list[str] = []
    total = ok_total = 0
    max_resid = 0.0
    ref_err = {"gs": [], "euler": []}
    fades: dict[str, float] = {}
    for leg, result, scan in legs:
        ok = _ok_mask(result)
        total += ok.size
        ok_total += int(ok.sum())
        grid_end = float(result.s_grid[-1])
        fades[leg.label] = grid_end if scan.breakdown_s is None else float(scan.breakdown_s)

        resid = result.balance_residual[ok]
        if resid.size:
            max_resid = max(max_resid, float(resid.max()))
            if not (resid <= balance_tol).all():
                failures.append(f"{leg.label}: ok point with budget residual > {balance_tol:g}")

        err = np.abs(result.h - wl.h_ref)[ok]
        err = err[np.isfinite(err)]
        kind = "gs" if leg.rule == "gaver-stehfest" else "euler"
        if err.size:
            ref_err[kind].append(float(err.max()))
        elif kind == "euler":
            failures.append(f"{leg.label}: no ok point inside the reference's trust region")

        for group in wl.groups:
            if len(group) > 1:
                shares = result.h[np.ix_(ok, group)]
                spread = float((shares.max(axis=1) - shares.min(axis=1)).max(initial=0.0))
                if not spread <= EXCHANGE_TOL:
                    failures.append(
                        f"{leg.label}: exchangeable risks {group[:3]}... differ by {spread:.3e}"
                    )

    max_ref_err = max(ref_err["euler"], default=math.inf)
    if not max_ref_err <= wl.ref_tol:
        failures.append(f"max |h - reference| = {max_ref_err:.3e} exceeds {wl.ref_tol:g}")
    resolution = REF_RESOLUTION * wl.ref_tol

    labels = [leg.label for leg, _, _ in legs]
    if {"gs", "euler", "tilted"} <= set(labels):
        clean = [leg.label for leg, _, scan in legs if scan.clean]
        if clean:
            failures.append(f"legs {clean} never fade on the grid")
        if not fades["gs"] < fades["euler"] < fades["tilted"]:
            failures.append(
                "fade points out of order: gs {gs}, euler {euler}, tilted {tilted}".format(**fades)
            )

    grid_end = float(legs[0][1].s_grid[-1])
    metrics = {
        "ok_fraction": ok_total / total,
        "max_balance_residual": max_resid,
        "max_ref_err": max(max_ref_err, resolution),
        "max_ref_err_gs": max(ref_err["gs"], default=NO_GS_LEG_ERROR),
        "fade_s_gs": fades.get("gs", grid_end),
        "fade_s_euler": fades.get("euler", grid_end),
        "fade_s_tilted": fades.get("tilted", grid_end),
    }
    counts = {
        st: sum(r.status.count(st) for _, r, _ in legs) for st in ("ok", "degraded", "failed")
    }
    return {"metrics": metrics, "status_counts": counts}, failures


def same_output(a: list, b: list) -> bool:
    """Bit-identical results leg by leg (densities, allocations, statuses)."""
    if len(a) != len(b):
        return False
    for (_, ra, _), (_, rb, _) in zip(a, b):
        if ra.status != rb.status:
            return False
        for x, y in ((ra.density, rb.density), (ra.raw_xi, rb.raw_xi), (ra.h, rb.h)):
            if not np.array_equal(x, y, equal_nan=True):
                return False
    return True
