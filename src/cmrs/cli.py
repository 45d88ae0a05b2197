"""Command line front end.

Verbs: ``allocate`` runs the inversion over the configured grid and writes a
CSV; ``diagnose`` checks transform consistency and scans for breakdown;
``verify`` compares shares against an independent reference (closed form,
series expansion, or Monte Carlo); ``bench`` times portfolio-size sweeps;
``weights`` prints the Gaver-Stehfest weight table.

Exit codes: 0 clean, 1 usage or evaluation error, 2 finished but with
degraded/failed points (or a failed verification).
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .allocation import (
    STATUS_ATOM,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    AllocationRequest,
    AllocationResult,
    allocate,
    breakdown_scan,
)
from .config import RunConfig, build_model_from_config, load_config
from .errors import CmrsError, ConfigError
from .inversion import EulerScheme, GsScheme, gs_weights_exact
from .models import CommonShockCPSpec, MatrixExpSpec, MixedExpFrailtySpec
from .oracles import (
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_equal_rates_oracle,
    me_example_oracle,
    mixed_exp_oracle,
)
from .transforms import diagonal_diagnostic


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


@dataclass(frozen=True)
class CsvRow:
    s: float
    f_S: float
    xi: tuple[float, ...]
    h: tuple[float, ...]
    pi: tuple[float, ...]
    sum_h: float
    balance_residual: float
    status: str

    def fields(self) -> list[str]:
        return (
            [_fmt(self.s), _fmt(self.f_S)]
            + [_fmt(v) for v in self.xi]
            + [_fmt(v) for v in self.h]
            + [_fmt(v) for v in self.pi]
            + [_fmt(self.sum_h), _fmt(self.balance_residual), self.status]
        )


def result_rows(result: AllocationResult) -> list[CsvRow]:
    """Atom rows first (mass in the density column, allocation masses in the
    xi columns), then one row per gridpoint."""
    n = result.n
    rows: list[CsvRow] = []
    for e in result.atoms.entries:
        share = tuple(v / e.mass for v in e.allocation)
        pi = tuple((v / e.location if e.location > 0.0 else 0.0) for v in share)
        rows.append(
            CsvRow(
                s=e.location,
                f_S=e.mass,
                xi=e.allocation,
                h=share,
                pi=pi,
                sum_h=math.fsum(share),
                balance_residual=0.0,
                status=STATUS_ATOM,
            )
        )
    for k, s in enumerate(result.s_grid):
        h = tuple(result.h[k])
        rows.append(
            CsvRow(
                s=float(s),
                f_S=float(result.density[k]),
                xi=tuple(result.xi[k]),
                h=h,
                pi=tuple(v / s for v in h),
                sum_h=float(result.sum_h[k]),
                balance_residual=float(result.balance_residual[k]),
                status=result.status[k],
            )
        )
    return rows


def write_csv(result: AllocationResult, fh: TextIO) -> int:
    n = result.n
    header = (
        ["s", "f_S"]
        + [f"xi_{i}" for i in range(1, n + 1)]
        + [f"h_{i}" for i in range(1, n + 1)]
        + [f"pi_{i}" for i in range(1, n + 1)]
        + ["sum_h", "balance_residual", "status"]
    )
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    rows = result_rows(result)
    for row in rows:
        writer.writerow(row.fields())
    return len(rows)


def _build_request(cfg: RunConfig) -> AllocationRequest:
    model, _ = build_model_from_config(cfg.model)
    return AllocationRequest(
        model=model,
        s_grid=cfg.grid.build(),
        scheme=cfg.scheme.build(),
        balance_tol=cfg.tolerance.balance,
        density_floor=cfg.tolerance.density_floor,
    )


def _status_exit(result: AllocationResult) -> int:
    return 0 if result.worst_status == STATUS_OK else 2


def cmd_allocate(cfg: RunConfig, out: Optional[str]) -> int:
    result = allocate(_build_request(cfg))
    path = out or cfg.output.path
    if path:
        with open(path, "w") as fh:
            nrows = write_csv(result, fh)
        dest = sys.stdout
    else:
        nrows = write_csv(result, sys.stdout)
        dest = sys.stderr
    counts = {st: result.status.count(st) for st in (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED)}
    print(
        f"{'wrote ' + path + ': ' if path else ''}{nrows} rows "
        f"({counts[STATUS_OK]} ok, {counts[STATUS_DEGRADED]} degraded, "
        f"{counts[STATUS_FAILED]} failed, {len(result.atoms)} atoms), "
        f"scheme {result.scheme.describe()}, {result.elapsed:.2f}s",
        file=dest,
    )
    return _status_exit(result)


def cmd_diagnose(cfg: RunConfig, sweep: Optional[str], diag_tol: float) -> int:
    model, _ = build_model_from_config(cfg.model)
    t_grid = np.logspace(-2, 2, 25)
    report = diagonal_diagnostic(model, t_grid, tol=diag_tol)
    print(
        f"transform diagonal: max residual {report.max_residual:.3e} over "
        f"t in [{t_grid[0]:g}, {t_grid[-1]:g}] "
        f"({'pass' if report.all_passed else 'FAIL'} at {diag_tol:g})"
    )
    result = allocate(_build_request(cfg))
    scan = breakdown_scan(result)
    if scan.clean:
        print(
            f"grid run clean: {scan.n_ok} points ok at balance tol "
            f"{result.request.balance_tol:g}"
        )
    else:
        print(
            f"first violation at s = {scan.breakdown_s:g} "
            f"({scan.n_ok} ok, {scan.n_degraded} degraded, {scan.n_failed} failed)"
        )
    code = 0 if (report.all_passed and scan.clean) else 2
    if sweep:
        base = cfg.scheme.build()
        if isinstance(base, GsScheme):
            raise ConfigError("tilt sweep needs the euler scheme")
        for tilt in (float(tok) for tok in sweep.split(",")):
            sch = replace(base, theta=tilt)
            req = AllocationRequest(
                model=model,
                s_grid=cfg.grid.build(),
                scheme=sch,
                balance_tol=cfg.tolerance.balance,
                density_floor=cfg.tolerance.density_floor,
            )
            sc = breakdown_scan(allocate(req))
            where = "clean" if sc.clean else f"breaks at s = {sc.breakdown_s:g}"
            print(f"  theta = {tilt:g}: {where} ({sc.n_ok} ok / {len(sc.status)})")
    return code


def _closed_form_reference(spec):
    if isinstance(spec, MixedExpFrailtySpec):
        return mixed_exp_oracle(spec)
    if (
        isinstance(spec, tuple)
        and len(spec) == 2
        and all(isinstance(s, MatrixExpSpec) for s in spec)
    ):
        first, second = spec
        # the two-risk Erlang(2)+Exp portfolio has a closed conditional mean
        lam = -first.T[0, 0]
        mu = -second.T[0, 0]
        if first.dim == 2 and second.dim == 1:
            if abs(lam - mu) <= 1e-8 * max(lam, mu):
                return me_example_equal_rates_oracle(lam)
            return me_example_oracle(lam, mu)
    raise ConfigError(
        "closed_form verification is only available for mixed_exp_frailty and "
        "the two-risk Erlang(2)+Exp matrix_exp portfolio"
    )


def run_verify(cfg: RunConfig, seed: Optional[int] = None) -> tuple[bool, list[str]]:
    """Compare inverted shares against the configured reference.  Returns
    (all passed, report lines)."""
    vf = cfg.verify
    if vf.method == "none":
        raise ConfigError("verify block has method: none; nothing to check")
    model, spec = build_model_from_config(cfg.model)
    result = allocate(_build_request(cfg))
    n = model.n
    tol = vf.tolerance
    lines: list[str] = []
    ok_points = [k for k, st in enumerate(result.status) if st == STATUS_OK]
    if not ok_points:
        return False, ["no gridpoints with ok status; nothing comparable"]

    if vf.method in ("closed_form", "series"):
        if vf.method == "series":
            if not isinstance(spec, CommonShockCPSpec):
                raise ConfigError("series verification needs a common_shock_cp model")
            oracle = cscp_series_oracle(spec, vf.mass_tol)
        else:
            oracle = _closed_form_reference(spec)
        lo, hi = oracle.valid_range
        # truncated series: the share error scales like tail_mass / f_S, so
        # only points where the reference density clears s * tail / tol are
        # trustworthy at the requested tolerance
        tail = getattr(oracle, "truncation", None)
        tail_mass = tail.tail_mass if tail is not None else 0.0
        worst_h = worst_f = 0.0
        used = skipped = 0
        for k in ok_points:
            s = float(result.s_grid[k])
            if not (lo < s < hi):
                continue
            f_ref = oracle.f_S(s)
            if tail_mass > 0.0 and f_ref < s * tail_mass / tol:
                skipped += 1
                continue
            used += 1
            worst_f = max(worst_f, abs(result.density[k] - f_ref))
            for i in range(n):
                worst_h = max(worst_h, abs(result.h[k, i] - oracle.h(i, s)))
        passed = used > 0 and worst_h <= tol and worst_f <= tol
        note = f" ({skipped} beyond the truncation trust region)" if skipped else ""
        lines.append(
            f"{vf.method} reference over {used} points{note}: "
            f"max |h - ref| = {worst_h:.3e}, max |f_S - ref| = {worst_f:.3e}, "
            f"tol {tol:g}: {'pass' if passed else 'FAIL'}"
        )
        return passed, lines

    # Monte Carlo
    sampler = make_sampler(spec)
    seed0 = vf.seed if seed is None else seed
    if vf.points is not None:
        targets = vf.points
    else:
        picks = np.linspace(0, len(ok_points) - 1, min(5, len(ok_points))).astype(int)
        targets = tuple(float(result.s_grid[ok_points[p]]) for p in picks)
    passed = True
    sub = 0
    for s in targets:
        k = min(ok_points, key=lambda j: abs(result.s_grid[j] - s))
        s_k = float(result.s_grid[k])
        for i in range(n):
            sub += 1
            est = mc_conditional_mean(
                sampler, i, s_k,
                bandwidth=vf.bandwidth, n_samples=vf.n_samples,
                seed=seed0, substream=sub,
            )
            gap = abs(result.h[k, i] - est.value)
            bound = max(tol, 3.0 * est.std_error)
            point_ok = gap <= bound
            passed = passed and point_ok
            lines.append(
                f"mc s={s_k:g} risk {i + 1}: |h - est| = {gap:.3e} "
                f"(3se = {3.0 * est.std_error:.3e}): {'pass' if point_ok else 'FAIL'}"
            )
    return passed, lines


def cmd_verify(cfg: RunConfig, seed: Optional[int]) -> int:
    passed, lines = run_verify(cfg, seed)
    for line in lines:
        print(line)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# benchmarks

_BENCH_GRID = tuple(float(v) for v in np.linspace(0.1, 15.0, 100))
_BENCH_SAMPLE_S = 2.0


def _scaled_cscp(base: CommonShockCPSpec, n: int) -> CommonShockCPSpec:
    k = len(base.lambdas)
    # the claim rates are rescaled so the portfolio total stays at the base
    # level: per-point cost is O(n) either way, but letting the total rate
    # grow with n pushes the origin atom and the unit-mass probe out of the
    # representable range near n ~ 1e3
    cycled = [base.lambdas[j % k] for j in range(n)]
    scale = math.fsum(base.lambdas) / math.fsum(cycled)
    lams = tuple(v * scale for v in cycled)
    bets = tuple(base.betas[j % k] for j in range(n))
    w = [1.0 / n] * n
    w[-1] = 1.0 - math.fsum(w[:-1])
    return CommonShockCPSpec(base.lambda0, lams, base.beta0, bets, tuple(w))


@dataclass(frozen=True)
class BenchRow:
    n: int
    seconds_untilted: float
    seconds_tilted: float

    @property
    def tilt_overhead(self) -> float:
        """Extra time tilting adds, as a fraction of the untilted time (negative if faster)."""
        return (self.seconds_tilted - self.seconds_untilted) / self.seconds_untilted


def run_bench(cfg: RunConfig) -> list[BenchRow]:
    """Portfolio-size timing sweep on a fixed 100-point grid.

    The configured model must be common_shock_cp; it is replicated out to
    each requested size with equal split weights and the portfolio total
    claim rate held fixed.  Tilted and untilted share the same contour
    scheme.  Each cell is the median call of its leg.  One untimed call
    warms up and sets the number of timed calls, timeit-style: ``reps`` times
    as many as fill ``_BENCH_SAMPLE_S`` per leg, and at least two, so no cell
    rests on a single call per rep.  The host's speed varies
    from call to call and in spells of seconds, so the two legs are
    interleaved call by call, the leading leg alternating from one pair of
    calls to the next, and neither leg can take all the calm or slow calls.
    """
    if cfg.bench is None:
        raise ConfigError("config has no bench block")
    _, spec = build_model_from_config(cfg.model)
    if not isinstance(spec, CommonShockCPSpec):
        raise ConfigError("bench needs a common_shock_cp model block")
    from .models import build_common_shock_cp

    rows = []
    for size in cfg.bench.n_sweep:
        model = build_common_shock_cp(_scaled_cscp(spec, size))
        reqs = {
            theta: AllocationRequest(
                model=model,
                s_grid=_BENCH_GRID,
                scheme=EulerScheme(theta=theta),
                balance_tol=cfg.tolerance.balance,
                density_floor=cfg.tolerance.density_floor,
            )
            for theta in (0.0, cfg.bench.tilt)
        }
        t0 = time.perf_counter()
        allocate(reqs[0.0])
        per_rep = max(2, math.ceil(_BENCH_SAMPLE_S / (time.perf_counter() - t0)))
        legs = list(reqs)
        calls = {theta: [] for theta in legs}
        for _ in range(cfg.bench.reps * per_rep):
            for theta in legs:
                t0 = time.perf_counter()
                allocate(reqs[theta])
                calls[theta].append(time.perf_counter() - t0)
            legs.reverse()
        rows.append(
            BenchRow(
                n=size,
                seconds_untilted=statistics.median(calls[0.0]),
                seconds_tilted=statistics.median(calls[cfg.bench.tilt]),
            )
        )
    return rows


def cmd_bench(cfg: RunConfig) -> int:
    rows = run_bench(cfg)
    print(f"{'n':>8} {'untilted_s':>12} {'tilted_s':>12} {'overhead':>9}")
    for row in rows:
        print(
            f"{row.n:>8} {row.seconds_untilted:>12.4f} {row.seconds_tilted:>12.4f} "
            f"{row.tilt_overhead:>8.1%}"
        )
    return 0


def cmd_weights(order: int) -> int:
    exact = gs_weights_exact(order)
    print(f"gaver-stehfest weights, order M = {order} ({2 * order} nodes)")
    for k, w in enumerate(exact, start=1):
        print(f"{k:>3} {_fmt(float(w)):>24} = {w.numerator}/{w.denominator}")
    total = sum(exact)
    harmonic = sum(w / k for k, w in enumerate(exact, start=1))
    print(f"sum zeta_k = {total} (exact), sum zeta_k / k = {harmonic} (exact)")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise ConfigError(message)


def _add_config(sub):
    sub.add_argument("--config", required=True, help="YAML run configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmrs", description="conditional mean risk sharing via Laplace inversion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="invert shares over the configured grid, write CSV")
    _add_config(p)
    p.add_argument("--out", help="CSV destination (default: output.path from config, else stdout)")

    p = sub.add_parser("diagnose", help="transform diagonal check and breakdown scan")
    _add_config(p)
    p.add_argument("--sweep", help="comma-separated tilt values to scan, e.g. 0,0.2,0.5")
    p.add_argument("--tol", type=float, default=1e-5, help="diagonal residual tolerance")

    p = sub.add_parser("verify", help="compare against the configured reference")
    _add_config(p)
    p.add_argument("--seed", type=int, help="override verify.seed for Monte Carlo")

    p = sub.add_parser("bench", help="portfolio-size timing sweep")
    _add_config(p)

    p = sub.add_parser("weights", help="print the Gaver-Stehfest weight table")
    p.add_argument("--order", type=int, default=8, help="rule order M")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "weights":
            return cmd_weights(args.order)
        cfg = load_config(args.config)
        if args.command == "allocate":
            return cmd_allocate(cfg, args.out)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, args.sweep, args.tol)
        if args.command == "verify":
            return cmd_verify(cfg, args.seed)
        if args.command == "bench":
            return cmd_bench(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except CmrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
