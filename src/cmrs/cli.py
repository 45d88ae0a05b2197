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
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .allocation import (
    _BLOCK_BUDGET,
    STATUS_ATOM,
    STATUS_OK,
    AllocationRequest,
    AllocationResult,
    allocate,
    breakdown_scan,
)
from .config import RunConfig, build_model_from_config, load_config
from .errors import CmrsError, ConfigError
from .inversion import EulerScheme, GsScheme, gs_weights_exact
from .models import (
    CommonShockCPSpec,
    MatrixExpSpec,
    MixedExpFrailtySpec,
    build_common_shock_cp,
    erlang_me_spec,
    exponential_me_spec,
)
from .oracles import (
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_oracle,
    mixed_exp_oracle,
)
from .transforms import diagonal_diagnostic


def write_csv(result: AllocationResult, fh: TextIO) -> int:
    """The header, then the origin atom's row, if the model has one (P(S = 0)
    in the density column, zero allocation masses), then one row per
    gridpoint; every number as ``%.12g``.

    There is one xi and one h column per class of identical risks, labelled
    by the class's 1-based risks, ascending and joined by ``;`` (``xi_1;4;7``),
    so the model's ``risk_columns`` map is written once, in the header.  The
    columns follow each class's first risk: a pool of distinct risks gets
    ``xi_1, ..., xi_n, h_1, ..., h_n``.  Shares as fractions of s are
    ``proportions(result)``.

    The class order and labels are the model's ``class_labels``, derived
    once per model, so a call does only the work that depends on the result.
    The body is formatted in blocks of at most ``_BLOCK_BUDGET`` (2^14)
    values, each block one ``%`` over a template of its rows, each row's
    status written into it.  The floor is CPython's ``%.12g``, about 200 ns
    per value; the blocks bound the Python floats held at once."""
    first, labels = result.request.model.class_labels
    m = len(labels)
    fh.write(
        "s,f_S,xi_%s,h_%s,sum_h,balance_residual,status\n" % (",xi_".join(labels), ",h_".join(labels))
    )
    atoms = int(result.atom_mass > 0.0)
    if atoms:
        fh.write("0,%.12g,%s0,0,%s\n" % (result.atom_mass, "0," * (2 * m), STATUS_ATOM))
    table = np.column_stack(
        [
            result.s_grid,
            result.density,
            result.xi[:, first],
            result.h[:, first],
            result.sum_h,
            result.balance_residual,
        ]
    )
    # the statuses are the package's constants, so none holds a %
    nums = "%.12g," * table.shape[1]
    line = {status: nums + status + "\n" for status in set(result.status)}
    rows = max(1, _BLOCK_BUDGET // table.shape[1])
    for lo in range(0, len(table), rows):
        template = "".join([line[status] for status in result.status[lo : lo + rows]])
        fh.write(template % tuple(table[lo : lo + rows].ravel().tolist()))
    return atoms + len(result.status)


def _build_request(cfg: RunConfig) -> AllocationRequest:
    model, _ = build_model_from_config(cfg.model)
    return AllocationRequest(
        model=model,
        s_grid=cfg.grid.build(),
        scheme=cfg.scheme.build(),
        balance_tol=cfg.tolerance.balance,
        density_floor=cfg.tolerance.density_floor,
    )


def cmd_allocate(cfg: RunConfig, out: Optional[str]) -> int:
    request = _build_request(cfg)
    start = time.perf_counter()
    result = allocate(request)
    allocate_s = time.perf_counter() - start
    path = out or cfg.output.path
    start = time.perf_counter()
    if path:
        with open(path, "w") as fh:
            nrows = write_csv(result, fh)
        dest = sys.stdout
    else:
        nrows = write_csv(result, sys.stdout)
        dest = sys.stderr
    csv_s = time.perf_counter() - start
    scan = breakdown_scan(result)
    print(
        f"{'wrote ' + path + ': ' if path else ''}{nrows} rows "
        f"({scan.n_ok} ok, {scan.n_degraded} degraded, "
        f"{scan.n_failed} failed, {int(result.atom_mass > 0.0)} atoms), "
        f"scheme {result.scheme.describe()}, allocate {allocate_s:.3f}s, csv {csv_s:.3f}s",
        file=dest,
    )
    return 0 if scan.clean else 2


def cmd_diagnose(cfg: RunConfig, sweep: Sequence[float]) -> int:
    request = _build_request(cfg)
    # the sweep's requests are built first, so bad tilts are refused before any output
    if sweep and isinstance(request.scheme, GsScheme):
        raise ConfigError("tilt sweep needs the euler scheme")
    sweeps = [replace(request, scheme=replace(request.scheme, theta=tilt)) for tilt in sweep]
    t_grid = np.logspace(-2, 2, 25)
    report = diagonal_diagnostic(request.model, t_grid)
    print(
        f"transform diagonal: max residual {report.max_residual:.3e} over "
        f"t in [{t_grid[0]:g}, {t_grid[-1]:g}] "
        f"({'pass' if report.all_passed else 'FAIL'} at {report.tol:g})"
    )
    result = allocate(request)
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
    for req in sweeps:
        sc = breakdown_scan(allocate(req))
        where = "clean" if sc.clean else f"breaks at s = {sc.breakdown_s:g}"
        print(f"  theta = {req.scheme.theta:g}: {where} ({sc.n_ok} ok / {len(req.s_grid)})")
    return code


def _same_risk(a: MatrixExpSpec, b: MatrixExpSpec) -> bool:
    """Whether two matrix-exponential risks are equal entry for entry."""
    fields = ("alpha", "T", "u")
    return a.p0 == b.p0 and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in fields)


def _closed_form_reference(spec):
    if isinstance(spec, MixedExpFrailtySpec):
        return mixed_exp_oracle(spec)
    if (
        isinstance(spec, tuple)
        and len(spec) == 2
        and all(isinstance(s, MatrixExpSpec) for s in spec)
    ):
        first, second = spec
        # the two-risk Erlang(2)+Exp portfolio has a closed conditional mean;
        # it describes only risks equal to those two, entry for entry
        lam = -first.T[0, 0]
        mu = -second.T[0, 0]
        if (
            lam > 0.0
            and mu > 0.0
            and _same_risk(first, erlang_me_spec(2, lam))
            and _same_risk(second, exponential_me_spec(mu))
        ):
            return me_example_oracle(lam, mu)
    raise ConfigError(
        "closed_form verification is only available for mixed_exp_frailty and "
        "the two-risk Erlang(2)+Exp matrix_exp portfolio"
    )


def run_verify(cfg: RunConfig, seed: Optional[int] = None) -> tuple[bool, list[str]]:
    """Compare inverted shares against the configured reference.  Returns
    (all passed, report lines)."""
    # an overriding seed is checked as the config's own is
    vf = cfg.verify if seed is None else replace(cfg.verify, seed=seed)
    if vf.method == "none":
        raise ConfigError("verify block has method: none; nothing to check")
    spec = cfg.model
    result = allocate(_build_request(cfg))
    n = result.n
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
                worst_h = max(worst_h, abs(result.h[k, i] - oracle.xi(i, s) / f_ref))
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
    if vf.points is not None:
        targets = vf.points
    else:
        picks = np.linspace(0, len(ok_points) - 1, min(5, len(ok_points))).astype(int)
        targets = tuple(float(result.s_grid[ok_points[p]]) for p in picks)
    passed = True
    compared = unresolved = 0
    for t, s in enumerate(targets):
        # the nearest gridpoint must be ok and within half the wider gap beside it
        k = int(np.argmin(np.abs(result.s_grid - s)))
        s_k = float(result.s_grid[k])
        half = 0.5 * np.diff(result.s_grid)[max(k - 1, 0) : k + 1].max(initial=0.0)
        if result.status[k] != STATUS_OK or abs(s_k - s) > half:
            passed = False
            lines.append(
                f"mc s={s:g}: nearest gridpoint s={s_k:g} is {result.status[k]} and "
                f"{abs(s_k - s):.3g} away (half the grid step: {half:.3g}): FAIL"
            )
            continue
        for i in range(n):
            est = mc_conditional_mean(
                sampler, i, s_k,
                bandwidth=vf.bandwidth, n_samples=vf.n_samples,
                seed=vf.seed, substream=t * n + i + 1,
            )
            gap = abs(result.h[k, i] - est.value)
            # the bound is max(tol, 3se): where the Monte Carlo error is the
            # larger, the check cannot see an error of size tol
            three_se = 3.0 * est.std_error
            if three_se > tol:
                unresolved += 1
                applied = f"3se = {three_se:.3e} (tolerance {tol:g} not resolved)"
            else:
                applied = f"tol = {tol:g} (3se = {three_se:.3e})"
            point_ok = gap <= max(tol, three_se)
            passed = passed and point_ok
            compared += 1
            lines.append(
                f"mc s={s_k:g} risk {i + 1}: |h - est| = {gap:.3e}, bound {applied}: "
                f"{'pass' if point_ok else 'FAIL'}"
            )
    if compared:
        lines.append(
            f"mc: tolerance {tol:g} not resolved at {unresolved} of {compared} "
            "compared shares (3se > tol)"
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
_BENCH_BURST = 3


def _scaled_cscp(base: CommonShockCPSpec, n: int) -> CommonShockCPSpec:
    """``base`` replicated to ``n`` risks by cycling its risks, with equal
    weights.  ``benchmark/workloads._replicate`` stays a copy of this: the
    benchmark hands the program only a YAML document, which it builds from
    dicts, and its files stay fixed so that its runs on two revisions
    measure the same work."""
    k = len(base.lambdas)
    # the claim rates are rescaled so the portfolio total stays at the base
    # level: per-point cost is O(n) either way, but letting the total rate
    # grow with n would underflow the origin atom's mass e^{-rate} to 0
    # beyond a rate of ~745, so larger sizes would run a different model
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
    scheme.  Each cell is the fastest call of its leg.

    The host's speed varies in spells of seconds, so the sizes are visited
    in rounds whose order reverses each time: per visit, one untimed call
    that brings the size's arrays back into the cache, then
    ``_BENCH_BURST`` pairs of calls, the leading leg alternating.  Rounds
    run, at least two of them, until the sweep has taken ``reps`` x
    ``_BENCH_SAMPLE_S`` per leg and size.  A sweep that straddles a calm and
    a slow spell has two clusters of call times (about 1.4 and 2.1 ms at
    n = 5 on a 2-vCPU KVM guest); their median falls between them and
    ordered n = 5 and n = 100, 5% apart in cost, wrongly in 2 of 20 sweeps.
    The fastest call is the cost in the calmest spell, which all sizes share.
    """
    if cfg.bench is None:
        raise ConfigError("config has no bench block")
    spec = cfg.model
    if not isinstance(spec, CommonShockCPSpec):
        raise ConfigError("bench needs a common_shock_cp model block")
    thetas = (0.0, cfg.bench.tilt)
    legs = []
    for size in cfg.bench.n_sweep:
        model = build_common_shock_cp(_scaled_cscp(spec, size))
        legs.append(
            [
                AllocationRequest(
                    model=model,
                    s_grid=_BENCH_GRID,
                    scheme=EulerScheme(theta=theta),
                    balance_tol=cfg.tolerance.balance,
                    density_floor=cfg.tolerance.density_floor,
                )
                for theta in thetas
            ]
        )
    deadline = time.perf_counter() + 2 * cfg.bench.reps * _BENCH_SAMPLE_S * len(legs)
    calls = [{theta: [] for theta in thetas} for _ in legs]
    order = list(range(len(legs)))
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        rounds += 1
        for k in order:
            pair = legs[k]
            allocate(pair[0])
            for _ in range(_BENCH_BURST):
                for req in pair:
                    t0 = time.perf_counter()
                    allocate(req)
                    calls[k][req.scheme.theta].append(time.perf_counter() - t0)
                pair.reverse()
        order.reverse()
    return [
        BenchRow(
            n=size,
            seconds_untilted=min(cell[0.0]),
            seconds_tilted=min(cell[cfg.bench.tilt]),
        )
        for size, cell in zip(cfg.bench.n_sweep, calls)
    ]


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
        print(f"{k:>3} {float(w):>24.12g} = {w.numerator}/{w.denominator}")
    total = sum(exact)
    harmonic = sum(w / k for k, w in enumerate(exact, start=1))
    print(f"sum zeta_k = {total} (exact), sum zeta_k / k = {harmonic} (exact)")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise ConfigError(message)


def _tilt_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


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
    p.add_argument(
        "--sweep", type=_tilt_list, default=(), help="comma-separated tilt values to scan, e.g. 0,0.2,0.5"
    )

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
            return cmd_diagnose(cfg, args.sweep)
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
