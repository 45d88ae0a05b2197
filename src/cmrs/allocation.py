"""Allocation engine: grid evaluation of conditional mean risk shares.

For each gridpoint s the engine inverts the aggregate density f_S and all
allocation densities xi_i = h_i f_S from one shared set of transform nodes,
then forms h_i = xi_i / f_S.  Atoms of S are subtracted from the transforms
before inversion (the continuous remainder is what the contour rules can
recover) and reported as separate rows; at an atom location s_j the share is
exactly nu_ij / mu_j, no inversion involved.

Status policy per gridpoint: ``failed`` means the numbers are unusable
(density at or below the floor, non-finite values, or materially negative
allocation mass); ``degraded`` means usable but out of tolerance (budget
residual above balance_tol, or a share clipped into [0, s]).  Once any point
has violated, every later ok point is demoted to degraded: contour error
grows with s, so apparent health beyond a breakdown is not trustworthy.
Small negative allocation values in [-1e-8, 0) are ordinary roundoff and are
clamped to zero without penalty.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_trapz = getattr(np, "trapezoid", None) or np.trapz

from .errors import CmrsError, DomainError
from .inversion import Scheme, invert_values, scheme_nodes
from .transforms import AtomSet, JointTransformModel

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_ATOM = "atom"

_XI_CLAMP = -1e-8


@dataclass(frozen=True)
class AllocationRequest:
    """Evaluation request: model, grid, inversion scheme, tolerances.  The
    scheme carries the tilt (``EulerScheme.theta``)."""

    model: JointTransformModel
    s_grid: tuple[float, ...]
    scheme: Scheme
    balance_tol: float = 1e-3
    density_floor: float = 1e-300

    def __post_init__(self) -> None:
        grid = tuple(float(s) for s in self.s_grid)
        if not grid:
            raise DomainError("s_grid must be nonempty")
        if not all(math.isfinite(s) and s > 0.0 for s in grid):
            raise DomainError("s_grid entries must be finite and positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("s_grid must be strictly increasing")
        if not (self.balance_tol > 0.0):
            raise DomainError(f"balance_tol must be positive, got {self.balance_tol}")
        if not (self.density_floor > 0.0):
            raise DomainError(f"density_floor must be positive, got {self.density_floor}")
        object.__setattr__(self, "s_grid", grid)


@dataclass(frozen=True)
class AtomicTransformRemainder:
    """Transforms of the continuous part of a model: the atomic terms
    sum_j mu_j exp(-z s_j) (and their allocation analogues) subtracted out."""

    model: JointTransformModel
    atoms: AtomSet
    # (location, mass, allocation masses as an array) per atom, built once
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = tuple((e.location, e.mass, np.array(e.allocation)) for e in self.atoms.entries)
        object.__setattr__(self, "_terms", terms)

    def values_at(self, z: complex) -> np.ndarray:
        """Real parts of the continuous parts of (L_S, L_1 .. L_n) at z."""
        vals = np.asarray(self.model.transform(z), dtype=complex)
        row = np.empty(self.model.n + 1)
        agg = complex(vals[0])
        alloc = vals[1:]
        for location, mass, allocation in self._terms:
            damp = cmath.exp(-z * location)
            agg -= mass * damp
            alloc = alloc - allocation * damp
        row[0] = agg.real
        row[1:] = alloc.real
        return row


def strip_atoms(model: JointTransformModel) -> AtomicTransformRemainder:
    """Continuous-part transforms of ``model``.  With no atoms this is the
    model itself (and the subtraction loop is empty)."""
    return AtomicTransformRemainder(model=model, atoms=model.atoms)


@dataclass
class AllocationResult:
    request: AllocationRequest
    s_grid: np.ndarray
    density: np.ndarray  # raw inverted f_S per gridpoint
    xi: np.ndarray  # (npoints, n), negative roundoff clamped to 0
    raw_xi: np.ndarray  # (npoints, n), as inverted
    h: np.ndarray  # (npoints, n), xi/f clipped into [0, s]
    sum_h: np.ndarray  # sum of unclipped shares
    balance_residual: np.ndarray  # |sum xi - s f| / (s f)
    status: list[str]
    clipped: np.ndarray  # bool, any share clipped at this point
    atoms: AtomSet
    elapsed: float

    @property
    def n(self) -> int:
        return self.request.model.n

    @property
    def scheme(self) -> Scheme:
        return self.request.scheme

    @property
    def worst_status(self) -> str:
        order = {STATUS_OK: 0, STATUS_DEGRADED: 1, STATUS_FAILED: 2}
        worst = STATUS_OK
        for st in self.status:
            if order[st] > order[worst]:
                worst = st
        return worst


def _derive_statuses(
    s_grid: np.ndarray,
    density: np.ndarray,
    raw_xi: np.ndarray,
    balance_tol: float,
    density_floor: float,
):
    """Shared status logic for allocate and breakdown_scan.

    Returns (status list, xi clamped, h clipped, sum_h, residual, clipped).
    """
    npts, n = raw_xi.shape
    status = []
    xi = raw_xi.copy()
    h = np.zeros_like(raw_xi)
    sum_h = np.full(npts, np.nan)
    resid = np.full(npts, np.nan)
    clipped = np.zeros(npts, dtype=bool)
    violated = False
    for k in range(npts):
        s = s_grid[k]
        f = density[k]
        row = raw_xi[k]
        bad = not math.isfinite(f) or not np.isfinite(row).all()
        if not bad and (row < _XI_CLAMP).any():
            bad = True
        if not bad:
            xi[k] = np.where((row > _XI_CLAMP) & (row < 0.0), 0.0, row)
        # the floor governs f outright: a zero, subnormal or negative density
        # cannot support a ratio, even though xi-level roundoff is forgiven
        if not bad and f <= density_floor:
            bad = True
        if bad:
            status.append(STATUS_FAILED)
            violated = True
            continue
        hrow = xi[k] / f
        sh = math.fsum(hrow.tolist())
        sum_h[k] = sh
        target = s * f
        r = abs(math.fsum(xi[k].tolist()) - target) / target
        resid[k] = r
        over = (hrow > s).any()
        h[k] = np.clip(hrow, 0.0, s)
        clipped[k] = bool(over)
        point_bad = (
            not math.isfinite(sh)
            or r > balance_tol
            or abs(sh - s) > balance_tol * s
            or over
        )
        if point_bad:
            status.append(STATUS_DEGRADED)
            violated = True
        elif violated:
            status.append(STATUS_DEGRADED)
        else:
            status.append(STATUS_OK)
    return status, xi, h, sum_h, resid, clipped


def allocate(request: AllocationRequest) -> AllocationResult:
    """Run the inversion over the request grid and derive shares."""
    model = request.model
    scheme = request.scheme
    remainder = strip_atoms(model)
    n = model.n
    npts = len(request.s_grid)
    s_grid = np.array(request.s_grid)
    values = np.full((npts, n + 1), np.nan)

    start = time.perf_counter()
    for k in range(npts):
        s = s_grid[k]
        try:
            nodes = scheme_nodes(scheme, s)
            V = np.empty((len(nodes), n + 1))
            for row, z in enumerate(nodes):
                zc = complex(z)
                arg = zc.real if zc.imag == 0.0 else zc
                V[row] = remainder.values_at(arg)
            if np.isfinite(V).all():
                values[k] = invert_values(V, s, scheme)
        except (ArithmeticError, ValueError, CmrsError):
            pass  # one bad node fails its gridpoint, never the whole run
    elapsed = time.perf_counter() - start

    density = values[:, 0].copy()
    raw_xi = values[:, 1:].copy()
    status, xi, h, sum_h, resid, clipped = _derive_statuses(
        s_grid, density, raw_xi, request.balance_tol, request.density_floor
    )
    return AllocationResult(
        request=request,
        s_grid=s_grid,
        density=density,
        xi=xi,
        raw_xi=raw_xi,
        h=h,
        sum_h=sum_h,
        balance_residual=resid,
        status=status,
        clipped=clipped,
        atoms=model.atoms,
        elapsed=elapsed,
    )


def proportions(result: AllocationResult) -> np.ndarray:
    """Shares as fractions of s; rows with failed status keep their zeros."""
    return result.h / result.s_grid[:, None]


@dataclass(frozen=True)
class BreakdownReport:
    tol: float
    status: tuple[str, ...]
    first_violation: Optional[int]
    breakdown_s: Optional[float]
    n_ok: int
    n_degraded: int
    n_failed: int

    @property
    def clean(self) -> bool:
        return self.first_violation is None


def breakdown_scan(result: AllocationResult, tol: Optional[float] = None) -> BreakdownReport:
    """Re-derive point statuses for an arbitrary balance tolerance from the
    stored raw inversion output (no new transform evaluations)."""
    if tol is None:
        tol = result.request.balance_tol
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    status, _, _, _, _, _ = _derive_statuses(
        result.s_grid, result.density, result.raw_xi, tol, result.request.density_floor
    )
    first = None
    for k, st in enumerate(status):
        if st != STATUS_OK:
            first = k
            break
    return BreakdownReport(
        tol=tol,
        status=tuple(status),
        first_violation=first,
        breakdown_s=None if first is None else float(result.s_grid[first]),
        n_ok=status.count(STATUS_OK),
        n_degraded=status.count(STATUS_DEGRADED),
        n_failed=status.count(STATUS_FAILED),
    )


@dataclass(frozen=True)
class TailContribution:
    """Integrated allocation density beyond a threshold: per-risk values of
    integral_{s*}^{grid end} xi_i ds plus atom shares at or beyond s*, with a
    geometric-decay bound on what the finite grid cuts off."""

    s_star: float
    per_risk: tuple[float, ...]
    total: float
    truncation_bound: float
    used_points: int


def tail_contribution(result: AllocationResult, s_star: float) -> TailContribution:
    grid = result.s_grid
    if not (grid[0] <= s_star <= grid[-1]):
        raise DomainError(
            f"s_star = {s_star} outside evaluated grid [{grid[0]}, {grid[-1]}]"
        )
    usable = np.array([st != STATUS_FAILED for st in result.status])
    sel = usable & (grid >= s_star)
    if sel.sum() < 2:
        raise DomainError(f"need at least two usable gridpoints beyond s_star = {s_star}")
    xs = grid[sel]
    ys = result.xi[sel]  # (m, n)
    # partial first cell: linear interpolation back to s_star when possible
    below = usable & (grid < s_star)
    if below.any() and xs[0] > s_star:
        k_lo = int(np.flatnonzero(below)[-1])
        w = (s_star - grid[k_lo]) / (xs[0] - grid[k_lo])
        y0 = result.xi[k_lo] * (1.0 - w) + ys[0] * w
        xs = np.concatenate([[s_star], xs])
        ys = np.vstack([y0, ys])
    per = _trapz(ys, xs, axis=0)
    for e in result.atoms.entries:
        if e.location >= s_star:
            per = per + np.array(e.allocation)
    # geometric decay fit on the last two points bounds the lost tail
    last, prev = ys[-1], ys[-2]
    ds = xs[-1] - xs[-2]
    bound = 0.0
    for i in range(per.shape[0]):
        if last[i] <= 0.0:
            continue
        if prev[i] > last[i]:
            gamma = math.log(prev[i] / last[i]) / ds
            bound += last[i] / gamma
        else:
            bound = math.inf
            break
    return TailContribution(
        s_star=float(s_star),
        per_risk=tuple(float(v) for v in per),
        total=float(per.sum()),
        truncation_bound=float(bound),
        used_points=int(xs.shape[0]),
    )
