"""Allocation engine: grid evaluation of conditional mean risk shares.

For each gridpoint s the engine inverts the aggregate density f_S and all
allocation densities xi_i = h_i f_S from one shared set of transform nodes,
then forms h_i = xi_i / f_S.  The origin atom's mass P(S = 0) is subtracted
from the real parts of L_S at the nodes before inversion (the continuous
remainder is what the contour rules can recover), in the block's own copy,
never in the array the model returned.  It is reported as a separate row at
s = 0, where every share is exactly 0: X_i >= 0 forces E[X_i 1{S = 0}] = 0,
no inversion involved.

The model is called once per block of gridpoints, with the nodes of every
point in the block stacked into one array, and the kernel inverts the whole
block in one pass; every point's numbers are those of a call on its own
nodes, bit for bit.  The kernel inverts the model's m+1 columns, L_S and one
column per class of identical risks (m = n for the identity map).  Each
block's real parts are copied once, into the block's own node-major
(nodes, m+1, points) array (``.transpose(1, 2, 0).copy()``, which is cheap
from the class-major view the shipped families return); the finiteness test
and the atom's subtraction run on that copy, which goes to the kernel as it
is.  It is a ``.copy()``, never ``np.ascontiguousarray``: on one point the
transpose of a C-contiguous array is contiguous already, so the latter would
hand back the model's array, perhaps a cached one, and the atom would be
taken off it.  Only a block with a non-finite point gathers its finite
points, and only a grid with a refused point gathers its nodes.
Shares, sums and statuses are derived on those class columns, and only
``raw_xi``, ``xi`` and ``h`` are expanded to the n risks, once, at the end,
so identical risks get identical shares.  A block holds
max(1, 2**14 // (nodes x (m+1))) points.
The budget of 2**14 elements was set by measurement (benchmark workloads,
2-vCPU KVM guest, numpy 2.4): it takes the 750-point n=3 grid from 0.18 s
to 0.037 s and the 26-point n=10 Erlang pool from 0.044 s to 0.021 s, while
an n=1000 pool of distinct risks (41 x 1001 elements per point) keeps one
point per block and its speed and memory.  Larger budgets cost memory for
no time: at 2**16 the n=3 grid's peak RSS was 132 MB instead of 128 MB
(127 MB one point at a time), and at 2**20 the n=1000 pool took 0.18 s
instead of 0.15 s, its temporaries out of cache, and 232 MB instead of
184 MB.

Status policy per gridpoint, derived once, in ``allocate``: ``failed`` means
the numbers are unusable (density at or below the floor, non-finite values,
or materially negative allocation mass); ``degraded`` means usable but out of
tolerance (budget residual above balance_tol, or a share above s by more
than balance_tol * s).  Once any point has violated, every later ok point is
demoted to degraded.  The rule assumes that the error grows with s, which
holds in the right tail but not on the left of the mode, where a violation
comes from a tiny f_S: on a 200-risk lognormal pool (E[S] = 332) one
violation at s = 199.2 demotes 20 later points whose residuals are at most
2.1e-4.  Roundoff is forgiven without penalty: small
negative allocation values in [-1e-8, 0) are clamped to zero, and a share
above s by at most balance_tol * s is clipped to s (with one risk, h_1 = s
exactly).  sum_h and the budget residual are numpy row sums over the m
class columns, each weighed by its number of risks (exactly 1 for the
identity map), within about n eps relative of the exact sums of nonnegative shares,
far inside any balance_tol.  ``breakdown_scan`` summarises the stored
statuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CmrsError, DomainError
from .inversion import Scheme, admitted, invert, invert_values
from .transforms import JointTransformModel, column_values

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_ATOM = "atom"

_XI_CLAMP = -1e-8

# Elements, nodes x (m+1) per point, that one block of gridpoints may hold;
# see the module docstring for the measurements behind the value.
_BLOCK_BUDGET = 2**14

# what a model call may raise for one bad node or gridpoint
_POINT_ERRORS = (ArithmeticError, ValueError, CmrsError)


def checked_grid(s_grid) -> tuple[float, ...]:
    """``s_grid`` as a tuple of floats, refused with DomainError unless it is
    nonempty, finite, positive and strictly increasing: the check of
    ``AllocationRequest`` and of a config's grid points."""
    grid = tuple(float(s) for s in s_grid)
    if not grid:
        raise DomainError("s_grid must be nonempty")
    if not all(math.isfinite(s) and s > 0.0 for s in grid):
        raise DomainError("s_grid entries must be finite and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("s_grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class AllocationRequest:
    """Evaluation request: model, grid, inversion scheme, tolerances.  The
    scheme carries the tilt, as Euler's contour parameter per level
    A(s) = A - 2*theta*s (``EulerScheme.theta``)."""

    model: JointTransformModel
    s_grid: tuple[float, ...]
    scheme: Scheme
    balance_tol: float = 1e-3
    density_floor: float = 1e-300

    def __post_init__(self) -> None:
        grid = checked_grid(self.s_grid)
        for name in ("balance_tol", "density_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        object.__setattr__(self, "s_grid", grid)


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

    @property
    def n(self) -> int:
        return self.request.model.n

    @property
    def scheme(self) -> Scheme:
        return self.request.scheme

    @property
    def atom_mass(self) -> float:
        return self.request.model.atom_mass

    @property
    def worst_status(self) -> str:
        if STATUS_FAILED in self.status:
            return STATUS_FAILED
        return STATUS_DEGRADED if STATUS_DEGRADED in self.status else STATUS_OK


def allocate(request: AllocationRequest) -> AllocationResult:
    """Run the inversion over the request grid and derive shares and
    statuses: one model call and one kernel pass per block of gridpoints,
    each call with the block's whole array of nodes, shape (points, nodes).

    The whole grid's nodes are formed in one call; a point with a node at
    Re z <= 0 fails the contour check and fails alone, and only the points
    that pass are blocked.  A block whose model call raises is redone point
    by point, and a point with a non-finite node value or scale factor fails
    alone, so one bad node fails its gridpoint, never its block or the run."""
    model = request.model
    scheme = request.scheme
    s_grid = np.array(request.s_grid)
    values = np.full((len(s_grid), model.m + 1), np.nan)

    nodes = scheme.nodes(s_grid)
    kept = np.flatnonzero(admitted(nodes))
    if len(kept) < len(s_grid):
        nodes = nodes[kept]
    size = max(1, _BLOCK_BUDGET // (nodes.shape[1] * (model.m + 1)))
    pending = [slice(lo, lo + size) for lo in range(0, len(kept), size)]
    while pending:
        block = pending.pop()
        points = kept[block]
        try:
            # the block's one owned copy, node-major (nodes, m+1, points): the
            # model's array may be cached or a read-only view, so the atom
            # leaves L_S only here
            V = column_values(model, nodes[block]).real.transpose(1, 2, 0).copy()
            good = np.isfinite(V).all(axis=(0, 1))
            V[:, 0] -= model.atom_mass
            done = points
            if not good.all():
                V, done = V[..., good], points[good]
            values[done] = invert_values(V, s_grid[done], scheme).T
        except _POINT_ERRORS:
            # one bad node (or a wrong shape) fails its gridpoint, never its block
            if len(points) > 1:
                pending += [slice(j, j + 1) for j in range(*block.indices(len(kept)))]

    # shares and statuses, the one place a status is derived, on the m class
    # columns: a class's masks and shares are each of its risks', and a sum
    # over risks weighs each class by its multiplicity
    density = values[:, 0]
    raw_xi = values[:, 1:]
    unusable = (
        ~np.isfinite(density) | ~np.isfinite(raw_xi).all(axis=1) | (raw_xi < _XI_CLAMP).any(axis=1)
    )
    roundoff = (raw_xi > _XI_CLAMP) & (raw_xi < 0.0)
    roundoff[unusable] = False
    xi = np.where(roundoff, 0.0, raw_xi)
    # the floor governs f outright: a zero, subnormal or negative density
    # cannot support a ratio, even though xi-level roundoff is forgiven
    failed = unusable | (density <= request.density_floor)
    tol = request.balance_tol
    target = s_grid * density
    mult = model.multiplicity
    # a failed row may divide by a zero or non-finite density; it keeps NaN
    # sums and zero shares
    with np.errstate(all="ignore"):
        hrow = xi / density[:, None]
        sum_h = np.where(failed, np.nan, (hrow * mult).sum(axis=1))
        resid = np.where(failed, np.nan, np.abs((xi * mult).sum(axis=1) - target) / target)
    h = np.clip(hrow, 0.0, s_grid[:, None], out=hrow)
    h[failed] = 0.0
    # shares are >= 0 here, so one above s by more than tol * s fails the
    # sum test; one above s by less is roundoff (with one risk, h_1 = s
    # exactly) and is clipped to s without penalty
    violated = (
        failed | ~np.isfinite(sum_h) | (resid > tol) | (np.abs(sum_h - s_grid) > tol * s_grid)
    )
    # once any point has violated, every later one is at best degraded
    after_break = np.concatenate([[False], np.logical_or.accumulate(violated)[:-1]])
    code = np.where(failed, 2, violated | after_break)
    # values is this call's own array (np.full), so the results view it;
    # only the per-risk arrays are expanded to the n risks
    raw_xi, xi, h = model.per_risk(raw_xi), model.per_risk(xi), model.per_risk(h)
    return AllocationResult(
        request=request,
        s_grid=s_grid,
        density=density,
        xi=xi,
        raw_xi=raw_xi,
        h=h,
        sum_h=sum_h,
        balance_residual=resid,
        status=np.array([STATUS_OK, STATUS_DEGRADED, STATUS_FAILED])[code].tolist(),
    )


def proportions(result: AllocationResult) -> np.ndarray:
    """Shares as fractions of s; rows with failed status keep their zeros."""
    return result.h / result.s_grid[:, None]


@dataclass(frozen=True)
class BreakdownReport:
    first_violation: Optional[int]
    breakdown_s: Optional[float]
    n_ok: int
    n_degraded: int
    n_failed: int

    @property
    def clean(self) -> bool:
        return self.first_violation is None


def breakdown_scan(result: AllocationResult) -> BreakdownReport:
    """Summary of the statuses ``allocate`` derived: the first gridpoint that
    is not ok, its level s, and the number of points of each status."""
    status = result.status
    first = next((k for k, st in enumerate(status) if st != STATUS_OK), None)
    return BreakdownReport(
        first_violation=first,
        breakdown_s=None if first is None else float(result.s_grid[first]),
        n_ok=status.count(STATUS_OK),
        n_degraded=status.count(STATUS_DEGRADED),
        n_failed=status.count(STATUS_FAILED),
    )


@dataclass(frozen=True)
class TailContribution:
    """Expected contribution of each risk to aggregate outcomes at or beyond
    a threshold, nu_i([s*, inf)) = E[X_i 1{S >= s*}], and their sum."""

    s_star: float
    per_risk: tuple[float, ...]
    total: float


def tail_contribution(result: AllocationResult, s_star: float) -> TailContribution:
    """E[X_i 1{S >= s*}] per risk, by one inversion at s* with the run's
    model and scheme; the grid is not read.  ``invert`` takes the m class
    columns of (L_i(0) - L_i(z)) / z, L_i(z) = E[X_i exp(-zS)], expanded to
    the n risks afterwards, with its refusals
    (DomainError for s* <= 0, InversionError for a contour that reaches
    Re z <= 0).  The origin atom lies below every s* > 0 and carries no
    allocation mass, so it adds nothing.  The error is the scheme's, about
    1e-8 * E[X_i] for default Euler, plus any error in the model's
    L_i(0) = E[X_i].  A gamma frailty with alpha <= 1 has E[X_i] = inf while
    its quadrature's L_i(0) is finite, so its tail comes back finite and
    wrong, unflagged.
    """
    model = result.request.model

    def tail_transform(z):
        vals = column_values(model, np.append(0.0, z))[:, 1:]
        return (vals[0] - vals[1:]) / z[:, None]

    per = model.per_risk(invert(tail_transform, s_star, result.scheme))
    return TailContribution(
        s_star=float(s_star),
        per_risk=tuple(float(v) for v in per),
        total=float(per.sum()),
    )
