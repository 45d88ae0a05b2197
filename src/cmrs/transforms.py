"""Joint Laplace-transform abstraction for portfolios of nonnegative risks.

The central object couples the aggregate transform L_S(z) = E[exp(-zS)] of
S = X_1 + ... + X_n with the allocation transforms L_i(z) = E[X_i exp(-zS)]
and a declared set of atoms of S.  Each L_i is the partial derivative of the
joint transform in t_i, taken on the diagonal t_1 = ... = t_n = z, so a model
evaluates L_S and all L_i together, for a whole array of nodes at once: the
allocation engine gets the values at every node of a block of gridpoints
from one call, with nodes of shape (points, nodes).  Inversion, allocation
and diagnostics all consume this interface and nothing else.

Conventions: risks are indexed 0..n-1 in code (reports and CSV columns are
labelled 1..n); transforms are evaluated at Re z > 0, except that the
model builders probe each shipped family at z = 0, where its transform is
finite (there L_S = 1 and L_i = E[X_i]); ``eval_transform`` refuses Re z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, ModelSpecError

# Relative tolerance of the pure-real contract for real-axis evaluations.
# The absolute term covers values that underflow below the double range.
_PURE_REAL_RTOL = 1e-14
_PURE_REAL_ATOL = 1e-300

# Floor used when normalizing diagnostic residuals, so deep-tail derivatives
# that underflow do not turn residuals into inf.
_RESIDUAL_FLOOR = 1e-300

_ATOM_BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class AtomEntry:
    """One atom of S: location s_j, mass P(S = s_j), and the per-risk
    allocation masses nu_i({s_j}) = E[X_i 1{S = s_j}]."""

    location: float
    mass: float
    allocation: tuple[float, ...]


@dataclass(frozen=True)
class AtomSet:
    """Declared atoms of S, canonically sorted by location.

    Atom masses are model inputs, not computed here.  Each entry must satisfy
    the balance identity sum_i nu_i({s_j}) = s_j * mass(s_j); at location 0
    this forces every nu_i to vanish, which is what makes h_i(0) = 0.
    """

    entries: tuple[AtomEntry, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda e: e.location))
        object.__setattr__(self, "entries", ordered)
        seen = set()
        total = 0.0
        for e in ordered:
            if not (e.location >= 0.0) or not math.isfinite(e.location):
                raise ModelSpecError(f"atom location must be finite and >= 0, got {e.location}")
            if e.location in seen:
                raise ModelSpecError(f"duplicate atom location {e.location}")
            seen.add(e.location)
            if not (e.mass > 0.0) or not math.isfinite(e.mass):
                raise ModelSpecError(f"atom mass must be positive and finite, got {e.mass}")
            if any(v < 0.0 or not math.isfinite(v) for v in e.allocation):
                raise ModelSpecError("atom allocation masses must be finite and >= 0")
            target = e.location * e.mass
            gap = abs(math.fsum(e.allocation) - target)
            if gap > _ATOM_BALANCE_TOL * max(1.0, abs(target)):
                raise ModelSpecError(
                    f"atom at {e.location}: allocation masses sum to "
                    f"{math.fsum(e.allocation)}, expected {target}"
                )
            total += e.mass
        if total > 1.0 + 1e-12:
            raise ModelSpecError(f"total atom mass {total} exceeds 1")

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(e.location for e in self.entries)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(e.mass for e in self.entries)

    def total_mass(self) -> float:
        return math.fsum(e.mass for e in self.entries)


_EMPTY_ATOMS = AtomSet()


@dataclass(frozen=True, eq=False)
class JointTransformModel:
    """A portfolio model given purely at transform level.

    ``transform`` maps an array z of nodes (any shape, Re z > 0) to the
    values [L_S(z), L_1(z), ..., L_n(z)] with L_i(z) = E[X_i exp(-zS)] along a
    new last axis, shape z.shape + (n+1,).  The nodes are a real array on the
    real axis and a complex one on the contour; a scalar z is a 0-d array, so
    ``transform(1.0)`` gives the n+1 values at one point.

    ``stats`` is a mutable scratch dict for evaluation counters (e.g.
    underflow guards).
    """

    n: int
    transform: Callable[[np.ndarray], np.ndarray]
    atoms: AtomSet = _EMPTY_ATOMS
    label: str = ""
    stats: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelSpecError(f"need at least one risk, got n={self.n}")
        for e in self.atoms.entries:
            if len(e.allocation) != self.n:
                raise ModelSpecError("atom allocation row length must equal n")


def node_values(model, z: np.ndarray) -> np.ndarray:
    """``model.transform(z)``, refused with EvaluationError unless it has the
    shape z.shape + (n+1,) (a transform that stacks its n+1 values first
    would otherwise broadcast into wrong numbers)."""
    vals = np.asarray(model.transform(z))
    want = z.shape + (model.n + 1,)
    if vals.shape != want:
        raise EvaluationError(
            f"transform returned shape {vals.shape} for nodes of shape {z.shape}, expected {want}"
        )
    return vals


def eval_transform(model, z) -> np.ndarray:
    """[L_S(z), L_1(z), ..., L_n(z)] along a new last axis for an array of
    nodes with Re z > 0, with shape, finiteness and (at real nodes) pure-real
    checks on every entry."""
    z = np.asarray(z)
    if not (np.real(z) > 0.0).all():
        raise DomainError(f"transform needs Re z > 0, got Re z = {np.real(z).min()}")
    vals = node_values(model, z).astype(complex, copy=False)
    finite = np.isfinite(vals)
    if not finite.all():
        at = np.argwhere(~finite)[0]
        raise EvaluationError(
            f"transform entry {at[-1]} returned non-finite value {vals[tuple(at)]} "
            f"at z={z[tuple(at[:-1])]}"
        )
    # an all-zero imaginary part passes at once; the tolerance test is the
    # costlier part of a diagnostic's work at small n
    if vals.imag.any():
        bad = np.abs(vals.imag) > _PURE_REAL_RTOL * np.abs(vals.real) + _PURE_REAL_ATOL
        bad &= (np.imag(z) == 0.0)[..., None]
        if bad.any():
            at = np.argwhere(bad)[0]
            raise EvaluationError(
                f"transform entry {at[-1]} at real z={np.real(z[tuple(at[:-1])])} has "
                f"non-negligible imaginary part {vals[tuple(at)].imag}"
            )
    return vals


def numerical_aggregate_derivative(model, t, h_rel: float = 1e-6):
    """Central-difference d/dt L_S(t) on the real axis with step h = h_rel*t,
    for one t or an array of them (one model call for all t - h and t + h)."""
    t = np.asarray(t, dtype=float)
    if not (t > 0.0).all():
        raise DomainError(f"need t > 0, got {t.min()}")
    if not (0.0 < h_rel < 0.1):
        raise DomainError(f"need 0 < h_rel < 0.1, got {h_rel}")
    h = h_rel * t
    if not (t - h > 0.0).all():
        raise DomainError(f"step h = {h_rel} * t leaves the positive axis at t = {t.min()}")
    hi, lo = eval_transform(model, np.stack([t + h, t - h]))[..., 0].real
    return (hi - lo) / (2.0 * h)


@dataclass(frozen=True)
class DiagonalReport:
    """Per-t relative residual of sum_i L_i(t) against -L_S'(t)."""

    t: tuple[float, ...]
    residual: tuple[float, ...]
    passed: tuple[bool, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residual) if self.residual else 0.0

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def diagonal_diagnostic(model, t_grid: Sequence[float], tol: float = 1e-5) -> DiagonalReport:
    """Check the identity sum_i L_i(t) = -L_S'(t) on a real grid.

    The residual is normalized by max(|L_S'(t)|, 1e-300); the derivative is a
    central difference with h_rel = 1e-6, so the residual bundles both any
    model inconsistency and the differencing error.  The whole grid costs two
    model calls: one at every t - h and t + h, one at every t.
    """
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        return DiagonalReport((), (), (), tol)
    d = numerical_aggregate_derivative(model, ts, 1e-6)
    vals = eval_transform(model, np.array(ts))[:, 1:].real
    res = tuple(
        abs(math.fsum(row) + dk) / max(abs(dk), _RESIDUAL_FLOOR)
        for row, dk in zip(vals.tolist(), d.tolist())
    )
    return DiagonalReport(ts, res, tuple(r <= tol for r in res), tol)
