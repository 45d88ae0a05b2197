"""Joint Laplace-transform abstraction for portfolios of nonnegative risks.

The central object couples the aggregate transform L_S(z) = E[exp(-zS)] of
S = X_1 + ... + X_n with the allocation transforms L_i(z) = E[X_i exp(-zS)]
and a declared set of atoms of S.  Each L_i is the partial derivative of the
joint transform in t_i, taken on the diagonal t_1 = ... = t_n = z, so a model
evaluates L_S and all L_i together, once per node.  Inversion, allocation and
diagnostics all consume this interface and nothing else.

Conventions: risks are indexed 0..n-1 in code (reports and CSV columns are
labelled 1..n); transforms are only ever evaluated at Re z > 0 (never at 0,
so possibly-infinite means stay out of the evaluation path and are carried
as optional metadata instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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

    ``transform`` maps z (Re z > 0) to the complex array
    [L_S(z), L_1(z), ..., L_n(z)] with L_i(z) = E[X_i exp(-zS)].  It receives
    a float on the real axis and a complex number off it.

    ``means`` is optional metadata (absent when unknown or infinite).  ``stats``
    is a mutable scratch dict for evaluation counters (e.g. underflow guards).
    """

    n: int
    transform: Callable[[complex], np.ndarray]
    atoms: AtomSet = _EMPTY_ATOMS
    means: Optional[tuple[float, ...]] = None
    label: str = ""
    stats: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelSpecError(f"need at least one risk, got n={self.n}")
        if self.means is not None and len(self.means) != self.n:
            raise ModelSpecError("means vector length must equal n")
        for e in self.atoms.entries:
            if len(e.allocation) != self.n:
                raise ModelSpecError("atom allocation row length must equal n")


def eval_transform(model, z: complex) -> np.ndarray:
    """[L_S(z), L_1(z), ..., L_n(z)] for Re z > 0, with shape, finiteness and
    (on the real axis) pure-real checks on every entry."""
    z = complex(z)
    if not (z.real > 0.0):
        raise DomainError(f"transform needs Re z > 0, got Re z = {z.real}")
    vals = np.asarray(model.transform(z), dtype=complex)
    if vals.shape != (model.n + 1,):
        raise EvaluationError(
            f"transform returned shape {vals.shape} at z={z}, expected ({model.n + 1},)"
        )
    finite = np.isfinite(vals)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise EvaluationError(f"transform entry {k} returned non-finite value {vals[k]} at z={z}")
    # an all-zero imaginary part passes at once; the tolerance test is the
    # costlier part of a diagnostic's per-t work at small n
    if z.imag == 0.0 and vals.imag.any():
        bad = np.abs(vals.imag) > _PURE_REAL_RTOL * np.abs(vals.real) + _PURE_REAL_ATOL
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise EvaluationError(
                f"transform entry {k} at real z={z.real} has non-negligible "
                f"imaginary part {vals[k].imag}"
            )
    return vals


def numerical_aggregate_derivative(model, t: float, h_rel: float = 1e-6) -> float:
    """Central-difference d/dt L_S(t) on the real axis with step h = h_rel*t."""
    if not (t > 0.0):
        raise DomainError(f"need t > 0, got {t}")
    if not (0.0 < h_rel < 0.1):
        raise DomainError(f"need 0 < h_rel < 0.1, got {h_rel}")
    h = h_rel * t
    if t - h <= 0.0:
        raise DomainError(f"step {h} leaves the positive axis at t={t}")
    hi = eval_transform(model, t + h)[0].real
    lo = eval_transform(model, t - h)[0].real
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
    model inconsistency and the differencing error.  Each t costs three
    model evaluations: at t - h, t + h and t.
    """
    ts, res, ok = [], [], []
    for t in t_grid:
        d = numerical_aggregate_derivative(model, float(t), 1e-6)
        total = math.fsum(eval_transform(model, float(t))[1:].real.tolist())
        r = abs(total + d) / max(abs(d), _RESIDUAL_FLOOR)
        ts.append(float(t))
        res.append(r)
        ok.append(r <= tol)
    return DiagonalReport(tuple(ts), tuple(res), tuple(ok), tol)
