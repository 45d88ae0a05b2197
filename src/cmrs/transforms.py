"""Joint Laplace-transform abstraction for portfolios of nonnegative risks.

The central object couples the aggregate transform L_S(z) = E[exp(-zS)] of
S = X_1 + ... + X_n with the allocation transforms L_i(z) = E[X_i exp(-zS)]
and the mass P(S = 0) of the origin atom, the only atom of S a model
declares.  Each L_i is the partial derivative of the joint transform in t_i,
taken on the diagonal t_1 = ... = t_n = z, so a model evaluates L_S and all
L_i together, for a whole array of nodes at once: the allocation engine gets
the values at every node of a block of gridpoints from one call, with nodes
of shape (points, nodes).  Inversion, allocation
and diagnostics all consume this interface and nothing else.

Conventions: risks are indexed 0..n-1 in code (reports and CSV columns are
labelled 1..n); transforms are evaluated at Re z > 0, except that the
model builders probe each shipped family at z = 0, where its transform is
finite (there L_S = 1 and L_i = E[X_i]); ``eval_transform`` refuses Re z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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

# Relative step of the central difference behind the diagonal check.
_H_REL = 1e-6


@dataclass(frozen=True, eq=False)
class JointTransformModel:
    """A portfolio model given purely at transform level.

    ``transform`` maps an array z of nodes (any shape, Re z > 0) to the
    values [L_S(z), L_1(z), ..., L_n(z)] with L_i(z) = E[X_i exp(-zS)] along a
    new last axis, shape z.shape + (n+1,).  The nodes are a real array on the
    real axis and a complex one on the contour; a scalar z is a 0-d array, so
    ``transform(1.0)`` gives the n+1 values at one point (the m+1 class
    columns of ``risk_columns``, below).  Nothing in the
    package writes into the returned array, so a read-only view or an array
    cached across calls is a valid return.

    ``atom_mass`` is P(S = 0), the one atom a model can declare; its
    allocation masses E[X_i 1{S = 0}] vanish because every X_i >= 0.  The
    transform includes it (L_S(z) -> atom_mass as Re z -> inf).

    ``stats`` is a mutable scratch dict for evaluation counters (e.g.
    underflow guards).

    ``risk_columns`` maps risks to classes of identical risks: an int array
    of shape (n,) sending risk i to class column risk_columns[i] in 0..m-1,
    every column used.  ``transform`` returns [L_S, L_(1), ..., L_(m)] with
    one allocation column per class, shape z.shape + (m+1,), which the
    class's risks share; ``expand`` gives the n+1 view.  ``None`` (the
    default) stands for the identity ``arange(n)``, m = n.  ``m`` and the
    ``multiplicity`` of each class are derived once, at construction.  The
    engine and the diagnostics work on the class columns, weighing a class
    by its multiplicity where they sum over risks, and expand only what
    they hand out per risk.
    """

    n: int
    transform: Callable[[np.ndarray], np.ndarray]
    atom_mass: float = 0.0
    label: str = ""
    stats: dict = field(default_factory=dict, repr=False)
    risk_columns: Optional[np.ndarray] = field(default=None, repr=False)
    m: int = field(init=False, repr=False)
    multiplicity: np.ndarray = field(init=False, repr=False)
    _identity: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelSpecError(f"need at least one risk, got n={self.n}")
        if not 0.0 <= self.atom_mass <= 1.0:
            raise ModelSpecError(f"atom_mass must be finite and in [0, 1], got {self.atom_mass}")
        given, ids = self.risk_columns, np.arange(self.n)
        cols = ids if given is None else np.asarray(given)
        # a map that uses every column holds no value >= n, so the bound
        # comes before bincount, which would allocate a count per value
        if (
            cols.shape != (self.n,)
            or cols.dtype.kind not in "iu"
            or cols.min() < 0
            or cols.max() >= self.n
            or not (mult := np.bincount(cols)).all()
        ):
            raise ModelSpecError(
                f"risk_columns must map the {self.n} risks onto columns 0..m-1, "
                f"each column used, got {given!r}"
            )
        # frozen: the map and what it derives are set past __setattr__, the
        # counts as floats like the arrays they weigh, so no product casts
        vars(self).update(
            risk_columns=cols, m=len(mult), multiplicity=mult.astype(float), _identity=(cols == ids).all()
        )

    def expand(self, values: np.ndarray) -> np.ndarray:
        """The n+1 view [L_S, L_1, ..., L_n] of values whose last axis holds
        the m+1 columns [L_S, class columns]; the values themselves for the
        identity map."""
        if self._identity:
            return values
        return np.take(values, np.append(0, self.risk_columns + 1), axis=-1)

    def per_risk(self, classes: np.ndarray) -> np.ndarray:
        """The n risk columns of an array whose last axis holds the m class
        columns; the array itself for the identity map."""
        if self._identity:
            return classes
        return np.take(classes, self.risk_columns, axis=-1)

    @cached_property
    def class_labels(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """The classes in the order of their first risks: each class's first
        risk (0-based, an index into the n risk columns) and its label, the
        class's 1-based risks ascending and joined by ``;`` (``1;4;7``).
        They depend on ``risk_columns`` alone, so they are derived on first
        use and kept; ``dataclasses.replace`` gives a new model, which
        derives its own."""
        members: dict[int, list[int]] = {}
        for risk, k in enumerate(self.risk_columns.tolist(), 1):
            members.setdefault(k, []).append(risk)
        # the dict keeps the classes in the order of their first risks
        first = np.array([risks[0] - 1 for risks in members.values()])
        return first, tuple(";".join(map(str, risks)) for risks in members.values())


def column_values(model, z: np.ndarray) -> np.ndarray:
    """``model.transform(z)``, refused with EvaluationError unless it has the
    shape z.shape + (m+1,) (a transform that stacks its m+1 values first
    would otherwise broadcast into wrong numbers)."""
    vals = np.asarray(model.transform(z))
    want = z.shape + (model.m + 1,)
    if vals.shape != want:
        raise EvaluationError(
            f"transform returned shape {vals.shape} for nodes of shape {z.shape}, expected {want}"
        )
    return vals


def _risk_entry(model, k: int) -> int:
    """The entry of the n+1 view that class column k stands for: L_S, or
    the first risk of its class."""
    return int(np.argmax(model.risk_columns == k - 1)) + 1 if k else 0


def _checked_columns(model, z: np.ndarray) -> np.ndarray:
    """The m+1 columns of ``column_values`` at nodes with Re z > 0, complex,
    with finiteness and (at real nodes) pure-real checks on every entry; a
    refusal names the entry of the n+1 view, so a class's first risk."""
    if not (np.real(z) > 0.0).all():
        raise DomainError(f"transform needs Re z > 0, got Re z = {np.real(z).min()}")
    vals = column_values(model, z).astype(complex, copy=False)
    finite = np.isfinite(vals)
    if not finite.all():
        at = np.argwhere(~finite)[0]
        raise EvaluationError(
            f"transform entry {_risk_entry(model, at[-1])} returned non-finite value "
            f"{vals[tuple(at)]} at z={z[tuple(at[:-1])]}"
        )
    # an all-zero imaginary part passes at once; the tolerance test is the
    # costlier part of a diagnostic's work at small n
    if vals.imag.any():
        bad = np.abs(vals.imag) > _PURE_REAL_RTOL * np.abs(vals.real) + _PURE_REAL_ATOL
        bad &= (np.imag(z) == 0.0)[..., None]
        if bad.any():
            at = np.argwhere(bad)[0]
            raise EvaluationError(
                f"transform entry {_risk_entry(model, at[-1])} at real "
                f"z={np.real(z[tuple(at[:-1])])} has non-negligible imaginary part "
                f"{vals[tuple(at)].imag}"
            )
    return vals


def eval_transform(model, z) -> np.ndarray:
    """[L_S(z), L_1(z), ..., L_n(z)] along a new last axis for an array of
    nodes with Re z > 0: the model's m+1 columns are checked (shape,
    finiteness and, at real nodes, pure-real), then expanded to the n+1
    view."""
    return model.expand(_checked_columns(model, np.asarray(z)))


def _difference(model, t: np.ndarray, *extra: np.ndarray):
    """Central-difference d/dt L_S(t) with step h = 1e-6 * t, and the m+1
    checked columns at each of ``extra``, from one model call."""
    if not (t > 0.0).all():
        raise DomainError(f"need t > 0, got {t.min()}")
    h = _H_REL * t
    hi, lo, *cols = _checked_columns(model, np.stack([t + h, t - h, *extra]))
    return (hi[..., 0].real - lo[..., 0].real) / (2.0 * h), *cols


def numerical_aggregate_derivative(model, t):
    """Central-difference d/dt L_S(t) on the real axis with step
    h = 1e-6 * t, for one t > 0 or an array of them (one model call for all
    t - h and t + h)."""
    return _difference(model, np.asarray(t, dtype=float))[0]


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
    central difference with step 1e-6 * t, so the residual bundles both any
    model inconsistency and the differencing error.  The whole grid costs one
    model call, at every t + h, t - h and t.  The sum runs
    over the m class columns, ``math.fsum`` of m_c L_c(t) with m_c the
    class's multiplicity; nothing is expanded to the n risks.
    """
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        return DiagonalReport((), (), (), tol)
    t = np.array(ts)
    d, at = _difference(model, t, t)
    vals = at[:, 1:].real * model.multiplicity
    res = tuple(
        abs(math.fsum(row) + dk) / max(abs(dk), _RESIDUAL_FLOOR)
        for row, dk in zip(vals.tolist(), d.tolist())
    )
    return DiagonalReport(ts, res, tuple(r <= tol for r in res), tol)
