"""Closed-form model families given at Laplace-transform level.

Every builder returns a JointTransformModel whose one evaluator ``transform``
gives the aggregate transform L_S(z) = E[exp(-zS)] and all allocation
transforms L_i(z) = E[X_i exp(-zS)] for an array of nodes with Re z > 0, as
an array of shape z.shape + (n+1,), together with the mass P(S = 0) of the
origin atom, the one atom of S any family has.  Each family broadcasts over
the node axes and computes every per-risk factor once, sharing it between
L_S and the L_i.  The builders of the common-shock, matrix-exponential, Katz
and lognormal families find the classes of identical risks (by exact
equality of each risk's parameters) and return one allocation column per
class, shape z.shape + (m+1,), with the map from risks to classes as the
model's ``risk_columns``, the identity map when every risk is distinct.  Every
family works on (m+1, N) class rows over the N flattened nodes and returns
their transposed view.  The common-shock and frailty transforms fill one
such array, one contiguous row per column up to m = 2048 and node-major
above (``_class_rows``).  The independent families (matrix-exponential,
Katz, lognormal) hand their per-class transforms to ``_product_rule`` as
contiguous (m, N) rows.  A matrix-exponential risk keeps the complex Schur
form of its T, and the classes whose forms share a dimension and zero
patterns are solved together, by one back-substitution over a (g, N) array.

Every builder returns through one constructor, which probes each factor of
L_S at construction time: each risk's transform for independent risks, L_S
itself otherwise.  A factor must equal 1 within 1e-6 at z = 0 and lie in
(0, 1] at z = 1e-6, which catches unnormalized weights, wrong signs and
similar wiring mistakes before any inversion is attempted.  The probe sits
at z = 0 itself, where the shipped families' transforms are finite, so it
holds for any aggregate mean (at z > 0, L_S falls off like 1 - z E[S]).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.special import lambertw, roots_hermite

from .errors import (
    DomainError,
    ModelSpecError,
    SingularMatrixError,
)
from .mixing import MixingLawHandle
from .transforms import JointTransformModel

_PROBE_TOL = 1e-6
_PHASE_TYPE_TOL = 1e-9


def _joint_model(
    label: str,
    n: int,
    transform: Optional[Callable] = None,
    *,
    risks: Optional[Callable] = None,
    atom_mass: float = 0.0,
    stats: Optional[dict] = None,
    risk_columns: Optional[np.ndarray] = None,
) -> JointTransformModel:
    """The one constructor behind every builder.

    Independent families pass ``risks``, mapping the (N,) flattened nodes to
    the transforms and mean transforms of ``_product_rule``, two (m, N)
    arrays with one row per class of identical risks (``_risk_classes``);
    the model's transform is then the transposed view of the rule's
    (m+1, N) rows in the shape z.shape + (m+1,).  The others pass
    ``transform`` itself.
    ``atom_mass`` is P(S = 0) and ``risk_columns`` the risk -> class map,
    both passed through unchanged.  Each factor of L_S (each class's
    transform, else L_S itself) is then probed: it must equal 1 within 1e-6
    at z = 0 and lie in (0, 1] at z = 1e-6.
    """
    if risks is not None:

        def transform(z):
            z = np.asarray(z)
            vals = _product_rule(*risks(z.reshape(-1)), mult)
            return vals.T.reshape(z.shape + vals.shape[:1])

        def factors(z):
            return risks(z)[0].T

    else:

        def factors(z):
            return transform(z)[..., :1]

    stats = {} if stats is None else stats
    model = JointTransformModel(
        n, transform, atom_mass=atom_mass, label=label, stats=stats, risk_columns=risk_columns
    )
    # the product rule's transform runs from here on; no powers unless a class repeats
    mult = None if model.m == n else model.multiplicity[:, None]
    try:
        at0, near = factors(np.array([0.0, 1e-6]))
    except Exception as exc:
        raise ModelSpecError(f"{label}: transform probe failed: {exc}") from exc
    good = (np.abs(at0 - 1.0) <= _PROBE_TOL) & (near.real > 0.0) & (near.real <= 1.0 + 1e-9)
    if not good.all():
        k = int(np.argmin(good))
        raise ModelSpecError(
            f"{label}: factor {k} of L_S is {at0[k]} at z=0 and {near[k]} at z=1e-6, "
            f"not in 1 +- {_PROBE_TOL} and (0, 1]"
        )
    return model


def _product_rule(
    lsts: np.ndarray, mean_lsts: np.ndarray, mult: Optional[np.ndarray] = None
) -> np.ndarray:
    """[prod_j L_j, (M_i prod_{j != i} L_j)_i] for independent risks with
    transforms L_j and mean transforms M_j = E[X_j exp(-z X_j)], the risks
    along the first axis (class rows, (m, N) -> (m+1, N)); the products over
    j != i come from cumulative prefix and suffix products along that axis,
    which accumulate row by row in any layout.

    With multiplicities ``mult``, column c stands for m_c identical risks:
    L_S = prod_c L_c^{m_c}, and column c is M_c L_c^{m_c - 1} prod_{c' != c}
    L_{c'}^{m_{c'}}, the product rule on the powers L_c^{m_c} and the mean
    transforms M_c L_c^{m_c - 1}, with ``mult`` an (m, 1) column.  At
    m_c = 1 the powers are exact (x**1 = x, x**0 = 1), so a singleton class
    gets the numbers of the plain rule, which a pool with m = n gets free.

    The products accumulate in place and each temporary goes after its last
    use: a larger peak heap is what glibc trims and re-faults on every call
    (ROADMAP, Settled)."""
    if mult is not None:
        lsts, mean_lsts = lsts**mult, mean_lsts * lsts ** (mult - 1)
    one = np.ones_like(lsts[:1])
    pre = np.concatenate([one, lsts])
    np.cumprod(pre, axis=0, out=pre)  # prod_{j < i}
    suf = np.concatenate([one, lsts[::-1]])
    np.cumprod(suf, axis=0, out=suf)  # prod_{j > i}, last row first
    del lsts
    rows = mean_lsts * pre[:-1]
    rows *= suf[::-1][1:]
    del suf, mean_lsts
    return np.concatenate([pre[-1:], rows])


def _positive_tuple(values: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise ModelSpecError(f"{what} must be nonempty")
    if not all(math.isfinite(v) and v > 0.0 for v in out):
        raise ModelSpecError(f"{what} must be finite and positive, got {out}")
    return out


def _risk_classes(keys) -> tuple[list[int], np.ndarray]:
    """Classes of identical risks by exact equality of their keys, in order
    of first appearance: the first risk of each class and the risk -> class
    map, the identity when every risk is its own class."""
    index: dict = {}
    first: list[int] = []
    cols = []
    for i, key in enumerate(keys):
        if key not in index:
            index[key] = len(first)
            first.append(i)
        cols.append(index[key])
    return first, np.array(cols)


# the widest class axis the common-shock and frailty transforms lay out
# class-major, from timing both layouts at m = 8 to 5000 (numpy 2.4, a
# 2-vCPU Xeon guest).  A node-major ufunc loop over the strided class rows
# is buffered while m is at most a quarter of numpy's 8192-element buffer:
# ``np.add(bet, zf, out=q)`` over 41 nodes took 205 us at m = 2048 and 46 us
# at m = 2049.  Above that the node-major common shock is faster, as the
# class-major rows of a one-point block pay a per-row overhead m times
_CLASS_MAJOR_MAX = 2048


def _class_rows(z: np.ndarray, m: int) -> np.ndarray:
    """The uninitialised (m+1, N) complex work array of a transform over the
    N nodes of z with m class columns: row 0 for L_S, row c for class c.

    Class-major, each row contiguous over the nodes, while m <= 2048, and
    node-major above, the transpose of a C-order (N, m+1) array; the rule
    reads m alone.  Temporaries made from the rows by ``np.empty_like`` or
    as ufunc outputs follow the layout.  A sum or product over the class
    rows (``sum(axis=0)``, ``prod(axis=0)``) takes the rows in order in the
    class-major layout, and in the node-major one runs numpy's reduction of
    each node's contiguous row (pairwise, for a sum).  A lone node gets a
    second class-major column, to which its (1,) array of nodes broadcasts,
    as an axis-0 reduction over one column would be a contiguous one.  So
    any call gives each node the numbers of a call on that node alone,
    whatever the shape of z.
    ``W.T[: z.size].reshape(z.shape + (m + 1,))`` is the protocol's view of
    the result, a copy in neither layout.
    """
    if m <= _CLASS_MAJOR_MAX:
        return np.empty((m + 1, 2 if z.size == 1 else z.size), dtype=complex)
    return np.empty((z.size, m + 1), dtype=complex).T


# ---------------------------------------------------------------------------
# mixed-exponential frailty


@dataclass(frozen=True)
class MixedExpFrailtySpec:
    """Conditionally exponential risks: given Theta = theta, X_j is
    exponential with rate theta / lambda_j, independently across j."""

    lambdas: tuple[float, ...]
    mixing: MixingLawHandle

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _positive_tuple(self.lambdas, "lambdas"))


def build_mixed_exp_frailty(spec: MixedExpFrailtySpec) -> JointTransformModel:
    """Transform model for a mixed-exponential frailty portfolio.

    Expectations over Theta use the mixing law's quadrature nodes theta_k,
    summed one at a time, so every array is (n+1, N) over the N transform
    nodes, one row per risk up to n = 2048 and node-major above
    (``_class_rows``).  The model is a
    mixture of as many pools of independent exponentials as the rule has
    nodes: accurate for a few risks, not for many small ones, whose pool sums
    sit near sum_j lambda_j / theta_k, so f_S is spiky where the true one is
    smooth.  It meets the budget identity exactly, so no status shows this.
    With gamma_mixing(3.0) (200 nodes), lambda_j = 3 U(0.5, 2)/n and 10
    points over s in [0.5, 8], f_S is within 1.1e-7 relative of a quadrature
    reference at n = 10, but off by up to 21% at n = 100, every point ``ok``.
    One Euler point (41 nodes) of that pool takes about 0.11 s and traces
    2.2 MB at n = 1000; ten points at n = 3000 take 4.2-4.6 s at 121 MB peak
    RSS, 9.6 MB of it the model's complex rates.
    """
    lam = np.array(spec.lambdas)
    n = len(spec.lambdas)
    theta = spec.mixing.nodes
    w = spec.mixing.weights
    if (theta <= 0.0).any():
        raise ModelSpecError("frailty mixing needs strictly positive quadrature locations")
    # (nodes, risks, 1), complex once so that no ufunc loop casts it; real
    # nodes read its real parts
    r = (theta[:, None] / lam[None, :])[:, :, None].astype(complex)

    def transform(z):
        z = np.asarray(z)
        W = _class_rows(z, n)
        W[...] = 0.0
        zf = z.reshape(-1)
        # real nodes keep real arithmetic; q and p are (risks, N) in W's layout
        cplx = np.iscomplexobj(zf)
        q = np.empty_like(W[1:], dtype=complex if cplx else float)
        p = np.empty_like(q)
        for rk, wk in zip(r if cplx else r.real, w):
            np.divide(1.0, np.add(rk, zf, out=q), out=q)
            fk = wk * np.multiply(rk, q, out=p).prod(axis=0)
            W[0] += fk
            W[1:] += np.multiply(fk, q, out=p)
        return W.T[: z.size].reshape(z.shape + (n + 1,))

    return _joint_model(f"mixed_exp_frailty(n={n},{spec.mixing.label})", n, transform)


# ---------------------------------------------------------------------------
# matrix-exponential risks


@dataclass(frozen=True, eq=False)
class MatrixExpSpec:
    """One matrix-exponential risk: L_X(z) = p0 + alpha (zI - T)^{-1} u.

    No phase-type structure is assumed; any (alpha, T, u, p0) giving a valid
    transform is accepted, and validity is probed rather than certified.
    """

    alpha: np.ndarray
    T: np.ndarray
    u: np.ndarray
    p0: float = 0.0

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        T = np.atleast_2d(np.asarray(self.T, dtype=float))
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        d = a.shape[0]
        if T.shape != (d, d) or u.shape != (d,):
            raise ModelSpecError(
                f"dimension mismatch: alpha {a.shape}, T {T.shape}, u {u.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(T).all() and np.isfinite(u).all()):
            raise ModelSpecError("matrix-exponential parameters must be finite")
        if not (0.0 <= self.p0 < 1.0):
            raise ModelSpecError(f"p0 must lie in [0, 1), got {self.p0}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    @cached_property
    def _schur(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(R, Q) with T = Q R Q^H, R upper triangular and Q unitary (the
        complex Schur form), computed on first use; an upper-triangular T is
        its own, and Q is then None for the identity."""
        if not np.tril(self.T, -1).any():
            return self.T, None
        return scipy.linalg.schur(self.T, output="complex")

    def lst_pair(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(E[exp(-zX)], E[X exp(-zX)]) for an array of nodes z, in z's shape
        (real for real z): the solve of ``_MatrixExpGroup`` for a group of
        one."""
        z = np.asarray(z)
        pair = _MatrixExpGroup([self]).pair(z.reshape(-1))
        return pair[0][0].reshape(z.shape), pair[1][0].reshape(z.shape)


class _MatrixExpGroup:
    """Matrix-exponential risks solved together: g risks of one dimension d
    whose Schur forms have the same zero patterns (``key``), each
    coefficient a (g, 1) column over a (g, N) array of the nodes.  Equal
    patterns give every risk the same sequence of elementwise operations, so
    each row gets the numbers of a group of one, bit for bit."""

    @staticmethod
    def key(spec: MatrixExpSpec) -> tuple:
        """What decides a risk's sequence of operations: d, whether Q is the
        identity, and the zero patterns of R's strict upper triangle, T's
        off-diagonal, the entry vector alpha Q and Q."""
        R, Q = spec._schur
        a = spec.alpha if Q is None else spec.alpha @ Q
        coeffs = (np.triu(R, 1), _off_diagonal(spec.T), a) + (() if Q is None else (Q,))
        return (spec.dim, Q is None) + tuple((v != 0.0).tobytes() for v in coeffs)

    def __init__(self, specs: Sequence[MatrixExpSpec]) -> None:
        def col(values):  # g arrays -> (..., g, 1): each entry a contiguous (g, 1) column
            return np.ascontiguousarray(np.moveaxis(np.stack(values), 0, -1)[..., None])

        def terms(row, js):  # the (j, column) pairs of the nonzero entries row[j]
            return [(j, row[j]) for j in js if row[j].any()]

        R, Q = zip(*(sp._schur for sp in specs))
        self.d = d = specs[0].dim
        self.schur = Q[0] is not None
        a = col([sp.alpha if q is None else sp.alpha @ q for sp, q in zip(specs, Q)])
        self.b = col([sp.u if q is None else q.conj().T @ sp.u for sp, q in zip(specs, Q)])
        self.u = col([sp.u for sp in specs])
        self.u_max = col([np.abs(sp.u).max() for sp in specs])
        self.p0 = col([sp.p0 for sp in specs])
        off = [_off_diagonal(sp.T) for sp in specs]
        self.off_max = col([np.abs(v).max() for v in off])
        R, T, off = col(R), col([sp.T for sp in specs]), col(off)
        # equal shifts (an Erlang's d equal rates) share one array of pivots
        slot: dict = {}
        self.pivot_index = [slot.setdefault(R[i, i].tobytes(), len(slot)) for i in range(d)]
        self.pivot_shift = [
            R[i, i] for i in range(d) if self.pivot_index[i] not in self.pivot_index[:i]
        ]
        self.diag_shift = [T[i, i] for i in range(d)]
        self.r_terms = [terms(R[i], range(i + 1, d)) for i in range(d)]
        self.off_terms = [terms(off[i], range(d)) for i in range(d)]
        self.q_terms = [terms(q, range(d)) for q in col(Q)] if self.schur else None
        self.a_terms = terms(a, range(d))

    def pair(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p0 + alpha y, alpha (zI - T)^{-1} y) with y = (zI - T)^{-1} u for
        the (N,) nodes z: two (g, N) arrays, real for real z.

        With T = Q R Q^H, both solves are back-substitutions in zI - R, d
        stages of elementwise operations over the whole (g, N) array: O(d^2)
        flops per node, no factorization, and each node gets the numbers of
        a call on that node alone.  Raises SingularMatrixError, naming one
        offending node, where a pivot |z - r_ii| is not above
        1e-14 max|zI - T| (a non-finite node included), or where the first
        solve's residual, in the original basis, fails
        |(zI - T) Q y - u| <= 1e-10 (|zI - T| |Q y| + |u|) in the max norm.

        The checks free their temporaries on return, the second solve
        reuses y's slots and equal pivots are one array: holding them all
        doubles the peak, and glibc then trims and re-faults the heap on
        every call (ROADMAP, Settled).
        """
        pivots, diag, scale = self._pivots(z)
        y = self._solve(pivots, list(self.b))
        self._check_residual(z, diag, y, scale)
        zero = np.zeros_like(pivots[0])
        lst = _dot(self.a_terms, y, zero + self.p0)
        # the second solve overwrites y, whose last use was the line above
        mean = _dot(self.a_terms, self._solve(pivots, y), zero)
        return (lst, mean) if np.iscomplexobj(z) else (lst.real, mean.real)

    def _pivots(self, z):
        """The pivots z - r_ii, the diagonal of zI - T and the scale
        max|zI - T| of each node; raises where a pivot is too small."""
        distinct = [z - r for r in self.pivot_shift]
        pivots = [distinct[k] for k in self.pivot_index]
        # zI - T in the original basis: its diagonal, off-diagonal part and largest entry
        diag = [z - t for t in self.diag_shift] if self.schur else pivots
        scale, low = self.off_max, np.inf
        # a repeated (pivot, diagonal) pair would take the same max and min again
        for p, t in {(id(p), id(t)): (p, t) for p, t in zip(pivots, diag)}.values():
            size = np.abs(p)
            scale = np.maximum(scale, size if t is p else np.abs(t))
            low = np.minimum(low, size)
        bad = ~(low > 1e-14 * scale)
        if bad.any():
            raise SingularMatrixError(
                f"pivot not above 1e-14 max|zI - T| at z = {z[bad.any(axis=0)][0]}"
            )
        return pivots, diag, scale

    def _solve(self, pivots, x):
        """Back-substitution in zI - R over the list x of right-hand sides,
        which it overwrites with the solution."""
        for i in reversed(range(self.d)):
            x[i] = _dot(self.r_terms[i], x, x[i]) / pivots[i]
        return x

    def _check_residual(self, z, diag, y, scale) -> None:
        """Raises where the residual of the solve y, in the original basis,
        fails |(zI - T) Q y - u| <= 1e-10 (|zI - T| |Q y| + |u|)."""
        yq = [_dot(q, y, 0.0) for q in self.q_terms] if self.schur else y
        resid = reduce(
            np.maximum,
            (
                np.abs(diag[i] * yq[i] - _dot(self.off_terms[i], yq, self.u[i]))
                for i in range(self.d)
            ),
        )
        bound = 1e-10 * (scale * reduce(np.maximum, (np.abs(v) for v in yq)) + self.u_max)
        bad = ~(resid <= bound)
        if bad.any():
            raise SingularMatrixError(
                f"solve residual {np.max(resid):.3e} exceeds 1e-10 (|zI - T| |Q y| + |u|) "
                f"at z = {z[bad.any(axis=0)][0]}"
            )


def _off_diagonal(T: np.ndarray) -> np.ndarray:
    return T - np.diag(np.diag(T))


def _dot(terms: list, arrays: list, start):
    """start + sum_j c_j arrays[j] over the (j, c_j) terms, added elementwise
    in order."""
    for j, c in terms:
        start = start + c * arrays[j]
    return start


def is_phase_type(spec: MatrixExpSpec) -> bool:
    """True when (alpha, T, u, p0) is an explicit phase-type representation:
    sub-generator T, nonnegative entry vector, exit rates u = -T 1, each
    within _PHASE_TYPE_TOL."""
    T = spec.T
    off = _off_diagonal(T)
    if (off < -_PHASE_TYPE_TOL).any() or (np.diag(T) > _PHASE_TYPE_TOL).any():
        return False
    if (spec.alpha < -_PHASE_TYPE_TOL).any():
        return False
    if abs(spec.p0 + spec.alpha.sum() - 1.0) > 1e-8:
        return False
    return bool(np.abs(spec.u + T.sum(axis=1)).max() <= max(_PHASE_TYPE_TOL, 1e-9 * np.abs(T).max()))


def exponential_me_spec(rate: float) -> MatrixExpSpec:
    if not (rate > 0.0):
        raise ModelSpecError(f"rate must be positive, got {rate}")
    return MatrixExpSpec(np.array([1.0]), np.array([[-rate]]), np.array([rate]))


def erlang_me_spec(k: int, rate: float) -> MatrixExpSpec:
    """Erlang(k, rate) as a k-stage chain."""
    if k < 1:
        raise ModelSpecError(f"need k >= 1 stages, got {k}")
    if not (rate > 0.0):
        raise ModelSpecError(f"rate must be positive, got {rate}")
    T = -rate * np.eye(k) + rate * np.eye(k, k=1)
    u = np.zeros(k)
    u[-1] = rate
    alpha = np.zeros(k)
    alpha[0] = 1.0
    return MatrixExpSpec(alpha, T, u)


def build_matrix_exp(specs: Sequence[MatrixExpSpec]) -> JointTransformModel:
    """Independent sum of matrix-exponential risks.

    The classes of identical risks fall into groups of like classes, by
    ``_MatrixExpGroup.key``: the dimension, whether the Schur Q is the
    identity, and the zero patterns of the Schur coefficients.  Each group
    is solved once per call, over a (g, N) array of the nodes, and its rows
    go to their classes' rows of the (m, N) arrays ``_product_rule`` takes.
    A pool of Erlang(k) risks at any rates is one group, so a call costs a
    fixed number of numpy operations on (m, N) arrays rather than that many
    per class."""
    specs = tuple(specs)
    if not specs:
        raise ModelSpecError("need at least one risk")
    n = len(specs)
    first, cols = _risk_classes(
        (sp.p0, tuple(sp.alpha.tolist()), tuple(map(tuple, sp.T.tolist())), tuple(sp.u.tolist()))
        for sp in specs
    )
    classes = [specs[i] for i in first]
    groups: dict = {}
    for c, sp in enumerate(classes):
        groups.setdefault(_MatrixExpGroup.key(sp), []).append(c)
    solvers = [(rows, _MatrixExpGroup([classes[c] for c in rows])) for rows in groups.values()]

    def risks(z):
        if len(solvers) == 1:  # one group, its rows the classes in order
            return solvers[0][1].pair(z)
        lsts = np.empty((len(classes), z.size), dtype=complex if np.iscomplexobj(z) else float)
        means = np.empty_like(lsts)
        for rows, group in solvers:
            lsts[rows], means[rows] = group.pair(z)
        return lsts, means

    atom_mass = math.prod(sp.p0 for sp in specs)
    return _joint_model(f"matrix_exp(n={n})", n, risks=risks, atom_mass=atom_mass, risk_columns=cols)


# ---------------------------------------------------------------------------
# compound sums with (a, b, 0) frequencies


@dataclass(frozen=True)
class SeverityHandle:
    """Severity law at transform level: lst(z) = E[exp(-zY)] and
    mean_lst(z) = E[Y exp(-zY)]; zero_mass = P(Y = 0)."""

    lst: Callable[[complex], complex]
    mean_lst: Callable[[complex], complex]
    zero_mass: float = 0.0
    sampler: Optional[Callable] = None
    label: str = ""


def exponential_severity(rate: float) -> SeverityHandle:
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ModelSpecError(f"severity rate must be positive, got {rate}")

    def sampler(rng, size):
        return rng.exponential(1.0 / rate, size)

    return SeverityHandle(
        lst=lambda z: rate / (rate + z),
        mean_lst=lambda z: rate / (rate + z) ** 2,
        sampler=sampler,
        label=f"exp(rate={rate:g})",
    )


def _require_finite(**fields) -> None:
    """ModelSpecError naming the first NaN or infinite value among ``fields``,
    each a number or a tuple of them: ordered comparisons pass NaN through,
    and an infinite rate fails only in the construction probe."""
    for name, value in fields.items():
        if not isinstance(value, tuple):
            if not math.isfinite(value):
                raise ModelSpecError(f"{name} must be finite, got {value}")
        elif not all(map(math.isfinite, value)):
            i = next(i for i, v in enumerate(value) if not math.isfinite(v))
            raise ModelSpecError(f"{name}[{i}] must be finite, got {value[i]}")


def _check_katz_pair(a: float, b: float) -> None:
    if a == 0.0:
        if b < 0.0:
            raise ModelSpecError(f"frequency (a=0, b={b}) is not a counting law")
    elif a < 0.0:
        m = -(a + b) / a
        if m <= 0.0 or abs(m - round(m)) > 1e-8:
            raise ModelSpecError(
                f"(a={a}, b={b}) needs -(a+b)/a to be a positive integer, got {m}"
            )
    elif not a < 1.0:
        raise ModelSpecError(f"frequency slope a must be < 1, got a={a}")
    elif a + b <= 0.0:
        raise ModelSpecError(f"(a={a}, b={b}) needs a + b > 0")


@dataclass(frozen=True)
class KatzCompoundSpec:
    """Independent compound sums whose claim counts follow the (a, b, 0)
    recursion p_k / p_{k-1} = a + b / k: no claims at a = b = 0, Poisson(b)
    at a = 0, binomial for a < 0 and negative binomial for 0 < a < 1."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    severities: tuple[SeverityHandle, ...]

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        if not a or len(a) != len(b) or len(a) != len(self.severities):
            raise ModelSpecError("a, b and severities must have equal positive length")
        _require_finite(a=a, b=b)
        for ai, bi in zip(a, b):
            _check_katz_pair(ai, bi)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)


def _katz_pgf(a: float, b: float, w):
    """The (a, b, 0) count pgf ((1 - a w)/(1 - a))^(-(a+b)/a), e^{b(w-1)} at
    a = 0.  On |w| <= 1 the base has Re > 0 for 0 < a < 1, and for a < 0 the
    exponent is a whole number, so the principal power is the pgf."""
    if a == 0.0:
        return np.exp(b * (w - 1.0))
    return ((1.0 - a * w) / (1.0 - a)) ** (-(a + b) / a)


def build_katz_compound(spec: KatzCompoundSpec) -> JointTransformModel:
    """Independent (a, b, 0) compound sums.  Risks with equal a and b and
    the same severity handle object form one class; two handles are never
    compared by their parameters or label."""
    n = spec.n
    freqs = tuple(zip(spec.a, spec.b, spec.severities))
    first, cols = _risk_classes((a, b, id(sev)) for a, b, sev in freqs)
    classes = [freqs[i] for i in first]

    def risk(a, b, sev, z):
        # P(phi) and -d/dz P(phi(z)) = P'(phi) E[Y e^{-zY}], P'(w) = (a+b)/(1-aw) P(w)
        phi = sev.lst(z)
        p = _katz_pgf(a, b, phi)
        return p, (a + b) / (1.0 - a * phi) * p * sev.mean_lst(z)

    def risks(z):
        lsts, means = zip(*(risk(*f, z) for f in classes))
        return np.stack(lsts), np.stack(means)

    atom_mass = math.prod(float(_katz_pgf(a, b, sev.zero_mass)) for a, b, sev in freqs)
    return _joint_model(
        f"katz_compound(n={n})", n, risks=risks, atom_mass=atom_mass, risk_columns=cols
    )


# ---------------------------------------------------------------------------
# common-shock compound Poisson portfolio


@dataclass(frozen=True)
class CommonShockCPSpec:
    """Compound Poisson risks sharing one shock stream.

    A common Poisson(lambda0) stream produces Exp(beta0) amounts split across
    risks in fixed proportions ``weights``; risk i additionally carries its
    own compound Poisson(lambdas[i]) / Exp(betas[i]) stream.
    """

    lambda0: float
    lambdas: tuple[float, ...]
    beta0: float
    betas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        lams = tuple(float(v) for v in self.lambdas)
        betas = tuple(float(v) for v in self.betas)
        w = tuple(float(v) for v in self.weights)
        if not lams or len(lams) != len(betas) or len(lams) != len(w):
            raise ModelSpecError("lambdas, betas and weights must have equal positive length")
        _require_finite(
            lambda0=self.lambda0, lambdas=lams, beta0=self.beta0, betas=betas, weights=w
        )
        if self.lambda0 < 0.0 or any(v < 0.0 for v in lams):
            raise ModelSpecError("claim rates must be >= 0")
        if self.lambda0 + sum(lams) <= 0.0:
            raise ModelSpecError("at least one claim rate must be positive")
        if not (self.beta0 > 0.0) or any(not (v > 0.0) for v in betas):
            raise ModelSpecError("claim size rates must be positive")
        if any(v < 0.0 for v in w):
            raise ModelSpecError(f"split weights must be >= 0, got {w}")
        if abs(math.fsum(w) - 1.0) > 1e-12:
            raise ModelSpecError(f"split weights must sum to 1 within 1e-12, got sum {math.fsum(w)!r}")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def total_rate(self) -> float:
        return self.lambda0 + math.fsum(self.lambdas)


def build_common_shock_cp(spec: CommonShockCPSpec) -> JointTransformModel:
    """Common-shock compound Poisson pool.  Risks with equal (lambda_i,
    beta_i, w_i) form one class: the transform has one column per class, and
    L_S sums each class's exponent term times its multiplicity.  The work is
    an (m+1, N) array over the N transform nodes, one row per class up to
    m = 2048 and node-major above (``_class_rows``)."""
    n = spec.n
    lam0, b0 = spec.lambda0, spec.beta0
    first, cols = _risk_classes(zip(spec.lambdas, spec.betas, spec.weights))
    m = len(first)
    lam = np.array(spec.lambdas)[first]
    bet = np.array(spec.betas)[first]
    p = np.array(spec.weights)[first]

    # each class's rate counts once per risk in the exponent of L_S; the
    # per-class parameters are complex columns, so no loop casts them
    lam_sum = lam * np.bincount(cols)
    bet, lam_bet, shock, lam_sum = (
        v.astype(complex)[:, None] for v in (bet, lam * bet, lam0 * b0 * p, lam_sum)
    )

    def transform(z):
        # q = 1/(beta_c + z) is formed once per class and node in the work
        # array's rows and then reused in place, and t is the one other
        # (m, N) array a call holds
        z = np.asarray(z)
        W = _class_rows(z, m)
        zf = z.reshape(-1)
        q = W[1:]
        np.reciprocal(np.add(bet, zf, out=q), out=q)
        q0 = 1.0 / (b0 + zf)
        t = bet * q
        t -= 1.0
        t *= lam_sum
        ls = np.exp(lam0 * (b0 * q0 - 1.0) + t.sum(axis=0), out=W[0])
        q *= q
        q *= lam_bet
        q += np.multiply(shock, q0 * q0, out=t)
        q *= ls
        return W.T[: z.size].reshape(z.shape + (m + 1,))

    atom_mass = math.exp(-spec.total_rate)
    return _joint_model(f"common_shock_cp(n={n})", n, transform, atom_mass=atom_mass, risk_columns=cols)


# ---------------------------------------------------------------------------
# lognormal portfolio (Gauss-Hermite transform approximation)


@lru_cache(maxsize=None)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes v_j plus log(w_j) + v_j^2; edge weights underflow to 0 for very
    # large rules, log turns them into -inf terms that drop out cleanly
    v, w = roots_hermite(order)
    with np.errstate(divide="ignore"):
        return v, np.log(w) + v * v


_EXP_UNDERFLOW = -700.0


def _lognormal_sums(z, mu: np.ndarray, sigma: np.ndarray, order: int, stats: dict):
    """(E[exp(-z Y_j)], E[Y_j exp(-z Y_j)]) for independent Y_j lognormal(mu_j,
    sigma_j) at the (N,) nodes z with Re z >= 0, each an (m, N) array of
    class rows, with mu and sigma (m, 1) columns.

    Plain quadrature in the normal variable loses all digits once |Im z| is
    large, because exp(-z e^(mu + sigma x)) oscillates with unbounded local
    frequency.  Instead the integration ray is rotated by psi = arg(z), which
    turns the kernel into exp(-|z| t) on the ray and leaves a bounded
    oscillation exp(i psi x / sigma); a Gauss-Hermite rule centered on the
    Lambert-W saddle of the rotated exponent then converges uniformly in
    |Im z|.  Where psi^2 / (2 sigma^2) > 600 (a near-degenerate risk) the
    rotated representation is ill-conditioned, with terms ~ exp(psi^2 /
    (2 sigma^2)), but the kernel barely oscillates: there the direct rule
    (no rotation, no shift) is the accurate one, chosen per node and risk.
    Terms with exponent real part below -700 are zeroed (they underflow
    anyway) and counted in ``stats['suppressed_terms']``.  The sums run over
    the Gauss-Hermite nodes one at a time: every array is (risks, nodes)."""
    z = np.asarray(z)[None, :]
    refused = (z.real < 0.0) | ((z.real == 0.0) & (z.imag != 0.0))
    if refused.any():
        raise DomainError(f"lognormal transform needs Re z >= 0, got {z[refused][0]}")
    v, logw = _gh_rule(order)
    radius = np.abs(z)
    psi = np.arctan2(z.imag, z.real)
    direct = psi * psi / (2.0 * sigma * sigma) > 600.0
    psi = np.where(direct, 0.0, psi)
    sad = np.where(direct, 0.0, lambertw(radius * sigma * sigma * np.exp(mu)).real)
    lam = 1.0 / np.sqrt(1.0 + sad)
    centre = -sad / sigma
    spread = math.sqrt(2.0) * lam
    rotation = 1j * psi / sigma
    kernel = np.where(direct, z, radius)
    shift = psi * psi / (2.0 * sigma * sigma)
    sums = np.zeros((2,) + kernel.shape, dtype=complex)
    for vj, logwj in zip(v, logw):
        x = centre + spread * vj
        log_y = mu + sigma * x
        expo = logwj - 0.5 * x * x + rotation * x - kernel * np.exp(log_y) + shift
        for total, e in zip(sums, (expo, expo + log_y)):
            keep = e.real >= _EXP_UNDERFLOW
            stats["suppressed_terms"] = stats.get("suppressed_terms", 0) + np.count_nonzero(~keep)
            total += np.exp(e, out=np.zeros_like(e), where=keep)
    scale = lam / math.sqrt(math.pi)
    return scale * sums[0], scale * np.exp(-1j * psi) * sums[1]


@dataclass(frozen=True)
class LognormalPortfolioSpec:
    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    gh_order: int = 64

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in self.mu)
        sig = tuple(float(v) for v in self.sigma)
        if not mu or len(mu) != len(sig):
            raise ModelSpecError("mu and sigma must have equal positive length")
        if not all(math.isfinite(v) for v in mu):
            raise ModelSpecError(f"mu must be finite, got {mu}")
        if not all(math.isfinite(v) and v > 0.0 for v in sig):
            raise ModelSpecError(f"sigma must be finite and positive, got {sig}")
        if self.gh_order < 2 or self.gh_order % 2:
            raise ModelSpecError(f"gh_order must be a positive even integer, got {self.gh_order}")
        if max(sig) > 3.0:
            warnings.warn(
                f"sigma = {max(sig):g} > 3: the quadrature transform loses accuracy "
                "for very heavy lognormal tails",
                stacklevel=2,
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sig)

    @classmethod
    def from_moments(
        cls, means: Sequence[float], variances: Sequence[float], gh_order: int = 64
    ) -> "LognormalPortfolioSpec":
        means = tuple(float(v) for v in means)
        variances = tuple(float(v) for v in variances)
        if len(means) != len(variances):
            raise ModelSpecError("means and variances must have equal length")
        if any(m <= 0.0 for m in means) or any(v <= 0.0 for v in variances):
            raise ModelSpecError("moment matching needs positive means and variances")
        sig2 = tuple(math.log1p(v / m**2) for m, v in zip(means, variances))
        mu = tuple(math.log(m) - s2 / 2.0 for m, s2 in zip(means, sig2))
        return cls(mu, tuple(math.sqrt(s2) for s2 in sig2), gh_order)

    @property
    def n(self) -> int:
        return len(self.mu)


def build_lognormal_portfolio(spec: LognormalPortfolioSpec) -> JointTransformModel:
    """Independent lognormal risks; risks with equal (mu, sigma) form one
    class, whose sums are formed once."""
    n = spec.n
    first, cols = _risk_classes(zip(spec.mu, spec.sigma))
    mu = np.array(spec.mu)[first][:, None]
    sigma = np.array(spec.sigma)[first][:, None]
    stats: dict = {}
    risks = partial(_lognormal_sums, mu=mu, sigma=sigma, order=spec.gh_order, stats=stats)
    return _joint_model(
        f"lognormal(n={n},gh={spec.gh_order})", n, risks=risks, stats=stats, risk_columns=cols
    )
