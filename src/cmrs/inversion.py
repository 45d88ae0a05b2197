"""One-dimensional numerical Laplace inversion.

Both rules have the node/weight form of Abate and Whitt's unified framework
(INFORMS J. Computing 18, 2006), f(s) ~ c(s) sum_k w_k Re L(alpha_k): a scheme
carries s-free weights w_k and gives the nodes alpha_k and the scale factor
c(s) at every level at once, and ``invert_values`` is the one kernel for both
rules.  It takes node-major rows, one per node, each holding that node's
values for every column and point, and sums the weighted rows in one
``np.add.reduce`` along the node axis.  numpy adds the rows in order, as a
loop over the nodes would, when that axis is the outer one in memory (the
kernel makes its product in C order), and sums pairwise along a contiguous
axis, so a lone column is padded to two.

Gaver-Stehfest samples the positive real axis at alpha_k = k ln2/s
(k = 1..2M), with the alternating combinatorial weights zeta_k and
c = ln2/s.  Euler (binomial-accelerated Fourier series) samples a Bromwich
contour at alpha_k = A(s)/(2s) + i pi k/s (k = 0..N+m), with
c = e^{A(s)/2}/s; its weight eta_k = (-1)^k 2^-m
sum_{r=max(0,k-N)}^m C(m, r), halved at k = 0, folds the alternating series
and the binomial average of its partial sums S_N..S_{N+m} into one number.

The Euler tilt theta >= 0 is the contour parameter per level,
A(s) = A - 2 theta s.  It reaches further into the tail because the weighted
sum's rounding error is amplified by e^{A(s)/2} rather than e^{A/2}; it damps
no oscillatory error, and untilted Euler with a fixed smaller A reaches almost
as far.  One contour check, ``admitted``, keeps a level when each of its nodes
has Re z > 0 (for Euler, A(s) > 0); a level that fails it, or whose scale
factor overflows, fails alone.

At the default order M = 8 the Gaver-Stehfest error is the rule's own
truncation, not rounding: evaluated in exact rational arithmetic the order-8
rule misses smooth reference densities by the same amounts as this
double-precision engine (up to 1.7e-4 absolute, and a relative error near 1
where the density is ~1e-4), while rounding contributes under 1e-7.  Higher
orders converge in exact arithmetic, but the weights grow like ~22^M, so in
double precision the rounding of the transform values dominates from M ~ 10
on: M = 10 is the best order (worst miss 2.2e-5 on the same densities) and
M = 12 already misses by 6.5e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable

import numpy as np

from .errors import DomainError, InversionError

_LN2 = math.log(2.0)

GS_ORDER_CAP = 24


@lru_cache(maxsize=None)
def gs_weights_exact(M: int) -> tuple[Fraction, ...]:
    """Exact rational Gaver-Stehfest weights zeta_1..zeta_{2M}.

    They satisfy sum_k zeta_k = 0 and sum_k zeta_k/k = 1 exactly; both
    identities are checked here before the weights are released.
    """
    if not (1 <= M <= GS_ORDER_CAP):
        raise InversionError(f"gaver-stehfest order must be in 1..{GS_ORDER_CAP}, got {M}")
    out = []
    for k in range(1, 2 * M + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, M) + 1):
            acc += (
                Fraction(j ** (M + 1), factorial(M))
                * comb(M, j)
                * comb(2 * j, j)
                * comb(j, k - j)
            )
        out.append((-1) ** (M + k) * acc)
    assert sum(out) == 0
    assert sum(w / k for k, w in enumerate(out, start=1)) == 1
    return tuple(out)


@lru_cache(maxsize=None)
def gs_weights(M: int) -> tuple[float, ...]:
    """Gaver-Stehfest weights rounded once from exact rationals to floats."""
    return tuple(float(w) for w in gs_weights_exact(M))


def _whole(name: str, value) -> int:
    """``value`` as an int; a scheme order that is not a whole number >= 0 is refused."""
    if isinstance(value, bool) or not float(value).is_integer() or value < 0:
        raise InversionError(f"{name} must be a whole number >= 0, got {value!r}")
    return int(value)


@lru_cache(maxsize=None)
def euler_weights(N: int, m: int) -> tuple[float, ...]:
    """Euler weights eta_0..eta_{N+m}: the weight of node k in the binomial
    average 2^-m sum_r C(m, r) S_{N+r} of the partial sums of the alternating
    series a_0/2 - a_1 + a_2 - ...  Each is one correctly rounded quotient of
    integers, so exact in binary for m <= 52."""
    tails = [sum(comb(m, r) for r in range(j, m + 1)) for j in range(m + 1)]
    eta = [(-1) ** k * tails[max(0, k - N)] / 2**m for k in range(N + m + 1)]
    eta[0] /= 2.0
    return tuple(eta)


@dataclass(frozen=True)
class GsScheme:
    """Real-axis rule of order M (2M transform evaluations per point)."""

    M: int = 8
    weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _whole("gaver-stehfest order M", self.M))
        object.__setattr__(self, "weights", gs_weights(self.M))

    def nodes(self, s) -> np.ndarray:
        """The nodes at each level in ``s``, shape s.shape + (2M,)."""
        ks = np.arange(1, 2 * self.M + 1, dtype=float)
        return ks * (_LN2 / np.asarray(s, dtype=float))[..., None]

    def scale(self, s) -> np.ndarray:
        return _LN2 / np.asarray(s, dtype=float)

    def describe(self) -> str:
        return f"gs(M={self.M})"


@dataclass(frozen=True)
class EulerScheme:
    """Bromwich-contour rule: N retained terms, binomial average of order m,
    contour parameter A, optional tilt theta >= 0.

    The tilt lowers the contour parameter per level, A(s) = A - 2*theta*s:
    at s the rule is the untilted one with A = A(s), node for node and in
    its scale factor.  At s >= A/(2*theta) the contour leaves the right
    half-plane and the contour check fails that level alone.
    """

    A: float = 18.4
    N: int = 25
    m: int = 15
    theta: float = 0.0
    weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise InversionError(f"contour parameter A must be positive, got {self.A}")
        object.__setattr__(self, "N", _whole("euler order N", self.N))
        object.__setattr__(self, "m", _whole("euler order m", self.m))
        if not (self.theta >= 0.0) or not math.isfinite(self.theta):
            raise InversionError(f"tilt must be finite and >= 0, got {self.theta}")
        object.__setattr__(self, "weights", euler_weights(self.N, self.m))

    def contour(self, s) -> np.ndarray:
        """The contour parameter A(s) = A - 2*theta*s at each level in ``s``."""
        return self.A - 2.0 * self.theta * np.asarray(s, dtype=float)

    def nodes(self, s) -> np.ndarray:
        """The nodes at each level in ``s``, shape s.shape + (N+m+1,)."""
        s = np.asarray(s, dtype=float)[..., None]
        ks = np.arange(self.N + self.m + 1, dtype=float)
        # both parts filled in place: the sum A(s)/(2s) + 1j*(ks*pi/s), bit
        # for bit, without its complex multiply and add
        out = np.empty(s.shape[:-1] + ks.shape, dtype=complex)
        out.real = self.contour(s) / (2.0 * s)
        np.multiply(ks, math.pi / s, out=out.imag)
        return out

    def scale(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.exp(self.contour(s) / 2.0) / s

    def describe(self) -> str:
        if self.theta > 0.0:
            return f"euler(A={self.A:g},N={self.N},m={self.m},theta={self.theta:g})"
        return f"euler(A={self.A:g},N={self.N},m={self.m})"


Scheme = GsScheme | EulerScheme


def admitted(nodes: np.ndarray) -> np.ndarray:
    """The contour check: per point (all axes but the last), whether every
    node lies in the transforms' half-plane Re z > 0."""
    return (nodes.real > 0.0).all(axis=-1)


def invert_values(values: np.ndarray, s: float | np.ndarray, scheme: Scheme) -> np.ndarray:
    """Invert many transforms at many points from their pre-evaluated node values.

    ``values`` is node-major, shape (nodes,) + shape: one row per node (in
    ``scheme.nodes`` order, real parts), each row holding that node's value
    of every target transform at every point, and ``s`` (one point or an
    array of points) broadcasts against ``shape``.  Each entry of the
    result, of that shape, is its point's scale factor times
    sum_k w_k values[k, ...].  The sum is one ``np.add.reduce`` of the
    weighted rows along the node axis, starting from 0.0.  The product is
    made in C order, so that the node axis is the outer one in memory, and
    numpy then adds the rows one after another, elementwise, as the loop
    ``acc = 0.0; acc += w_k * row`` does; a column of -0.0 terms gives +0.0,
    as the loop's does.  So an entry does not depend on the points or
    columns that come with it.  Along a contiguous axis numpy sums pairwise
    instead, and a lone entry per row would be such an axis, so it is padded
    to two.  A point whose scale factor overflows gets NaN in every column,
    and an overflow elsewhere gives +-inf, silently.
    """
    rows = np.asarray(values, dtype=float)
    if len(rows) != len(scheme.weights):
        raise InversionError(
            f"{scheme.describe()} has {len(scheme.weights)} nodes, got {len(rows)} rows"
        )
    shape = rows.shape[1:]
    lone = rows[0].size == 1
    if lone:
        rows = np.repeat(rows.reshape(-1, 1), 2, axis=1)
    w = np.array(scheme.weights).reshape((-1,) + (1,) * (rows.ndim - 1))
    with np.errstate(over="ignore"):
        acc = np.add.reduce(np.multiply(rows, w, order="C"), axis=0, initial=0.0)
        if lone:
            acc = acc[:1].reshape(shape)
        scale = scheme.scale(s)
        return np.where(np.isinf(scale), np.nan, scale) * acc


def invert(transform: Callable, s: float, scheme: Scheme) -> float | np.ndarray:
    """Invert one transform, or several, at s > 0.  ``transform`` maps the
    array of the scheme's nodes to an array of values of the same shape, or
    of shape (nodes, columns) for several transforms (it is called once);
    ``invert_values`` inverts those columns at one point.  The result is a
    float for one transform and an array of the columns' values otherwise."""
    if not (s > 0.0):
        raise DomainError(f"inversion target must satisfy s > 0, got {s}")
    nodes = scheme.nodes(s)
    if not admitted(nodes):
        raise InversionError(
            f"contour violation at s={s}: the lowest node has Re z = {nodes.real.min():g}, "
            "and every node needs Re z > 0 (for euler: A > 2*theta*s)"
        )
    raw = np.asarray(transform(nodes))
    if raw.shape[:1] != nodes.shape or raw.ndim > 2:
        raise InversionError(
            f"transform returned shape {raw.shape} for nodes of shape {nodes.shape} (s={s})"
        )
    columns = raw.reshape(len(nodes), -1)
    bad = np.flatnonzero(~np.isfinite(columns).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise InversionError(
            f"transform returned non-finite value {raw[k]!r} at node {k} (z={nodes[k]}, s={s})"
        )
    values = invert_values(columns.real, s, scheme)
    if np.isnan(values).any():
        raise InversionError(f"the scale factor of {scheme.describe()} overflows at s={s}")
    return float(values[0]) if raw.ndim == 1 else values
