"""One-dimensional numerical Laplace inversion.

Both rules have the node/weight form of Abate and Whitt's unified framework
(INFORMS J. Computing 18, 2006), f(s) ~ c(s) sum_k w_k Re L(alpha_k): a scheme
carries s-free weights w_k and gives its nodes alpha_k and scale factor c(s)
at each s, and ``invert_values`` is the one kernel for both rules.
Gaver-Stehfest samples the positive real axis at alpha_k = k ln2/s
(k = 1..2M), with the alternating combinatorial weights zeta_k and
c = ln2/s.  Euler (binomial-accelerated Fourier series) samples a Bromwich
contour at alpha_k = A/(2s) - theta + i pi k/s (k = 0..N+m), with
c = e^{A/2}/s e^{-theta s}; its weight eta_k = (-1)^k 2^-m
sum_{r=max(0,k-N)}^m C(m, r), halved at k = 0, folds the alternating series
and the binomial average of its partial sums S_N..S_{N+m} into one number.

The Euler tilt theta > 0 is set only on the scheme.  It samples the
transform at nodes shifted left by theta and multiplies the result by
exp(-theta*s), which damps the oscillatory error at large s.  Tilting is
meaningless for Gaver-Stehfest (its nodes would leave the transform's
domain), so any positive tilt there is refused.

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

TILT_INCOMPATIBLE_MSG = (
    "gaver-stehfest cannot be combined with positive tilting; use the euler scheme"
)


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

    def nodes(self, s: float) -> np.ndarray:
        c = _LN2 / s
        ks = np.arange(1, 2 * self.M + 1, dtype=float)
        return (ks * c).astype(complex)

    def scale(self, s: float) -> float:
        return _LN2 / s

    def describe(self) -> str:
        return f"gs(M={self.M})"


@dataclass(frozen=True)
class EulerScheme:
    """Bromwich-contour rule: N retained terms, binomial average of order m,
    contour parameter A, optional tilt theta >= 0.

    A tilted call at s needs A > 2*theta*s, otherwise the shifted contour
    leaves the right half-plane and the call is refused.
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

    def nodes(self, s: float) -> np.ndarray:
        re = self.A / (2.0 * s) - self.theta
        if not (re > 0.0):
            raise InversionError(
                f"contour violation at s={s}: A={self.A} requires A > 2*theta*s = "
                f"{2.0 * self.theta * s}"
            )
        c = math.pi / s
        ks = np.arange(self.N + self.m + 1, dtype=float)
        return re + 1j * (ks * c)

    def scale(self, s: float) -> float:
        return math.exp(self.A / 2.0) / s * math.exp(-self.theta * s)

    def describe(self) -> str:
        if self.theta > 0.0:
            return f"euler(A={self.A:g},N={self.N},m={self.m},theta={self.theta:g})"
        return f"euler(A={self.A:g},N={self.N},m={self.m})"


Scheme = GsScheme | EulerScheme


def scheme_nodes(scheme: Scheme, s: float) -> np.ndarray:
    """Transform evaluation nodes for one gridpoint, as a complex array."""
    if not (s > 0.0):
        raise DomainError(f"inversion target must satisfy s > 0, got {s}")
    return scheme.nodes(s)


def invert_values(values: np.ndarray, s: float, scheme: Scheme) -> np.ndarray:
    """Invert many transforms at one s from their pre-evaluated node values.

    ``values`` has one row per node (in ``scheme_nodes`` order, real parts)
    and one column per target transform.  Each column's result is the
    scheme's scale factor times sum_k w_k values[k].  The sum runs node by
    node, elementwise across columns, so a column's result does not depend on
    the columns that come with it (a matrix product or a pairwise sum along
    the node axis would not promise that).
    """
    values = np.asarray(values, dtype=float)
    acc = np.zeros(values.shape[1:])
    for w, row in zip(scheme.weights, values, strict=True):
        acc += w * row
    return scheme.scale(s) * acc


def invert(transform: Callable, s: float, scheme: Scheme) -> float:
    """Invert one transform at s > 0: sample it at the scheme's nodes (a float
    on the real axis, a complex number on the contour) and invert that single
    column with ``invert_values``."""
    nodes = scheme_nodes(scheme, s)
    vals = np.empty((len(nodes), 1))
    for k, z in enumerate(nodes):
        zc = complex(z)
        raw = transform(zc.real if zc.imag == 0.0 else zc)
        v = complex(raw).real
        if not math.isfinite(v):
            raise InversionError(
                f"transform returned non-finite value {raw!r} at node {k} (z={zc}, s={s})"
            )
        vals[k, 0] = v
    return float(invert_values(vals, s, scheme)[0])
