"""One-dimensional numerical Laplace inversion.

Two rules are provided: the Gaver-Stehfest rule, which samples the transform
on the positive real axis with alternating combinatorial weights, and the
Euler (binomial-accelerated Fourier series) rule on a Bromwich contour.  The
Euler rule optionally applies an exponential tilt theta > 0: the transform is
then sampled at z_k - theta and the recovered value multiplied by
exp(-theta*s), which damps the oscillatory error at large s.  Tilting is
meaningless for Gaver-Stehfest (its nodes would leave the transform's domain),
so any positive tilt there is refused.

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


@dataclass(frozen=True)
class GsScheme:
    """Real-axis rule of order M (2M transform evaluations per point)."""

    M: int = 8
    weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", gs_weights(self.M))

    @property
    def nodes_per_point(self) -> int:
        return 2 * self.M

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

    def __post_init__(self) -> None:
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise InversionError(f"contour parameter A must be positive, got {self.A}")
        if self.N < 0 or self.m < 0:
            raise InversionError(f"need N >= 0 and m >= 0, got N={self.N}, m={self.m}")
        if not (self.theta >= 0.0) or not math.isfinite(self.theta):
            raise InversionError(f"tilt must be finite and >= 0, got {self.theta}")

    @property
    def nodes_per_point(self) -> int:
        return self.N + self.m + 1

    def describe(self) -> str:
        if self.theta > 0.0:
            return f"euler(A={self.A:g},N={self.N},m={self.m},theta={self.theta:g})"
        return f"euler(A={self.A:g},N={self.N},m={self.m})"


Scheme = GsScheme | EulerScheme


def scheme_nodes(scheme: Scheme, s: float) -> np.ndarray:
    """Transform evaluation nodes for one gridpoint, as a complex array."""
    if not (s > 0.0):
        raise DomainError(f"inversion target must satisfy s > 0, got {s}")
    if isinstance(scheme, GsScheme):
        c = _LN2 / s
        ks = np.arange(1, 2 * scheme.M + 1, dtype=float)
        return (ks * c).astype(complex)
    re = scheme.A / (2.0 * s) - scheme.theta
    if not (re > 0.0):
        raise InversionError(
            f"contour violation at s={s}: A={scheme.A} requires A > 2*theta*s = "
            f"{2.0 * scheme.theta * s}"
        )
    c = math.pi / s
    ks = np.arange(scheme.N + scheme.m + 1, dtype=float)
    return re + 1j * (ks * c)


def invert_values(values: np.ndarray, s: float, scheme: Scheme) -> np.ndarray:
    """Invert many transforms at one s from their pre-evaluated node values.

    ``values`` has one row per node (in ``scheme_nodes`` order, real parts)
    and one column per target transform.  Gaver-Stehfest sums each column
    with ``math.fsum``; Euler forms Neumaier-compensated running sums of the
    alternating series 0.5*a_0 - a_1 + a_2 - ..., elementwise across columns,
    and takes the binomial average of the partial sums S_N..S_{N+m}.
    """
    values = np.asarray(values, dtype=float)
    if isinstance(scheme, GsScheme):
        c = _LN2 / s
        return np.array(
            [
                c * math.fsum(w * v for w, v in zip(scheme.weights, values[:, j]))
                for j in range(values.shape[1])
            ]
        )
    ncols = values.shape[1]
    acc = np.zeros(ncols)
    comp = np.zeros(ncols)
    csums = np.empty((values.shape[0], ncols))
    for k in range(values.shape[0]):
        v = values[k]
        t = 0.5 * v if k == 0 else (v if k % 2 == 0 else -v)
        tnew = acc + t
        comp = comp + np.where(np.abs(acc) >= np.abs(t), (acc - tnew) + t, (t - tnew) + acc)
        acc = tnew
        csums[k] = acc + comp
    pref = math.exp(scheme.A / 2.0) / s
    sel = csums[scheme.N : scheme.N + scheme.m + 1]
    coef = [comb(scheme.m, r) * pref for r in range(scheme.m + 1)]
    out = np.array(
        [math.fsum(coef[r] * sel[r, j] for r in range(scheme.m + 1)) for j in range(ncols)]
    )
    out /= 2.0**scheme.m
    if scheme.theta > 0.0:
        out *= math.exp(-scheme.theta * s)
    return out


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
