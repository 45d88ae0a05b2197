"""Mixing laws for frailty portfolios.

A mixing law packages the Laplace-Stieltjes transform of a nonnegative
mixing variable Theta, its derivative, and a discrete quadrature
approximation sum_k w_k delta_{theta_k}, over which the frailty transform
of ``build_mixed_exp_frailty`` takes its expectation.  The closed-form
oracle uses ``lst`` and ``lst_deriv`` instead, and the samplers draw Theta
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, roots_genlaguerre

from .errors import ModelSpecError

_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MixingLawHandle:
    """Transform pair plus quadrature nodes for one mixing variable.

    nodes theta_k >= 0 and weights w_k > 0 are equal-length arrays with
    sum_k w_k = 1 up to 1e-10.  sampler, when present, draws Theta variates
    as sampler(rng, size).  Two handles are equal only if they are the same
    object.
    """

    lst: Callable[[float], float]
    lst_deriv: Callable[[float], float]
    nodes: np.ndarray
    weights: np.ndarray
    label: str = ""
    sampler: Optional[Callable] = None

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ModelSpecError(
                f"mixing nodes and weights must be 1-D arrays of equal length, got "
                f"shapes {nodes.shape} and {weights.shape}"
            )
        if not nodes.size:
            raise ModelSpecError("mixing law needs at least one quadrature node")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ModelSpecError("mixing quadrature nodes must be finite")
        if (nodes < 0.0).any():
            raise ModelSpecError("mixing quadrature locations must be >= 0")
        if (weights <= 0.0).any():
            raise ModelSpecError("mixing quadrature weights must be positive")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ModelSpecError(
                f"mixing quadrature weights sum to {total!r}, expected 1 within "
                f"{_WEIGHT_SUM_TOL}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gamma_mixing(alpha: float, n_nodes: int = 200) -> MixingLawHandle:
    """Gamma(alpha, 1) mixing: L(u) = (1+u)^(-alpha).

    Quadrature is generalized Gauss-Laguerre.  For alpha > 1 it has
    exponent alpha-2, each weight times its node: a rule for the same law,
    exact for p(theta)/theta with p of degree up to 2*n_nodes - 1, so for
    1/theta, which a frailty mean E[X_i] = lambda_i E[1/Theta] needs.  For
    alpha <= 1, where E[1/Theta] is infinite, the exponent is alpha-1 and
    the rule is exact for polynomials up to degree 2*n_nodes - 1.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ModelSpecError(f"gamma mixing needs alpha > 0, got {alpha}")
    if n_nodes < 1:
        raise ModelSpecError(f"need at least one quadrature node, got {n_nodes}")
    if alpha > 1.0:
        x, w = roots_genlaguerre(n_nodes, alpha - 2.0)
        w = w * x
    else:
        x, w = roots_genlaguerre(n_nodes, alpha - 1.0)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ModelSpecError(
            f"gamma mixing: the {n_nodes}-node Gauss-Laguerre rule overflows to "
            "non-finite nodes or weights; use fewer nodes"
        )
    with np.errstate(divide="ignore"):
        weights = np.exp(np.log(w) - gammaln(alpha))
    # far-tail weights underflow to 0 for large rules; they carry no mass
    keep = weights > 0.0

    def lst(u):
        return (1.0 + u) ** (-alpha)

    def lst_deriv(u):
        return -alpha * (1.0 + u) ** (-alpha - 1.0)

    def sampler(rng, size):
        return rng.gamma(alpha, 1.0, size)

    return MixingLawHandle(
        lst, lst_deriv, x[keep], weights[keep], label=f"gamma(alpha={alpha:g})", sampler=sampler
    )


def _legendre_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def levy_mixing(kappa: float, n_nodes: int = 200) -> MixingLawHandle:
    """Positive stable(1/2) mixing: L(u) = exp(-kappa*sqrt(u)).

    The density kappa/(2 sqrt(pi)) theta^(-3/2) exp(-kappa^2/(4 theta)) has
    both an essential singularity at 0 and a heavy theta^(-3/2) tail, so a
    single rule on theta is hopeless.  Substituting theta = v^2 tames the
    singularity; the trunk rule covers v in [kappa/12, 10 kappa] and the tail
    v > 10 kappa is folded onto w = 1/v in (0, 1/(10 kappa)], where the
    integrand is an analytic Gaussian.  The mass dropped below v = kappa/12
    is erfc(6) ~ 2e-17.
    """
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ModelSpecError(f"levy mixing needs kappa > 0, got {kappa}")
    if n_nodes < 2:
        raise ModelSpecError(f"need at least two quadrature nodes, got {n_nodes}")
    n_trunk = n_nodes // 2
    n_tail = n_nodes - n_trunk
    c = kappa / math.sqrt(math.pi)

    v, wv = _legendre_on(kappa / 12.0, 10.0 * kappa, n_trunk)
    trunk_theta = v**2
    trunk_w = wv * c * np.exp(-(kappa**2) / (4.0 * v**2)) / v**2

    u, wu = _legendre_on(0.0, 1.0 / (10.0 * kappa), n_tail)
    tail_theta = 1.0 / u**2
    tail_w = wu * c * np.exp(-(kappa**2) * u**2 / 4.0)

    theta = np.concatenate([trunk_theta, tail_theta])
    weights = np.concatenate([trunk_w, tail_w])
    weights = weights / math.fsum(weights.tolist())

    def lst(u):
        return math.exp(-kappa * math.sqrt(u))

    def lst_deriv(u):
        r = math.sqrt(u)
        return -kappa / (2.0 * r) * math.exp(-kappa * r)

    def sampler(rng, size):
        z = rng.standard_normal(size)
        return kappa**2 / (2.0 * z**2)

    return MixingLawHandle(
        lst, lst_deriv, theta, weights, label=f"levy(kappa={kappa:g})", sampler=sampler
    )


def point_mass_mixing(theta0: float) -> MixingLawHandle:
    """Degenerate mixing at theta0 > 0 (independent exponentials scaled by theta0)."""
    if not (theta0 > 0.0 and math.isfinite(theta0)):
        raise ModelSpecError(f"point mass location must be positive, got {theta0}")

    def lst(u):
        return math.exp(-theta0 * u)

    def lst_deriv(u):
        return -theta0 * math.exp(-theta0 * u)

    def sampler(rng, size):
        return np.full(size, theta0)

    return MixingLawHandle(
        lst, lst_deriv, (theta0,), (1.0,), label=f"point(theta={theta0:g})", sampler=sampler
    )
