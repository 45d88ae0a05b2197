"""Independent reference values for conditional mean allocations.

Everything here is computed without Laplace inversion: closed-form densities,
truncated series expansions, and Monte Carlo smoothing.  The inversion
pipeline is tested against these, never against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammainc
from scipy.stats import poisson

from .errors import OracleError, SamplingError
from .mixing import MixingLawHandle
from .models import (
    CommonShockCPSpec,
    KatzCompoundSpec,
    LognormalPortfolioSpec,
    MatrixExpSpec,
    MixedExpFrailtySpec,
    is_phase_type,
)

_BALANCE_RTOL = 1e-9
_RANGE_SLACK = 1e-6


@dataclass(frozen=True)
class ClosedFormOracle:
    """Reference pair (f_S, xi) with xi(i, s) = h_i(s) f_S(s).

    Construction probes the budget identity sum_i xi(i, s) = s f_S(s) at
    interior points of ``valid_range`` (relative tolerance 1e-9) and checks
    0 <= xi(i,s)/f_S(s) <= s up to 1e-6 slack, so a miswired oracle fails
    immediately rather than silently blessing wrong allocations.
    """

    n: int
    f_S: Callable[[float], float]
    xi: Callable[[int, float], float]
    valid_range: tuple[float, float]
    label: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.valid_range
        if not (0.0 <= lo < hi):
            raise OracleError(f"invalid range {self.valid_range}")
        span = min(hi, lo + 20.0) - lo
        probes = [lo + frac * span for frac in (0.11, 0.37, 0.62, 0.88)]
        for s in probes:
            if s <= 0.0:
                continue
            f = self.f_S(s)
            if not (math.isfinite(f) and f >= 0.0):
                raise OracleError(f"{self.label}: f_S({s}) = {f}")
            parts = [self.xi(i, s) for i in range(self.n)]
            target = s * f
            if abs(math.fsum(parts) - target) > _BALANCE_RTOL * max(abs(target), 1e-300):
                raise OracleError(
                    f"{self.label}: budget identity violated at s={s}: "
                    f"sum xi = {math.fsum(parts)!r}, s*f_S = {target!r}"
                )
            if f > 0.0:
                for i, p in enumerate(parts):
                    h = p / f
                    if not (-_RANGE_SLACK <= h <= s + _RANGE_SLACK):
                        raise OracleError(
                            f"{self.label}: h_{i}({s}) = {h} outside [0, {s}]"
                        )

    def h(self, i: int, s: float) -> float:
        return self.xi(i, s) / self.f_S(s)


# ---------------------------------------------------------------------------
# mixed-exponential frailty, distinct scale parameters


def mixed_exp_oracle(spec: MixedExpFrailtySpec) -> ClosedFormOracle:
    """Density and allocations for a mixed-exponential frailty portfolio.

    Conditionally on Theta the sum is hypoexponential; the partial-fraction
    coefficients A_j = prod_{m != j} lambda_j / (lambda_j - lambda_m) do not
    depend on Theta, so the mixture only enters through the mixing transform
    and its derivative.  Tied scales have no partial-fraction form and are
    refused.
    """
    lam = spec.lambdas
    n = len(lam)
    mix = spec.mixing
    for a in range(n):
        for b in range(a + 1, n):
            if abs(lam[a] - lam[b]) <= 1e-8 * max(lam[a], lam[b]):
                raise OracleError(
                    f"scales {lam[a]} and {lam[b]} are tied; the partial-fraction "
                    "oracle needs distinct scales"
                )
    A = [
        math.prod(lam[j] / (lam[j] - lam[m]) for m in range(n) if m != j)
        for j in range(n)
    ]

    def f_S(s: float) -> float:
        return -math.fsum(A[j] / lam[j] * mix.lst_deriv(s / lam[j]) for j in range(n))

    def xi(i: int, s: float) -> float:
        own = -(A[i] * s / lam[i]) * mix.lst_deriv(s / lam[i])
        cross = math.fsum(
            A[j]
            * lam[i]
            / (lam[j] - lam[i])
            * (mix.lst(s / lam[j]) - mix.lst(s / lam[i]))
            for j in range(n)
            if j != i
        )
        return own + cross

    return ClosedFormOracle(
        n=n, f_S=f_S, xi=xi, valid_range=(0.0, math.inf),
        label=f"mixed_exp_oracle({mix.label})",
    )


# ---------------------------------------------------------------------------
# two-risk matrix-exponential example: Erlang(2, lam) + Exp(mu)


def me_example_oracle(lam: float, mu: float) -> ClosedFormOracle:
    """Closed form for S = Erlang(2, lam) + Exp(mu) with lam != mu.

    h_1 uses expm1-based differences that stay accurate for small delta*s;
    rates within relative 1e-8 of each other are refused, use
    ``me_example_equal_rates_oracle`` instead.
    """
    if not (lam > 0.0 and mu > 0.0):
        raise OracleError(f"rates must be positive, got lam={lam}, mu={mu}")
    if abs(lam - mu) <= 1e-8 * max(lam, mu):
        raise OracleError("rates are tied; use me_example_equal_rates_oracle")
    delta = lam - mu

    def f_S(s: float) -> float:
        return lam**2 * mu * math.exp(-mu * s) * (1.0 - (1.0 + delta * s) * math.exp(-delta * s)) / delta**2

    def h1(s: float) -> float:
        x = delta * s
        den = math.expm1(x) - x
        num = den - x * x / 2.0
        return (2.0 / delta) * num / den

    def xi(i: int, s: float) -> float:
        f = f_S(s)
        return h1(s) * f if i == 0 else (s - h1(s)) * f

    return ClosedFormOracle(
        n=2, f_S=f_S, xi=xi, valid_range=(0.0, 60.0), label=f"me_example(lam={lam:g},mu={mu:g})"
    )


def me_example_equal_rates_oracle(rate: float) -> ClosedFormOracle:
    """Same portfolio at the removable singularity lam = mu = rate: S is
    Erlang(3, rate) and h_1(s) = 2s/3 exactly."""
    if not (rate > 0.0):
        raise OracleError(f"rate must be positive, got {rate}")

    def f_S(s: float) -> float:
        return rate**3 * s**2 * math.exp(-rate * s) / 2.0

    def xi(i: int, s: float) -> float:
        f = f_S(s)
        return (2.0 * s / 3.0) * f if i == 0 else (s / 3.0) * f

    return ClosedFormOracle(
        n=2, f_S=f_S, xi=xi, valid_range=(0.0, 60.0), label=f"me_example_equal(rate={rate:g})"
    )


# ---------------------------------------------------------------------------
# common-shock compound Poisson series expansion


@dataclass(frozen=True)
class TruncationReport:
    """Book-keeping for the claim-count truncation.

    tail_mass is the Poisson probability of more than K total claims (the
    mass the series drops); total_mass integrates atom plus series density;
    gap = |1 - tail_mass - total_mass| measures numerical loss in the
    partial-fraction accumulation itself.
    """

    K: int
    tail_mass: float
    total_mass: float
    gap: float


_K_CAP = 60


class CscpSeriesOracle:
    """Truncated Poisson-mixture-of-Erlangs expansion of a common-shock
    compound Poisson portfolio.

    Conditioning on the vector of claim counts makes S a convolution of
    Erlangs, whose density is a sum of polynomial * exponential terms via
    partial fractions; summing over all count vectors with at most K total
    claims gives f_S, and bumping the relevant rate's multiplicity by two
    gives each xi_i.  K is the smallest count with Poisson tail mass at most
    ``mass_tol``, which must lie in (0, 1) and above the tail masses scipy
    resolves (near 1e-16).
    """

    def __init__(self, spec: CommonShockCPSpec, mass_tol: float = 1e-8):
        self.spec = spec
        self.mass_tol = float(mass_tol)
        n = spec.n
        lam_all = (spec.lambda0,) + spec.lambdas
        rate_all = (spec.beta0,) + spec.betas
        lam_total = spec.total_rate

        K = poisson.isf(self.mass_tol, lam_total) if 0.0 < self.mass_tol < 1.0 else math.nan
        if not math.isfinite(K):
            raise OracleError(
                f"mass_tol must be in (0, 1) and resolvable by scipy, got {mass_tol}"
            )
        K = int(K)
        while K > 0 and poisson.sf(K - 1, lam_total) <= self.mass_tol:
            K -= 1
        while K <= _K_CAP and poisson.sf(K, lam_total) > self.mass_tol:
            K += 1
        if K > _K_CAP:
            raise OracleError(
                f"need K = {K} > {_K_CAP} claim terms for tail mass {self.mass_tol}; "
                "the expansion would be too ill-conditioned"
            )
        self.K = K
        tail = float(poisson.sf(K, lam_total))

        # distinct claim-size rates; near-ties break the partial fractions
        rho: list[float] = []
        stream_rate = []
        for r in rate_all:
            for q, existing in enumerate(rho):
                if r == existing:
                    stream_rate.append(q)
                    break
            else:
                rho.append(r)
                stream_rate.append(len(rho) - 1)
        for a in range(len(rho)):
            for b in range(a + 1, len(rho)):
                if abs(rho[a] - rho[b]) <= 1e-8 * max(rho[a], rho[b]):
                    raise OracleError(
                        f"claim-size rates {rho[a]} and {rho[b]} are nearly tied; "
                        "the partial-fraction expansion is ill-conditioned"
                    )
        D = len(rho)
        self._rho = np.array(rho)
        maxdeg = K + 2  # bumped multiplicity can reach K + 2
        pf_cache: dict[tuple[int, ...], list[np.ndarray]] = {}

        def pf_polys(mult: tuple[int, ...]) -> list[np.ndarray]:
            """Per-rate coefficient arrays a_j with density
            sum_j sum_d a_j[d] s^d exp(-rho_j s) for the Erlang convolution
            with multiplicities ``mult`` (constant prod rho^mult included)."""
            got = pf_cache.get(mult)
            if got is not None:
                return got
            const = math.prod(r**m for r, m in zip(rho, mult))
            out = [np.zeros(maxdeg) for _ in range(D)]
            for j in range(D):
                mj = mult[j]
                if mj == 0:
                    continue
                series = np.zeros(mj)
                series[0] = 1.0
                scale = 1.0
                for l in range(D):
                    if l == j or mult[l] == 0:
                        continue
                    d = rho[l] - rho[j]
                    ml = mult[l]
                    scale *= d ** (-ml)
                    fac = np.array(
                        [(-1) ** q * math.comb(ml + q - 1, q) * d ** (-q) for q in range(mj)]
                    )
                    series = np.convolve(series, fac)[:mj]
                for r in range(1, mj + 1):
                    # coefficient of s^{r-1}/(r-1)! exp(-rho_j s)
                    out[j][r - 1] += const * scale * series[mj - r] / math.factorial(r - 1)
            pf_cache[mult] = out
            return out

        active = [k for k in range(n + 1) if lam_all[k] > 0.0]
        log_lam = {k: math.log(lam_all[k]) for k in active}

        poly_f = [np.zeros(maxdeg) for _ in range(D)]
        poly_common = [np.zeros(maxdeg) for _ in range(D)]
        poly_idio = [[np.zeros(maxdeg) for _ in range(D)] for _ in range(n)]
        idx0 = stream_rate[0]
        log_norm = -lam_total

        def visit(pos: int, counts: dict, total: int, log_w: float) -> None:
            if pos == len(active):
                weight = math.exp(log_norm + log_w)
                mult = [0] * D
                for k, c in counts.items():
                    mult[stream_rate[k]] += c
                key = tuple(mult)
                if total >= 1:
                    for j, arr in enumerate(pf_polys(key)):
                        poly_f[j] += weight * arr
                if spec.lambda0 > 0.0:
                    bumped = list(mult)
                    bumped[idx0] += 2
                    for j, arr in enumerate(pf_polys(tuple(bumped))):
                        poly_common[j] += weight * arr
                for i in range(n):
                    if spec.lambdas[i] > 0.0:
                        bumped = list(mult)
                        bumped[stream_rate[i + 1]] += 2
                        for j, arr in enumerate(pf_polys(tuple(bumped))):
                            poly_idio[i][j] += weight * arr
                return
            k = active[pos]
            lw = 0.0
            for c in range(K - total + 1):
                if c > 0:
                    lw += log_lam[k] - math.log(c)
                counts[k] = c
                visit(pos + 1, counts, total + c, log_w + lw)
            del counts[k]

        visit(0, {}, 0, 0.0)

        self._poly_f = poly_f
        self._poly_xi = []
        for i in range(n):
            polys = [np.zeros(maxdeg) for _ in range(D)]
            if spec.lambda0 > 0.0:
                scale = spec.lambda0 * spec.weights[i] / spec.beta0
                for j in range(D):
                    polys[j] += scale * poly_common[j]
            if spec.lambdas[i] > 0.0:
                scale = spec.lambdas[i] / spec.betas[i]
                for j in range(D):
                    polys[j] += scale * poly_idio[i][j]
            self._poly_xi.append(polys)

        self.atom_mass = math.exp(-lam_total)
        total_integral = self.atom_mass + math.fsum(
            poly_f[j][d] * math.factorial(d) / rho[j] ** (d + 1)
            for j in range(D)
            for d in range(maxdeg)
        )
        self.truncation = TruncationReport(
            K=K,
            tail_mass=tail,
            total_mass=total_integral,
            gap=abs(1.0 - tail - total_integral),
        )
        self.n = n
        self.valid_range = (0.0, math.inf)
        self.label = f"cscp_series(K={K})"

    def _eval(self, polys: list[np.ndarray], s: float) -> float:
        return math.fsum(
            float(np.polynomial.polynomial.polyval(s, polys[j])) * math.exp(-self._rho[j] * s)
            for j in range(len(self._rho))
        )

    def f_S(self, s: float) -> float:
        return self._eval(self._poly_f, s)

    def xi(self, i: int, s: float) -> float:
        return self._eval(self._poly_xi[i], s)

    def h(self, i: int, s: float) -> float:
        return self.xi(i, s) / self.f_S(s)

    def cdf(self, s: float) -> float:
        """P(S <= s) for the truncated expansion (atom included)."""
        if s < 0.0:
            return 0.0
        acc = self.atom_mass
        for j, rho_j in enumerate(self._rho):
            for d, coef in enumerate(self._poly_f[j]):
                if coef != 0.0:
                    acc += coef * math.factorial(d) / rho_j ** (d + 1) * float(
                        gammainc(d + 1, rho_j * s)
                    )
        return acc


def cscp_series_oracle(spec: CommonShockCPSpec, mass_tol: float = 1e-8) -> CscpSeriesOracle:
    return CscpSeriesOracle(spec, mass_tol)


# ---------------------------------------------------------------------------
# samplers


def philox_generator(seed: int, substream: int = 0) -> np.random.Generator:
    """Counter-based generator; substreams are independent jumps, safe to
    hand to parallel workers."""
    bits = np.random.Philox(key=np.uint64(seed))
    if substream:
        bits = bits.jumped(substream)
    return np.random.Generator(bits)


def _sample_phase_type(rng, specs: Sequence[MatrixExpSpec], size: int) -> np.ndarray:
    cols = []
    for sp in specs:
        d = sp.dim
        exit_rate = -np.diag(sp.T)
        # row-stochastic jump matrix: internal moves then absorption
        P = np.zeros((d, d + 1))
        for i in range(d):
            P[i, :d] = sp.T[i] / exit_rate[i]
            P[i, i] = 0.0
            P[i, d] = sp.u[i] / exit_rate[i]
        cum = np.cumsum(P, axis=1)
        start = np.concatenate([sp.alpha, [sp.p0]])
        state = (rng.random(size)[:, None] > np.cumsum(start)[None, :]).sum(axis=1)
        x = np.zeros(size)
        activ = state < d
        while activ.any():
            idx = np.flatnonzero(activ)
            st = state[idx]
            x[idx] += rng.exponential(1.0, idx.size) / exit_rate[st]
            nxt = (rng.random(idx.size)[:, None] > cum[st]).sum(axis=1)
            state[idx] = nxt
            activ[idx] = nxt < d
        cols.append(x)
    return np.column_stack(cols)


def _multinomial_rows(rng, totals: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise multinomial thinning with per-row totals, via iterated
    binomials (numpy's multinomial wants a scalar count)."""
    remaining = totals.copy()
    left = 1.0
    out = np.empty((totals.shape[0], p.shape[0]), dtype=np.int64)
    for i, pi in enumerate(p[:-1]):
        frac = 0.0 if left <= 0.0 else min(1.0, pi / left)
        draw = rng.binomial(remaining, frac)
        out[:, i] = draw
        remaining = remaining - draw
        left -= pi
    out[:, -1] = remaining
    return out


def _segment_sums(rng, counts: np.ndarray, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """Sum ``counts[k]`` fresh severity draws for each row k."""
    total = int(counts.sum())
    out = np.zeros(counts.shape[0])
    if total == 0:
        return out
    claims = draw(total)
    nz = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts[nz])[:-1]])
    out[nz] = np.add.reduceat(claims, starts)
    return out


def make_sampler(spec) -> Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]:
    """Vectorized portfolio sampler for a model spec (or a sequence of
    matrix-exponential specs).  Returns sample(rng, size) -> (S, X) with X of
    shape (size, n) and S its row sum."""

    if isinstance(spec, MixedExpFrailtySpec):
        lam = np.array(spec.lambdas)
        mix: MixingLawHandle = spec.mixing
        if mix.sampler is None:
            raise SamplingError(f"mixing law {mix.label!r} has no sampler")

        def sample(rng, size):
            theta = np.asarray(mix.sampler(rng, size))
            X = lam[None, :] * rng.exponential(1.0, (size, len(lam))) / theta[:, None]
            return X.sum(axis=1), X

        return sample

    if isinstance(spec, CommonShockCPSpec):
        lam = np.array(spec.lambdas)
        bet = np.array(spec.betas)
        p = np.array(spec.weights)

        def sample(rng, size):
            X = np.zeros((size, spec.n))
            if spec.lambda0 > 0.0:
                n0 = rng.poisson(spec.lambda0, size)
                routed = _multinomial_rows(rng, n0, p)
                X += rng.gamma(routed, 1.0 / spec.beta0)
            for i in range(spec.n):
                if lam[i] > 0.0:
                    ni = rng.poisson(lam[i], size)
                    X[:, i] += rng.gamma(ni, 1.0 / bet[i])
            return X.sum(axis=1), X

        return sample

    if isinstance(spec, KatzCompoundSpec):
        for i, sev in enumerate(spec.severities):
            if sev.sampler is None and spec.kinds[i] != "degenerate":
                raise SamplingError(f"severity {i} ({sev.label!r}) has no sampler")

        def sample(rng, size):
            X = np.zeros((size, spec.n))
            for i in range(spec.n):
                kind = spec.kinds[i]
                a, b = spec.a[i], spec.b[i]
                if kind == "degenerate":
                    continue
                if kind == "poisson":
                    counts = rng.poisson(b, size)
                elif kind == "binomial":
                    m = round(-(a + b) / a)
                    counts = rng.binomial(m, a / (a - 1.0), size)
                else:
                    counts = rng.negative_binomial((a + b) / a, 1.0 - a, size)
                sev = spec.severities[i]
                X[:, i] = _segment_sums(rng, counts, lambda k: sev.sampler(rng, k))
            return X.sum(axis=1), X

        return sample

    if isinstance(spec, LognormalPortfolioSpec):
        mu = np.array(spec.mu)
        sig = np.array(spec.sigma)

        def sample(rng, size):
            Z = rng.standard_normal((size, len(mu)))
            X = np.exp(mu[None, :] + sig[None, :] * Z)
            return X.sum(axis=1), X

        return sample

    if isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], MatrixExpSpec):
        for k, sp in enumerate(spec):
            if not is_phase_type(sp):
                raise SamplingError(
                    f"risk {k} is matrix-exponential but not verifiably phase-type; "
                    "no generic sampler exists"
                )
        specs = tuple(spec)

        def sample(rng, size):
            X = _sample_phase_type(rng, specs, size)
            return X.sum(axis=1), X

        return sample

    raise SamplingError(f"no sampler known for spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# kernel-smoothed conditional means


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_samples: int
    bandwidth: float
    effective_n: float


def mc_conditional_mean(
    sampler: Callable,
    i: int,
    s: float,
    bandwidth: float = 0.05,
    n_samples: int = 200_000,
    seed: int = 0,
    substream: int = 0,
) -> McEstimate:
    """Nadaraya-Watson estimate of E[X_i | S = s] with a Gaussian kernel.

    The reported standard error sqrt(sum w^2 (X - est)^2) / sum w treats the
    weights as fixed, which is the usual first-order approximation for ratio
    estimators.
    """
    if n_samples < 1000:
        raise SamplingError(f"need at least 1000 samples for a usable estimate, got {n_samples}")
    if not (bandwidth > 0.0):
        raise SamplingError(f"bandwidth must be positive, got {bandwidth}")
    rng = philox_generator(seed, substream)
    S, X = sampler(rng, n_samples)
    x = X[:, i]
    w = np.exp(-0.5 * ((S - s) / bandwidth) ** 2)
    wsum = w.sum()
    if not (wsum > 0.0):
        raise SamplingError(
            f"no samples landed near s = {s} (bandwidth {bandwidth}); "
            "increase n_samples or the bandwidth"
        )
    est = float(np.dot(w, x) / wsum)
    se = float(np.sqrt(np.dot(w**2, (x - est) ** 2)) / wsum)
    ess = float(wsum**2 / np.dot(w, w))
    return McEstimate(value=est, std_error=se, n_samples=n_samples, bandwidth=bandwidth, effective_n=ess)
