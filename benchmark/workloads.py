"""Seeded workloads of the cmrs benchmark.

A workload is a YAML run configuration (the only input the program gets),
the legs to run on it (one ``allocate()`` call each, on one scheme) and a
reference for the shares.  Seed 0 reproduces the shipped parameters
verbatim; any other seed scales every rate and intensity by its own factor
drawn from [1 - RATE_SPREAD, 1 + RATE_SPREAD] and keeps every size the same.

Why these three workloads (each stresses a different layer):

* ``me_erlang_pool``: matrix-exponential transforms, where transform
  evaluation (``models.complex_solve``) dominates and inversion is noise.
* ``cs_large_pool``: common-shock pool at n = 1000, where the per-column
  inversion kernel, CSV output and the O(n^2) diagonal check dominate.
* ``cs_wide_fade``: common-shock pool n = 3 on a 750-point grid with three
  schemes, where the per-node Python dominates; it is the accuracy guard
  (fade points of each scheme, series reference).

References are exact where they can be: the Erlang pool by partial
fractions in multiprecision, the common-shock pools by the truncated series
of ``cmrs.oracles`` with the trust-region rule of ``cmrs verify``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
import yaml

NAMES = ("me_erlang_pool", "cs_large_pool", "cs_wide_fade")

# Seeds move the rates by at most this share.  The fade points and the
# largest reference errors move by a few percent between seeds even at 0.1%,
# because each sits at one gridpoint where roundoff decides the outcome.
RATE_SPREAD = 0.005

# configs/common_shock_pool.yaml and configs/bench_common_shock.yaml
_CS_BASE = {
    "lambda0": 1.5,
    "lambdas": [0.8, 1.1, 0.6],
    "beta0": 0.9,
    "betas": [1.4, 0.7, 1.9],
    "weights": [0.2, 0.3, 0.5],
}
_ME_RATES = (1.0, 1.5, 2.0, 2.5)
_ME_STAGES = 3

# A share error above these fails the run.  The matrix-exponential reference
# is exact, so its bound is the verify tolerance of the shipped Erlang config;
# cs_wide_fade takes the verify tolerance of its own config.
_ME_REF_TOL = 1e-4
_CS_LARGE_REF_TOL = 1e-6  # shares are ~s/1000 here, so 1e-3 would test nothing
# shares of exchangeable risks come from identical arithmetic up to roundoff
EXCHANGE_TOL = 1e-9


@dataclass(frozen=True)
class Leg:
    """One ``allocate()`` call: a label and the scheme overrides applied to
    the config's scheme block."""

    label: str
    rule: str = "euler"
    theta: float | None = None  # None keeps the config's theta


@dataclass
class Workload:
    name: str
    seed: int
    config: dict  # the YAML document
    legs: tuple[Leg, ...]
    groups: tuple[tuple[int, ...], ...]  # exchangeable risks, () when none
    ref_tol: float
    # filled by attach_reference(): h_ref (points, n), NaN outside the
    # reference's trust region
    h_ref: np.ndarray | None = field(default=None, repr=False)
    ref_meta: dict = field(default_factory=dict)

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=False)


def _factors(seed: int, count: int) -> list[float]:
    if seed == 0:
        return [1.0] * count
    rng = random.Random(seed)
    return [1.0 + RATE_SPREAD * (2.0 * rng.random() - 1.0) for _ in range(count)]


def _cs_params(seed: int) -> dict:
    f = _factors(seed, 8)
    return {
        "lambda0": _CS_BASE["lambda0"] * f[0],
        "lambdas": [v * g for v, g in zip(_CS_BASE["lambdas"], f[1:4])],
        "beta0": _CS_BASE["beta0"] * f[4],
        "betas": [v * g for v, g in zip(_CS_BASE["betas"], f[5:8])],
        "weights": list(_CS_BASE["weights"]),
    }


def _replicate(base: dict, n: int) -> dict:
    """The n-risk pool ``cmrs bench`` builds: cycled claim rates rescaled so
    the portfolio total stays fixed, cycled severities, equal weights."""
    k = len(base["lambdas"])
    cycled = [base["lambdas"][j % k] for j in range(n)]
    scale = math.fsum(base["lambdas"]) / math.fsum(cycled)
    w = [1.0 / n] * n
    w[-1] = 1.0 - math.fsum(w[:-1])
    return {
        "lambda0": base["lambda0"],
        "lambdas": [v * scale for v in cycled],
        "beta0": base["beta0"],
        "betas": [base["betas"][j % k] for j in range(n)],
        "weights": w,
    }


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate workload ``name`` from ``seed``.  ``tiny`` shrinks every
    size for the benchmark's own smoke test."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if name == "me_erlang_pool":
        # 26 points (step 1.0) rather than 100 keep one run near 1.5 s, so a
        # measurement holds enough runs for its median to be steady
        n, npts = (4, 4) if tiny else (10, 26)
        rates = [r * f for r, f in zip(_ME_RATES, _factors(seed, len(_ME_RATES)))]
        risks = [
            {"kind": "erlang", "k": _ME_STAGES, "rate": rates[j % len(rates)]} for j in range(n)
        ]
        config = {
            "model": {"family": "matrix_exp", "risks": risks},
            # the grid follows the pool's size: its mean is about 2n
            "grid": {"points": [float(v) * n / 10 for v in np.linspace(10.0, 35.0, npts)]},
            "scheme": {"rule": "euler"},
            "tolerance": {"balance": 1.0e-3},
        }
        groups = tuple(tuple(range(g, n, len(rates))) for g in range(len(rates)))
        return Workload(name, seed, config, (Leg("euler"),), groups, _ME_REF_TOL)
    if name == "cs_large_pool":
        n, npts = (6, 5) if tiny else (1000, 100)
        config = {
            "model": {"family": "common_shock_cp", **_replicate(_cs_params(seed), n)},
            "grid": {"points": [float(v) for v in np.linspace(0.1, 15.0, npts)]},
            "scheme": {"rule": "euler"},
            # a finer series than the shipped 1e-8: at 1e-8 its own truncation
            # error, not the inversion's, sets the error at the grid's end
            "verify": {"method": "series", "tolerance": 1.0e-3, "mass_tol": 1.0e-12},
            "tolerance": {"balance": 1.0e-3},
        }
        groups = tuple(tuple(range(g, n, 3)) for g in range(3))
        return Workload(name, seed, config, (Leg("euler"),), groups, _CS_LARGE_REF_TOL)
    if name == "cs_wide_fade":
        config = {
            "model": {"family": "common_shock_cp", **_cs_params(seed)},
            "grid": {"start": 0.1, "stop": 75.0, "step": 2.5 if tiny else 0.1},
            "scheme": {"rule": "euler", "A": 30.4, "N": 25, "m": 15, "theta": 0.2},
            "verify": {"method": "series", "tolerance": 1.0e-3, "mass_tol": 1.0e-8},
            "tolerance": {"balance": 1.0e-3, "density_floor": 1.0e-300},
        }
        legs = (Leg("gs", rule="gaver-stehfest", theta=0.0), Leg("euler", theta=0.0), Leg("tilted"))
        return Workload(name, seed, config, legs, (), config["verify"]["tolerance"])
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# references (computed once, outside every timed region)


def _gamma_sum_density(pairs, s_values, dps: int = 50) -> list:
    """Density of a sum of independent Gamma(a_g, r_g) laws with integer
    shapes and distinct rates, by partial fractions in multiprecision."""
    import mpmath

    with mpmath.workdps(dps):
        rates = [mpmath.mpf(r) for _, r in pairs]
        terms = []
        for g, (a, _) in enumerate(pairs):
            r = rates[g]
            # Taylor series in w = z + r of prod_{j != g} (r_j / (r_j + z))^a_j
            series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (a - 1)
            for j, (aj, _) in enumerate(pairs):
                if j == g:
                    continue
                d = rates[j] - r
                lead = (rates[j] / d) ** aj
                factor = [lead * (-1) ** m * math.comb(aj + m - 1, m) / d**m for m in range(a)]
                series = [
                    mpmath.fsum(series[i] * factor[m - i] for i in range(m + 1)) for m in range(a)
                ]
            # coefficient of w^-k is r^a * series[a-k]; its inverse is
            # s^(k-1) e^(-r s) / (k-1)!
            coefs = [r**a * series[a - k] / math.factorial(k - 1) for k in range(1, a + 1)]
            terms.append((r, coefs))
        out = []
        for s in s_values:
            s = mpmath.mpf(s)
            out.append(
                mpmath.fsum(
                    mpmath.exp(-r * s) * mpmath.fsum(c * s**k for k, c in enumerate(coefs))
                    for r, coefs in terms
                )
            )
        return out


def _me_reference(wl: Workload, grid: np.ndarray) -> np.ndarray:
    risks = wl.config["model"]["risks"]
    rates = sorted({r["rate"] for r in risks})
    counts = {r: sum(1 for x in risks if x["rate"] == r) for r in rates}
    base = [(_ME_STAGES * counts[r], r) for r in rates]
    f = _gamma_sum_density(base, grid)
    h = np.empty((len(grid), len(risks)))
    for g, r in enumerate(rates):
        # E[X e^{-zX}] = (k/r) (r/(r+z))^(k+1): bump the group's shape by one
        bumped = list(base)
        bumped[g] = (base[g][0] + 1, r)
        xi = _gamma_sum_density(bumped, grid)
        col = np.array([float(_ME_STAGES / r * x / fs) for x, fs in zip(xi, f)])
        for i, risk in enumerate(risks):
            if risk["rate"] == r:
                h[:, i] = col
    return h


def _cs_reference(wl: Workload, grid: np.ndarray) -> tuple[np.ndarray, dict]:
    """Series reference with the trust-region rule of ``cmrs verify``.  For
    a replicated pool, each cycled group is one compound Poisson risk of the
    summed claim rate and summed weight, and its members share equally."""
    from cmrs import CommonShockCPSpec
    from cmrs.oracles import cscp_series_oracle

    p = wl.config["model"]
    n = len(p["lambdas"])
    k = min(3, n)
    members = [list(range(g, n, k)) for g in range(k)]
    spec = CommonShockCPSpec(
        float(p["lambda0"]),
        tuple(math.fsum(p["lambdas"][i] for i in m) for m in members),
        float(p["beta0"]),
        tuple(float(p["betas"][m[0]]) for m in members),
        tuple(math.fsum(p["weights"][i] for i in m) for m in members),
    )
    vf = wl.config["verify"]
    oracle = cscp_series_oracle(spec, vf["mass_tol"])
    tail = oracle.truncation.tail_mass
    h = np.full((len(grid), n), np.nan)
    trusted = 0
    for kk, s in enumerate(grid):
        s = float(s)
        if tail > 0.0 and oracle.f_S(s) < s * tail / vf["tolerance"]:
            continue
        trusted += 1
        for g, m in enumerate(members):
            h[kk, m] = oracle.h(g, s) / len(m)
    return h, {"series_terms": oracle.K, "trusted_points": trusted}


def attach_reference(wl: Workload, grid) -> None:
    """Fill ``wl.h_ref`` for the built grid (outside every timed region)."""
    grid = np.asarray(grid, dtype=float)
    if wl.config["model"]["family"] == "matrix_exp":
        wl.h_ref, wl.ref_meta = _me_reference(wl, grid), {"trusted_points": len(grid)}
    else:
        wl.h_ref, wl.ref_meta = _cs_reference(wl, grid)

