"""End-to-end acceptance checks, one test per release criterion.

Each test name carries its criterion number; the conftest hook prints a
one-line PASS/FAIL summary per criterion after the run.  In criterion 2 the
order-8 gaver-stehfest rule cannot recover the reference densities to 1e-6:
its own truncation error reaches 1.7e-4 on the fixtures, and the same rule
in exact rational arithmetic misses by the same amounts, while rounding in
double precision adds under 1e-7.  So the gaver-stehfest half checks, at
the same 1e-6 bound, that the engine evaluates the order-8 rule faithfully
and that the rule converges (exact order 16 recovers every density).
"""

import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import gamma

from cmrs.allocation import (
    AllocationRequest,
    STATUS_OK,
    allocate,
    breakdown_scan,
)
from cmrs.cli import run_bench, write_csv
from cmrs.config import parse_config
from cmrs.inversion import EulerScheme, GsScheme, gs_weights, gs_weights_exact, invert
from cmrs.models import (
    CommonShockCPSpec,
    LognormalPortfolioSpec,
    build_common_shock_cp,
    build_lognormal_portfolio,
    build_matrix_exp,
    erlang_me_spec,
    exponential_me_spec,
)
from cmrs.oracles import (
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_oracle,
)
from cmrs.transforms import diagonal_diagnostic, eval_transform

CSCP_PARAMS = dict(
    lambda0=1.5,
    lambdas=(0.8, 1.1, 0.6),
    beta0=0.9,
    betas=(1.4, 0.7, 1.9),
    weights=(0.2, 0.3, 0.5),
)


def _grid(lo, hi, step):
    return tuple(float(v) for v in np.round(np.arange(lo, hi + step / 2, step), 10))


GRID_01_10 = _grid(0.1, 10.0, 0.1)


@pytest.fixture(scope="module")
def two_risk_model():
    return build_matrix_exp([erlang_me_spec(2, 2.0), exponential_me_spec(1.0)])


@pytest.fixture(scope="module")
def two_risk_result(two_risk_model):
    return allocate(
        AllocationRequest(model=two_risk_model, s_grid=GRID_01_10, scheme=EulerScheme())
    )


@pytest.fixture(scope="module")
def cscp_model():
    return build_common_shock_cp(CommonShockCPSpec(**CSCP_PARAMS))


@pytest.fixture(scope="module")
def cscp_tilted_result(cscp_model):
    return allocate(
        AllocationRequest(
            model=cscp_model,
            s_grid=_grid(0.1, 15.0, 0.1),
            scheme=EulerScheme(theta=0.2),
        )
    )


@pytest.fixture(scope="module")
def iid_pool_results():
    out = {}
    for n in (2, 3, 10):
        # central-mass band: 1%..99% quantiles of the Gamma(n, 1) aggregate,
        # step 0.1 rounded inward
        lo = math.ceil(gamma(n).ppf(0.01) * 10) / 10
        hi = math.floor(gamma(n).ppf(0.99) * 10) / 10
        model = build_matrix_exp([exponential_me_spec(1.0)] * n)
        out[n] = allocate(
            AllocationRequest(model=model, s_grid=_grid(lo, hi, 0.1), scheme=EulerScheme())
        )
    return out


def test_c01_gs_weight_identities():
    """exact rational weight identities hold for every order 1..24"""
    t0 = time.perf_counter()
    for M in range(1, 25):
        w = gs_weights_exact(M)
        assert len(w) == 2 * M
        assert sum(w) == Fraction(0)
        assert sum(z / k for k, z in enumerate(w, start=1)) == Fraction(1)
    assert gs_weights_exact(1) == (Fraction(2), Fraction(-2))
    assert gs_weights(1) == (2.0, -2.0)
    assert time.perf_counter() - t0 < 1.0


def _gs_exact(closed_form, s, M):
    """The order-M gaver-stehfest rule at s, evaluated in exact rational arithmetic.

    The node spacing is the engine's float ln2/s taken as an exact rational,
    so the double-precision engine differs from this value only by rounding.
    """
    c = Fraction(math.log(2.0) / s)
    return c * sum(w * closed_form(k * c) for k, w in enumerate(gs_weights_exact(M), start=1))


def test_c02_inversion_reference_fixtures(two_risk_model):
    """euler and exact gs16 recover three reference densities within 1e-6, gs8 its exact rule"""
    t0 = time.perf_counter()
    oracle = me_example_oracle(2.0, 1.0)
    # label, transform as the engine sees it, rational closed form, density
    fixtures = [
        ("exp_decay", lambda z: 1.0 / (1.0 + z), lambda z: 1 / (1 + z), lambda s: math.exp(-s)),
        (
            "linear_exp",
            lambda z: 1.0 / (1.0 + z) ** 2,
            lambda z: 1 / (1 + z) ** 2,
            lambda s: s * math.exp(-s),
        ),
        (
            "two_risk_f",
            lambda z: eval_transform(two_risk_model, z)[..., 0],
            lambda z: (2 / (2 + z)) ** 2 / (1 + z),
            oracle.f_S,
        ),
    ]
    violations = []
    for label, transform, closed_form, truth in fixtures:
        for s in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            checks = (
                ("euler", invert(transform, s, EulerScheme(A=18.4, N=25, m=15)), truth(s)),
                # order 8 misses the densities by up to 1.7e-4 through its own
                # truncation, so the double-precision engine is held to the
                # same rule evaluated exactly ...
                (
                    "gs8 vs exact rule",
                    invert(transform, s, GsScheme(M=8)),
                    float(_gs_exact(closed_form, s, 8)),
                ),
                # ... and the rule is shown to converge: exact order 16
                # recovers the densities (in double precision rounding takes
                # over from M ~ 10, so that order cannot run in the engine)
                ("exact gs16", float(_gs_exact(closed_form, s, 16)), truth(s)),
            )
            for name, got, want in checks:
                err = abs(got - want)
                if err > 1e-6:
                    violations.append(f"{name} {label} s={s}: |err| = {err:.3g}")
    assert time.perf_counter() - t0 < 1.0
    assert not violations, "points beyond 1e-6:\n" + "\n".join(violations)


def test_c03_two_risk_closed_form(two_risk_result):
    """erlang-exponential first share matches the closed form within 1e-4"""
    t0 = time.perf_counter()
    oracle = me_example_oracle(2.0, 1.0)
    assert abs(oracle.h(0, 1.0) - 0.60779) < 1e-5
    assert all(st == STATUS_OK for st in two_risk_result.status)
    worst = max(
        abs(two_risk_result.h[k][0] - oracle.h(0, s))
        for k, s in enumerate(two_risk_result.s_grid)
    )
    assert worst <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_c04_iid_pool_equal_split(iid_pool_results):
    """iid exponential pools split the aggregate equally within 1e-6"""
    t0 = time.perf_counter()
    for n, result in iid_pool_results.items():
        assert all(st == STATUS_OK for st in result.status)
        target = np.asarray(result.s_grid)[:, None] / n
        assert np.abs(result.h - target).max() <= 1e-6
    assert time.perf_counter() - t0 < 10.0


def test_c05_series_match_and_fade_ordering(cscp_model, cscp_tilted_result):
    """tilted euler tracks the series reference; fades order gs, untilted, tilted"""
    t0 = time.perf_counter()
    oracle = cscp_series_oracle(CommonShockCPSpec(**CSCP_PARAMS))
    worst = max(
        abs(cscp_tilted_result.h[k][i] - oracle.h(i, s))
        for k, s in enumerate(cscp_tilted_result.s_grid)
        for i in range(3)
    )
    assert worst <= 1e-3

    # wide-grid fade points: the untilted contour loses the tail first, a
    # positive tilt extends it, and gaver-stehfest fades earliest of all.
    # A = 30.4 keeps the tilted contour abscissa valid out to s = 76.
    wide = _grid(0.1, 75.0, 0.1)
    fades = {}
    for label, scheme in (
        ("gs", GsScheme(M=8)),
        ("euler_untilted", EulerScheme(A=30.4)),
        ("euler_tilted", EulerScheme(A=30.4, theta=0.2)),
    ):
        run = allocate(AllocationRequest(model=cscp_model, s_grid=wide, scheme=scheme))
        report = breakdown_scan(run)
        assert not report.clean
        fades[label] = report.breakdown_s
    assert fades["gs"] < fades["euler_untilted"] < fades["euler_tilted"]
    assert time.perf_counter() - t0 < 60.0


def test_c06_budget_balance_at_ok_points(
    two_risk_result, iid_pool_results, cscp_tilted_result
):
    """summed allocation transforms stay within 1e-3 of the aggregate budget"""
    runs = [two_risk_result, cscp_tilted_result, *iid_pool_results.values()]
    for result in runs:
        ok = [k for k, st in enumerate(result.status) if st == STATUS_OK]
        assert ok
        assert max(result.balance_residual[k] for k in ok) <= 1e-3


def test_c07_tilt_invariance(two_risk_model, cscp_model, cscp_tilted_result):
    """allocations agree across tilt 0, 0.2 and 0.5 within 1e-5"""
    t0 = time.perf_counter()
    npts = len(GRID_01_10)
    for model, tilted_leg in (
        (two_risk_model, None),
        (cscp_model, cscp_tilted_result.h[:npts]),
    ):
        legs = {
            theta: allocate(
                AllocationRequest(model=model, s_grid=GRID_01_10, scheme=EulerScheme(theta=theta))
            ).h
            for theta in ((0.0, 0.5) if tilted_leg is not None else (0.0, 0.2, 0.5))
        }
        if tilted_leg is not None:
            legs[0.2] = tilted_leg
        for theta in (0.2, 0.5):
            assert np.abs(legs[theta] - legs[0.0]).max() <= 1e-5
    assert time.perf_counter() - t0 < 30.0


def test_c08_lognormal_pool_properties():
    """moment-matched lognormal pool passes diagonal, budget and mc brackets"""
    t0 = time.perf_counter()
    spec = LognormalPortfolioSpec.from_moments((1.0, 2.0, 2.0), (5.0, 2.0, 5.0))
    model = build_lognormal_portfolio(spec)
    for mu, sg, mean, var in zip(spec.mu, spec.sigma, (1.0, 2.0, 2.0), (5.0, 2.0, 5.0)):
        assert math.exp(mu + sg**2 / 2) == pytest.approx(mean, rel=1e-12)
        assert (math.exp(sg**2) - 1) * mean**2 == pytest.approx(var, rel=1e-12)

    report = diagonal_diagnostic(model, np.logspace(-2, 2, 25), tol=1e-5)
    assert report.all_passed

    grid = _grid(0.5, 15.0, 0.5)
    result = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
    assert all(st == STATUS_OK for st in result.status)
    assert np.abs(result.sum_h - np.asarray(grid)).max() <= 1e-3

    sampler = make_sampler(spec)
    stream = 0
    for s in (2.0, 4.0, 6.0, 8.0, 10.0):
        k = grid.index(s)
        for i in range(3):
            est = mc_conditional_mean(
                sampler, i, s, bandwidth=0.05, n_samples=10**6,
                seed=20260823, substream=stream,
            )
            stream += 1
            assert abs(result.h[k][i] - est.value) <= 3.0 * est.std_error
    assert time.perf_counter() - t0 < 300.0


def test_c09_bench_scaling_trend():
    """grid runtime grows with pool size and tilting adds under 25%"""
    t0 = time.perf_counter()
    model_block = {
        k: list(v) if isinstance(v, tuple) else v for k, v in CSCP_PARAMS.items()
    }
    cfg = parse_config(
        {
            "model": {"family": "common_shock_cp", **model_block},
            "grid": {"points": [1.0]},
            "bench": {"n_sweep": [5, 100, 1000, 10000], "reps": 2, "tilt": 0.2},
        }
    )
    rows = run_bench(cfg)
    assert [r.n for r in rows] == [5, 100, 1000, 10000]
    for prev, cur in zip(rows, rows[1:]):
        assert cur.seconds_untilted > prev.seconds_untilted
    for row in rows:
        assert row.tilt_overhead < 0.25
    assert time.perf_counter() - t0 < 600.0


def test_c10_origin_atom_separation(cscp_model):
    """origin atom carries e^{-total rate}, zero shares, clean remainder"""
    t0 = time.perf_counter()
    assert abs(cscp_model.atom_mass - math.exp(-4.0)) <= 1e-12
    # conditional shares at the origin atom are identically zero: the CSV's
    # atom row has s = 0, f_S = e^{-4} and zero xi, h and sum_h
    result = allocate(AllocationRequest(model=cscp_model, s_grid=(1.0,), scheme=EulerScheme()))
    buf = io.StringIO()
    write_csv(result, buf)
    atom_row = buf.getvalue().splitlines()[1].split(",")
    assert atom_row[-1] == "atom"
    assert float(atom_row[0]) == 0.0
    assert abs(float(atom_row[1]) - math.exp(-4.0)) <= 1e-12
    assert [float(v) for v in atom_row[2:-2]] == [0.0] * 7

    # slow severities keep the continuous transform's 1/t tail below 1e-6
    # by t = 1e4; the subtracted atom is what makes that decay visible
    slow = CommonShockCPSpec(
        lambda0=1.5,
        lambdas=(0.8, 1.1, 0.6),
        beta0=0.1,
        betas=(0.15, 0.05, 0.2),
        weights=(0.2, 0.3, 0.5),
    )
    slow_model = build_common_shock_cp(slow)
    assert abs(slow_model.transform(1e4)[0].real - slow_model.atom_mass) <= 1e-6
    assert time.perf_counter() - t0 < 1.0
