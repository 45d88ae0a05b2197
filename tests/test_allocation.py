import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from cmrs import cli
from cmrs.allocation import (
    _BLOCK_BUDGET,
    STATUS_ATOM,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    AllocationRequest,
    TailContribution,
    allocate,
    breakdown_scan,
    proportions,
    tail_contribution,
)
from cmrs.cli import _BENCH_GRID, _scaled_cscp, write_csv
from cmrs.errors import (
    DomainError,
    EvaluationError,
    InversionError,
    ModelSpecError,
    SingularMatrixError,
)
from cmrs.inversion import EulerScheme, GsScheme, invert
from cmrs.mixing import gamma_mixing
from cmrs.models import (
    _CLASS_MAJOR_MAX,
    CommonShockCPSpec,
    KatzCompoundSpec,
    LognormalPortfolioSpec,
    MatrixExpSpec,
    MixedExpFrailtySpec,
    SeverityHandle,
    build_common_shock_cp,
    build_katz_compound,
    build_lognormal_portfolio,
    build_matrix_exp,
    build_mixed_exp_frailty,
    _MatrixExpGroup,
    _product_rule,
    erlang_me_spec,
    exponential_me_spec,
    exponential_severity,
)
from cmrs.oracles import (
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_oracle,
    mixed_exp_oracle,
)
from cmrs.transforms import (
    JointTransformModel,
    diagonal_diagnostic,
    column_values,
    eval_transform,
)

CS_REF = CommonShockCPSpec(
    lambda0=1.5,
    lambdas=(0.8, 1.1, 0.6),
    beta0=0.9,
    betas=(1.4, 0.7, 1.9),
    weights=(0.2, 0.3, 0.5),
)


def _grid(lo, hi, step):
    return tuple(np.round(np.arange(lo, hi + step / 2.0, step), 10))


@pytest.fixture(scope="module")
def me_result():
    # Erlang(2, 2) + Exp(1) on a body grid, default untilted contour
    model = build_matrix_exp([erlang_me_spec(2, 2.0), exponential_me_spec(1.0)])
    req = AllocationRequest(model=model, s_grid=_grid(0.5, 10.0, 0.25), scheme=EulerScheme())
    return allocate(req)


@pytest.fixture(scope="module")
def equal_rates_result():
    # all stage rates equal: S is Gamma(3, 1) and shares are (2s/3, s/3)
    model = build_matrix_exp([erlang_me_spec(2, 1.0), exponential_me_spec(1.0)])
    req = AllocationRequest(model=model, s_grid=_grid(0.25, 30.0, 0.25), scheme=EulerScheme())
    return allocate(req)


@pytest.fixture(scope="module")
def fade_result():
    # pushed far enough out that the untilted contour loses the density
    model = build_common_shock_cp(CS_REF)
    req = AllocationRequest(
        model=model, s_grid=_grid(0.5, 50.0, 0.5), scheme=EulerScheme(A=30.4)
    )
    return allocate(req)


class TestRequestValidation:
    def _model(self):
        return build_matrix_exp([exponential_me_spec(1.0)])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            AllocationRequest(model=self._model(), s_grid=(), scheme=EulerScheme())

    def test_nonpositive_gridpoints_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            AllocationRequest(model=self._model(), s_grid=(0.0, 1.0), scheme=EulerScheme())

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError, match="increasing"):
            AllocationRequest(model=self._model(), s_grid=(2.0, 1.0), scheme=EulerScheme())
        with pytest.raises(DomainError, match="increasing"):
            AllocationRequest(model=self._model(), s_grid=(1.0, 1.0), scheme=EulerScheme())

    def test_bad_tolerances_rejected(self):
        # an infinite balance_tol would mark every point ok, and an infinite
        # density_floor would fail every one
        for name in ("balance_tol", "density_floor"):
            for bad in (0.0, -1e-3, math.inf, math.nan):
                with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
                    AllocationRequest(
                        model=self._model(), s_grid=(1.0,), scheme=EulerScheme(), **{name: bad}
                    )


class TestAllocateAccuracy:
    def test_matches_closed_form_shares(self, me_result):
        orc = me_example_oracle(2.0, 1.0)
        assert me_result.worst_status == STATUS_OK
        gap = max(
            abs(me_result.h[k, i] - orc.h(i, float(s)))
            for k, s in enumerate(me_result.s_grid)
            for i in range(2)
        )
        assert gap < 1e-6

    def test_density_matches_closed_form(self, me_result):
        orc = me_example_oracle(2.0, 1.0)
        gap = max(
            abs(me_result.density[k] - orc.f_S(float(s)))
            for k, s in enumerate(me_result.s_grid)
        )
        assert gap < 1e-8

    def test_proportions_sum_to_one_on_ok_rows(self, me_result):
        P = proportions(me_result)
        ok = [k for k, st in enumerate(me_result.status) if st == STATUS_OK]
        assert ok
        assert np.abs(P[ok].sum(axis=1) - 1.0).max() < 1e-6

    def test_equal_rate_shares_split_two_to_one(self, equal_rates_result):
        # the share error is absolute contour noise (~1e-12 here) divided by
        # the density, plus a small body-level floor
        res = equal_rates_result
        ok = [k for k, st in enumerate(res.status) if st == STATUS_OK]
        for k in ok:
            s = float(res.s_grid[k])
            tol = 1e-6 * (1.0 + s) + 5e-12 / res.density[k]
            assert res.h[k, 0] == pytest.approx(2.0 * s / 3.0, abs=tol)
            assert res.h[k, 1] == pytest.approx(s / 3.0, abs=tol)


class TestStatusPolicy:
    def test_no_ok_after_first_violation(self, fade_result):
        sts = fade_result.status
        first = next(k for k, st in enumerate(sts) if st != STATUS_OK)
        assert all(st != STATUS_OK for st in sts[first:])

    def test_fade_point_is_deep_in_the_tail(self, fade_result):
        rep = breakdown_scan(fade_result)
        assert rep.first_violation is not None
        assert 20.0 < rep.breakdown_s < 50.0

    def test_deep_underflow_is_never_reported_ok(self):
        # at s = 600 the true density is ~1e-260; whatever noise the contour
        # returns must not pass as healthy
        model = build_matrix_exp([erlang_me_spec(2, 1.0), exponential_me_spec(1.0)])
        req = AllocationRequest(model=model, s_grid=(600.0,), scheme=EulerScheme())
        res = allocate(req)
        assert res.status[0] in (STATUS_DEGRADED, STATUS_FAILED)

    def test_one_risk_pool_is_ok(self):
        # with one risk h_1 = s exactly; inversion roundoff that puts it a
        # hair above s is clipped, not counted as a violation
        model = build_matrix_exp([exponential_me_spec(1.0)])
        req = AllocationRequest(model=model, s_grid=(1.0, 2.0), scheme=EulerScheme())
        res = allocate(req)
        assert res.status == [STATUS_OK, STATUS_OK]
        assert (res.h[:, 0] == res.s_grid).all()

    def test_share_far_above_s_is_degraded(self):
        # the one-risk pool with L_1 scaled by 1.5 reports h_1 = 1.5 s: far
        # beyond the balance_tol * s allowance, so the point is degraded
        base = build_matrix_exp([exponential_me_spec(1.0)])

        def transform(z):
            return base.transform(z) * np.array([1.0, 1.5])

        model = JointTransformModel(n=1, transform=transform)
        res = allocate(AllocationRequest(model=model, s_grid=(1.0,), scheme=EulerScheme()))
        assert res.status == [STATUS_DEGRADED]
        assert res.h[0, 0] == 1.0

    @pytest.mark.parametrize("error", [DomainError, EvaluationError, SingularMatrixError])
    def test_unevaluable_transform_fails(self, error):
        # Exp(1) + Exp(2) that refuses Re z < 5: the Euler contour abscissa is
        # A / (2s), so only s = 2 reaches such a node; that point must fail
        # and the others must not notice
        base = build_matrix_exp([exponential_me_spec(1.0), exponential_me_spec(2.0)])

        def transform(z):
            if (np.real(z) < 5.0).any():
                raise error(f"no value at z = {z}")
            return base.transform(z)

        model = JointTransformModel(n=2, transform=transform)
        req = AllocationRequest(model=model, s_grid=(0.5, 1.0, 2.0), scheme=EulerScheme())
        res = allocate(req)
        assert res.status == [STATUS_OK, STATUS_OK, STATUS_FAILED]
        assert math.isnan(res.sum_h[2])
        assert (res.h[2] == 0.0).all()

    def test_values_first_transform_fails_every_point(self):
        # a transform that stacks its n+1 values first, np.array([L_S, L_1,
        # L_2]), returns shape (3, K) at K nodes instead of (K, 3): every
        # point fails, and nothing raises out of the run
        def transform(z):
            l1, l2 = 1 / (1 + z), 2 / (2 + z)
            return np.array([l1 * l2, l1 / (1 + z) * l2, l1 * l2 / (2 + z)])

        model = JointTransformModel(n=2, transform=transform)
        for scheme in (EulerScheme(), GsScheme()):
            req = AllocationRequest(model=model, s_grid=(0.5, 1.0, 2.0), scheme=scheme)
            assert allocate(req).status == [STATUS_FAILED] * 3
        assert eval_transform(model, 1.0).shape == (3,)  # at one node the shapes agree
        with pytest.raises(EvaluationError, match=r"shape \(3, 2\) for nodes of shape \(2,\)"):
            eval_transform(model, np.array([1.0, 2.0]))
        with pytest.raises(InversionError, match=r"shape \(2, 41\) for nodes of shape \(41,\)"):
            invert(lambda z: np.array([1 / (1 + z), 1 / (2 + z)]), 1.0, EulerScheme())

    def test_density_floor_is_enforced(self):
        model = build_matrix_exp([erlang_me_spec(2, 1.0), exponential_me_spec(1.0)])
        req = AllocationRequest(
            model=model, s_grid=(2.0, 3.0), scheme=EulerScheme(), density_floor=0.5
        )
        res = allocate(req)
        assert res.status == [STATUS_FAILED, STATUS_FAILED]

    def test_worst_status_ordering(self, me_result, fade_result):
        assert me_result.worst_status == STATUS_OK
        assert fade_result.worst_status in (STATUS_DEGRADED, STATUS_FAILED)


class TestBreakdownScan:
    def test_clean_report_on_healthy_run(self, me_result):
        rep = breakdown_scan(me_result)
        assert rep.clean
        assert rep.first_violation is None
        assert rep.breakdown_s is None
        assert rep.n_ok == len(me_result.s_grid)

    def test_counts_partition_the_grid(self, fade_result):
        rep = breakdown_scan(fade_result)
        assert rep.n_ok + rep.n_degraded + rep.n_failed == len(fade_result.s_grid)

    def test_no_new_transform_work(self, fade_result):
        # the report summarises the statuses allocate derived and reads
        # nothing else: with the raw output blanked it is the same report
        sts = fade_result.status
        first = next(k for k, st in enumerate(sts) if st != STATUS_OK)
        rep = breakdown_scan(fade_result)
        assert rep.first_violation == first
        assert rep.breakdown_s == fade_result.s_grid[first]
        counts = tuple(sts.count(st) for st in (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED))
        assert (rep.n_ok, rep.n_degraded, rep.n_failed) == counts
        nan = np.full_like(fade_result.raw_xi, np.nan)
        blank = dataclasses.replace(fade_result, density=nan[:, 0], raw_xi=nan, xi=nan, h=nan)
        assert breakdown_scan(blank) == rep


class TestTailContribution:
    def test_matches_gamma_closed_form(self, equal_rates_result):
        # S ~ Gamma(3, 1) with shares (2s/3, s/3): E[X_i 1{S >= s*}] is
        # (2/3, 1/3) * 3 Q(4, s*), Q the regularised upper incomplete gamma
        for s_star in (1.0, 4.0, 10.0):
            tc = tail_contribution(equal_rates_result, s_star)
            exact = 3.0 * gammaincc(4, s_star)
            assert tc.per_risk[0] == pytest.approx(2.0 / 3.0 * exact, abs=1e-7)
            assert tc.per_risk[1] == pytest.approx(1.0 / 3.0 * exact, abs=1e-7)
            assert tc.total == pytest.approx(exact, abs=1e-7)

    def test_share_ratio_is_exact(self, equal_rates_result):
        # the scheme's error scales both risks identically, so the 2:1 split
        # survives to near machine precision
        tc = tail_contribution(equal_rates_result, 4.0)
        assert tc.per_risk[0] / tc.per_risk[1] == pytest.approx(2.0, rel=1e-12)

    def test_threshold_beyond_the_grid(self, equal_rates_result):
        # the grid ends at 30; the inversion at s* does not read it
        tc = tail_contribution(equal_rates_result, 40.0)
        exact = 3.0 * gammaincc(4, 40.0)
        assert tc.per_risk[0] == pytest.approx(2.0 / 3.0 * exact, abs=1e-10)
        assert tc.per_risk[1] == pytest.approx(1.0 / 3.0 * exact, abs=1e-10)

    def test_tilted_common_shock_matches_series(self):
        model = build_common_shock_cp(CS_REF)
        scheme = EulerScheme(A=30.4, theta=0.2)
        res = allocate(AllocationRequest(model=model, s_grid=(1.0,), scheme=scheme))
        tc = tail_contribution(res, 10.0)
        oracle = cscp_series_oracle(CS_REF, 1e-8)
        for i in range(3):
            ref = quad(lambda u: oracle.xi(i, u), 10.0, np.inf, limit=200)[0]
            assert tc.per_risk[i] == pytest.approx(ref, abs=1e-7)

    def test_bad_threshold_rejected(self, equal_rates_result):
        for s_star in (0.0, -1.0):
            with pytest.raises(DomainError, match="s > 0"):
                tail_contribution(equal_rates_result, s_star)
        # A - 2 theta s* = 0: the contour reaches Re z = 0
        res = dataclasses.replace(
            equal_rates_result,
            request=dataclasses.replace(
                equal_rates_result.request, scheme=EulerScheme(A=18.4, theta=0.46)
            ),
        )
        with pytest.raises(InversionError, match="contour violation"):
            tail_contribution(res, 20.0)

    def test_gamma_frailty_matches_closed_form(self):
        # configs/clayton_mixed_exp.yaml: E[X_i] - int_0^3 xi_i, with E[X_i] =
        # lambda_i / (alpha - 1) and xi_i the oracle's closed form
        spec = MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(2.0))
        model = build_mixed_exp_frailty(spec)
        res = allocate(AllocationRequest(model=model, s_grid=(1.0,), scheme=EulerScheme()))
        tc = tail_contribution(res, 3.0)
        oracle = mixed_exp_oracle(spec)
        for i, lam in enumerate(spec.lambdas):
            exact = lam - quad(lambda u: oracle.xi(i, u), 0.0, 3.0, limit=200)[0]
            assert tc.per_risk[i] == pytest.approx(exact, abs=1e-7)

    def test_holds_only_its_threshold_and_values(self):
        names = [f.name for f in dataclasses.fields(TailContribution)]
        assert names == ["s_star", "per_risk", "total"]


class TestAtomHandling:
    def test_model_atoms_survive_to_result(self, fade_result):
        model = fade_result.request.model
        assert fade_result.atom_mass == model.atom_mass
        assert fade_result.atom_mass == pytest.approx(math.exp(-4.0), abs=1e-15)

    def test_atomless_remainder_is_the_model_itself(self):
        # with no atom the engine inverts the model's own values
        model = build_matrix_exp([exponential_me_spec(1.0), exponential_me_spec(2.0)])
        res = allocate(AllocationRequest(model=model, s_grid=(0.5, 2.0), scheme=EulerScheme()))
        for k, s in enumerate(res.s_grid):
            one = invert(lambda z: model.transform(z).real, s, EulerScheme())
            assert res.density[k] == one[0]
            assert res.raw_xi[k].tolist() == one[1:].tolist()

    def test_remainder_subtracts_the_atom(self):
        model = build_common_shock_cp(CS_REF)
        # at large real t the continuous part dies but the atom term does not
        tail = model.transform(np.array([1.0e2, 1.0e4]))[:, 0].real - model.atom_mass
        assert abs(model.atom_mass - math.exp(-4.0)) < 1e-15
        assert abs(tail[1]) < 1e-4
        assert abs(tail[1]) < abs(tail[0])
        # the engine inverts L_S - P(S = 0), and the L_i as they are
        res = allocate(AllocationRequest(model=model, s_grid=(2.0,), scheme=EulerScheme()))
        one = _one_point(model, EulerScheme(), 2.0)
        assert res.density[0] == one[0]
        assert res.raw_xi[0].tolist() == one[1:]

    def test_pure_point_mass_remainder_vanishes(self):
        # S identically 0: the origin atom is the whole law, so every point
        # inverts zeros and fails on its zero density
        model = JointTransformModel(
            n=1,
            transform=lambda z: np.broadcast_to([1.0, 0.0], np.shape(z) + (2,)),
            atom_mass=1.0,
            label="point",
        )
        for scheme in (EulerScheme(), GsScheme()):
            res = allocate(AllocationRequest(model=model, s_grid=(0.1, 1.0, 3.0), scheme=scheme))
            assert res.density.tolist() == [0.0] * 3
            assert res.raw_xi.tolist() == [[0.0]] * 3
            assert res.status == [STATUS_FAILED] * 3

    @pytest.mark.parametrize("scheme", [EulerScheme(), GsScheme()], ids=["euler", "gs"])
    def test_model_arrays_stay_untouched(self, scheme):
        # a transform may return a read-only view, or the same array on every
        # call: allocate takes the atom off in its own copy, so repeated runs
        # give the plain model's numbers and the cached array keeps its values.
        # On one point a cached C-contiguous real (1, nodes, m+1) array has a
        # contiguous node-major transpose, which only a real copy leaves alone
        base = build_common_shock_cp(CS_REF)
        assert base.atom_mass > 0.0
        cache, real_cache = {}, {}

        def cached(z):
            if z.shape not in cache:
                cache[z.shape] = base.transform(z)
            return cache[z.shape]

        def cached_real(z):
            if z.shape not in real_cache:
                real_cache[z.shape] = np.ascontiguousarray(base.transform(z).real)
            return real_cache[z.shape]

        def read_only(z):
            return np.broadcast_to(base.transform(z), z.shape + (base.n + 1,))

        for grid in ((1.0, 2.0, 4.0), (2.0,)):
            want = allocate(AllocationRequest(model=base, s_grid=grid, scheme=scheme))
            assert STATUS_FAILED not in want.status
            for transform, store in ((read_only, {}), (cached, cache), (cached_real, real_cache)):
                request = AllocationRequest(
                    model=dataclasses.replace(base, transform=transform), s_grid=grid, scheme=scheme
                )
                first = allocate(request)
                kept = {shape: vals.copy() for shape, vals in store.items()}
                second = allocate(request)
                for res in (first, second):
                    assert np.array_equal(res.density, want.density)
                    assert np.array_equal(res.raw_xi, want.raw_xi)
                    assert res.status == want.status
                assert store.keys() == kept.keys()
                assert all(np.array_equal(store[shape], kept[shape]) for shape in kept)
        assert len(cache) == len(real_cache) == 2
        one_point = real_cache[(1, len(scheme.weights))]
        assert one_point.flags.c_contiguous and one_point.transpose(1, 2, 0).flags.c_contiguous


class TestTwoRiskProperty:
    @given(rate=st.floats(0.5, 2.0))
    def test_iid_pair_splits_evenly(self, rate):
        # two iid exponentials must share every loss level equally
        model = build_matrix_exp([exponential_me_spec(rate), exponential_me_spec(rate)])
        req = AllocationRequest(model=model, s_grid=(0.8, 2.0, 5.0), scheme=EulerScheme())
        res = allocate(req)
        assert res.worst_status == STATUS_OK
        for k, s in enumerate(res.s_grid):
            assert res.h[k, 0] == res.h[k, 1]
            assert res.h[k, 0] == pytest.approx(s / 2.0, abs=1e-4 * (1.0 + s))

    @given(r1=st.floats(0.5, 2.0), r2=st.floats(0.5, 2.0))
    def test_budget_identity_on_ok_points(self, r1, r2):
        model = build_matrix_exp([exponential_me_spec(r1), exponential_me_spec(r2)])
        req = AllocationRequest(model=model, s_grid=(0.8, 2.0, 5.0), scheme=EulerScheme())
        res = allocate(req)
        for k, st_ in enumerate(res.status):
            if st_ == STATUS_OK:
                s = float(res.s_grid[k])
                assert res.sum_h[k] == pytest.approx(s, rel=1e-5)


def test_hundred_risk_lognormal_pool():
    # 33 copies of C8's three moment-matched lognormals plus one more of the
    # first, so E[S] = 166; a 21-point grid on [0.6, 1.4] E[S]
    means = (1.0, 2.0, 2.0) * 33 + (1.0,)
    variances = (5.0, 2.0, 5.0) * 33 + (5.0,)
    model = build_lognormal_portfolio(LognormalPortfolioSpec.from_moments(means, variances))
    assert diagonal_diagnostic(model, np.logspace(-2, 2, 25), tol=1e-5).all_passed
    grid = tuple(166.0 * np.linspace(0.6, 1.4, 21))
    res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
    assert res.status == [STATUS_OK] * 21
    assert np.abs(res.sum_h - np.array(grid)).max() <= 1e-3
    # identical risks get identical shares
    for group in range(3):
        h = res.h[:, group::3]
        assert (h.max(axis=1) - h.min(axis=1)).max() <= 1e-9


def _gamma_severity(shape, rate):
    return SeverityHandle(
        lst=lambda z: (rate / (rate + z)) ** shape,
        mean_lst=lambda z: shape / (rate + z) * (rate / (rate + z)) ** shape,
        sampler=lambda rng, size: rng.gamma(shape, 1.0 / rate, size),
    )


def test_binomial_katz_pool_with_gamma_claims():
    # binomial(20, 0.8) counts (a = -4, b = 84) with Gamma(10, 10) claims plus
    # Poisson(3) with Gamma(2, 2): E[S] = 19.  On the Euler contour
    # Gamma(10, 10)'s transform takes values with Re phi <= -1/4, where the
    # binomial pgf (0.2 + 0.8 phi)^20 is still an ordinary polynomial value
    spec = KatzCompoundSpec(
        a=(-4.0, 0.0),
        b=(84.0, 3.0),
        severities=(_gamma_severity(10.0, 10.0), _gamma_severity(2.0, 2.0)),
    )
    model = build_katz_compound(spec)
    assert diagonal_diagnostic(model, np.logspace(-2, 2, 25), tol=1e-5).all_passed
    grid = tuple(np.linspace(9.5, 28.5, 21))
    res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
    assert res.status == [STATUS_OK] * 21
    assert np.abs(res.sum_h - np.array(grid)).max() <= 1e-3
    sampler = make_sampler(spec)
    near = allocate(AllocationRequest(model=model, s_grid=(17.0, 19.0), scheme=EulerScheme()))
    for k, s in enumerate(near.s_grid):
        est = mc_conditional_mean(sampler, 0, s, n_samples=500_000, seed=3)
        assert abs(near.h[k, 0] - est.value) <= 3.0 * est.std_error


def _one_point(model, scheme, s):
    """f_S and xi_1..xi_n at s, each column of the model's values inverted
    alone, with P(S = 0) taken off L_S."""
    shift = [model.atom_mass] + [0.0] * model.n
    return [
        invert(lambda z, c=c: model.transform(z).real[..., c] - shift[c], s, scheme)
        for c in range(model.n + 1)
    ]


# a phase-type risk whose phases 1 -> 2 -> 3 -> 1 form a cycle: T is not
# triangular and has the complex eigenvalue pair -5.5 +- 1.5 sqrt(3) i
CYCLIC_ME = MatrixExpSpec(
    np.array([0.5, 0.2, 0.2, 0.1]),
    np.array(
        [[-4.0, 3.0, 0.0, 0.0], [0.0, -4.0, 3.0, 0.0], [3.0, 0.0, -4.0, 0.5], [0.0, 0.0, 0.0, -2.0]]
    ),
    np.array([1.0, 1.0, 0.5, 2.0]),
)


def _distinct_common_shock(m):
    """A common-shock pool of m distinct risks, so m class columns."""
    rng = np.random.default_rng(3)
    lam, bet, w = rng.uniform(0.5, 1.5, m), rng.uniform(0.6, 2.0, m), rng.uniform(0.5, 1.5, m)
    spec = CommonShockCPSpec(1.5, tuple(3.0 * lam / lam.sum()), 0.9, tuple(bet), tuple(w / w.sum()))
    return build_common_shock_cp(spec)


def _gamma_frailty(n):
    lam = 3.0 * np.random.default_rng(5).uniform(0.5, 2.0, n) / n
    return build_mixed_exp_frailty(MixedExpFrailtySpec(tuple(lam), gamma_mixing(3.0, n_nodes=40)))


def _matrix_exp_groups():
    """Matrix-exponential classes in three solve groups, interleaved: Erlang(3)
    at two rates, CYCLIC_ME at one and two times its rates, and an Erlang(2)."""
    doubled = MatrixExpSpec(CYCLIC_ME.alpha, 2.0 * CYCLIC_ME.T, 2.0 * CYCLIC_ME.u)
    specs = [erlang_me_spec(3, 1.0), CYCLIC_ME, erlang_me_spec(2, 1.5), doubled]
    return build_matrix_exp(specs + [erlang_me_spec(3, 2.0), CYCLIC_ME])


# both families on both sides of the layout rule: up to _CLASS_MAJOR_MAX
# classes class-major, one more node-major; the independent families take
# class rows at every m
WIDE = _CLASS_MAJOR_MAX + 1
CLASS_LAYOUT_MODELS = {
    "matrix_exp_groups": (_matrix_exp_groups, True),
    "common_shock_m4": (lambda: _distinct_common_shock(4), True),
    "common_shock_m60": (lambda: _distinct_common_shock(60), True),
    f"common_shock_m{WIDE}": (lambda: _distinct_common_shock(WIDE), False),
    "frailty_n2": (lambda: _gamma_frailty(2), True),
    "frailty_n60": (lambda: _gamma_frailty(60), True),
    f"frailty_n{WIDE}": (lambda: _gamma_frailty(WIDE), False),
}


class TestBlockEngine:
    # n = 3 on 41 Euler nodes: 164 elements per point, so 320 points fill
    # more than three blocks
    GRID = _grid(0.1, 32.0, 0.1)
    BLOCK = _BLOCK_BUDGET // (41 * 4)

    def _run(self, model, scheme=EulerScheme(), grid=GRID):
        return allocate(AllocationRequest(model=model, s_grid=grid, scheme=scheme))

    def test_blocks_match_one_point_inversions(self):
        model = build_common_shock_cp(CS_REF)
        assert len(self.GRID) > 3 * self.BLOCK
        res = self._run(model)
        for k, s in enumerate(res.s_grid):
            one = _one_point(model, EulerScheme(), s)
            assert res.density[k] == one[0]
            assert res.raw_xi[k].tolist() == one[1:]

    def test_raising_nodes_fail_only_their_points(self):
        # the transform raises at the nodes of four points in three blocks;
        # their blocks are redone point by point and everything else is the
        # clean run's, bit for bit
        base = build_common_shock_cp(CS_REF)
        bad = [7, 150, 151, 299]
        bad_re = [EulerScheme().nodes(self.GRID[k])[0].real for k in bad]

        def transform(z):
            if np.isin(np.real(z), bad_re).any():
                raise EvaluationError("no value here")
            return base.transform(z)

        clean = self._run(base)
        res = self._run(dataclasses.replace(base, transform=transform))
        assert np.isfinite(clean.density).all()
        assert np.flatnonzero(np.isnan(res.density)).tolist() == bad
        assert [res.status[k] for k in bad] == [STATUS_FAILED] * 4
        keep = np.ones(len(self.GRID), dtype=bool)
        keep[bad] = False
        assert np.array_equal(res.density[keep], clean.density[keep])
        assert np.array_equal(res.raw_xi[keep], clean.raw_xi[keep])

    def test_one_nonfinite_value_fails_one_point(self):
        base = build_common_shock_cp(CS_REF)
        z_bad = EulerScheme().nodes(self.GRID[120])[5]

        def transform(z):
            out = base.transform(z)
            out[z == z_bad, 2] = np.nan
            return out

        clean = self._run(base)
        res = self._run(dataclasses.replace(base, transform=transform))
        assert np.flatnonzero(np.isnan(res.density)).tolist() == [120]
        assert res.status[120] == STATUS_FAILED
        keep = np.arange(len(self.GRID)) != 120
        assert np.array_equal(res.density[keep], clean.density[keep])
        assert np.array_equal(res.raw_xi[keep], clean.raw_xi[keep])

    def test_contour_refusals_inside_a_block(self):
        # A = 18.4, theta = 0.2 refuses s >= 46, which falls inside the
        # third block of this grid; the points before it keep their
        # one-point numbers
        model = build_common_shock_cp(CS_REF)
        scheme = EulerScheme(A=18.4, theta=0.2)
        grid = _grid(0.2, 64.0, 0.2)
        res = self._run(model, scheme, grid)
        refused = res.s_grid >= 46.0
        assert 2 * self.BLOCK < np.argmax(refused) < 3 * self.BLOCK
        assert np.isnan(res.density[refused]).all()
        assert all(st == STATUS_FAILED for st, r in zip(res.status, refused) if r)
        for k in np.flatnonzero(~refused):
            one = _one_point(model, scheme, res.s_grid[k])
            assert res.density[k] == one[0]
            assert res.raw_xi[k].tolist() == one[1:]

    def test_grid_past_the_contour_never_calls_the_model(self):
        # A = 18.4, theta = 0.2 refuses every s >= 46: each point fails alone
        # and no node reaches the model
        base = build_common_shock_cp(CS_REF)
        calls = []

        def transform(z):
            calls.append(z.shape)
            return base.transform(z)

        model = dataclasses.replace(base, transform=transform)
        res = self._run(model, EulerScheme(A=18.4, theta=0.2), _grid(50.0, 60.0, 0.5))
        assert calls == []
        assert np.isnan(res.density).all() and np.isnan(res.raw_xi).all()
        assert res.status == [STATUS_FAILED] * 21

    @pytest.mark.parametrize(
        "model",
        [
            build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 0.5, 2.0), gamma_mixing(3.0))),
            build_lognormal_portfolio(
                LognormalPortfolioSpec.from_moments((1.0, 2.0, 2.0), (5.0, 2.0, 5.0))
            ),
            # the cyclic phase-type risk has a non-triangular T with a
            # complex eigenvalue pair, so it goes through its Schur form
            build_matrix_exp([erlang_me_spec(3, 1.0), CYCLIC_ME, exponential_me_spec(2.0)]),
        ],
        ids=["frailty", "lognormal", "matrix_exp"],
    )
    def test_quadrature_blocks_match_one_point_inversions(self, model):
        # the quadrature families sum over their nodes, and the
        # matrix-exponential solves over their stages, elementwise per
        # transform node, so a block gives every point the numbers of a
        # call on its own nodes, bit for bit
        grid = _grid(0.1, 25.0, 0.1)
        assert len(grid) > 2 * self.BLOCK
        res = self._run(model, grid=grid)
        for k, s in enumerate(grid):
            one = self._run(model, grid=(s,))
            assert res.density[k] == one.density[0]
            assert np.array_equal(res.raw_xi[k], one.raw_xi[0])

    @pytest.mark.parametrize(
        "scheme", [EulerScheme(), GsScheme(), GsScheme(M=1)], ids=["euler", "gs", "gs_2_nodes"]
    )
    @pytest.mark.parametrize("name", list(CLASS_LAYOUT_MODELS))
    def test_class_layouts_give_each_point_its_own_numbers(self, name, scheme):
        # a block of several points in either layout (above the threshold
        # allocate forms one only for a scheme of at most 3 nodes per point):
        # each point gets the numbers of its own call
        make, class_major = CLASS_LAYOUT_MODELS[name]
        model = make()
        z = scheme.nodes(np.array([0.5, 2.0, 6.0]))
        block = model.transform(z)
        # the class-major view strides its class axis across the node rows
        assert (block.strides[-1] != block.itemsize) == class_major
        for j in range(len(z)):
            assert np.array_equal(model.transform(z[j]), block[j], equal_nan=True)

    @pytest.mark.parametrize("scheme", [EulerScheme(), GsScheme()], ids=["euler", "gs"])
    @pytest.mark.parametrize("name", list(CLASS_LAYOUT_MODELS))
    def test_class_layouts_match_one_point_inversions(self, name, scheme):
        # the layout follows m alone, so a block and each of its points share
        # it and every point gets its own numbers
        model = CLASS_LAYOUT_MODELS[name][0]()
        block = max(1, _BLOCK_BUDGET // (scheme.nodes(1.0).shape[-1] * (model.m + 1)))
        grid = tuple(np.linspace(0.05, 20.0, min(400, 2 * block + 1)))
        assert len(grid) > block  # two blocks or more
        res = self._run(model, scheme, grid)
        for j, s in enumerate(grid):
            one = self._run(model, scheme, (s,))
            assert np.array_equal(res.density[j], one.density[0], equal_nan=True)
            assert np.array_equal(res.raw_xi[j], one.raw_xi[0], equal_nan=True)

    @pytest.mark.parametrize("name", list(CLASS_LAYOUT_MODELS))
    def test_class_layouts_keep_the_protocol_shape(self, name):
        model = CLASS_LAYOUT_MODELS[name][0]()
        z = EulerScheme().nodes(np.array([0.5, 2.0, 6.0]))
        block = model.transform(z)
        assert block.shape == (3, 41, model.m + 1)
        for nodes, want in [
            (z[1, 7], block[1, 7]),
            (z[1], block[1]),
            (z, block),
            (z[:, None], block[:, None]),
        ]:
            got = model.transform(nodes)
            assert got.shape == np.shape(nodes) + (model.m + 1,)
            # a lone node sums its classes in the block's order
            assert np.array_equal(got, want)

    def test_singular_solve_fails_only_its_point(self):
        # Exp(1) written with a second, unobservable phase whose rate is
        # minus the first Euler node at s = 2: zI - T is singular there, so
        # that point fails alone and the others get the plain Exp(1) numbers.
        # Exp(3) written the same way shares the hidden risk's solve group
        z_bad = EulerScheme().nodes(2.0)[0].real
        hidden = MatrixExpSpec([1.0, 0.0], np.diag([-1.0, z_bad]), [1.0, 0.0])
        with pytest.raises(SingularMatrixError, match=f"pivot .* at z = {z_bad}"):
            hidden.lst_pair(np.array([1.0, z_bad]))
        partner = MatrixExpSpec([1.0, 0.0], np.diag([-3.0, -5.0]), [3.0, 0.0])
        assert _MatrixExpGroup.key(partner) == _MatrixExpGroup.key(hidden)
        with pytest.raises(SingularMatrixError, match=f"pivot .* at z = {z_bad}"):
            _MatrixExpGroup([partner, hidden]).pair(np.array([1.0, z_bad]))
        grid = (0.5, 1.0, 2.0)
        pool = [hidden, exponential_me_spec(2.0), partner]
        res = self._run(build_matrix_exp(pool), grid=grid)
        plain = self._run(
            build_matrix_exp([exponential_me_spec(r) for r in (1.0, 2.0, 3.0)]), grid=grid
        )
        assert res.status == [STATUS_OK, STATUS_OK, STATUS_FAILED]
        assert plain.status == [STATUS_OK] * 3
        keep = [0, 1]
        assert np.array_equal(res.density[keep], plain.density[keep])
        assert np.array_equal(res.raw_xi[keep], plain.raw_xi[keep])

    def test_frailty_call_memory_is_nodes_by_risks(self):
        # one Euler point of a 1000-risk gamma frailty on 200 quadrature
        # nodes: the call holds a few (nodes, n+1) complex arrays, never one
        # with a quadrature axis (that would be 200 times larger)
        n = 1000
        lam = 3.0 * np.random.default_rng(5).uniform(0.5, 2.0, n) / n
        model = build_mixed_exp_frailty(MixedExpFrailtySpec(tuple(lam), gamma_mixing(3.0)))
        z = EulerScheme().nodes(np.array([2.0]))
        tracemalloc.start()
        try:
            model.transform(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * z.size * (n + 1) * 16


def _per_risk_common_shock(spec):
    """The common-shock transform with one column per risk, written out
    plainly: the reference for a pool whose builder groups its risks."""
    lam, bet, w = (np.array(v) for v in (spec.lambdas, spec.betas, spec.weights))

    def transform(z):
        z = np.asarray(z)[..., None]
        q, q0 = 1.0 / (bet + z), 1.0 / (spec.beta0 + z)
        t = (lam * (bet * q - 1.0)).sum(-1, keepdims=True)
        ls = np.exp(spec.lambda0 * (spec.beta0 * q0 - 1.0) + t)
        li = (lam * bet * q * q + spec.lambda0 * spec.beta0 * w * q0 * q0) * ls
        return np.concatenate([ls, li], axis=-1)

    return JointTransformModel(spec.n, transform, atom_mass=math.exp(-spec.total_rate))


def _exponential_classes(cols, atom=0.1):
    """Risks that are all 0 with probability ``atom`` and otherwise
    independent exponentials, risk i at rate n (1 + cols[i]/2): a
    hand-built model with any risk map ``cols``."""
    cols = np.array(cols)
    n = len(cols)
    rates = n * (1.0 + 0.5 * np.arange(cols.max() + 1))
    counts = np.bincount(cols)

    def transform(z):
        z = np.asarray(z)[..., None]
        q = 1.0 / (rates + z)
        body = (1.0 - atom) * np.prod((rates * q) ** counts, axis=-1, keepdims=True)
        return np.concatenate([atom + body, body * q], axis=-1)

    return JointTransformModel(n, transform, atom_mass=atom, risk_columns=cols)


def _no_map_twin(model):
    """A class model's transform expanded to one column per risk, with the
    identity map: the reference a class pool's results must match."""
    return dataclasses.replace(
        model, transform=lambda z: model.expand(model.transform(z)), risk_columns=None
    )


def _faulty_classes(model, scheme, faults):
    """``model`` with class columns corrupted at the Euler nodes of chosen
    gridpoints (the nodes of level s share Re z = A / (2s)): ``faults``
    holds (s, class, factor), and a factor of inf puts 1e308 at the real
    node, which overflows in the kernel."""

    def transform(z):
        vals = np.array(model.transform(z))
        level = scheme.A / (2.0 * np.real(z))
        for s, c, factor in faults:
            at = np.isclose(level, s)
            if np.isinf(factor):
                vals[at & (np.imag(z) == 0.0), 1 + c] = 1e308
            else:
                vals[at, 1 + c] *= factor
        return vals

    return dataclasses.replace(model, transform=transform)


def _csv_by_risk(res):
    """``write_csv`` of ``res`` read back through its header labels: each
    risk's xi and h cells as (rows, n) string arrays, risk i in column
    i - 1, and the other columns by name.  The labels must name every risk
    once, ascending within a class, and the classes must follow their first
    risks."""
    buf = io.StringIO()
    assert write_csv(res, buf) == len(res.status) + (res.atom_mass > 0.0)
    header, *rows = [line.split(",") for line in buf.getvalue().split("\n")[:-1]]
    table = np.array(rows, dtype=object).reshape(len(rows), len(header))
    classes = {"xi": [], "h": []}
    cells = {}
    for j, name in enumerate(header):
        kind, _, label = name.partition("_")
        if kind in classes:
            classes[kind].append((j, [int(r) for r in label.split(";")]))
        else:
            cells[name] = table[:, j].tolist()
    for kind, labelled in classes.items():
        assert sorted(r for _, risks in labelled for r in risks) == list(range(1, res.n + 1))
        assert all(risks == sorted(risks) for _, risks in labelled)
        firsts = [risks[0] for _, risks in labelled]
        assert firsts == sorted(firsts)
        column = {r: j for j, risks in labelled for r in risks}
        cells[kind] = table[:, [column[i] for i in range(1, res.n + 1)]]
    return cells


def _assert_csv_reads_back(res):
    """Every cell of the CSV, read through its labels, is the ``%.12g`` text
    of the result's value; the atom row, if any, holds zeros."""
    cells = _csv_by_risk(res)
    atoms = int(res.atom_mass > 0.0)
    if atoms:
        assert [cells[k][0] for k in ("s", "f_S", "sum_h", "balance_residual", "status")] == [
            "0", "%.12g" % res.atom_mass, "0", "0", STATUS_ATOM,
        ]
        assert (cells["xi"][0] == "0").all() and (cells["h"][0] == "0").all()
    for name, values in (
        ("s", res.s_grid),
        ("f_S", res.density),
        ("sum_h", res.sum_h),
        ("balance_residual", res.balance_residual),
        ("xi", res.xi),
        ("h", res.h),
    ):
        assert np.array_equal(np.asarray(cells[name])[atoms:], np.char.mod("%.12g", values))
    assert cells["status"][atoms:] == res.status


def _per_row_csv(res):
    """The CSV of a result with one column per risk (m = n), one ``%`` per
    row: the header, the atom row if any, then the gridpoint rows.  The
    reference for ``write_csv``'s blocks."""
    n = res.n
    names = (
        ["s", "f_S"]
        + [f"xi_{i}" for i in range(1, n + 1)]
        + [f"h_{i}" for i in range(1, n + 1)]
        + ["sum_h", "balance_residual", "status"]
    )
    line = ",".join(["%.12g"] * (2 * n + 4)) + ",%s\n"
    atom = [line % (0.0, res.atom_mass, *[0.0] * (2 * n + 2), STATUS_ATOM)] if res.atom_mass > 0.0 else []
    table = np.column_stack([res.s_grid, res.density, res.xi, res.h, res.sum_h, res.balance_residual])
    return "".join(
        [",".join(names) + "\n", *atom] + [line % (*row, status) for row, status in zip(table.tolist(), res.status)]
    )


class TestRiskClasses:
    """Pools of a few classes of identical risks: one column per class from
    the model, inverted once and expanded to the risks."""

    def test_distinct_risks_have_the_identity_map(self):
        # the frailty keeps one column per risk, equal lambdas or not
        for model in (
            build_common_shock_cp(CS_REF),
            build_matrix_exp([exponential_me_spec(1.0), exponential_me_spec(2.0)]),
            build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 1.0), gamma_mixing(2.0))),
        ):
            assert model.m == model.n
            assert model.risk_columns.dtype.kind == "i"
            assert np.array_equal(model.risk_columns, np.arange(model.n))
            assert np.array_equal(model.multiplicity, np.ones(model.n))
            # allocate copies nothing: raw_xi and the density are views of
            # its one (points, n+1) array of inverted values (disjoint
            # columns, so np.shares_memory would say False)
            res = allocate(AllocationRequest(model=model, s_grid=(1.0, 2.0), scheme=EulerScheme()))
            assert res.raw_xi.base is res.density.base is not None

    def test_classes_in_order_of_first_appearance(self):
        model = build_common_shock_cp(_scaled_cscp(CS_REF, 10))
        # cycled rates and severities, equal weights but the last one
        assert model.risk_columns.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 3]
        assert model.m == 4
        assert model.transform(np.array([1.0, 2.0])).shape == (2, 5)
        assert eval_transform(model, np.array([1.0, 2.0])).shape == (2, 11)
        assert diagonal_diagnostic(model, np.logspace(-2, 2, 25)).all_passed

    def test_katz_classes_need_the_same_severity_object(self):
        sev = exponential_severity(1.0)
        shared = build_katz_compound(KatzCompoundSpec((0.0, 0.0), (2.0, 2.0), (sev, sev)))
        assert shared.risk_columns.tolist() == [0, 0]
        twins = (exponential_severity(1.0), exponential_severity(1.0))
        plain = build_katz_compound(KatzCompoundSpec((0.0, 0.0), (2.0, 2.0), twins))
        assert plain.m == 2 and plain.risk_columns.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "cols",
        [[0, 2, 2], [0, 1], [0, -1, 1], [0.0, 1.0, 1.0], [0, 2**62, 1]],
        ids=["gap", "short", "negative", "float", "out_of_range"],
    )
    def test_bad_map_refused(self, cols):
        with pytest.raises(ModelSpecError, match="risk_columns"):
            JointTransformModel(n=3, transform=lambda z: z, risk_columns=np.array(cols))

    def test_replicated_common_shock_matches_per_risk_transform(self):
        spec = _scaled_cscp(CS_REF, 30)
        model = build_common_shock_cp(spec)
        z = EulerScheme().nodes(np.array([0.5, 4.0, 12.0]))
        want = _per_risk_common_shock(spec).transform(z)
        got = model.expand(column_values(model, z))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        grid = _grid(0.5, 12.0, 0.5)
        res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
        ref = allocate(
            AllocationRequest(model=_per_risk_common_shock(spec), s_grid=grid, scheme=EulerScheme())
        )
        assert res.status == ref.status == [STATUS_OK] * len(grid)
        assert np.abs(res.density - ref.density).max() <= 1e-12
        assert np.abs(res.h - ref.h).max() <= 1e-11

    def test_class_product_rule_matches_per_risk_rule(self):
        # ten Erlang(3) risks at four rates: L_c^{m_c} powers against the
        # product over every risk
        specs = [erlang_me_spec(3, r) for r in (1.0, 1.5, 2.0, 2.5, 1.0, 1.5, 2.0, 2.5, 1.0, 1.5)]
        model = build_matrix_exp(specs)
        assert model.m == 4
        z = EulerScheme().nodes(np.array([1.0, 6.0]))
        pairs = [sp.lst_pair(z) for sp in specs]
        want = np.moveaxis(_product_rule(*(np.stack(v) for v in zip(*pairs))), 0, -1)
        got = model.expand(column_values(model, z))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("pool", ["common_shock", "lognormal"])
    def test_identical_risks_get_identical_shares(self, pool):
        if pool == "common_shock":
            model = build_common_shock_cp(_scaled_cscp(CS_REF, 100))
            grid = _grid(0.5, 12.0, 0.5)
        else:
            # the 200-risk lognormal pool, E[S] = 332, on [0.6, 1.4] E[S]
            means = (1.0, 2.0, 2.0) * 66 + (1.0, 1.0)
            variances = (5.0, 2.0, 5.0) * 66 + (5.0, 5.0)
            model = build_lognormal_portfolio(LognormalPortfolioSpec.from_moments(means, variances))
            grid = tuple(332.0 * np.linspace(0.6, 1.4, 21))
        res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
        cols = model.risk_columns
        first = np.unique(cols, return_index=True)[1]
        for name in ("raw_xi", "xi", "h"):
            values = getattr(res, name)
            assert np.array_equal(values, values[:, first[cols]], equal_nan=True)
        tail = np.array(tail_contribution(res, grid[len(grid) // 2]).per_risk)
        assert np.array_equal(tail, tail[first[cols]])

    def test_class_space_results_match_the_no_map_twin(self):
        # shares, sums and statuses on the class columns against the same
        # numbers on one column per risk: ok points, a budget violation
        # (s = 6), the points after the break, a class with xi < -1e-8
        # (s = 7, where a failed row's roundoff in class 3 is kept), a class
        # whose inverted value is non-finite (s = 8) and a class whose
        # roundoff is clamped (s = 9)
        scheme = EulerScheme()
        faults = [(6.0, 1, 1.05), (7.0, 2, -1.0), (7.0, 3, -1e-12), (8.0, 0, np.inf), (9.0, 3, -1e-12)]
        model = _faulty_classes(build_common_shock_cp(_scaled_cscp(CS_REF, 10)), scheme, faults)
        grid = _grid(0.5, 12.0, 0.5)
        res, ref = (
            allocate(AllocationRequest(model=m, s_grid=grid, scheme=scheme))
            for m in (model, _no_map_twin(model))
        )
        status = dict(zip(grid, res.status))
        assert res.status[:11] == [STATUS_OK] * 11
        assert status[6.0] == status[6.5] == status[9.0] == STATUS_DEGRADED
        assert status[7.0] == status[8.0] == STATUS_FAILED
        k = grid.index(8.0)
        assert np.isfinite(res.density[k]) and not np.isfinite(res.raw_xi[k]).all()
        k = grid.index(9.0)
        assert -1e-8 < res.raw_xi[k, 9] < 0.0 == res.xi[k, 9]
        k = grid.index(7.0)
        assert -1e-8 < res.raw_xi[k, 9] == res.xi[k, 9] < 0.0
        assert res.status == ref.status
        for name in ("density", "raw_xi", "xi", "h"):
            assert np.array_equal(getattr(res, name), getattr(ref, name), equal_nan=True)
        # the sums weigh each class by its multiplicity: n eps relative to
        # the sum, so to sum_h and to sum xi / (s f) = 1 +- the residual
        bound = 4 * model.n * np.finfo(float).eps
        for got, want, scale in (
            (res.sum_h, ref.sum_h, np.abs(ref.sum_h)),
            (res.balance_residual, ref.balance_residual, 1.0 + ref.balance_residual),
        ):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert (np.abs(got - want)[ok] <= bound * scale[ok]).all()

    def test_kernel_overflow_fails_its_point_without_a_warning(self):
        # 1e308 at the real Euler node of s = 8: the weighted sum is finite,
        # its product with the scale factor overflows, and the point fails
        scheme = EulerScheme()
        model = _faulty_classes(build_common_shock_cp(_scaled_cscp(CS_REF, 10)), scheme, [(8.0, 0, np.inf)])
        grid = (7.0, 8.0, 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=scheme))
        assert res.status[:2] == [STATUS_OK, STATUS_FAILED]
        assert not np.isfinite(res.raw_xi[1]).all()

    def test_class_tail_contribution_is_the_no_map_twins(self):
        model = build_common_shock_cp(_scaled_cscp(CS_REF, 10))
        grid = (2.0, 4.0)
        tails = [
            tail_contribution(allocate(AllocationRequest(model=m, s_grid=grid, scheme=s)), 3.0)
            for m in (model, _no_map_twin(model))
            for s in (EulerScheme(), GsScheme())
        ]
        assert tails[0] == tails[2] and tails[1] == tails[3]

    def test_class_csv_reads_back_per_risk(self):
        # with an origin atom and a degraded tail: one column per class, and
        # each risk's cells found through the labels are its values' text
        model = build_common_shock_cp(_scaled_cscp(CS_REF, 50))
        res = allocate(AllocationRequest(model=model, s_grid=_grid(0.5, 60.0, 0.5), scheme=EulerScheme()))
        assert model.atom_mass > 0.0 and res.worst_status != STATUS_OK
        _assert_csv_reads_back(res)

    @pytest.mark.parametrize(
        "cols",
        [
            [0] * 100 + [1] * 100 + [2] * 100,
            ([0] * 60 + [1] * 60) * 2,
            np.random.default_rng(4).permutation([0, 1, 2, 3] * 75).tolist(),
            [0] * 50,
            [0],
            [0, 1],
            [0, 0],
            [0, 1, 0],
            [0, 1, 2, 0, 1, 2, 0],
            [2, 0, 1] * 40,
            [2, 2, 0, 1, 1, 0, 2, 1, 0, 2, 0, 1, 1],
            [1, 0, 2],
        ],
        ids=[
            "grouped", "grouped_twice", "shuffled", "one_class", "n1", "n2", "n2_one_class", "n3", "n7",
            "unordered_cycled", "unordered_mixed", "permuted",
        ],
    )
    def test_class_csv_layouts_read_back_per_risk(self, cols):
        # grouped, cycled, shuffled and unordered maps, and maps with m == n;
        # the grid spans the bulk of S and its fading tails
        model = _exponential_classes(cols)
        grid = tuple(model.transform(0.0)[1:][model.risk_columns].sum() * np.linspace(0.3, 2.0, 9))
        _assert_csv_reads_back(allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme())))

    def test_class_csv_labels_a_cycled_map(self):
        model = _exponential_classes([2, 0, 1] * 3)
        res = allocate(AllocationRequest(model=model, s_grid=(1.0,), scheme=EulerScheme()))
        buf = io.StringIO()
        write_csv(res, buf)
        assert buf.getvalue().split("\n")[0] == (
            "s,f_S,xi_1;4;7,xi_2;5;8,xi_3;6;9,h_1;4;7,h_2;5;8,h_3;6;9,sum_h,balance_residual,status"
        )

    @pytest.mark.parametrize(
        "cols, points",
        [([0], 4), ([0, 1, 2], 4), ([1, 0, 2], 4), ([4, 2, 0, 6, 1, 5, 3], 4), (list(range(1000)), 20)],
        ids=["n1", "n3", "permuted", "permuted_n7", "n1000"],
    )
    def test_distinct_risks_write_the_per_risk_table(self, cols, points):
        # m == n, the identity map or a permuted one: the columns are the
        # risks in order, each value as %.12g, and no pi columns; at n = 1000
        # a block holds 2**14 // 2004 = 8 rows, so 20 rows cross two blocks
        model = _exponential_classes(cols)
        grid = tuple(model.transform(0.0)[1:][model.risk_columns].sum() * np.linspace(0.5, 1.5, points))
        res = allocate(AllocationRequest(model=model, s_grid=grid, scheme=EulerScheme()))
        buf = io.StringIO()
        assert write_csv(res, buf) == points + 1
        assert buf.getvalue() == _per_row_csv(res)

    def test_csv_holds_the_atom_row_and_every_status(self, monkeypatch):
        # ok points, a budget violation (s = 6) and the degraded points after
        # it, and a non-finite class (s = 8), with one column per risk; three
        # rows of 24 values per block, so statuses change within and across
        # blocks
        monkeypatch.setattr(cli, "_BLOCK_BUDGET", 3 * 24)
        scheme = EulerScheme()
        faults = [(6.0, 1, 1.05), (8.0, 0, np.inf)]
        model = _no_map_twin(_faulty_classes(build_common_shock_cp(_scaled_cscp(CS_REF, 10)), scheme, faults))
        res = allocate(AllocationRequest(model=model, s_grid=_grid(0.5, 12.0, 0.5), scheme=scheme))
        buf = io.StringIO()
        write_csv(res, buf)
        text = buf.getvalue()
        assert text == _per_row_csv(res)
        statuses = {line.rsplit(",", 1)[1] for line in text.split("\n")[1:-1]}
        assert statuses == {STATUS_ATOM, STATUS_OK, STATUS_DEGRADED, STATUS_FAILED}

    def test_csv_header_is_derived_once_per_model(self):
        # repeated writes give the same bytes from the same labels object; a
        # model replaced with another map derives its own header
        model = _exponential_classes([2, 0, 1] * 3)
        res = allocate(AllocationRequest(model=model, s_grid=(1.0, 2.0), scheme=EulerScheme()))
        labels = model.class_labels
        first, again = io.StringIO(), io.StringIO()
        write_csv(res, first)
        write_csv(res, again)
        assert first.getvalue() == again.getvalue()
        assert model.class_labels is labels
        other = dataclasses.replace(model, risk_columns=np.repeat([0, 1, 2], 3))
        buf = io.StringIO()
        write_csv(allocate(AllocationRequest(model=other, s_grid=(1.0,), scheme=EulerScheme())), buf)
        assert other.class_labels is not labels
        assert buf.getvalue().split("\n")[0] == (
            "s,f_S,xi_1;2;3,xi_4;5;6,xi_7;8;9,h_1;2;3,h_4;5;6,h_7;8;9,sum_h,balance_residual,status"
        )
        assert model.class_labels is labels

    def test_csv_header_and_atom_row_at_n1000(self):
        # the replicated pool's 4 classes: the three base risks cycled, and
        # the last risk alone, whose weight absorbs the rounding
        n = 1000
        model = build_common_shock_cp(_scaled_cscp(CS_REF, n))
        assert model.m == 4
        res = allocate(AllocationRequest(model=model, s_grid=(1.0,), scheme=EulerScheme()))
        buf = io.StringIO()
        write_csv(res, buf)
        header, atom = buf.getvalue().split("\n")[:2]
        labels = [";".join(map(str, range(k, n, 3))) for k in (1, 2, 3)] + [str(n)]
        names = ["s", "f_S"] + [f"xi_{x}" for x in labels] + [f"h_{x}" for x in labels]
        assert header == ",".join(names + ["sum_h", "balance_residual", "status"])
        line = ",".join(["%.12g"] * 12) + ",%s"
        assert atom == line % (0.0, model.atom_mass, *[0.0] * 10, STATUS_ATOM)

    def test_block_budget_counts_class_columns(self):
        # n = 10^4 risks in m = 4 classes on the bench grid: 2**14 // (41 x 5)
        # = 79 points per block, so two model calls of m + 1 = 5 columns
        base = build_common_shock_cp(_scaled_cscp(CS_REF, 10**4))
        shapes = []

        def transform(z):
            out = base.transform(z)
            shapes.append(out.shape)
            return out

        model = dataclasses.replace(base, transform=transform)
        res = allocate(AllocationRequest(model=model, s_grid=_BENCH_GRID, scheme=EulerScheme()))
        assert sorted(shapes) == [(21, 41, 5), (79, 41, 5)]
        assert res.h.shape == (100, 10**4)
        assert res.status == [STATUS_OK] * 100
