import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaincc

from cmrs.allocation import (
    STATUS_ATOM,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    AllocationRequest,
    allocate,
    breakdown_scan,
    proportions,
    strip_atoms,
    tail_contribution,
)
from cmrs.errors import DomainError, EvaluationError, SingularMatrixError
from cmrs.inversion import EulerScheme
from cmrs.models import (
    CommonShockCPSpec,
    build_common_shock_cp,
    build_matrix_exp,
    erlang_me_spec,
    exponential_me_spec,
)
from cmrs.oracles import me_example_oracle
from cmrs.transforms import AtomEntry, AtomSet, JointTransformModel

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
        with pytest.raises(DomainError, match="balance_tol"):
            AllocationRequest(
                model=self._model(), s_grid=(1.0,), scheme=EulerScheme(), balance_tol=0.0
            )
        with pytest.raises(DomainError, match="density_floor"):
            AllocationRequest(
                model=self._model(), s_grid=(1.0,), scheme=EulerScheme(), density_floor=0.0
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

    @pytest.mark.parametrize("error", [DomainError, EvaluationError, SingularMatrixError])
    def test_unevaluable_transform_fails(self, error):
        # Exp(1) + Exp(2) that refuses Re z < 5: the Euler contour abscissa is
        # A / (2s), so only s = 2 reaches such a node; that point must fail
        # and the others must not notice
        base = build_matrix_exp([exponential_me_spec(1.0), exponential_me_spec(2.0)])

        def transform(z):
            if complex(z).real < 5.0:
                raise error(f"no value at z = {z}")
            return base.transform(z)

        model = JointTransformModel(n=2, transform=transform)
        req = AllocationRequest(model=model, s_grid=(0.5, 1.0, 2.0), scheme=EulerScheme())
        res = allocate(req)
        assert res.status == [STATUS_OK, STATUS_OK, STATUS_FAILED]
        assert math.isnan(res.sum_h[2])
        assert (res.h[2] == 0.0).all()

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

    def test_ok_count_monotone_in_tolerance(self, fade_result):
        loose = breakdown_scan(fade_result, tol=1e-2)
        mid = breakdown_scan(fade_result)
        tight = breakdown_scan(fade_result, tol=1e-6)
        assert loose.n_ok >= mid.n_ok >= tight.n_ok
        assert tight.n_ok > 0
        assert loose.breakdown_s >= mid.breakdown_s >= tight.breakdown_s

    def test_counts_partition_the_grid(self, fade_result):
        rep = breakdown_scan(fade_result)
        assert rep.n_ok + rep.n_degraded + rep.n_failed == len(fade_result.s_grid)

    def test_no_new_transform_work(self, fade_result):
        # rescanning must reuse stored raw values: statuses at the stored
        # tolerance reproduce the original run exactly
        rep = breakdown_scan(fade_result, tol=fade_result.request.balance_tol)
        assert list(rep.status) == fade_result.status

    def test_bad_tolerance_rejected(self, me_result):
        with pytest.raises(DomainError, match="tolerance"):
            breakdown_scan(me_result, tol=0.0)


class TestTailContribution:
    def test_matches_gamma_closed_form(self, equal_rates_result):
        # S ~ Gamma(3, 1): integral_{4}^{inf} h_i f equals a Gamma(4) tail;
        # the trapezoid step (0.25) limits agreement, not the inversion
        tc = tail_contribution(equal_rates_result, 4.0)
        exact = 3.0 * gammaincc(4, 4.0)
        assert tc.per_risk[0] == pytest.approx(2.0 / 3.0 * exact, abs=2e-3)
        assert tc.per_risk[1] == pytest.approx(1.0 / 3.0 * exact, abs=1e-3)
        assert tc.total == pytest.approx(exact, abs=3e-3)

    def test_share_ratio_is_exact(self, equal_rates_result):
        # quadrature error scales both risks identically, so the 2:1 split
        # survives to near machine precision
        tc = tail_contribution(equal_rates_result, 4.0)
        assert tc.per_risk[0] / tc.per_risk[1] == pytest.approx(2.0, rel=1e-12)

    def test_truncation_bound_covers_lost_mass(self, equal_rates_result):
        tc = tail_contribution(equal_rates_result, 4.0)
        assert 0.0 <= tc.truncation_bound < 1e-6

    def test_interpolates_partial_first_cell(self, equal_rates_result):
        # s* between gridpoints must not jump to the next point
        a = tail_contribution(equal_rates_result, 4.0)
        b = tail_contribution(equal_rates_result, 4.1)
        c = tail_contribution(equal_rates_result, 4.25)
        assert a.total > b.total > c.total

    def test_out_of_grid_threshold_rejected(self, equal_rates_result):
        with pytest.raises(DomainError, match="outside"):
            tail_contribution(equal_rates_result, 100.0)
        with pytest.raises(DomainError, match="outside"):
            tail_contribution(equal_rates_result, 0.01)


class TestAtomHandling:
    def test_model_atoms_survive_to_result(self, fade_result):
        model = fade_result.request.model
        assert fade_result.atoms is model.atoms
        assert fade_result.atoms.masses[0] == pytest.approx(math.exp(-4.0), abs=1e-15)

    def test_atomless_remainder_is_the_model_itself(self):
        model = build_matrix_exp([exponential_me_spec(1.0), exponential_me_spec(2.0)])
        rem = strip_atoms(model)
        for z in (0.5, 1.0 + 3.0j):
            assert np.array_equal(rem.values_at(z), model.transform(z).real)

    def test_remainder_subtracts_the_atom(self):
        model = build_common_shock_cp(CS_REF)
        rem = strip_atoms(model)
        # at large real t the continuous part dies but the atom term does not
        assert abs(complex(model.transform(1.0e4)[0]) - math.exp(-4.0)) < 1e-4
        assert abs(rem.values_at(1.0e4)[0]) < 1e-4
        assert abs(rem.values_at(1.0e4)[0]) < abs(rem.values_at(1.0e2)[0])

    def test_values_at_stacks_aggregate_and_allocations(self):
        model = build_common_shock_cp(CS_REF)
        rem = strip_atoms(model)
        z = 0.8 + 2.0j
        row = rem.values_at(z)
        vals = model.transform(z)
        assert row.shape == (4,)
        # the origin atom carries mass e^{-4} and no allocation mass
        assert row[0] == pytest.approx((vals[0] - math.exp(-4.0)).real, rel=1e-14)
        assert np.array_equal(row[1:], vals[1:].real)

    def test_pure_point_mass_remainder_vanishes(self):
        # S identically 2, all of it on the single risk
        atoms = AtomSet((AtomEntry(2.0, 1.0, (2.0,)),))
        model = JointTransformModel(
            n=1,
            transform=lambda z: np.array([1.0, 2.0]) * cmath.exp(-2.0 * z),
            atoms=atoms,
            label="point",
        )
        rem = strip_atoms(model)
        for z in (0.1, 1.0, 3.0 + 5.0j):
            assert np.array_equal(rem.values_at(z), [0.0, 0.0])


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
