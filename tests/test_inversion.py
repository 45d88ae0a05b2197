import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmrs.allocation import STATUS_FAILED, AllocationRequest, allocate
from cmrs.errors import DomainError, InversionError
from cmrs.inversion import (
    GS_ORDER_CAP,
    EulerScheme,
    GsScheme,
    gs_weights,
    gs_weights_exact,
    invert,
    invert_values,
    scheme_nodes,
)
from cmrs.models import build_matrix_exp, exponential_me_spec

# classical order-5 weight table (10 nodes)
_M5_WEIGHTS = (
    Fraction(1, 12),
    Fraction(-385, 12),
    Fraction(1279),
    Fraction(-46871, 3),
    Fraction(505465, 6),
    Fraction(-473915, 2),
    Fraction(1127735, 3),
    Fraction(-1020215, 3),
    Fraction(328125, 2),
    Fraction(-65625, 2),
)


class TestGsWeights:
    def test_m1_weights(self):
        assert gs_weights_exact(1) == (Fraction(2), Fraction(-2))

    def test_m5_table(self):
        assert gs_weights_exact(5) == _M5_WEIGHTS

    @pytest.mark.parametrize("M", range(1, GS_ORDER_CAP + 1))
    def test_rational_identities(self, M):
        w = gs_weights_exact(M)
        assert len(w) == 2 * M
        assert sum(w) == 0
        assert sum(c / k for k, c in enumerate(w, start=1)) == 1

    def test_float_weights_match(self):
        assert gs_weights(6) == tuple(float(c) for c in gs_weights_exact(6))

    @pytest.mark.parametrize("M", [0, -3, GS_ORDER_CAP + 1])
    def test_order_cap(self, M):
        with pytest.raises(InversionError, match="order must be in"):
            gs_weights_exact(M)


class TestSchemes:
    def test_gs_node_layout(self):
        nodes = scheme_nodes(GsScheme(M=3), 2.0)
        want = np.arange(1, 7) * (math.log(2.0) / 2.0)
        assert np.array_equal(nodes, want.astype(complex))

    def test_euler_node_layout(self):
        sch = EulerScheme(A=18.4, N=25, m=15)
        s = 3.0
        nodes = scheme_nodes(sch, s)
        assert len(nodes) == 41
        assert nodes[0] == complex(18.4 / (2 * s), 0.0)
        assert nodes[7] == complex(18.4 / (2 * s), math.pi * 7 / s)

    def test_tilted_nodes_shift_left(self):
        plain = scheme_nodes(EulerScheme(), 2.0)
        tilted = scheme_nodes(EulerScheme(theta=0.5), 2.0)
        assert np.allclose(tilted.real, plain.real - 0.5)
        assert np.array_equal(tilted.imag, plain.imag)

    def test_contour_violation(self):
        with pytest.raises(InversionError, match="contour violation"):
            scheme_nodes(EulerScheme(A=18.4, theta=0.2), 75.0)

    def test_nonpositive_target(self):
        with pytest.raises(DomainError, match="s > 0"):
            scheme_nodes(EulerScheme(), 0.0)

    def test_describe(self):
        assert "M=8" in GsScheme().describe()
        assert "theta" in EulerScheme(theta=0.1).describe()

    def test_scheme_validation(self):
        with pytest.raises(InversionError):
            EulerScheme(A=-1.0)
        with pytest.raises(InversionError):
            EulerScheme(theta=-0.2)
        with pytest.raises(InversionError):
            GsScheme(M=40)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: EulerScheme(N=25.5), "N"),
            (lambda: EulerScheme(m=8.5), "m"),
            (lambda: EulerScheme(N=True), "N"),
            (lambda: GsScheme(M=8.5), "M"),
            (lambda: GsScheme(M=float("nan")), "M"),
        ],
        ids=["N=25.5", "m=8.5", "N=True", "M=8.5", "M=nan"],
    )
    def test_non_whole_orders_refused(self, make, name):
        with pytest.raises(InversionError, match=f"order {name} must be a whole number"):
            make()

    def test_whole_float_orders_become_ints(self):
        sch = EulerScheme(N=25.0, m=15.0)
        assert (type(sch.N), type(sch.m)) == (int, int)
        assert sch.describe() == "euler(A=18.4,N=25,m=15)"
        assert type(GsScheme(M=8.0).M) is int


def _euler_weights_two_stage(N, m):
    """The weight of each a_k in 2^-m sum_r C(m, r) S_{N+r}, where S_j are the
    partial sums of a_0/2 - a_1 + a_2 - ..., in exact arithmetic."""
    out = []
    for k in range(N + m + 1):
        a = [Fraction(int(j == k)) for j in range(N + m + 1)]
        terms = [a[0] / 2] + [(-1) ** j * a[j] for j in range(1, N + m + 1)]
        partial = list(itertools.accumulate(terms))
        out.append(sum(math.comb(m, r) * partial[N + r] for r in range(m + 1)) / 2**m)
    return out


@pytest.mark.parametrize("N, m", [(25, 15), (0, 0), (3, 0), (0, 4), (10, 52)])
def test_euler_weights_are_the_two_stage_average(N, m):
    weights = EulerScheme(N=N, m=m).weights
    assert len(weights) == N + m + 1
    assert [Fraction(w) for w in weights] == _euler_weights_two_stage(N, m)


def exp_lst(z):
    return 1.0 / (1.0 + z)


def gamma2_lst(z):
    return 1.0 / (1.0 + z) ** 2


class TestRecovery:
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 6.0])
    def test_euler_exponential(self, s):
        got = invert(exp_lst, s, EulerScheme())
        assert abs(got - math.exp(-s)) < 1e-8

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 6.0])
    def test_euler_gamma2(self, s):
        got = invert(gamma2_lst, s, EulerScheme())
        assert abs(got - s * math.exp(-s)) < 1e-8

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_gs_exponential_near_origin(self, s):
        got = invert(exp_lst, s, GsScheme(M=8))
        assert abs(got - math.exp(-s)) < 1e-6

    def test_gs_known_error_envelope(self):
        # the order-8 approximant has inherent truncation error away from the
        # origin; the envelope below is the measured behavior, not a target
        worst = max(
            abs(invert(exp_lst, s, GsScheme(M=8)) - math.exp(-s))
            for s in np.arange(0.1, 10.05, 0.1)
        )
        assert worst < 2e-4
        assert abs(invert(exp_lst, 5.0, GsScheme(M=8)) - math.exp(-5.0)) > 1e-6

    @pytest.mark.parametrize("M", range(1, 6))
    def test_gs_constant_identity_low_orders(self, M):
        # f(t) = 1/t inverts to the constant 1; exact up to weight-rounding
        # noise, which stays under 1e-10 only while max|weight| is moderate
        for s in (0.4, 1.0, 7.0):
            assert abs(invert(lambda z: 1.0 / z, s, GsScheme(M=M)) - 1.0) < 1e-10

    def test_gs_constant_identity_m8_envelope(self):
        err = abs(invert(lambda z: 1.0 / z, 1.0, GsScheme(M=8)) - 1.0)
        assert err < 1e-6

    def test_euler_tilt_matches_untilted(self):
        for s in (0.5, 2.0, 5.0):
            a = invert(exp_lst, s, EulerScheme())
            b = invert(exp_lst, s, EulerScheme(theta=0.3))
            assert abs(a - b) < 1e-9

    def test_invert_dispatch(self):
        # both rules are one weighted sum: the scale factor times the
        # node-order sum of w_k L(alpha_k), exactly as written
        s = 1.7
        for scheme in (GsScheme(M=6), EulerScheme(), EulerScheme(theta=0.3)):
            if isinstance(scheme, GsScheme):
                scale = math.log(2.0) / s
            else:
                scale = math.exp(scheme.A / 2.0) / s * math.exp(-scheme.theta * s)
            acc = 0.0
            for w, z in zip(scheme.weights, scheme_nodes(scheme, s)):
                z = complex(z)
                acc += w * complex(exp_lst(z.real if z.imag == 0.0 else z)).real
            assert invert(exp_lst, s, scheme) == scale * acc

    def test_nonfinite_transform_value(self):
        def bad(z):
            return complex("inf")

        with pytest.raises(InversionError, match="non-finite"):
            invert(bad, 1.0, EulerScheme())


class TestVectorKernel:
    @pytest.mark.parametrize("scheme", [GsScheme(M=8), EulerScheme(), EulerScheme(theta=0.4)])
    def test_bit_for_bit_with_scalar(self, scheme):
        # ``invert`` is the one-column call of the kernel: it passes the real
        # part of each node value, one row per node, with nodes coerced to
        # python complex (numpy complex division rounds differently)
        s = 2.3
        nodes = [complex(z) for z in scheme_nodes(scheme, s)]
        values = np.array(
            [complex(exp_lst(z.real if z.imag == 0.0 else z)).real for z in nodes]
        )
        scalar = invert(exp_lst, s, scheme)
        vector = invert_values(values.reshape(-1, 1), s, scheme)
        assert vector.shape == (1,)
        assert vector[0] == scalar

    def test_batch_matches_scalar_and_marks_failures(self):
        # columns are independent: several columns give each column's
        # one-column result bit for bit, and a non-finite column stays NaN
        # without touching the others
        s = 1.5
        for scheme in (GsScheme(M=8), EulerScheme(), EulerScheme(theta=0.4)):
            nodes = [complex(z) for z in scheme_nodes(scheme, s)]
            args = [z.real if z.imag == 0.0 else z for z in nodes]
            values = np.array(
                [[complex(exp_lst(z)).real, complex(gamma2_lst(z)).real, math.nan] for z in args]
            )
            out = invert_values(values, s, scheme)
            assert out[0] == invert(exp_lst, s, scheme)
            assert out[1] == invert(gamma2_lst, s, scheme)
            assert np.isnan(out[2])

    def test_batch_skips_rows_outside_contour(self):
        # A = 18.4 with theta = 0.2 leaves the right half-plane beyond s = 46:
        # a grid run fails that gridpoint and keeps the others
        model = build_matrix_exp([exponential_me_spec(1.0)])
        req = AllocationRequest(
            model=model, s_grid=(1.0, 75.0), scheme=EulerScheme(A=18.4, theta=0.2)
        )
        res = allocate(req)
        assert res.status[1] == STATUS_FAILED
        assert np.isfinite(res.density[0]) and np.isnan(res.density[1])


@given(rate=st.floats(0.2, 4.0), s=st.floats(0.2, 10.0))
def test_euler_exponential_family_property(rate, s):
    got = invert(lambda z: rate / (rate + z), s, EulerScheme())
    assert abs(got - rate * math.exp(-rate * s)) < 1e-7 * max(1.0, rate)


@given(M=st.integers(1, GS_ORDER_CAP))
def test_gs_weights_sign_change_count(M):
    # the weight sequence changes sign exactly 2M - 1 times
    w = gs_weights_exact(M)
    changes = sum(1 for a, b in zip(w, w[1:]) if (a > 0) != (b > 0))
    assert changes == 2 * M - 1
