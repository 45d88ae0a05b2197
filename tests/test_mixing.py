import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmrs.errors import ModelSpecError
from cmrs.mixing import (
    MixingLawHandle,
    gamma_mixing,
    levy_mixing,
    point_mass_mixing,
)


class TestGammaMixing:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7, 6.0])
    def test_lst_closed_form(self, alpha):
        mix = gamma_mixing(alpha)
        for t in (0.1, 1.0, 10.0):
            assert mix.lst(t) == pytest.approx((1.0 + t) ** (-alpha), rel=1e-12)
            assert mix.lst_deriv(t) == pytest.approx(
                -alpha * (1.0 + t) ** (-alpha - 1.0), rel=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 4.5])
    def test_quadrature_reproduces_lst(self, alpha):
        mix = gamma_mixing(alpha)
        for t in (0.2, 1.0, 5.0):
            q = float(np.dot(mix.weights, np.exp(-t * mix.nodes)))
            assert q == pytest.approx(mix.lst(t), abs=1e-10)

    def test_weights_normalized_and_positive(self):
        mix = gamma_mixing(2.0, n_nodes=200)
        assert np.all(mix.weights > 0)
        assert math.fsum(mix.weights) == pytest.approx(1.0, abs=1e-10)

    def test_large_rule_prunes_underflowed_tail(self):
        # far-tail Laguerre weights underflow to zero; they must be dropped,
        # not kept as invalid zero-mass nodes
        mix = gamma_mixing(1.5, n_nodes=300)
        assert len(mix.nodes) < 300
        assert math.fsum(mix.weights) == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_rule_refused_with_its_cause(self):
        # scipy's Gauss-Laguerre recurrence returns NaN weights from ~370 nodes
        with np.errstate(all="ignore"), pytest.raises(ModelSpecError, match="overflows"):
            gamma_mixing(2.0, 400)
        assert len(gamma_mixing(2.0, 350).nodes) > 0

    def test_sampler_moments(self):
        mix = gamma_mixing(3.0)
        rng = np.random.default_rng(42)
        draws = mix.sampler(rng, 200_000)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)
        assert draws.var() == pytest.approx(3.0, abs=0.1)

    def test_invalid_alpha(self):
        with pytest.raises(ModelSpecError):
            gamma_mixing(0.0)
        with pytest.raises(ModelSpecError):
            gamma_mixing(-2.0)


class TestLevyMixing:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_lst_closed_form(self, kappa):
        mix = levy_mixing(kappa)
        for t in (0.2, 1.0, 4.0):
            assert mix.lst(t) == pytest.approx(math.exp(-kappa * math.sqrt(t)), rel=1e-12)

    def test_quadrature_reproduces_lst(self):
        mix = levy_mixing(1.0)
        for t in (0.5, 1.0, 2.0):
            q = float(np.dot(mix.weights, np.exp(-t * mix.nodes)))
            assert q == pytest.approx(mix.lst(t), abs=1e-9)

    def test_sampler_matches_lst(self):
        # E[exp(-t Theta)] estimated from the inverse-square-normal sampler
        mix = levy_mixing(0.8)
        rng = np.random.default_rng(7)
        draws = mix.sampler(rng, 400_000)
        est = np.exp(-1.0 * draws).mean()
        se = np.exp(-1.0 * draws).std() / math.sqrt(draws.size)
        assert abs(est - mix.lst(1.0)) < 4.0 * se + 1e-4

    def test_invalid_kappa(self):
        with pytest.raises(ModelSpecError):
            levy_mixing(0.0)


class TestPointMass:
    def test_trivial_law(self):
        mix = point_mass_mixing(2.5)
        assert mix.lst(1.3) == pytest.approx(math.exp(-2.5 * 1.3), rel=1e-15)
        assert mix.nodes.tolist() == [2.5]
        assert mix.weights.tolist() == [1.0]
        rng = np.random.default_rng(0)
        assert np.all(mix.sampler(rng, 10) == 2.5)

    def test_invalid_location(self):
        with pytest.raises(ModelSpecError):
            point_mass_mixing(-1.0)


class TestHandleValidation:
    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ModelSpecError, match="sum to 0.9"):
            MixingLawHandle(
                lst=lambda t: 1.0,
                lst_deriv=lambda t: 0.0,
                nodes=np.array([1.0, 2.0]),
                weights=np.array([0.5, 0.4]),
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ModelSpecError, match="positive"):
            MixingLawHandle(
                lst=lambda t: 1.0,
                lst_deriv=lambda t: 0.0,
                nodes=np.array([1.0, 2.0]),
                weights=np.array([1.2, -0.2]),
            )


@given(alpha=st.floats(0.3, 5.0), t=st.floats(0.05, 8.0))
def test_gamma_quadrature_property(alpha, t):
    mix = gamma_mixing(alpha, n_nodes=120)
    q = float(np.dot(mix.weights, np.exp(-t * mix.nodes)))
    assert abs(q - (1.0 + t) ** (-alpha)) < 1e-8


@given(kappa=st.floats(0.2, 3.0), t=st.floats(0.1, 5.0))
def test_levy_quadrature_property(kappa, t):
    mix = levy_mixing(kappa)
    q = float(np.dot(mix.weights, np.exp(-t * mix.nodes)))
    assert abs(q - math.exp(-kappa * math.sqrt(t))) < 1e-8
