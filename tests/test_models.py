import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmrs.errors import (
    DomainError,
    ModelSpecError,
    SingularMatrixError,
)
from cmrs.inversion import EulerScheme, GsScheme
from cmrs.mixing import gamma_mixing, levy_mixing, point_mass_mixing
from cmrs.models import (
    _MatrixExpGroup,
    _product_rule,
    CommonShockCPSpec,
    KatzCompoundSpec,
    LognormalPortfolioSpec,
    MatrixExpSpec,
    MixedExpFrailtySpec,
    build_common_shock_cp,
    build_katz_compound,
    build_lognormal_portfolio,
    build_matrix_exp,
    build_mixed_exp_frailty,
    erlang_me_spec,
    exponential_me_spec,
    exponential_severity,
    is_phase_type,
)
from cmrs.transforms import column_values, diagonal_diagnostic, eval_transform


# a phase-type risk whose phases 1 -> 2 -> 3 -> 1 form a cycle: T is not
# triangular and has the complex eigenvalue pair -5.5 +- 1.5 sqrt(3) i
CYCLIC = MatrixExpSpec(
    np.array([0.5, 0.2, 0.2, 0.1]),
    np.array(
        [[-4.0, 3.0, 0.0, 0.0], [0.0, -4.0, 3.0, 0.0], [3.0, 0.0, -4.0, 0.5], [0.0, 0.0, 0.0, -2.0]]
    ),
    np.array([1.0, 1.0, 0.5, 2.0]),
)


def _dense_pair(spec, z):
    """(p0 + alpha y, alpha x) from np.linalg.solve on each node's zI - T."""
    M = np.asarray(z, dtype=complex)[..., None, None] * np.eye(spec.dim) - spec.T
    y = np.linalg.solve(M, np.broadcast_to(spec.u, M.shape[:-1])[..., None])
    x = np.linalg.solve(M, y)
    return spec.p0 + y[..., 0] @ spec.alpha, x[..., 0] @ spec.alpha


class TestMatrixExpSolve:
    """Both solves of ``lst_pair`` run as back-substitutions in the Schur
    form of T, over the whole node array."""

    def test_schur_form(self):
        R, Q = CYCLIC._schur
        assert np.abs(Q @ R @ Q.conj().T - CYCLIC.T).max() <= 1e-14 * np.abs(CYCLIC.T).max()
        assert not np.tril(R, -1).any()
        eig = np.sort_complex(np.linalg.eigvals(CYCLIC.T))
        assert np.abs(eig[:2] - (-5.5 + np.array([-1.5, 1.5]) * math.sqrt(3) * 1j)).max() < 1e-12
        # computed once per spec; a triangular T is its own Schur form
        assert CYCLIC._schur is CYCLIC._schur
        erlang = erlang_me_spec(3, 2.0)
        R, Q = erlang._schur
        assert Q is None and R is erlang.T

    @pytest.mark.parametrize(
        "nodes",
        [
            EulerScheme().nodes(np.array([0.5, 4.0, 20.0])),
            GsScheme().nodes(np.array([0.5, 4.0, 20.0])),
            np.asarray(1.0 + 2.0j),
        ],
        ids=["euler", "gaver_stehfest", "0d"],
    )
    @pytest.mark.parametrize(
        "spec",
        [CYCLIC, erlang_me_spec(3, 1.5), MatrixExpSpec([0.6], [[-2.0]], [2.0], p0=0.4)],
        ids=["cyclic", "erlang", "atom"],
    )
    def test_matches_dense_solve(self, spec, nodes):
        got = spec.lst_pair(nodes)
        for g, w in zip(got, _dense_pair(spec, nodes)):
            assert g.shape == nodes.shape
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
        # real nodes give real values, complex Schur form or not
        assert all(not np.iscomplexobj(v) for v in spec.lst_pair(np.array([0.0, 0.5])))

    @pytest.mark.parametrize(
        "nodes",
        [
            EulerScheme().nodes(np.array([0.5, 4.0, 20.0])),
            GsScheme().nodes(np.array([0.5, 4.0, 20.0])),
            np.asarray(1.0 + 2.0j),
        ],
        ids=["euler", "gaver_stehfest", "0d"],
    )
    def test_grouped_solve_is_the_solve_of_each_risk_alone(self, nodes):
        # Erlang(3) at three rates (one group), CYCLIC and CYCLIC at twice
        # its rates (one group with a dense Q), an Erlang(2), an exponential
        # with an atom, and a triangular d = 3 risk whose R and alpha have
        # other zero patterns than Erlang(3)'s: five groups, interleaved
        specs = [
            erlang_me_spec(3, 1.0),
            CYCLIC,
            erlang_me_spec(3, 1.5),
            erlang_me_spec(2, 1.0),
            MatrixExpSpec(CYCLIC.alpha, 2.0 * CYCLIC.T, 2.0 * CYCLIC.u),
            MatrixExpSpec(
                [0.5, 0.5, 0.0],
                [[-2.0, 1.0, 1.0], [0.0, -3.0, 3.0], [0.0, 0.0, -1.0]],
                [0.0, 0.0, 1.0],
            ),
            erlang_me_spec(3, 2.5),
            MatrixExpSpec([0.6], [[-2.0]], [2.0], p0=0.4),
        ]
        assert len({_MatrixExpGroup.key(sp) for sp in specs}) == 5
        got = build_matrix_exp(specs).transform(nodes)
        rows = [np.stack([sp.lst_pair(nodes) for sp in specs])[:, k] for k in (0, 1)]
        want = np.moveaxis(_product_rule(*rows), 0, -1)
        assert got.shape == want.shape == nodes.shape + (len(specs) + 1,)
        assert np.array_equal(got, want)

    def test_node_at_an_eigenvalue_refused(self):
        for z in np.linalg.eigvals(CYCLIC.T):
            with pytest.raises(SingularMatrixError, match="pivot"):
                CYCLIC.lst_pair(np.array([1.0, z]))

    def test_node_near_an_eigenvalue_refused_below_the_pivot_bound(self):
        # Erlang(2, 1): max|zI - T| = 1 near z = -1, so the pivot z + 1 is
        # refused below 1e-14 and kept above it
        erlang = erlang_me_spec(2, 1.0)
        with pytest.raises(SingularMatrixError, match="pivot"):
            erlang.lst_pair(-1.0 + 5e-15)
        assert np.isfinite(erlang.lst_pair(-1.0 + 1.5e-14)).all()

    def test_overflowing_solve_refused_by_its_residual(self):
        # every pivot is 1e-10 max|zI - T|, above the pivot bound, but y
        # overflows, and (zI - T) y - u is inf - inf in the first row
        spec = MatrixExpSpec([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], [0.0, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularMatrixError, match="residual"):
                spec.lst_pair(np.array([1.0, -1.0 + 1e-10]))

    def test_nonfinite_node_and_zero_matrix_refused(self):
        with pytest.raises(SingularMatrixError):
            erlang_me_spec(2, 1.0).lst_pair(np.array([1.0, np.nan]))
        with pytest.raises(SingularMatrixError):
            MatrixExpSpec([1.0], [[0.0]], [0.0]).lst_pair(0.0)


class TestMixedExpFrailty:
    def test_aggregate_frozen_value(self):
        # independent quadrature of the Gamma(2) mixture gives 0.4619670665254553
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 0.5), gamma_mixing(2.0)))
        assert eval_transform(model, 1.0)[0] == pytest.approx(0.4619670665254551, abs=1e-12)

    def test_batch_matches_scalar_exactly(self):
        # the values the engine inverts (``column_values``, expanded) and
        # the checked evaluation the diagnostics use (``eval_transform``)
        # agree exactly
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 0.5, 2.0), gamma_mixing(1.3)))
        for z in (0.4 + 0.0j, 1.0 + 0.0j, 2.0 + 3.0j):
            z = np.asarray(z)
            got = model.expand(column_values(model, z))
            assert np.array_equal(got.real, eval_transform(model, z).real)

    def test_degenerate_mixing_reduces_to_independent_exponentials(self):
        # point mass at theta0 means risk j is Exp(theta0 / lambda_j)
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((2.0, 0.5), point_mass_mixing(3.0)))
        r = (3.0 / 2.0, 3.0 / 0.5)
        for z in (0.3, 1.7, 4.0):
            want = r[0] / (r[0] + z) * r[1] / (r[1] + z)
            vals = model.transform(z)
            assert vals[0] == pytest.approx(want, rel=1e-14)
            assert vals[1] == pytest.approx(want / (r[0] + z), rel=1e-13)
            assert vals[2] == pytest.approx(want / (r[1] + z), rel=1e-13)

    def test_diagonal_identity_holds(self):
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(2.5)))
        report = diagonal_diagnostic(model, [0.1, 0.5, 1.0, 5.0, 20.0])
        assert report.all_passed

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.5])
    def test_means_under_gamma_frailty(self, alpha):
        # L_i(0) = E[X_i] = lambda_i E[1/Theta] = lambda_i / (alpha - 1)
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(alpha)))
        means = model.transform(0.0)[1:]
        assert np.abs(means - np.array([1.0, 2.0]) / (alpha - 1.0)).max() <= 1e-12

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ModelSpecError):
            MixedExpFrailtySpec((1.0, 0.0), gamma_mixing(2.0))
        with pytest.raises(ModelSpecError):
            MixedExpFrailtySpec((), gamma_mixing(2.0))


class TestMatrixExp:
    def test_erlang_plus_exponential_aggregate(self):
        # Erlang(2, 3) + Exp(3): L_S(1) = (3/4)^2 * (3/4) = 27/64
        model = build_matrix_exp([erlang_me_spec(2, 3.0), exponential_me_spec(3.0)])
        assert eval_transform(model, 1.0)[0] == pytest.approx(27.0 / 64.0, rel=1e-14)

    def test_erlang_plus_exponential_allocations(self):
        model = build_matrix_exp([erlang_me_spec(2, 3.0), exponential_me_spec(3.0)])
        vals = model.transform(1.0)
        # E[X1 e^{-S}] = 2 * 3^2 / 4^3 * 3/4, E[X2 e^{-S}] = (3/4)^2 * 3 / 4^2
        assert vals[1] == pytest.approx(0.2109375, rel=1e-14)
        assert vals[2] == pytest.approx(0.10546875, rel=1e-14)

    def test_erlang_one_stage_equals_exponential(self):
        e1 = erlang_me_spec(1, 2.5)
        ex = exponential_me_spec(2.5)
        for z in (0.5, 1.0 + 2.0j, 7.0):
            for a, b in zip(e1.lst_pair(z), ex.lst_pair(z)):
                assert abs(a - b) < 1e-15

    def test_phase_type_recognized(self):
        assert is_phase_type(erlang_me_spec(3, 2.0))
        assert is_phase_type(exponential_me_spec(1.0))

    def test_negative_off_diagonal_is_not_phase_type(self):
        spec = MatrixExpSpec(
            np.array([1.0, 0.0]),
            np.array([[-2.0, -0.5], [3.0, -2.0]]),
            np.array([2.5, -1.0]),
        )
        assert not is_phase_type(spec)

    def test_deficient_entry_vector_is_not_phase_type(self):
        spec = MatrixExpSpec(
            np.array([0.5, 0.0]),
            np.array([[-2.0, 1.0], [0.0, -2.0]]),
            np.array([1.0, 2.0]),
        )
        assert not is_phase_type(spec)

    def test_miswired_exit_vector_caught_by_probe(self):
        # doubling u doubles the transform; the unit-mass probe must refuse it
        bad = MatrixExpSpec(np.array([1.0]), np.array([[-2.0]]), np.array([4.0]))
        with pytest.raises(ModelSpecError, match="not in"):
            build_matrix_exp([bad])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelSpecError, match="dimension"):
            MatrixExpSpec(np.array([1.0, 0.0]), np.array([[-1.0]]), np.array([1.0]))

    def test_bad_p0_rejected(self):
        with pytest.raises(ModelSpecError, match="p0"):
            MatrixExpSpec(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]), p0=1.0)

    def test_zero_mass_forms_origin_atom(self):
        # S sits at 0 only when every component does, so the atom mass is the
        # product of the per-risk zero masses
        a = MatrixExpSpec(np.array([0.75]), np.array([[-1.0]]), np.array([1.0]), p0=0.25)
        b = MatrixExpSpec(np.array([0.5]), np.array([[-2.0]]), np.array([2.0]), p0=0.5)
        model = build_matrix_exp([a, b])
        assert model.atom_mass == pytest.approx(0.125, rel=1e-15)
        continuous = build_matrix_exp([a, exponential_me_spec(1.0)])
        assert continuous.atom_mass == 0.0

    def test_erlang_stage_count_validated(self):
        with pytest.raises(ModelSpecError):
            erlang_me_spec(0, 1.0)
        with pytest.raises(ModelSpecError):
            exponential_me_spec(-1.0)


class TestKatzCompound:
    def test_kind_classification(self):
        # the one (a, b, 0) pgf is each count law's textbook pgf, on |w| <= 1
        from cmrs.models import _katz_pgf

        laws = {
            (0.0, 0.0): lambda w: np.ones_like(w),  # no claims
            (0.0, 2.0): lambda w: np.exp(2.0 * (w - 1.0)),  # Poisson(2)
            # binomial(m, p): a = -p/(1-p), b = (m+1) p/(1-p)
            (-1.0, 3.0): lambda w: (0.5 + 0.5 * w) ** 2,
            (-4.0, 84.0): lambda w: (0.2 + 0.8 * w) ** 20,
            # negative binomial(r, q): a = 1 - q, b = (r-1)(1-q)
            (0.25, 0.5): lambda w: (0.75 / (1.0 - 0.25 * w)) ** 3,
            (0.7, 1.3): lambda w: (0.3 / (1.0 - 0.7 * w)) ** (20.0 / 7.0),
        }
        for w in (np.array([0.0, 0.3, 1.0, -0.9]), np.array([1j, 0.6 + 0.7j, -0.5 - 0.8j])):
            for (a, b), pgf in laws.items():
                np.testing.assert_allclose(_katz_pgf(a, b, w), pgf(w), rtol=1e-14, atol=0.0)

    def test_invalid_frequency_pairs_rejected(self):
        sev = (exponential_severity(1.0),)
        with pytest.raises(ModelSpecError):
            KatzCompoundSpec(a=(0.0,), b=(-1.0,), severities=sev)
        with pytest.raises(ModelSpecError, match="positive integer"):
            KatzCompoundSpec(a=(-0.4,), b=(1.0,), severities=sev)
        with pytest.raises(ModelSpecError):
            KatzCompoundSpec(a=(0.5,), b=(-0.5,), severities=sev)
        with pytest.raises(ModelSpecError, match="a must be < 1"):
            KatzCompoundSpec(a=(1.5,), b=(0.0,), severities=sev)

    def test_aggregate_frozen_value(self):
        # Poisson(1.5)/Exp(2) + NegBin(a=0.25, b=0.5)/Exp(1):
        # exp(1.5 (2/3 - 1)) * (0.75 / (1 - 0.25 * 0.5))^3 at z = 1
        model = build_katz_compound(
            KatzCompoundSpec(
                a=(0.0, 0.25),
                b=(1.5, 0.5),
                severities=(exponential_severity(2.0), exponential_severity(1.0)),
            )
        )
        assert eval_transform(model, 1.0)[0] == pytest.approx(0.3819551676324455, rel=1e-14)

    def test_atom_mass_is_probability_of_no_claims(self):
        model = build_katz_compound(
            KatzCompoundSpec(
                a=(0.0, 0.25),
                b=(1.5, 0.5),
                severities=(exponential_severity(2.0), exponential_severity(1.0)),
            )
        )
        want = math.exp(-1.5) * (0.75 / (1.0 - 0.0)) ** 3
        assert model.atom_mass == pytest.approx(want, rel=1e-14)

    def test_means_from_count_and_severity(self):
        model = build_katz_compound(
            KatzCompoundSpec(
                a=(0.0, 0.25),
                b=(1.5, 0.5),
                severities=(exponential_severity(2.0), exponential_severity(1.0)),
            )
        )
        # L_i(0) = E[X_i]
        assert model.transform(0.0)[1:] == pytest.approx(np.array((0.75, 1.0)))

    def test_degenerate_component_contributes_nothing(self):
        model = build_katz_compound(
            KatzCompoundSpec(
                a=(0.0, 0.0),
                b=(2.0, 0.0),
                severities=(exponential_severity(1.0),) * 2,
            )
        )
        assert model.transform(1.0)[2] == 0.0
        only = build_katz_compound(
            KatzCompoundSpec(a=(0.0,), b=(2.0,), severities=(exponential_severity(1.0),))
        )
        assert model.transform(1.3)[0] == pytest.approx(only.transform(1.3)[0], rel=1e-15)

    def test_severity_rate_validated(self):
        with pytest.raises(ModelSpecError):
            exponential_severity(0.0)
        with pytest.raises(ModelSpecError):
            exponential_severity(math.inf)


# two Poisson(b) counts with exponential severities
KATZ_PAIR = dict(a=(0.0, 0.0), b=(1.5, 0.5), severities=(exponential_severity(1.0),) * 2)

CS_531 = dict(
    lambda0=1.5,
    lambdas=(0.8, 1.1, 0.6),
    beta0=0.9,
    betas=(1.4, 0.7, 1.9),
    weights=(0.2, 0.3, 0.5),
)


class TestCommonShockCP:
    def test_aggregate_frozen_value(self):
        model = build_common_shock_cp(CommonShockCPSpec(**CS_531))
        assert eval_transform(model, 1.0)[0] == pytest.approx(0.1385169756774438, rel=1e-14)

    def test_atom_mass_equals_total_rate_exponential(self):
        model = build_common_shock_cp(CommonShockCPSpec(**CS_531))
        assert abs(model.atom_mass - math.exp(-4.0)) < 1e-15

    def test_batch_matches_scalar_exactly(self):
        # the values the engine inverts (``column_values``, expanded) and
        # the checked evaluation the diagnostics use (``eval_transform``)
        # agree exactly, the origin atom included
        model = build_common_shock_cp(CommonShockCPSpec(**CS_531))
        for z in (0.2 + 0.0j, 1.0 + 0.0j, 3.0 + 2.0j):
            z = np.asarray(z)
            got = model.expand(column_values(model, z))
            assert np.array_equal(got.real, eval_transform(model, z).real)

    def test_means(self):
        model = build_common_shock_cp(CommonShockCPSpec(**CS_531))
        want = tuple(
            1.5 * p / 0.9 + lam / bet
            for p, lam, bet in zip((0.2, 0.3, 0.5), (0.8, 1.1, 0.6), (1.4, 0.7, 1.9))
        )
        # L_i(0) = E[X_i]
        assert model.transform(0.0)[1:] == pytest.approx(np.array(want), rel=1e-14)

    def test_stripped_remainder_vanishes_in_deep_tail(self):
        # with all atomic mass removed the transform must decay; at the
        # reference parameter scale the t = 1e4 remainder sits near 8e-6
        model = build_common_shock_cp(CommonShockCPSpec(**CS_531))
        rem = model.transform(1.0e4)[0].real - model.atom_mass
        assert abs(rem) < 1e-5

    def test_small_severity_scale_tightens_tail_remainder(self):
        spec = CommonShockCPSpec(
            lambda0=1.5,
            lambdas=(0.8, 1.1, 0.6),
            beta0=0.1,
            betas=(0.15, 0.05, 0.2),
            weights=(0.2, 0.3, 0.5),
        )
        model = build_common_shock_cp(spec)
        rem = model.transform(1.0e4)[0].real - model.atom_mass
        assert abs(rem) < 1e-6

    def test_split_weights_must_sum_to_one(self):
        bad = dict(CS_531)
        bad["weights"] = (0.2, 0.3, 0.4)
        with pytest.raises(ModelSpecError, match="sum to 1"):
            CommonShockCPSpec(**bad)

    def test_negative_rates_rejected(self):
        bad = dict(CS_531)
        bad["lambdas"] = (0.8, -1.1, 0.6)
        with pytest.raises(ModelSpecError):
            CommonShockCPSpec(**bad)
        bad = dict(CS_531)
        bad["betas"] = (1.4, 0.0, 1.9)
        with pytest.raises(ModelSpecError):
            CommonShockCPSpec(**bad)

    def test_all_zero_claim_rates_rejected(self):
        with pytest.raises(ModelSpecError):
            CommonShockCPSpec(
                lambda0=0.0, lambdas=(0.0,), beta0=1.0, betas=(1.0,), weights=(1.0,)
            )


def _lognormal_risk(mu, sigma, gh_order=64):
    """Transform of a one-risk lognormal portfolio: its values at z are
    [E[exp(-zY)], E[Y exp(-zY)]], so d/dz E[exp(-zY)] is -values[..., 1]."""
    return build_lognormal_portfolio(LognormalPortfolioSpec((mu,), (sigma,), gh_order)).transform


class TestLognormalTransform:
    def test_matches_adaptive_quadrature_on_real_axis(self):
        from scipy import integrate

        def integrand(x):
            return (
                math.exp(-0.5 * x * x)
                / math.sqrt(2.0 * math.pi)
                * math.exp(-1.3 * math.exp(0.5 * x))
            )

        want, _ = integrate.quad(integrand, -12.0, 12.0)
        assert _lognormal_risk(0.0, 0.5)(1.3)[0] == pytest.approx(want, rel=1e-12)

    def test_order_invariance_at_oscillatory_node(self):
        # far up the contour the kernel oscillates hard; doubling the rule
        # must leave the value and the derivative unchanged well below
        # inversion error
        z = 0.2 + 85.0j
        v64 = _lognormal_risk(0.0, 0.5, 64)(z)
        v128 = _lognormal_risk(0.0, 0.5, 128)(z)
        assert abs(v64[0] - v128[0]) < 1e-12
        assert abs(v64[1] - v128[1]) < 1e-12

    def test_oscillatory_node_frozen_value(self):
        v = _lognormal_risk(0.0, 0.5, 64)(0.2 + 85.0j)[0]
        assert v.real == pytest.approx(3.5697411354655694e-09, rel=1e-9)
        assert v.imag == pytest.approx(-8.661815158881136e-08, rel=1e-9)

    def test_near_degenerate_sigma_collapses_to_point_mass(self):
        # sigma -> 0 gives L(z) -> exp(-z e^mu); the complex case exercises
        # the direct-rule fallback branch
        transform = _lognormal_risk(0.3, 1e-8)
        assert transform(2.0)[0] == pytest.approx(math.exp(-2.0 * math.exp(0.3)), rel=1e-10)
        z = 1.0 + 40.0j
        want = cmath.exp(-z * math.exp(0.3))
        assert abs(transform(z)[0] - want) < 1e-10

    def test_deriv_is_negated_mean_transform(self):
        from scipy import integrate

        def integrand(x):
            y = math.exp(0.2 + 0.6 * x)
            return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * y * math.exp(-0.8 * y)

        want, _ = integrate.quad(integrand, -12.0, 12.0)
        assert _lognormal_risk(0.2, 0.6)(0.8)[1] == pytest.approx(want, rel=1e-11)

    def test_left_half_plane_refused(self):
        transform = _lognormal_risk(0.0, 0.5)
        with pytest.raises(DomainError, match="Re z >= 0"):
            transform(-0.1)
        with pytest.raises(DomainError):
            transform(0.0 + 1.0j)

    def test_mixed_branch_node_array(self):
        # a near-degenerate risk takes the direct rule at every complex node
        # and the rotated rule on the real axis; the other risk always takes
        # the rotated rule, so one call mixes both branches per node and risk
        model = build_lognormal_portfolio(LognormalPortfolioSpec((0.3, 0.0), (1e-8, 0.5)))
        z = np.array([2.0, 1.0 + 40.0j, 0.2 + 85.0j, 0.7 + 0.0j])
        vals = model.transform(z)
        for k, zk in enumerate(z):
            one = model.transform(zk)
            assert np.abs(vals[k] - one).max() <= 1e-14 * np.abs(one).max()
        # L_S = L_1 L_2, with L_2 from the second risk alone
        degenerate = vals[:, 0] / _lognormal_risk(0.0, 0.5)(z)[:, 0]
        assert np.abs(degenerate - np.exp(-z * math.exp(0.3))).max() < 1e-10
        with pytest.raises(DomainError, match="Re z >= 0"):
            model.transform(np.array([2.0, -0.1 + 1.0j, 0.2 + 85.0j]))

    def test_spec_validation(self):
        with pytest.raises(ModelSpecError, match="even"):
            LognormalPortfolioSpec((0.0,), (0.5,), gh_order=63)
        with pytest.raises(ModelSpecError, match="even"):
            LognormalPortfolioSpec((0.0,), (0.5,), gh_order=0)
        with pytest.raises(ModelSpecError):
            LognormalPortfolioSpec((0.0,), (-0.5,))
        with pytest.raises(ModelSpecError):
            LognormalPortfolioSpec((0.0, 1.0), (0.5,))

    def test_heavy_tail_sigma_warns(self):
        with pytest.warns(UserWarning, match="sigma"):
            LognormalPortfolioSpec((0.0,), (3.5,))

    def test_from_moments_round_trip(self):
        spec = LognormalPortfolioSpec.from_moments((2.0, 5.0), (1.0, 4.0))
        means = tuple(math.exp(m + s * s / 2.0) for m, s in zip(spec.mu, spec.sigma))
        assert means == pytest.approx((2.0, 5.0), rel=1e-14)
        sig2 = tuple(s * s for s in spec.sigma)
        var = tuple(
            (math.exp(s2) - 1.0) * math.exp(2.0 * m + s2) for m, s2 in zip(spec.mu, sig2)
        )
        assert var == pytest.approx((1.0, 4.0), rel=1e-13)

    def test_portfolio_aggregate_frozen_value(self):
        model = build_lognormal_portfolio(LognormalPortfolioSpec((0.0, 0.3), (0.4, 0.25)))
        assert eval_transform(model, 1.0)[0] == pytest.approx(0.0970280019329332, rel=1e-12)

    def test_underflow_suppression_is_counted(self):
        model = build_lognormal_portfolio(LognormalPortfolioSpec((0.0,), (0.5,), gh_order=256))
        eval_transform(model, 30.0)
        assert model.stats.get("suppressed_terms", 0) > 0


class TestConstructionProbe:
    # valid models with a large aggregate mean: L_S falls off like 1 - z E[S]
    # near 0, so only a probe at z = 0 itself admits them
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_lognormal_portfolio(LognormalPortfolioSpec((0.0,) * 100, (0.5,) * 100)),
            lambda: build_matrix_exp([exponential_me_spec(0.009)]),
            lambda: build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(0.5))),
            lambda: build_mixed_exp_frailty(MixedExpFrailtySpec((1.0, 2.0), levy_mixing(0.1))),
            lambda: build_common_shock_cp(
                CommonShockCPSpec(**{**CS_531, "beta0": 0.01, "betas": (0.01,) * 3})
            ),
        ],
        ids=["lognormal-n100", "exponential-mean-111", "gamma-frailty", "levy-frailty", "cs-slow"],
    )
    def test_large_mean_models_build(self, build):
        model = build()
        assert eval_transform(model, 1e-6)[0].real > 0.0

    @pytest.mark.parametrize(
        "risks",
        [
            [exponential_me_spec(1.0), MatrixExpSpec(np.array([1.0]), np.array([[-2.0]]), [4.0])],
            [MatrixExpSpec(np.array([1.0]), np.array([[-2.0]]), [-2.0])],
        ],
        ids=["doubled-u-next-to-valid", "negative-u"],
    )
    def test_miswired_matrix_exp_refused(self, risks):
        with pytest.raises(ModelSpecError):
            build_matrix_exp(risks)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "spec, base, field",
        [(CommonShockCPSpec, CS_531, f) for f in CS_531]
        + [(KatzCompoundSpec, KATZ_PAIR, f) for f in ("a", "b")],
        ids=[f"cs-{f}" for f in CS_531] + ["katz-a", "katz-b"],
    )
    def test_nonfinite_parameter_refused(self, spec, base, field, value):
        # refused at the spec, by name, before any ordered comparison lets
        # NaN through or the probe meets an infinite rate
        params = dict(base)
        if isinstance(base[field], tuple):
            params[field] = base[field][:1] + (value,) + base[field][2:]
            where = f"{field}[1]"
        else:
            params[field] = value
            where = field
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelSpecError, match=re.escape(f"{where} must be finite, got {value}")):
                spec(**params)


class TestCrossFamilyReductions:
    @given(
        lam0=st.floats(0.3, 2.0),
        bet=st.floats(0.5, 2.5),
        z_im=st.floats(-20.0, 20.0),
    )
    def test_poisson_katz_equals_shockless_common_shock(self, lam0, bet, z_im):
        # a Poisson/Exp compound written either way must give one transform
        katz = build_katz_compound(
            KatzCompoundSpec(a=(0.0,), b=(lam0,), severities=(exponential_severity(bet),))
        )
        cscp = build_common_shock_cp(
            CommonShockCPSpec(
                lambda0=0.0, lambdas=(lam0,), beta0=1.0, betas=(bet,), weights=(1.0,)
            )
        )
        z = 0.7 + 1j * z_im
        assert np.abs(katz.transform(z) - cscp.transform(z)).max() < 1e-10

    @given(k=st.integers(1, 6), rate=st.floats(0.3, 4.0), t=st.floats(0.05, 8.0))
    def test_erlang_chain_equals_exponential_convolution(self, k, rate, t):
        chain = erlang_me_spec(k, rate)
        single = exponential_me_spec(rate)
        want = single.lst_pair(t)[0] ** k
        assert abs(chain.lst_pair(t)[0] - want) < 1e-12

    @given(alpha=st.floats(0.6, 5.0), t=st.floats(0.1, 10.0))
    def test_frailty_aggregate_equals_mixing_functional(self, alpha, t):
        # with a single unit-scale risk, L_S(t) is the mixing law's transform
        # of log(1 + t / theta) ... evaluated by the same quadrature; compare
        # against a direct nodewise sum
        mix = gamma_mixing(alpha)
        model = build_mixed_exp_frailty(MixedExpFrailtySpec((1.0,), mix))
        direct = float(np.dot(mix.weights, mix.nodes / (mix.nodes + t)))
        assert eval_transform(model, t)[0] == pytest.approx(direct, rel=1e-12)
