import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import iv

import cmrs
from cmrs.cli import _BENCH_GRID, _scaled_cscp
from cmrs.errors import OracleError, SamplingError
from cmrs.mixing import gamma_mixing, levy_mixing, point_mass_mixing
from cmrs.models import (
    CommonShockCPSpec,
    KatzCompoundSpec,
    MatrixExpSpec,
    MixedExpFrailtySpec,
    SeverityHandle,
    build_common_shock_cp,
    build_katz_compound,
    erlang_me_spec,
    exponential_me_spec,
    exponential_severity,
)
from cmrs.oracles import (
    ClosedFormOracle,
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_oracle,
    mixed_exp_oracle,
    philox_generator,
)


class TestClosedFormOracleProbe:
    def test_budget_violation_caught_at_construction(self):
        # xi summing to half the budget must be rejected immediately
        with pytest.raises(OracleError, match="budget identity"):
            ClosedFormOracle(
                n=2,
                f_S=lambda s: math.exp(-s),
                xi=lambda i, s: 0.25 * s * math.exp(-s),
                valid_range=(0.0, 10.0),
                label="bad",
            )

    def test_out_of_range_share_caught(self):
        # balances but puts 150% of the budget on risk 0
        with pytest.raises(OracleError, match="outside"):
            ClosedFormOracle(
                n=2,
                f_S=lambda s: math.exp(-s),
                xi=lambda i, s: (1.5 if i == 0 else -0.5) * s * math.exp(-s),
                valid_range=(0.0, 10.0),
                label="bad",
            )

    def test_invalid_range_rejected(self):
        with pytest.raises(OracleError, match="range"):
            ClosedFormOracle(
                n=1,
                f_S=lambda s: math.exp(-s),
                xi=lambda i, s: s * math.exp(-s),
                valid_range=(3.0, 1.0),
            )

    def test_valid_oracle_accepted(self):
        # single exponential risk: h(s) = s identically
        orc = ClosedFormOracle(
            n=1,
            f_S=lambda s: 2.0 * math.exp(-2.0 * s),
            xi=lambda i, s: s * 2.0 * math.exp(-2.0 * s),
            valid_range=(0.0, math.inf),
        )
        assert orc.h(0, 1.7) == pytest.approx(1.7, rel=1e-14)


class TestMixedExpOracle:
    def test_gamma_mixing_frozen_rationals(self):
        # lambdas (1, 2) with Gamma(2) mixing at s = 1 gives exact rationals
        orc = mixed_exp_oracle(MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(2.0)))
        assert orc.f_S(1.0) == pytest.approx(37.0 / 108.0, rel=1e-13)
        assert orc.xi(0, 1.0) == pytest.approx(5.0 / 36.0, rel=1e-13)
        assert orc.xi(1, 1.0) == pytest.approx(11.0 / 54.0, rel=1e-13)

    def test_positive_stable_mixing_frozen_values(self):
        orc = mixed_exp_oracle(MixedExpFrailtySpec((1.0, 3.0), levy_mixing(1.0)))
        assert orc.f_S(2.0) == pytest.approx(0.09235000862706477, abs=1e-12)
        assert orc.xi(0, 2.0) == pytest.approx(0.06319073633566387, abs=1e-12)
        assert orc.xi(1, 2.0) == pytest.approx(0.12150928091846569, abs=1e-12)

    def test_tied_scales_refused(self):
        with pytest.raises(OracleError, match="tied"):
            mixed_exp_oracle(MixedExpFrailtySpec((1.0, 1.0), gamma_mixing(2.0)))

    @given(s=st.floats(0.05, 25.0))
    def test_budget_identity_along_the_line(self, s):
        orc = mixed_exp_oracle(MixedExpFrailtySpec((0.5, 1.0, 2.5), gamma_mixing(3.0)))
        total = math.fsum(orc.xi(i, s) for i in range(3))
        assert total == pytest.approx(s * orc.f_S(s), rel=1e-11)

    @given(s=st.floats(0.05, 25.0))
    def test_shares_stay_inside_the_budget(self, s):
        orc = mixed_exp_oracle(MixedExpFrailtySpec((0.5, 2.5), levy_mixing(1.3)))
        for i in range(2):
            h = orc.h(i, s)
            assert -1e-9 <= h <= s + 1e-9


class TestMeExampleOracle:
    def test_frozen_share_at_unit_loss(self):
        orc = me_example_oracle(2.0, 1.0)
        assert orc.h(0, 1.0) == pytest.approx(0.607788808822667, rel=1e-14)
        assert orc.f_S(1.0) == pytest.approx(0.3888354987928677, rel=1e-13)

    def test_density_integrates_to_one(self):
        from scipy import integrate

        orc = me_example_oracle(3.0, 1.5)
        total, _ = integrate.quad(orc.f_S, 0.0, 60.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_small_loss_limit_is_two_thirds(self):
        # as s -> 0 the two-stage component takes exactly 2/3 of the loss;
        # below s ~ 1e-4 the numerator cancellation dominates, so stop there
        orc = me_example_oracle(2.0, 1.0)
        assert orc.h(0, 1e-4) == pytest.approx(2.0 / 3.0 * 1e-4, rel=1e-4)

    def test_tied_rates_split_two_to_one(self):
        # tied rates, and rates within relative 1e-8, take the limit at rate
        # lam: the Erlang(2) risk carries exactly 2/3 of every loss
        for mu in (1.5, 1.5 * (1.0 + 1e-9)):
            orc = me_example_oracle(1.5, mu)
            for s in (1e-3, 0.5, 2.0, 10.0, 50.0):
                assert orc.h(0, s) == pytest.approx(2.0 * s / 3.0, rel=1e-15)
                assert orc.xi(0, s) + orc.xi(1, s) == pytest.approx(s * orc.f_S(s), rel=1e-15)
        with pytest.raises(OracleError):
            me_example_oracle(-1.0, 1.0)

    def test_equal_rates_oracle_is_the_removable_limit(self):
        # the singularity at lam = mu is removable: rates 1e-5 apart must
        # agree with the exact limit to first order in the separation
        eq = me_example_oracle(1.5, 1.5)
        near = me_example_oracle(1.5 * (1.0 + 1e-5), 1.5)
        for s in (0.5, 2.0, 10.0):
            assert eq.h(0, s) == pytest.approx(2.0 * s / 3.0, rel=1e-14)
            assert near.h(0, s) == pytest.approx(eq.h(0, s), rel=1e-4)

    def test_equal_rates_density_is_erlang(self):
        eq = me_example_oracle(2.0, 2.0)
        s = 1.3
        want = 2.0**3 * s**2 * math.exp(-2.0 * s) / 2.0
        assert eq.f_S(s) == pytest.approx(want, rel=1e-14)


CS_REF = dict(
    lambda0=1.5,
    lambdas=(0.8, 1.1, 0.6),
    beta0=0.9,
    betas=(1.4, 0.7, 1.9),
    weights=(0.2, 0.3, 0.5),
)


@pytest.fixture(scope="module")
def oracle():
    return cscp_series_oracle(CommonShockCPSpec(**CS_REF))


class TestCscpSeriesOracle:
    def test_truncation_bookkeeping(self, oracle):
        assert oracle.K == 20
        assert oracle.truncation.tail_mass < 1e-8
        assert oracle.truncation.gap < 1e-9

    def test_atom_mass(self, oracle):
        assert abs(oracle.atom_mass - math.exp(-4.0)) < 1e-15

    def test_density_frozen_value(self, oracle):
        assert oracle.f_S(1.0) == pytest.approx(0.1347829882758414, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 2.0, 8.0])
    def test_budget_identity_up_to_truncation(self, oracle, s):
        total = math.fsum(oracle.xi(i, s) for i in range(3))
        assert abs(total - s * oracle.f_S(s)) < 1e-8

    def test_single_stream_matches_bessel_closed_form(self):
        # one compound Poisson/Exp risk has the classical Bessel density
        lam, bet = 2.0, 1.5
        single = cscp_series_oracle(
            CommonShockCPSpec(
                lambda0=0.0, lambdas=(lam,), beta0=1.0, betas=(bet,), weights=(1.0,)
            )
        )
        for s in (0.3, 1.0, 3.0, 8.0):
            x = 2.0 * math.sqrt(lam * bet * s)
            want = math.exp(-lam - bet * s) * bet * math.sqrt(lam / (bet * s)) * iv(1, x)
            assert single.f_S(s) == pytest.approx(want, abs=1e-9)

    def test_single_risk_share_is_the_whole_loss(self):
        single = cscp_series_oracle(
            CommonShockCPSpec(
                lambda0=0.0, lambdas=(2.0,), beta0=1.0, betas=(1.5,), weights=(1.0,)
            )
        )
        # agreement is limited by the 1e-8 truncation tail, not round-off
        for s in (0.4, 1.0, 5.0):
            assert single.h(0, s) == pytest.approx(s, rel=1e-7)

    def test_nearly_tied_rates_refused(self):
        spec = CommonShockCPSpec(
            lambda0=1.0,
            lambdas=(1.0,),
            beta0=1.0,
            betas=(1.0 + 1e-12,),
            weights=(1.0,),
        )
        with pytest.raises(OracleError, match="tied"):
            cscp_series_oracle(spec)

    def test_excessive_truncation_depth_refused(self):
        heavy = CommonShockCPSpec(
            lambda0=50.0, lambdas=(1.0,), beta0=1.0, betas=(2.0,), weights=(1.0,)
        )
        with pytest.raises(OracleError, match="claim terms"):
            cscp_series_oracle(heavy)

    @pytest.mark.parametrize("mass_tol", [0.0, -1e-3, 1.0, 1e-17])
    def test_bad_mass_tol_refused(self, mass_tol):
        with pytest.raises(OracleError, match="mass_tol"):
            cscp_series_oracle(CommonShockCPSpec(**CS_REF), mass_tol)

    # (total rate, mass_tol, K, tail mass), as scipy.stats.poisson's isf and
    # sf gave them: K is the smallest count with P(N > K) <= mass_tol
    TRUNCATION_TABLE = [
        (0.01, 1e-15, 6, 1.966842802553368e-18),
        (0.01, 1e-12, 4, 8.264185641806515e-13),
        (0.01, 1e-08, 3, 4.133471826263344e-10),
        (0.01, 0.001, 1, 4.966791334026596e-05),
        (0.01, 0.3, 0, 0.009950166250831952),
        (0.5, 1e-15, 13, 4.392539881550789e-16),
        (0.5, 1e-12, 11, 3.214697303345178e-13),
        (0.5, 1e-08, 8, 3.4354902468481273e-09),
        (0.5, 0.001, 4, 0.00017211562995584072),
        (0.5, 0.3, 1, 0.09020401043104986),
        (4.0, 1e-15, 28, 6.884082634066401e-16),
        (4.0, 1e-12, 25, 2.398510212133836e-13),
        (4.0, 1e-08, 20, 1.9230584594146956e-09),
        (4.0, 0.001, 11, 0.0009152291472700608),
        (4.0, 0.3, 5, 0.2148696129695948),
        (12.0, 1e-15, 49, 2.3998794536786187e-16),
        (12.0, 1e-12, 43, 9.579358460036512e-13),
        (12.0, 1e-08, 36, 5.520799421876334e-09),
        (12.0, 0.001, 24, 0.0006856332013882274),
        (12.0, 0.3, 14, 0.2279754676964551),
        # the smallest accepted tolerances: 1 - mass_tol < 1 in double precision
        (4.0, 6e-17, 30, 1.1732435431464442e-17),
    ]

    @staticmethod
    def _two_stream(rate):
        return CommonShockCPSpec(
            lambda0=rate / 2, lambdas=(rate / 2,), beta0=1.0, betas=(2.0,), weights=(1.0,)
        )

    @pytest.mark.parametrize("rate,mass_tol,K,tail", TRUNCATION_TABLE)
    def test_truncation_depth_and_tail_pinned(self, rate, mass_tol, K, tail):
        oracle = cscp_series_oracle(self._two_stream(rate), mass_tol)
        assert oracle.K == oracle.truncation.K == K
        assert oracle.truncation.tail_mass == pytest.approx(tail, rel=1e-12)

    def test_build_leaves_no_garbage_cycle(self):
        # whatever the build's recursion holds is freed when it returns, not
        # at the next full collection, which a run may not reach for seconds
        spec = CommonShockCPSpec(**CS_REF)
        cscp_series_oracle(spec, 1e-4)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            cscp_series_oracle(spec, 1e-4)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_replicated_pool_matches_the_cycled_group_reference(self):
        # the 1000 risks' streams merge into one per claim-size rate, which
        # are the grouped pool's streams; a group's members share its
        # allocation equally
        n = 1000
        spec = _scaled_cscp(CommonShockCPSpec(**CS_REF), n)
        members = [range(g, n, 3) for g in range(3)]
        grouped = CommonShockCPSpec(
            spec.lambda0,
            tuple(math.fsum(spec.lambdas[i] for i in m) for m in members),
            spec.beta0,
            tuple(spec.betas[m[0]] for m in members),
            tuple(math.fsum(spec.weights[i] for i in m) for m in members),
        )
        oracle, ref = cscp_series_oracle(spec), cscp_series_oracle(grouped)
        tail = ref.truncation.tail_mass
        # the trust region of ``cmrs verify`` at tolerance 1e-3
        trusted = [s for s in _BENCH_GRID if ref.f_S(s) >= s * tail / 1e-3]
        assert len(trusted) == len(_BENCH_GRID)
        for s in trusted:
            f = oracle.f_S(s)
            assert f == pytest.approx(ref.f_S(s), rel=1e-12)
            for g, m in enumerate(members):
                want = ref.h(g, s) / len(m)
                assert [oracle.xi(i, s) / f for i in m] == pytest.approx([want] * len(m), rel=1e-12)

    # f_S and xi_1..3 at s = 0.5, 3 and 9 as the per-stream enumeration gave
    # them for a pool whose risk 1 claims at the shock's rate
    TIED_PINS = [
        (0.5, 0.1784622761857992, (0.020790761576258344, 0.03765837705166117, 0.030781999464970587)),
        (3.0, 0.16468313441717658, (0.17322232402214743, 0.17516550334405348, 0.14566157588532835)),
        (9.0, 0.011788459664513506, (0.04395549171462351, 0.029813320907258013, 0.03232732466470677)),
    ]

    def test_stream_on_the_shock_rate_pinned(self):
        # beta_1 == beta0: the shock and risk 1 merge into one stream, which
        # sums in another order; rates 1, 2 and 4 keep the partial fractions
        # well conditioned, so the order shows below 1e-12
        spec = CommonShockCPSpec(
            lambda0=1.5, lambdas=(0.8, 1.1, 0.6), beta0=1.0, betas=(1.0, 2.0, 4.0), weights=(0.2, 0.3, 0.5)
        )
        oracle = cscp_series_oracle(spec)
        assert oracle.K == 20
        for s, f, xi in self.TIED_PINS:
            assert oracle.f_S(s) == pytest.approx(f, rel=1e-12)
            assert [oracle.xi(i, s) for i in range(3)] == pytest.approx(xi, rel=1e-12)

    def test_refusal_edge_is_where_one_minus_mass_tol_rounds_to_one(self):
        # 6e-17 is accepted (the table's last row); 5e-17 is refused
        assert 1.0 - 5e-17 == 1.0 and 1.0 - 6e-17 < 1.0
        with pytest.raises(OracleError, match="mass_tol"):
            cscp_series_oracle(self._two_stream(4.0), 5e-17)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.5 s and 37 MB at import; nothing needs it
    code = "import sys, cmrs; print('scipy.stats' in sys.modules)"
    src_dir = str(Path(cmrs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestPhiloxStreams:
    def test_substream_is_reproducible(self):
        a = philox_generator(7, 3).random(8)
        b = philox_generator(7, 3).random(8)
        assert np.array_equal(a, b)

    def test_substreams_are_distinct(self):
        a = philox_generator(7, 3).random(8)
        c = philox_generator(7, 4).random(8)
        assert not np.array_equal(a, c)

    def test_seed_changes_stream(self):
        a = philox_generator(7).random(8)
        b = philox_generator(8).random(8)
        assert not np.array_equal(a, b)


class TestMakeSampler:
    def test_mixed_exp_frailty_moments(self):
        # Gamma(3) frailty: E[X_i] = lambda_i * E[1/Theta] = lambda_i / 2
        spec = MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(3.0))
        S, X = make_sampler(spec)(philox_generator(5), 400_000)
        assert X.shape == (400_000, 2)
        assert np.allclose(S, X.sum(axis=1))
        assert X[:, 0].mean() == pytest.approx(0.5, abs=0.01)
        assert X[:, 1].mean() == pytest.approx(1.0, abs=0.02)

    def test_common_shock_moments_match_model_means(self):
        spec = CommonShockCPSpec(**CS_REF)
        model = build_common_shock_cp(spec)
        S, X = make_sampler(spec)(philox_generator(9), 400_000)
        means = model.transform(0.0)[1:].real  # L_i(0) = E[X_i]
        for i in range(3):
            assert X[:, i].mean() == pytest.approx(means[i], abs=0.02)

    def test_common_shock_produces_origin_atom(self):
        spec = CommonShockCPSpec(**CS_REF)
        S, _ = make_sampler(spec)(philox_generator(1), 200_000)
        frac = float((S == 0.0).mean())
        assert frac == pytest.approx(math.exp(-4.0), abs=0.002)

    def test_katz_moments_match_model_means(self):
        spec = KatzCompoundSpec(
            a=(0.0, 0.25),
            b=(1.5, 0.5),
            severities=(exponential_severity(2.0), exponential_severity(1.0)),
        )
        model = build_katz_compound(spec)
        S, X = make_sampler(spec)(philox_generator(13), 400_000)
        means = model.transform(0.0)[1:].real  # L_i(0) = E[X_i]
        for i in range(2):
            assert X[:, i].mean() == pytest.approx(means[i], abs=0.02)

    def test_phase_type_erlang_moments(self):
        sampler = make_sampler([erlang_me_spec(2, 3.0), exponential_me_spec(3.0)])
        S, X = sampler(philox_generator(21), 200_000)
        assert X[:, 0].mean() == pytest.approx(2.0 / 3.0, abs=0.01)
        assert X[:, 1].mean() == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_non_phase_type_matrix_exp_refused(self):
        bad = MatrixExpSpec(
            np.array([1.0, 0.0]),
            np.array([[-2.0, -0.5], [3.0, -2.0]]),
            np.array([2.5, -1.0]),
        )
        with pytest.raises(SamplingError, match="phase-type"):
            make_sampler([bad])

    def test_severity_without_sampler_refused(self):
        sev = SeverityHandle(
            lst=lambda z: 1.0 / (1.0 + z),
            mean_lst=lambda z: 1.0 / (1.0 + z) ** 2,
        )
        spec = KatzCompoundSpec(a=(0.0,), b=(1.0,), severities=(sev,))
        with pytest.raises(SamplingError, match="no sampler"):
            make_sampler(spec)

    def test_unknown_spec_refused(self):
        with pytest.raises(SamplingError, match="no sampler known"):
            make_sampler(42)


class TestMcConditionalMean:
    def test_symmetric_portfolio_splits_evenly(self):
        # three iid exponentials: E[X_i | S = s] = s / 3 exactly
        sampler = make_sampler([exponential_me_spec(1.0)] * 3)
        est = mc_conditional_mean(sampler, 0, 3.0, n_samples=200_000, seed=11)
        assert abs(est.value - 1.0) < 3.0 * est.std_error + 2e-3
        assert est.effective_n > 1000

    def test_degenerate_mixing_matches_closed_form(self):
        spec = MixedExpFrailtySpec((1.0, 2.0), gamma_mixing(2.0))
        orc = mixed_exp_oracle(spec)
        est = mc_conditional_mean(make_sampler(spec), 0, 1.0, n_samples=300_000, seed=4)
        assert abs(est.value - orc.h(0, 1.0)) < 3.0 * est.std_error + 2e-3

    def test_tiny_sample_size_refused(self):
        sampler = make_sampler([exponential_me_spec(1.0)])
        with pytest.raises(SamplingError, match="at least 1000"):
            mc_conditional_mean(sampler, 0, 1.0, n_samples=500)

    def test_unreachable_target_refused(self):
        sampler = make_sampler([exponential_me_spec(1.0)])
        with pytest.raises(SamplingError, match="no samples landed"):
            mc_conditional_mean(sampler, 0, 5000.0, n_samples=2000)

    def test_bad_bandwidth_refused(self):
        sampler = make_sampler([exponential_me_spec(1.0)])
        with pytest.raises(SamplingError, match="bandwidth"):
            mc_conditional_mean(sampler, 0, 1.0, bandwidth=0.0, n_samples=2000)

    def test_substreams_give_independent_estimates(self):
        sampler = make_sampler([exponential_me_spec(1.0)] * 2)
        e1 = mc_conditional_mean(sampler, 0, 2.0, n_samples=5000, seed=3, substream=1)
        e2 = mc_conditional_mean(sampler, 0, 2.0, n_samples=5000, seed=3, substream=2)
        e1_again = mc_conditional_mean(sampler, 0, 2.0, n_samples=5000, seed=3, substream=1)
        assert e1.value == e1_again.value
        assert e1.value != e2.value
