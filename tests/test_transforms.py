import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmrs.errors import DomainError, EvaluationError, ModelSpecError
from cmrs.models import build_matrix_exp, erlang_me_spec, exponential_me_spec
from cmrs.transforms import (
    JointTransformModel,
    column_values,
    diagonal_diagnostic,
    eval_transform,
    numerical_aggregate_derivative,
)


def two_exp_model(lam=1.0, mu=2.0):
    return build_matrix_exp((exponential_me_spec(lam), exponential_me_spec(mu)))


class TestOriginAtom:
    def test_transform_terms(self):
        # a model that is nothing but its origin atom (S = 0): its transform
        # includes the atom, so L_S - P(S = 0) and the L_i vanish at every node
        model = JointTransformModel(
            n=2,
            transform=lambda z: np.broadcast_to([1.0 + 0j, 0.0, 0.0], z.shape + (3,)),
            atom_mass=1.0,
        )
        z = np.array([[0.7 + 0.3j, 2.0 - 1.0j], [5.0 + 0j, 0.1 + 9.0j]])
        vals = model.expand(column_values(model, z))
        assert vals.shape == (2, 2, 3)
        assert np.abs(vals[..., 0] - model.atom_mass).max() < 1e-15
        assert np.abs(vals[..., 1:]).max() < 1e-15

    @pytest.mark.parametrize("mass", [-0.1, 1.1, float("nan"), float("inf")])
    def test_bad_atom_mass_rejected(self, mass):
        with pytest.raises(ModelSpecError, match="atom_mass must be finite and in"):
            JointTransformModel(n=1, transform=lambda z: z, atom_mass=mass)


class TestEvaluation:
    def test_right_half_plane_only(self):
        model = two_exp_model()
        with pytest.raises(DomainError):
            eval_transform(model, -0.1)
        with pytest.raises(DomainError):
            eval_transform(model, 0.0)

    def test_index_is_zero_based(self):
        # entry 0 is L_S, entry 1 + i is risk i (0-based)
        model = two_exp_model(1.0, 2.0)
        t = 1.0
        vals = eval_transform(model, t)
        assert vals.shape == (3,)
        ls = (1.0 / (1.0 + t)) * (2.0 / (2.0 + t))
        assert vals[1].real == pytest.approx(ls / (1.0 + t), rel=1e-14)
        assert vals[2].real == pytest.approx(ls / (2.0 + t), rel=1e-14)

    def test_nonfinite_value_rejected(self):
        # every entry is checked, the allocation entries as well as L_S
        for bad in (0, 1):
            vals = np.array([0.5, 0.1], dtype=complex)
            vals[bad] = complex("nan")
            model = JointTransformModel(n=1, transform=lambda z, vals=vals: vals)
            with pytest.raises(EvaluationError, match=f"entry {bad} returned non-finite"):
                eval_transform(model, 1.0)

    def test_wrong_length_rejected(self):
        model = JointTransformModel(n=2, transform=lambda z: np.array([0.5, 0.1], dtype=complex))
        with pytest.raises(EvaluationError, match="shape"):
            eval_transform(model, 1.0)

    def test_pure_real_contract_on_real_axis(self):
        model = JointTransformModel(n=1, transform=lambda z: np.array([0.5 + 1e-3j, 0.1]))
        with pytest.raises(EvaluationError, match="imaginary"):
            eval_transform(model, 2.0)
        # off the real axis the same value is fine
        assert eval_transform(model, 2.0 + 1.0j)[0] == 0.5 + 1e-3j

    def test_exponential_values(self):
        model = two_exp_model(1.0, 2.0)
        t = 1.5
        want = (1.0 / (1.0 + t)) * (2.0 / (2.0 + t))
        assert eval_transform(model, t)[0].real == pytest.approx(want, rel=1e-14)


class TestDerivativeAndDiagonal:
    def test_derivative_matches_exact(self):
        model = build_matrix_exp((exponential_me_spec(1.0),))
        t = 0.8
        exact = -1.0 / (1.0 + t) ** 2
        got = numerical_aggregate_derivative(model, t)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_derivative_domain(self):
        model = two_exp_model()
        with pytest.raises(DomainError):
            numerical_aggregate_derivative(model, 0.0)

    def test_diagonal_passes_for_consistent_model(self):
        model = build_matrix_exp((erlang_me_spec(2, 2.0), exponential_me_spec(1.0)))
        report = diagonal_diagnostic(model, np.logspace(-2, 2, 25))
        assert report.all_passed
        assert report.max_residual < 1e-6
        assert len(report.t) == 25

    def test_diagonal_catches_miswired_allocation(self):
        base = two_exp_model()
        broken = JointTransformModel(
            n=2, transform=lambda z: base.transform(z) * np.array([1.0, 1.1, 1.1])
        )
        report = diagonal_diagnostic(broken, [0.5, 1.0, 2.0])
        assert not report.all_passed
        assert report.max_residual > 0.05

    def test_diagonal_makes_one_model_call(self):
        base = build_matrix_exp(
            (erlang_me_spec(2, 2.0), exponential_me_spec(1.0), exponential_me_spec(3.0))
        )
        calls = []

        def counted(z):
            calls.append(z)
            return base.transform(z)

        model = JointTransformModel(n=base.n, transform=counted)
        t_grid = np.logspace(-2, 2, 7)
        report = diagonal_diagnostic(model, t_grid)
        assert report.all_passed
        # every t + h, t - h and t in one call
        assert [np.shape(z) for z in calls] == [(3, len(t_grid))]


def _no_map_twin(model):
    return JointTransformModel(
        n=model.n, transform=lambda z: model.expand(model.transform(z)), atom_mass=model.atom_mass
    )


class TestClassColumns:
    """A model with a risk map against its no-map twin, the same transform
    expanded by ``model.expand``: the checks read the class columns and
    expand nothing they do not hand out."""

    def test_diagonal_residuals_match_the_twin(self):
        model = build_matrix_exp([erlang_me_spec(2, r) for r in (1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 1.0)])
        assert model.risk_columns.tolist() == [0, 1, 0, 2, 1, 0, 0]
        t_grid = np.logspace(-2, 2, 25)
        got, want = (diagonal_diagnostic(m, t_grid) for m in (model, _no_map_twin(model)))
        assert got.all_passed and want.all_passed
        assert np.abs(np.subtract(got.residual, want.residual)).max() <= 1e-12
        assert np.array_equal(eval_transform(model, t_grid), eval_transform(_no_map_twin(model), t_grid))

    @pytest.mark.parametrize("bad", [complex("nan"), 0.1 + 1e-3j])
    def test_refusal_names_the_first_risk_of_the_class(self, bad):
        # class 1 holds risks 2 and 3 (0-based), so entry 1 + 2 = 3 of the
        # n+1 view, not the class index
        vals = np.array([0.5, 0.1, bad, 0.2], dtype=complex)
        model = JointTransformModel(
            n=5, transform=lambda z: np.broadcast_to(vals, np.shape(z) + (4,)),
            risk_columns=np.array([0, 0, 1, 1, 2]),
        )
        for m in (model, _no_map_twin(model)):
            with pytest.raises(EvaluationError, match="transform entry 3 "):
                eval_transform(m, 2.0)
            with pytest.raises(EvaluationError, match="transform entry 3 "):
                diagonal_diagnostic(m, [2.0])


@given(
    lam=st.floats(0.3, 4.0),
    mu=st.floats(0.3, 4.0),
    t=st.floats(0.05, 20.0),
)
def test_diagonal_identity_property(lam, mu, t):
    model = two_exp_model(lam, mu)
    report = diagonal_diagnostic(model, [t], tol=1e-6)
    assert report.all_passed
