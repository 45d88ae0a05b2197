"""Conditional mean risk sharing computed in the Laplace transform domain.

Shares h_i(s) = E[X_i | S = s] are recovered by inverting joint transforms
of (X_i, S) on the positive axis.  Model families with tractable transforms
live in :mod:`cmrs.models`; the inversion kernels in :mod:`cmrs.inversion`;
the grid engine in :mod:`cmrs.allocation`; independent references for
testing in :mod:`cmrs.oracles`.
"""

from .allocation import (
    AllocationRequest,
    AllocationResult,
    BreakdownReport,
    TailContribution,
    allocate,
    breakdown_scan,
    proportions,
    tail_contribution,
)
from .config import (
    GridSpec,
    RunConfig,
    SchemeSpec,
    build_model_from_config,
    load_config,
    parse_config,
)
from .errors import (
    CmrsError,
    ConfigError,
    DomainError,
    EvaluationError,
    InversionError,
    ModelSpecError,
    OracleError,
    SamplingError,
    SingularMatrixError,
)
from .inversion import (
    EulerScheme,
    GsScheme,
    gs_weights,
    gs_weights_exact,
    invert,
)
from .mixing import (
    MixingLawHandle,
    gamma_mixing,
    levy_mixing,
    point_mass_mixing,
)
from .models import (
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
    erlang_me_spec,
    exponential_me_spec,
    exponential_severity,
    is_phase_type,
)
from .oracles import (
    ClosedFormOracle,
    CscpSeriesOracle,
    McEstimate,
    cscp_series_oracle,
    make_sampler,
    mc_conditional_mean,
    me_example_oracle,
    mixed_exp_oracle,
)
from .transforms import (
    DiagonalReport,
    JointTransformModel,
    diagonal_diagnostic,
    eval_transform,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationRequest",
    "AllocationResult",
    "BreakdownReport",
    "ClosedFormOracle",
    "CmrsError",
    "CommonShockCPSpec",
    "ConfigError",
    "CscpSeriesOracle",
    "DiagonalReport",
    "DomainError",
    "EulerScheme",
    "EvaluationError",
    "GridSpec",
    "GsScheme",
    "InversionError",
    "JointTransformModel",
    "KatzCompoundSpec",
    "LognormalPortfolioSpec",
    "MatrixExpSpec",
    "McEstimate",
    "MixedExpFrailtySpec",
    "MixingLawHandle",
    "ModelSpecError",
    "OracleError",
    "RunConfig",
    "SamplingError",
    "SchemeSpec",
    "SeverityHandle",
    "SingularMatrixError",
    "TailContribution",
    "allocate",
    "breakdown_scan",
    "build_common_shock_cp",
    "build_katz_compound",
    "build_lognormal_portfolio",
    "build_matrix_exp",
    "build_mixed_exp_frailty",
    "build_model_from_config",
    "cscp_series_oracle",
    "diagonal_diagnostic",
    "erlang_me_spec",
    "eval_transform",
    "exponential_me_spec",
    "exponential_severity",
    "gamma_mixing",
    "gs_weights",
    "gs_weights_exact",
    "invert",
    "is_phase_type",
    "levy_mixing",
    "load_config",
    "make_sampler",
    "mc_conditional_mean",
    "me_example_oracle",
    "mixed_exp_oracle",
    "parse_config",
    "point_mass_mixing",
    "proportions",
    "tail_contribution",
]
