"""YAML run configuration: model family, grid, scheme, verification.

A config file has blocks ``model``, ``grid``, ``scheme`` and optionally
``output``, ``verify``, ``tolerance``, ``bench``.  Loading is strict: unknown
keys are errors, not warnings, since a typo in a tolerance name should not
silently run with defaults.  ``dump_config`` writes the normalized form and
load(dump(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError
from .inversion import TILT_INCOMPATIBLE_MSG, EulerScheme, GsScheme, Scheme
from .mixing import gamma_mixing, levy_mixing, point_mass_mixing
from .models import (
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
)
from .transforms import JointTransformModel


def _require_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass(frozen=True)
class GridSpec:
    """Either an arithmetic grid (start/stop/step) or explicit points."""

    start: Optional[float] = None
    stop: Optional[float] = None
    step: Optional[float] = None
    points: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.points is not None:
            if any(v is not None for v in (self.start, self.stop, self.step)):
                raise ConfigError("grid: give either points or start/stop/step, not both")
            pts = tuple(float(p) for p in self.points)
            if not pts:
                raise ConfigError("grid: points must be nonempty")
            object.__setattr__(self, "points", pts)
            return
        if None in (self.start, self.stop, self.step):
            raise ConfigError("grid: start, stop and step are all required")
        if not (self.step > 0.0 and self.stop >= self.start > 0.0):
            raise ConfigError(
                f"grid: need 0 < start <= stop and step > 0, got "
                f"start={self.start}, stop={self.stop}, step={self.step}"
            )

    def build(self) -> tuple[float, ...]:
        if self.points is not None:
            return self.points
        count = int(round((self.stop - self.start) / self.step)) + 1
        pts = self.start + self.step * np.arange(count)
        pts = pts[pts <= self.stop + 1e-9 * self.step]
        return tuple(float(p) for p in pts)


@dataclass(frozen=True)
class SchemeSpec:
    rule: str = "euler"
    A: float = 18.4
    N: int = 25
    m: int = 15
    theta: float = 0.0
    M: int = 8

    def __post_init__(self) -> None:
        if self.rule not in ("euler", "gaver-stehfest"):
            raise ConfigError(f"scheme rule must be euler or gaver-stehfest, got {self.rule!r}")
        if self.rule == "gaver-stehfest" and self.theta > 0.0:
            raise ConfigError(TILT_INCOMPATIBLE_MSG)
        if self.theta < 0.0:
            raise ConfigError(f"scheme theta must be >= 0, got {self.theta}")

    def build(self) -> Scheme:
        if self.rule == "gaver-stehfest":
            return GsScheme(M=self.M)
        return EulerScheme(A=self.A, N=self.N, m=self.m, theta=self.theta)


@dataclass(frozen=True)
class OutputSpec:
    path: Optional[str] = None


@dataclass(frozen=True)
class VerifySpec:
    method: str = "none"  # none | closed_form | series | mc
    tolerance: float = 1e-3
    points: Optional[tuple[float, ...]] = None
    n_samples: int = 200_000
    bandwidth: float = 0.05
    seed: int = 0
    mass_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.method not in ("none", "closed_form", "series", "mc"):
            raise ConfigError(f"unknown verify method {self.method!r}")
        if self.points is not None:
            object.__setattr__(self, "points", tuple(float(p) for p in self.points))


@dataclass(frozen=True)
class ToleranceSpec:
    balance: float = 1e-3
    density_floor: float = 1e-300


@dataclass(frozen=True)
class BenchSpec:
    n_sweep: tuple[int, ...] = (5, 100, 1000)
    reps: int = 2
    tilt: float = 0.2

    def __post_init__(self) -> None:
        ns = tuple(int(v) for v in self.n_sweep)
        if not ns or any(v < 1 for v in ns):
            raise ConfigError(f"bench n_sweep must be positive integers, got {self.n_sweep}")
        if self.reps < 1:
            raise ConfigError(f"bench reps must be >= 1, got {self.reps}")
        object.__setattr__(self, "n_sweep", ns)


@dataclass(frozen=True)
class ModelConfig:
    family: str
    params: dict

    _FAMILIES = (
        "mixed_exp_frailty",
        "matrix_exp",
        "katz_compound",
        "common_shock_cp",
        "lognormal",
    )

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise ConfigError(
                f"unknown model family {self.family!r}; known: {', '.join(self._FAMILIES)}"
            )


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    grid: GridSpec
    scheme: SchemeSpec = SchemeSpec()
    output: OutputSpec = OutputSpec()
    verify: VerifySpec = VerifySpec()
    tolerance: ToleranceSpec = ToleranceSpec()
    bench: Optional[BenchSpec] = None


def _parse_block(cls, block: dict, where: str):
    fields = {f for f in cls.__dataclass_fields__ if not f.startswith("_")}
    _require_keys(block, fields, where)
    coerced = dict(block)
    for key in ("points", "n_sweep"):
        if key in coerced and coerced[key] is not None:
            coerced[key] = tuple(coerced[key])
    # yaml treats dot-less scientific notation ("1e-300") as a string; pull
    # scalars back to the field's declared type
    for key, val in coerced.items():
        ftype = str(cls.__dataclass_fields__[key].type)
        try:
            if isinstance(val, str) and "float" in ftype:
                coerced[key] = float(val)
            elif isinstance(val, str) and "int" in ftype:
                coerced[key] = int(val)
        except ValueError as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from exc
    try:
        return cls(**coerced)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    _require_keys(
        data, {"model", "grid", "scheme", "output", "verify", "tolerance", "bench"}, "config"
    )
    if "model" not in data or "grid" not in data:
        raise ConfigError("config needs at least model and grid blocks")
    mblock = dict(data["model"])
    if "family" not in mblock:
        raise ConfigError("model block needs a family key")
    family = mblock.pop("family")
    model = ModelConfig(family=family, params=mblock)
    build_model_from_config(model)  # fail at parse time, not at run time
    cfg = RunConfig(
        model=model,
        grid=_parse_block(GridSpec, data["grid"], "grid"),
        scheme=_parse_block(SchemeSpec, data.get("scheme", {}), "scheme"),
        output=_parse_block(OutputSpec, data.get("output", {}), "output"),
        verify=_parse_block(VerifySpec, data.get("verify", {}), "verify"),
        tolerance=_parse_block(ToleranceSpec, data.get("tolerance", {}), "tolerance"),
        bench=_parse_block(BenchSpec, data["bench"], "bench") if "bench" in data else None,
    )
    cfg.scheme.build()  # a scheme the engine refuses fails here too
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    out: dict = {
        "model": {"family": cfg.model.family, **cfg.model.params},
        "grid": {k: v for k, v in asdict(cfg.grid).items() if v is not None},
        "scheme": asdict(cfg.scheme),
        "output": asdict(cfg.output),
        "verify": asdict(cfg.verify),
        "tolerance": asdict(cfg.tolerance),
    }
    if cfg.bench is not None:
        out["bench"] = asdict(cfg.bench)
    for block in ("grid", "verify", "bench"):
        if block in out:
            for key in ("points", "n_sweep"):
                if key in out[block] and out[block][key] is not None:
                    out[block][key] = list(out[block][key])
    return out


def dump_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# model construction


def _build_mixing(block: dict):
    _require_keys(block, {"law", "alpha", "kappa", "theta0", "n_nodes"}, "model.mixing")
    law = block.get("law")
    n_nodes = int(block.get("n_nodes", 200))
    if law == "gamma":
        return gamma_mixing(float(block["alpha"]), n_nodes)
    if law == "levy":
        return levy_mixing(float(block["kappa"]), n_nodes)
    if law == "point":
        return point_mass_mixing(float(block["theta0"]))
    raise ConfigError(f"unknown mixing law {law!r}; known: gamma, levy, point")


def _build_me_risk(block: dict) -> MatrixExpSpec:
    if "kind" in block:
        kind = block["kind"]
        if kind == "erlang":
            _require_keys(block, {"kind", "k", "rate"}, "matrix_exp risk")
            return erlang_me_spec(int(block["k"]), float(block["rate"]))
        if kind == "exponential":
            _require_keys(block, {"kind", "rate"}, "matrix_exp risk")
            return exponential_me_spec(float(block["rate"]))
        raise ConfigError(f"unknown matrix_exp risk kind {kind!r}")
    _require_keys(block, {"alpha", "T", "u", "p0"}, "matrix_exp risk")
    return MatrixExpSpec(
        np.array(block["alpha"], dtype=float),
        np.array(block["T"], dtype=float),
        np.array(block["u"], dtype=float),
        float(block.get("p0", 0.0)),
    )


def _build_severity(block: dict):
    _require_keys(block, {"kind", "rate"}, "severity")
    if block.get("kind") != "exponential":
        raise ConfigError(f"unknown severity kind {block.get('kind')!r}")
    return exponential_severity(float(block["rate"]))


def build_model_from_config(model: ModelConfig) -> tuple[JointTransformModel, object]:
    """Instantiate (transform model, family spec) from a model block."""
    fam = model.family
    p = model.params
    if fam == "mixed_exp_frailty":
        _require_keys(p, {"lambdas", "mixing"}, "model")
        spec = MixedExpFrailtySpec(tuple(p["lambdas"]), _build_mixing(p["mixing"]))
        return build_mixed_exp_frailty(spec), spec
    if fam == "matrix_exp":
        _require_keys(p, {"risks"}, "model")
        specs = tuple(_build_me_risk(r) for r in p["risks"])
        return build_matrix_exp(specs), specs
    if fam == "katz_compound":
        _require_keys(p, {"risks"}, "model")
        risks = p["risks"]
        for r in risks:
            _require_keys(r, {"a", "b", "severity"}, "katz risk")
        spec = KatzCompoundSpec(
            tuple(float(r["a"]) for r in risks),
            tuple(float(r["b"]) for r in risks),
            tuple(_build_severity(r["severity"]) for r in risks),
        )
        return build_katz_compound(spec), spec
    if fam == "common_shock_cp":
        _require_keys(p, {"lambda0", "lambdas", "beta0", "betas", "weights"}, "model")
        spec = CommonShockCPSpec(
            float(p["lambda0"]),
            tuple(p["lambdas"]),
            float(p["beta0"]),
            tuple(p["betas"]),
            tuple(p["weights"]),
        )
        return build_common_shock_cp(spec), spec
    if fam == "lognormal":
        _require_keys(p, {"means", "variances", "mu", "sigma", "gh_order"}, "model")
        order = int(p.get("gh_order", 64))
        if "means" in p or "variances" in p:
            if "mu" in p or "sigma" in p:
                raise ConfigError("lognormal: give means/variances or mu/sigma, not both")
            spec = LognormalPortfolioSpec.from_moments(
                tuple(p["means"]), tuple(p["variances"]), order
            )
        else:
            spec = LognormalPortfolioSpec(tuple(p["mu"]), tuple(p["sigma"]), order)
        return build_lognormal_portfolio(spec), spec
    raise ConfigError(f"unknown model family {fam!r}")
