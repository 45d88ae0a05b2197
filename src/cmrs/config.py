"""YAML run configuration: model family, grid, scheme, verification.

A config file has blocks ``model``, ``grid``, ``scheme`` and optionally
``output``, ``verify``, ``tolerance``, ``bench``.  Loading is strict: unknown
keys are errors, not warnings, since a typo in a tolerance name should not
silently run with defaults, a missing key is named, not a traceback, and so
is a boolean, which no field takes, and a scheme key that only the other
rule reads.

``load_config`` gives the data ``yaml.load`` gives with PyYAML's safe
loader, but builds it from the parser's events (libyaml's when PyYAML has
it): lists, dicts in key order, and a plain decimal int or float such as
``3``, ``-0.5`` or ``1.0e-05`` read by ``int`` or ``float`` directly.  Every
other scalar goes through the safe loader's own resolver and constructors,
so the YAML 1.1 readings hold (``yes`` is True, ``010`` is 8, ``1e-300`` is
a string).  ``yaml.load`` itself reads a file with an anchor or alias, an
explicit tag, a ``<<`` merge or ``=`` value scalar, a key that is not a str,
int or float, a root that is not a mapping, or not exactly one document,
and a file that does not parse, so that the error is the one it raises.

Loading parses the model block once, into its family spec
(``RunConfig.model``), whose constructor checks the values.  The model
itself is built by ``build_model_from_config``, once per run, and that build
runs the construction probe.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import yaml
from yaml.events import (
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
    StreamStartEvent,
)
from yaml.nodes import ScalarNode

from .allocation import checked_grid
from .errors import CmrsError, ConfigError
from .inversion import EulerScheme, GsScheme, Scheme
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

TILT_INCOMPATIBLE_MSG = (
    "gaver-stehfest cannot be combined with positive tilting; use the euler scheme"
)


def _whole(where: str, value) -> int:
    """``value`` as an int; a fractional value is refused, never truncated.
    YAML reads a dot-less exponent such as ``2e5`` as a string, which counts
    by its value; an integer string is read exactly."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, bool) or not float(value).is_integer():
        raise ConfigError(f"{where} must be a whole number, got {value!r}")
    return int(value)


def _refuse_booleans(node, where: str) -> None:
    """ConfigError naming the first boolean under ``node``: no field is one,
    and YAML's ``yes``, ``on`` and ``true`` would pass as the number 1."""
    if isinstance(node, dict):
        items = [(f"{where}.{k}" if where else str(k), v) for k, v in node.items()]
    elif isinstance(node, list) and set(map(type, node)) & {bool, dict, list}:
        items = [(f"{where}[{k}]", v) for k, v in enumerate(node)]
    else:
        return
    for path, value in items:
        if isinstance(value, bool):
            raise ConfigError(f"{path} must not be a boolean, got {value}")
        _refuse_booleans(value, path)


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
            object.__setattr__(self, "points", checked_grid(pts))
            return
        if None in (self.start, self.stop, self.step):
            raise ConfigError("grid: start, stop and step are all required")
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.step)):
            raise ConfigError(
                f"grid: start, stop and step must be finite, got "
                f"start={self.start}, stop={self.stop}, step={self.step}"
            )
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
        if not (self.theta >= 0.0 and math.isfinite(self.theta)):
            raise ConfigError(f"scheme theta must be finite and >= 0, got {self.theta}")
        if self.rule == "gaver-stehfest" and self.theta > 0.0:
            raise ConfigError(TILT_INCOMPATIBLE_MSG)

    def build(self) -> Scheme:
        if self.rule == "gaver-stehfest":
            return GsScheme(M=self.M)
        return EulerScheme(A=self.A, N=self.N, m=self.m, theta=self.theta)


# the keys of one rule that the other rule would ignore; theta has its own rule
_OTHER_RULE_KEYS = {"euler": {"M"}, "gaver-stehfest": {"A", "N", "m"}}


def _parse_scheme(block) -> SchemeSpec:
    """The scheme block as a SchemeSpec; a key that only the other rule
    reads is refused, not silently dropped.  The check is on the file's
    block: ``dataclasses.replace`` may switch a spec's rule and keep its
    fields."""
    spec = _parse_block(SchemeSpec, block, "scheme")
    stray = sorted(_OTHER_RULE_KEYS[spec.rule] & set(block))
    if stray:
        raise ConfigError(f"scheme keys {stray} do not apply to rule {spec.rule!r}")
    return spec


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
        for name in ("tolerance", "bandwidth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"verify {name} must be finite and > 0, got {value}")
        if self.points is not None:
            pts = tuple(float(p) for p in self.points)
            if not (pts and all(math.isfinite(p) and p > 0.0 for p in pts)):
                raise ConfigError(
                    f"verify points must be a nonempty list of finite values > 0, got {list(pts)}"
                )
            object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n_samples", _whole("verify n_samples", self.n_samples))
        seed = _whole("verify seed", self.seed)
        if not (0 <= seed < 2**64):
            raise ConfigError(f"verify seed must lie in [0, 2**64), got {seed}")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class ToleranceSpec:
    balance: float = 1e-3
    density_floor: float = 1e-300

    def __post_init__(self) -> None:
        for name in ("balance", "density_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class BenchSpec:
    n_sweep: tuple[int, ...] = (5, 100, 1000)
    reps: int = 2
    tilt: float = 0.2

    def __post_init__(self) -> None:
        ns = tuple(_whole("bench n_sweep", v) for v in self.n_sweep)
        if not ns or any(v < 1 for v in ns):
            raise ConfigError(f"bench n_sweep must be positive integers, got {self.n_sweep}")
        reps = _whole("bench reps", self.reps)
        if reps < 1:
            raise ConfigError(f"bench reps must be >= 1, got {self.reps}")
        if not (math.isfinite(self.tilt) and self.tilt > 0.0):
            raise ConfigError(f"bench tilt must be finite and > 0, got {self.tilt}")
        object.__setattr__(self, "n_sweep", ns)
        object.__setattr__(self, "reps", reps)


ModelSpec = Union[
    MixedExpFrailtySpec,
    tuple[MatrixExpSpec, ...],
    KatzCompoundSpec,
    CommonShockCPSpec,
    LognormalPortfolioSpec,
]


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    grid: GridSpec
    scheme: SchemeSpec = SchemeSpec()
    output: OutputSpec = OutputSpec()
    verify: VerifySpec = VerifySpec()
    tolerance: ToleranceSpec = ToleranceSpec()
    bench: Optional[BenchSpec] = None


def _checked(where: str, build):
    """``build()``, with a TypeError or ValueError that is not already one of
    the package's errors (a value of the wrong type) raised as ConfigError,
    and a KeyError (a required key left out) as one that names the key."""
    try:
        return build()
    except CmrsError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_block(cls, block: dict, where: str):
    fields = {f for f in cls.__dataclass_fields__ if not f.startswith("_")}
    _require_keys(block, fields, where)
    coerced = dict(block)
    for key in ("points", "n_sweep"):
        if key in coerced and coerced[key] is not None:
            coerced[key] = _checked(f"{where}.{key}", lambda: tuple(coerced[key]))
    # yaml treats dot-less scientific notation ("1e-300") as a string; pull
    # scalars back to the field's declared type
    for key, val in coerced.items():
        ftype = str(cls.__dataclass_fields__[key].type)
        try:
            if isinstance(val, str) and "float" in ftype:
                coerced[key] = float(val)
            elif isinstance(val, str) and "int" in ftype:
                coerced[key] = _whole(key, val)
        except ValueError as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from exc
    return _checked(where, lambda: cls(**coerced))


def parse_config(data: dict) -> RunConfig:
    _require_keys(
        data, {"model", "grid", "scheme", "output", "verify", "tolerance", "bench"}, "config"
    )
    _refuse_booleans(data, "")
    if "model" not in data or "grid" not in data:
        raise ConfigError("config needs at least model and grid blocks")
    cfg = RunConfig(
        model=_checked("model", lambda: _parse_model(data["model"])),
        grid=_parse_block(GridSpec, data["grid"], "grid"),
        scheme=_parse_scheme(data.get("scheme", {})),
        output=_parse_block(OutputSpec, data.get("output", {}), "output"),
        verify=_parse_block(VerifySpec, data.get("verify", {}), "verify"),
        tolerance=_parse_block(ToleranceSpec, data.get("tolerance", {}), "tolerance"),
        bench=_parse_block(BenchSpec, data["bench"], "bench") if "bench" in data else None,
    )
    # a grid or scheme the engine refuses fails here too
    _checked("grid", cfg.grid.build)
    _checked("scheme", cfg.scheme.build)
    return cfg


# libyaml's parser when PyYAML has it; its events cost a third of yaml.load
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# a strict subset of SafeLoader's YAML 1.1 int and float patterns: no "_",
# no sexagesimal, no int with a leading zero (octal); group 1 is set for an int
_DECIMAL = re.compile(r"[-+]?(?:(0|[1-9][0-9]*)|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)\Z").match
_KEY_TYPES = (str, int, float)
_NO_KEY = object()


class _NeedsYamlLoad(Exception):
    """The document uses YAML that only ``yaml.load`` composes."""


def _build_document(loader) -> dict:
    """The data of the one-mapping document ``loader`` parses, built from its
    events; _NeedsYamlLoad where the document needs ``yaml.load``."""
    get = loader.get_event
    if type(get()) is not StreamStartEvent or type(get()) is not DocumentStartEvent:
        raise _NeedsYamlLoad
    root = None
    top = None  # the innermost open list or dict
    stack = []  # the collections that enclose it, None below the root
    key = _NO_KEY  # the innermost dict's key awaiting its value
    while True:
        ev = get()
        kind = type(ev)
        if kind is ScalarEvent:
            if ev.tag is not None or ev.anchor is not None:
                raise _NeedsYamlLoad
            value = ev.value
            if ev.implicit[0]:  # plain: SafeLoader would resolve its type
                number = _DECIMAL(value)
                if number is None:
                    tag = loader.resolve(ScalarNode, value, ev.implicit)
                    # no constructor: a "<<" merge, "=" value, or "!", "&", "*"
                    if tag not in loader.yaml_constructors:
                        raise _NeedsYamlLoad
                    value = loader.yaml_constructors[tag](loader, ScalarNode(tag, value))
                elif number.lastindex:
                    value = int(value)
                else:
                    value = float(value)
            opened = None
        elif kind is SequenceStartEvent or kind is MappingStartEvent:
            if ev.tag is not None or ev.anchor is not None:
                raise _NeedsYamlLoad
            value = opened = [] if kind is SequenceStartEvent else {}
        elif kind is SequenceEndEvent or kind is MappingEndEvent:
            top = stack.pop()
            if top is None:
                break
            continue
        else:  # an alias
            raise _NeedsYamlLoad
        if type(top) is list:
            top.append(value)
        elif top is None:
            if type(value) is not dict:
                raise _NeedsYamlLoad
            root = value
        elif key is _NO_KEY:
            if type(value) not in _KEY_TYPES:
                raise _NeedsYamlLoad
            key = value
            continue
        else:
            top[key] = value
            key = _NO_KEY
        if opened is not None:
            stack.append(top)
            top = opened
    if type(get()) is not DocumentEndEvent or type(get()) is not StreamEndEvent:
        raise _NeedsYamlLoad
    return root


def _read_yaml(path: str):
    """The data of the YAML file at ``path``: ``yaml.load``'s, built from the
    event stream where the document allows (the module docstring)."""
    try:
        with open(path) as fh:
            loader = _LOADER(fh.read())
        try:
            return _build_document(loader)
        finally:
            loader.dispose()
    except (_NeedsYamlLoad, yaml.YAMLError, ValueError):
        pass  # yaml.load builds the data, or raises the error with its text
    with open(path) as fh:
        try:
            return yaml.load(fh, Loader=_LOADER)
        # ValueError: bytes that are not UTF-8, or a bad "!!int" or "!!float"
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"{path} is not valid YAML: {exc}") from None


def load_config(path: str) -> RunConfig:
    data = _read_yaml(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return parse_config(data)


# ---------------------------------------------------------------------------
# model block


def _build_mixing(block: dict):
    _require_keys(block, {"law", "alpha", "kappa", "theta0", "n_nodes"}, "model.mixing")
    law = block.get("law")
    n_nodes = _whole("model.mixing.n_nodes", block.get("n_nodes", 200))
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
            return erlang_me_spec(_whole("matrix_exp risk k", block["k"]), float(block["rate"]))
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


def _build_severity(block: dict, shared: dict):
    """The severity handle a block describes: one handle per rate in
    ``shared``, so that equal risks of a model block form one class."""
    _require_keys(block, {"kind", "rate"}, "severity")
    if block.get("kind") != "exponential":
        raise ConfigError(f"unknown severity kind {block.get('kind')!r}")
    rate = float(block["rate"])
    if rate not in shared:
        shared[rate] = exponential_severity(rate)
    return shared[rate]


def _parse_model(p: dict) -> ModelSpec:
    """The family spec a model block describes.  The spec constructors check
    their values; the model itself is built later, by the verb that runs it."""
    if not isinstance(p, dict):
        raise ConfigError(f"model must be a mapping, got {type(p).__name__}")
    fam = p["family"]
    if fam == "mixed_exp_frailty":
        _require_keys(p, {"family", "lambdas", "mixing"}, "model")
        return MixedExpFrailtySpec(tuple(p["lambdas"]), _build_mixing(p["mixing"]))
    if fam == "matrix_exp":
        _require_keys(p, {"family", "risks"}, "model")
        return tuple(_build_me_risk(r) for r in p["risks"])
    if fam == "katz_compound":
        _require_keys(p, {"family", "risks"}, "model")
        risks = p["risks"]
        for r in risks:
            _require_keys(r, {"a", "b", "severity"}, "katz risk")
        shared: dict = {}
        return KatzCompoundSpec(
            tuple(float(r["a"]) for r in risks),
            tuple(float(r["b"]) for r in risks),
            tuple(_build_severity(r["severity"], shared) for r in risks),
        )
    if fam == "common_shock_cp":
        _require_keys(p, {"family", "lambda0", "lambdas", "beta0", "betas", "weights"}, "model")
        return CommonShockCPSpec(
            float(p["lambda0"]),
            tuple(p["lambdas"]),
            float(p["beta0"]),
            tuple(p["betas"]),
            tuple(p["weights"]),
        )
    if fam == "lognormal":
        _require_keys(p, {"family", "means", "variances", "mu", "sigma", "gh_order"}, "model")
        order = _whole("model.gh_order", p.get("gh_order", 64))
        if "means" in p or "variances" in p:
            if "mu" in p or "sigma" in p:
                raise ConfigError("lognormal: give means/variances or mu/sigma, not both")
            return LognormalPortfolioSpec.from_moments(
                tuple(p["means"]), tuple(p["variances"]), order
            )
        return LognormalPortfolioSpec(tuple(p["mu"]), tuple(p["sigma"]), order)
    raise ConfigError(
        f"unknown model family {fam!r}; known: mixed_exp_frailty, matrix_exp, "
        "katz_compound, common_shock_cp, lognormal"
    )


_BUILDERS = {
    MixedExpFrailtySpec: build_mixed_exp_frailty,
    tuple: build_matrix_exp,
    KatzCompoundSpec: build_katz_compound,
    CommonShockCPSpec: build_common_shock_cp,
    LognormalPortfolioSpec: build_lognormal_portfolio,
}


def build_model_from_config(spec: ModelSpec) -> tuple[JointTransformModel, ModelSpec]:
    """(transform model, spec) for a family spec such as ``RunConfig.model``.
    Each call builds the model and runs its construction probe."""
    return _BUILDERS[type(spec)](spec), spec
