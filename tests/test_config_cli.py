import csv
import importlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import cmrs
from cmrs.allocation import AllocationRequest, allocate
from cmrs.cli import _scaled_cscp, main, run_bench, run_verify, write_csv
from cmrs.config import (
    BenchSpec,
    GridSpec,
    RunConfig,
    SchemeSpec,
    VerifySpec,
    build_model_from_config,
    load_config,
    parse_config,
)
from cmrs.errors import ConfigError, DomainError, InversionError, ModelSpecError
from cmrs.inversion import EulerScheme, GsScheme
from cmrs.models import (
    CommonShockCPSpec,
    KatzCompoundSpec,
    MatrixExpSpec,
    build_common_shock_cp,
    build_katz_compound,
    exponential_severity,
)

ERLANG_YAML = textwrap.dedent(
    """
    model:
      family: matrix_exp
      risks:
        - kind: erlang
          k: 2
          rate: 2.0
        - kind: exponential
          rate: 1.0
    grid:
      start: 0.5
      stop: 5.0
      step: 0.5
    scheme:
      rule: euler
    verify:
      method: closed_form
      tolerance: 1.0e-4
    """
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestGridSpec:
    def test_arithmetic_grid_row_count(self):
        pts = GridSpec(start=0.1, stop=75.0, step=0.1).build()
        assert len(pts) == 750
        assert pts[0] == pytest.approx(0.1)
        assert pts[-1] == pytest.approx(75.0)

    def test_short_grid_includes_endpoint(self):
        assert GridSpec(start=0.5, stop=2.0, step=0.5).build() == pytest.approx(
            (0.5, 1.0, 1.5, 2.0)
        )

    def test_explicit_points_pass_through(self):
        assert GridSpec(points=(0.5, 1.0, 4.0)).build() == (0.5, 1.0, 4.0)

    def test_points_and_range_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            GridSpec(start=0.1, stop=1.0, step=0.1, points=(1.0,))

    def test_incomplete_range_rejected(self):
        with pytest.raises(ConfigError, match="required"):
            GridSpec(start=0.1, stop=1.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(start=0.0, stop=1.0, step=0.1)
        with pytest.raises(ConfigError):
            GridSpec(start=2.0, stop=1.0, step=0.1)
        with pytest.raises(ConfigError):
            GridSpec(start=0.1, stop=1.0, step=-0.1)

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            GridSpec(points=())


class TestSchemeSpec:
    def test_euler_build(self):
        sch = SchemeSpec(rule="euler", A=30.4, N=25, m=15, theta=0.2).build()
        assert sch == EulerScheme(A=30.4, N=25, m=15, theta=0.2)

    def test_gs_build(self):
        assert SchemeSpec(rule="gaver-stehfest", M=10).build() == GsScheme(M=10)

    def test_gs_with_tilt_rejected(self):
        with pytest.raises(
            ConfigError,
            match="gaver-stehfest cannot be combined with positive tilting; "
            "use the euler scheme",
        ):
            SchemeSpec(rule="gaver-stehfest", theta=0.2)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="rule"):
            SchemeSpec(rule="talbot")

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigError, match="theta"):
            SchemeSpec(rule="euler", theta=-0.1)

    @pytest.mark.parametrize("rule", ["euler", "gaver-stehfest"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_nonfinite_theta_rejected(self, rule, theta):
        with pytest.raises(ConfigError, match=f"theta must be finite and >= 0, got {theta}"):
            SchemeSpec(rule=rule, theta=theta)


class TestConfigParsing:
    def test_parse_and_build_reference_pool(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.yaml", ERLANG_YAML))
        assert all(isinstance(risk, MatrixExpSpec) for risk in cfg.model)
        assert cfg.verify.method == "closed_form"
        model, spec = build_model_from_config(cfg.model)
        assert model.n == 2
        assert len(spec) == 2
        assert spec is cfg.model

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"model": {}, "grid": {}, "extras": {}})

    def test_missing_required_blocks_rejected(self):
        with pytest.raises(ConfigError, match="model and grid"):
            parse_config({"model": {"family": "matrix_exp", "risks": []}})

    def test_unknown_model_param_rejected(self):
        data = yaml.safe_load(ERLANG_YAML)
        data["model"]["typo"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)

    def test_unknown_family_rejected(self):
        data = yaml.safe_load(ERLANG_YAML)
        data["model"] = {"family": "weibull"}
        with pytest.raises(ConfigError, match="family"):
            parse_config(data)

    def test_miswired_model_loads_and_is_refused_at_build(self, tmp_path, capsys):
        # loading checks the spec's values; the construction probe runs when
        # a verb builds the model, still before anything is printed
        data = yaml.safe_load(ERLANG_YAML)
        data["model"]["risks"] = [{"alpha": [1.0], "T": [[-2.0]], "u": [4.0]}]
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(data))
        assert load_config(cfg).model[0].u.tolist() == [4.0]
        assert main(["allocate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not in" in captured.err
        assert captured.out == ""

    def test_model_errors_surface_at_parse_time(self):
        data = yaml.safe_load(ERLANG_YAML)
        data["model"] = {
            "family": "common_shock_cp",
            "lambda0": 1.0,
            "lambdas": [1.0],
            "beta0": 1.0,
            "betas": [1.0],
            "weights": [0.7],  # does not sum to 1
        }
        with pytest.raises(ModelSpecError, match="sum to 1"):
            parse_config(data)

    @pytest.mark.parametrize(
        "scheme",
        [
            {"rule": "euler", "N": 25.5},
            {"rule": "euler", "m": 8.5},
            {"rule": "gaver-stehfest", "M": 8.5},
        ],
    )
    def test_scheme_errors_surface_at_parse_time(self, tmp_path, capsys, scheme):
        data = yaml.safe_load(ERLANG_YAML)
        data["scheme"] = scheme
        with pytest.raises(InversionError, match="must be a whole number"):
            parse_config(data)
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(data))
        assert main(["allocate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "whole number" in err

    @pytest.mark.parametrize(
        "points, message",
        [
            ([2.0, 1.0, -3.0], "s_grid entries must be finite and positive"),
            ([2.0, 1.0], "s_grid must be strictly increasing"),
            ([1.0, 1.0], "s_grid must be strictly increasing"),
        ],
    )
    def test_grid_points_errors_surface_at_parse_time(self, tmp_path, capsys, points, message):
        # the engine's grid check, at load, before any model is built
        data = yaml.safe_load(ERLANG_YAML)
        data["grid"] = {"points": points}
        with pytest.raises(DomainError, match=message):
            parse_config(data)
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(data))
        assert main(["diagnose", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scientific_notation_strings_coerced(self, tmp_path):
        # yaml reads dot-less exponents as strings; the loader must not
        text = ERLANG_YAML + 'tolerance:\n  balance: "1e-3"\n  density_floor: "1e-300"\n'
        cfg = load_config(_write(tmp_path, "cfg.yaml", text))
        assert cfg.tolerance.balance == 1e-3
        assert cfg.tolerance.density_floor == 1e-300

    def test_whole_numbers_with_an_exponent(self, tmp_path):
        # a dot-less exponent is a string to yaml; a whole one loads as an
        # int, and an unquoted integer stays exact
        text = (
            ERLANG_YAML.replace("k: 2", "k: 2e0")
            .replace("rule: euler", "rule: euler\n  N: 2.5E+1\n  m: 1.5e1")
            .replace("tolerance: 1.0e-4", "n_samples: 2e5\n  seed: 12345678901234567891")
            + "bench:\n  reps: 3e0\n  n_sweep: [5, 1e2]\n"
        )
        cfg = load_config(_write(tmp_path, "cfg.yaml", text))
        assert cfg.model[0].T.shape == (2, 2)
        assert cfg.verify.n_samples == 200_000 and type(cfg.verify.n_samples) is int
        assert cfg.verify.seed == 12345678901234567891
        assert (cfg.scheme.N, cfg.scheme.m) == (25, 15)
        assert cfg.bench.reps == 3 and cfg.bench.n_sweep == (5, 100)

    def test_non_numeric_scalar_rejected(self, tmp_path):
        text = ERLANG_YAML + 'tolerance:\n  balance: "ten"\n'
        with pytest.raises(ConfigError, match="balance"):
            load_config(_write(tmp_path, "cfg.yaml", text))

    @pytest.mark.parametrize(
        "block,message",
        [
            ("balance: -1.0", "tolerance balance must be finite and positive, got -1.0"),
            ("balance: 0.0", "tolerance balance must be finite and positive, got 0.0"),
            ("density_floor: .nan", "tolerance density_floor must be finite and positive, got nan"),
            ("density_floor: -1.0e-300", "tolerance density_floor must be finite and positive, got -1e-300"),
        ],
    )
    def test_bad_tolerance_refused_at_load(self, tmp_path, block, message):
        # refused by the loader, as the grid and scheme blocks are, not
        # only later by the verbs' AllocationRequest
        text = ERLANG_YAML + f"tolerance:\n  {block}\n"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(_write(tmp_path, "cfg.yaml", text))

    def test_unknown_verify_method_rejected(self):
        with pytest.raises(ConfigError, match="verify method"):
            VerifySpec(method="crystal_ball")

    def test_bench_spec_validation(self):
        with pytest.raises(ConfigError, match="n_sweep"):
            BenchSpec(n_sweep=())
        with pytest.raises(ConfigError, match="reps"):
            BenchSpec(reps=0)
        # a zero tilt would time the untilted leg twice
        for tilt in (0.0, -0.2, math.nan, math.inf):
            with pytest.raises(ConfigError, match="tilt must be finite and > 0"):
                BenchSpec(tilt=tilt)

    def test_raw_matrix_exp_risk_block(self):
        data = yaml.safe_load(ERLANG_YAML)
        data["model"]["risks"] = [
            {"alpha": [1.0], "T": [[-2.0]], "u": [2.0]},
            {"kind": "exponential", "rate": 1.0},
        ]
        cfg = parse_config(data)
        model, _ = build_model_from_config(cfg.model)
        assert model.n == 2

    def test_katz_risks_share_a_severity_per_rate(self):
        # three equal risks form one class: one inverted column, the shares
        # of three distinct handles with equal parameters
        risk = {"a": 0.0, "b": 2.0, "severity": {"kind": "exponential", "rate": 1.0}}
        data = {"model": {"family": "katz_compound", "risks": [risk] * 3}, "grid": {"points": [1.0]}}
        spec = parse_config(data).model
        assert len({id(sev) for sev in spec.severities}) == 1
        model, _ = build_model_from_config(spec)
        assert model.m == 1 and model.risk_columns.tolist() == [0, 0, 0]
        twins = tuple(exponential_severity(1.0) for _ in range(3))
        plain = build_katz_compound(KatzCompoundSpec(spec.a, spec.b, twins))
        assert plain.m == 3 and plain.risk_columns.tolist() == [0, 1, 2]
        grid = tuple(np.arange(0.5, 15.0, 0.5))
        res, ref = (
            allocate(AllocationRequest(model=m, s_grid=grid, scheme=EulerScheme()))
            for m in (model, plain)
        )
        assert res.status == ref.status
        assert np.abs(res.h - ref.h).max() <= 1e-12

    def test_lognormal_moment_and_parameter_blocks_conflict(self):
        data = yaml.safe_load(ERLANG_YAML)
        del data["verify"]
        data["model"] = {
            "family": "lognormal",
            "means": [1.0],
            "variances": [1.0],
            "mu": [0.0],
            "sigma": [0.5],
        }
        with pytest.raises(ConfigError, match="not both"):
            parse_config(data)


# ---------------------------------------------------------------------------
# the YAML loader: yaml.load's data, built from the event stream

# the parent loader: the data of every document must equal what it gives
REFERENCE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
EVENT_LOADERS = [
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml"),
    ),
    pytest.param(yaml.SafeLoader, id="pure-python"),
]

# YAML 1.1 scalars with a reading of their own; written plain unless quoted
EDGE_SCALARS = [
    "yes", "No", "on", "OFF", "true", "~", "null", "", "''", '"1.5"', "'2'",
    "1.0e5", "-.5", "1e-300", "010", "1_000", "1:30", "-1:30.5", "0x1F", "0b101",
    ".nan", ".NaN", ".inf", "-.Inf", ".5", "123.", "-0", "+0", "0", "-0.0",
    "+1.5", "-7", "1.0e+5", "1.0E-5", "2.5e+400", "-1.0e-400", "1.5_0",
    "12345678901234567890", "2001-12-14", "1.2.3", "3 apples", "<<<", "==",
]


def _same_data(a, b) -> bool:
    """Equal YAML data: the same types throughout, keys in the same order,
    and floats equal with the same sign (NaN equal to NaN; ``math.copysign``
    tells -0.0 from 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (a == b or math.isnan(a) and math.isnan(b)) and math.copysign(
            1.0, a
        ) == math.copysign(1.0, b)
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same_data(ka, kb) and _same_data(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_data, a, b))
    return a == b


def _pool_text(n: int = 1000) -> str:
    """A replicated n-risk common-shock pool as ``yaml.safe_dump`` writes it."""
    cycled = [(0.8, 1.1, 0.6)[j % 3] for j in range(n)]
    scale = 2.5 / math.fsum(cycled)
    weights = [1.0 / n] * n
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    model = {
        "family": "common_shock_cp",
        "lambda0": 1.5,
        "lambdas": [v * scale for v in cycled],
        "beta0": 0.9,
        "betas": [(1.4, 0.7, 1.9)[j % 3] for j in range(n)],
        "weights": weights,
    }
    grid = {"points": [float(v) for v in np.linspace(0.1, 15.0, 100)]}
    return yaml.safe_dump({"model": model, "grid": grid, "scheme": {"rule": "euler"}}, sort_keys=False)


class TestYamlLoader:
    """``load_config`` reads the file's data from the parser's events, and
    hands what it does not build itself to ``yaml.load``.  Either way the data
    must be ``yaml.load``'s, under libyaml and under the pure-Python parser."""

    @pytest.fixture
    def read(self, tmp_path, monkeypatch):
        """read(text, loader) -> (_read_yaml's data, yaml.load calls made)."""
        calls = []
        real_load = yaml.load

        def counted_load(*args, **kwargs):
            calls.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(yaml, "load", counted_load)

        def read(text, loader):
            monkeypatch.setattr(cmrs.config, "_LOADER", loader)
            path = tmp_path / "doc.yaml"
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            calls.clear()
            return cmrs.config._read_yaml(str(path)), len(calls)

        return read

    @pytest.mark.parametrize("loader", EVENT_LOADERS)
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CONFIGS.glob("*.yaml")) + ["pool-1000"]
    )
    def test_configs_are_built_from_the_events(self, read, loader, name):
        text = _pool_text() if name == "pool-1000" else (CONFIGS / name).read_text()
        data, calls = read(text, loader)
        assert _same_data(data, yaml.load(text, Loader=REFERENCE_LOADER))
        assert calls == 0

    @pytest.mark.parametrize("loader", EVENT_LOADERS)
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_edge_scalars_keep_their_yaml_reading(self, read, loader, scalar):
        text = f"value: {scalar}\nnested:\n  list:\n  - {scalar}\n  - [{scalar or '~'}]\n"
        data, calls = read(text, loader)
        want = yaml.load(text, Loader=REFERENCE_LOADER)
        assert _same_data(data, want), (data, want)
        assert calls == 0

    @pytest.mark.parametrize("loader", EVENT_LOADERS)
    @pytest.mark.parametrize(
        "text",
        [
            "a: 1\nb: 2\na: 3\n",
            "1: int\n1.5: float\n-0.0: signed zero\n'1': str\n",
            "a: {b: [1, {c: [], d: {}}], e: -0.0}\n",
            "a: |\n  1.5\nb: >\n  true\n",
            "\ufeffa: 1.5\n",
            "a: 1\r\nb: [2.5, -0]\r\n",
        ],
        ids=["duplicate-key", "number-keys", "flow-nesting", "block-scalars", "bom", "crlf"],
    )
    def test_documents_built_from_the_events(self, read, loader, text):
        data, calls = read(text, loader)
        assert _same_data(data, yaml.load(text, Loader=REFERENCE_LOADER))
        assert calls == 0

    @pytest.mark.parametrize("loader", EVENT_LOADERS)
    @pytest.mark.parametrize(
        "text",
        [
            "a: &x [1, 2]\nb: *x\n",
            "a: &x 1.5\n",
            "a: !!float 1\n",
            "a: !!str 1.5\n",
            "base: &b {x: 1}\nc:\n  <<: *b\n  y: 2\n",
            "a:\n  <<: {x: 1}\n",
            "? [1, 2]\n: complex\n",
            "yes: bool key\n",
            "~: null key\n",
            "2001-12-14: date key\n",
            "a: =\n",
            "a: 1\n---\nb: 2\n",
            "",
            "# a comment only\n",
            "- 1\n- 2\n",
            "3.5\n",
        ],
        ids=[
            "anchor-alias", "anchor", "float-tag", "str-tag", "merge-alias", "merge",
            "complex-key", "bool-key", "null-key", "date-key", "value-scalar",
            "two-documents", "empty", "comment-only", "top-level-list", "top-level-scalar",
        ],
    )
    def test_documents_for_yaml_load(self, read, loader, text):
        try:
            want = yaml.load(text, Loader=REFERENCE_LOADER)
        except yaml.YAMLError:
            with pytest.raises(ConfigError, match="is not valid YAML"):
                read(text, loader)
            return
        data, calls = read(text, loader)
        assert _same_data(data, want)
        assert calls == 1

    @pytest.mark.parametrize("loader", EVENT_LOADERS)
    @pytest.mark.parametrize(
        "text",
        [
            "a: [1, 2\n",
            "a:\n\tb: 1\n",
            "a: 1\nb: {c: [1\n",
            "a: 1\n  b: 2\n",
            "a: 'open\n",
            "a: *undefined\n",
            "a: !!int x\n",
            b"# \xff\xfe not utf-8\n",
            b"a: 1.5\n" * 20000 + b"b: \xff\n",
            "a: \x07\n",
        ],
        ids=[
            "unclosed-flow", "tab-indent", "unclosed-nested", "bad-indent", "open-quote",
            "undefined-alias", "bad-int-tag", "non-utf-8", "non-utf-8-late", "control-char",
        ],
    )
    def test_malformed_files_keep_the_yaml_load_message(self, tmp_path, loader, monkeypatch, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with open(path) as fh:  # the message without the event stream
            with pytest.raises((yaml.YAMLError, ValueError)) as direct:
                yaml.load(fh, Loader=loader)
        monkeypatch.setattr(cmrs.config, "_LOADER", loader)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path} is not valid YAML: {direct.value}"

    @pytest.mark.parametrize("text", ["", "- 1\n- 2\n", "3\n", "~\n", "--- text\n"])
    def test_non_mapping_file_rejected(self, tmp_path, text):
        path = _write(tmp_path, "cfg.yaml", text)
        with pytest.raises(ConfigError, match=f"{re.escape(path)} does not contain a mapping"):
            load_config(path)


class TestCliWeights:
    def test_identities_printed(self, capsys):
        assert main(["weights", "--order", "8"]) == 0
        out = capsys.readouterr().out
        assert "order M = 8 (16 nodes)" in out
        assert "sum zeta_k = 0 (exact), sum zeta_k / k = 1 (exact)" in out

    def test_first_order_weights(self, capsys):
        assert main(["weights", "--order", "1"]) == 0
        out = capsys.readouterr().out
        assert "2/1" in out and "-2/1" in out

    def test_console_script_is_wired(self):
        # run the entry point that pyproject.toml declares the way the
        # installed console-script wrapper does, so the check needs no install
        try:
            import tomllib
        except ModuleNotFoundError:  # python < 3.11
            tomllib = pytest.importorskip("tomli")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["cmrs"]
        module, func = target.split(":")
        assert callable(getattr(importlib.import_module(module), func))
        src_dir = str(Path(cmrs.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                "weights",
                "--order",
                "3",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "order M = 3" in proc.stdout

    @pytest.mark.skipif(shutil.which("cmrs") is None, reason="no cmrs executable on PATH")
    def test_installed_console_script_runs(self):
        proc = subprocess.run(
            ["cmrs", "weights", "--order", "3"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "order M = 3" in proc.stdout


class TestCliAllocate:
    def test_csv_contract(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        out = tmp_path / "run.csv"
        code = main(["allocate", "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "wrote" in summary and "10 rows" in summary and "10 ok" in summary
        # the CSV write time is reported next to the engine's
        assert re.search(r"allocate \d+\.\d{3}s, csv \d+\.\d{3}s$", summary.strip())
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "s", "f_S", "xi_1", "xi_2", "h_1", "h_2", "sum_h", "balance_residual", "status",
        ]
        assert len(rows) == 11
        for row in rows[1:]:
            assert row[-1] == "ok"
            # every numeric cell round-trips through the 12-digit format
            for cell in row[:-1]:
                assert format(float(cell), ".12g") == cell

    def test_csv_bytes_pinned(self):
        # an origin atom row, then gridpoint rows holding -0, nan, +-inf and a
        # subnormal: each number is its %.12g text, comma-joined, "\n" ended
        model = build_common_shock_cp(
            CommonShockCPSpec(1.0, (0.5, 0.25), 2.0, (1.0, 3.0), (0.25, 0.75))
        )
        res = allocate(AllocationRequest(model=model, s_grid=(0.5, 2.0), scheme=EulerScheme()))
        res.density = np.array([-0.0, np.nan])
        res.xi = np.array([[1.0 / 3.0, 5e-324], [np.inf, -np.inf]])
        res.h = np.array([[0.125, 2.0 / 3.0], [0.0, 1e300]])
        res.sum_h = np.array([0.5, np.nan])
        res.balance_residual = np.array([1.2345678901234567e-5, np.inf])
        res.status = ["ok", "failed"]
        buf = io.StringIO()
        assert write_csv(res, buf) == 3
        assert buf.getvalue() == (
            "s,f_S,xi_1,xi_2,h_1,h_2,sum_h,balance_residual,status\n"
            "0,0.17377394345,0,0,0,0,0,0,atom\n"
            "0.5,-0,0.333333333333,4.94065645841e-324,0.125,0.666666666667,0.5,1.23456789012e-05,ok\n"
            "2,nan,inf,-inf,0,1e+300,nan,inf,failed\n"
        )

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        assert main(["allocate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("s,f_S,")
        assert "rows" in captured.err

    def test_reference_pool_golden_shape(self, tmp_path, capsys):
        # 750-point grid plus one atom row; the far tail fades by design, so
        # the run reports partial degradation via exit code 2
        out = tmp_path / "pool.csv"
        code = main(
            ["allocate", "--config", "configs/common_shock_pool.yaml", "--out", str(out)]
        )
        assert code == 2
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 752
        atom = rows[1]
        assert atom[-1] == "atom"
        assert float(atom[0]) == 0.0
        assert abs(float(atom[1]) - math.exp(-4.0)) < 1e-12
        # h at the origin atom, its columns found by name
        assert [float(atom[rows[0].index(f"h_{i}")]) for i in (1, 2, 3)] == [0.0] * 3
        data_status = {r[-1] for r in rows[2:]}
        assert "ok" in data_status
        assert data_status - {"ok"}  # and some degraded/failed tail

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["allocate", "--config", str(tmp_path / "absent.yaml")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["allocate"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliDiagnose:
    def test_clean_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        assert main(["diagnose", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "transform diagonal: max residual" in out
        assert "pass" in out
        assert "grid run clean" in out

    def test_tilt_sweep(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        assert main(["diagnose", "--config", cfg, "--sweep", "0,0.2"]) == 0
        out = capsys.readouterr().out
        assert "theta = 0:" in out
        assert "theta = 0.2:" in out

    def test_sweep_needs_euler(self, tmp_path, capsys):
        text = ERLANG_YAML.replace("rule: euler", "rule: gaver-stehfest")
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["diagnose", "--config", cfg, "--sweep", "0,0.2"]) == 1
        captured = capsys.readouterr()
        assert "tilt sweep needs the euler scheme" in captured.err
        # refused before the diagonal check prints anything
        assert captured.out == ""

    def test_negative_sweep_tilt_refused_before_output(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        assert main(["diagnose", "--config", cfg, "--sweep", "0.2,-0.5"]) == 1
        captured = capsys.readouterr()
        assert "tilt must be finite and >= 0, got -0.5" in captured.err
        assert captured.out == ""


_CS_MODEL = {
    "family": "common_shock_cp",
    "lambda0": 1.0,
    "lambdas": [0.8],
    "beta0": 1.0,
    "betas": [1.0],
    "weights": [1.0],
}


@pytest.mark.parametrize(
    "change, argv, message",
    [
        ({"model": 5}, ["diagnose"], "model must be a mapping"),
        ({"model": {**_CS_MODEL, "lambdas": 0.8}}, ["diagnose"], "model: "),
        ({"scheme": {"A": [1]}}, ["diagnose"], "scheme: "),
        ({"grid": {"points": 5}}, ["diagnose"], "grid.points: "),
        ({}, ["diagnose", "--sweep", "0,abc"], "argument --sweep"),
        (
            {"model": {k: v for k, v in _CS_MODEL.items() if k != "beta0"}},
            ["diagnose"],
            "model: missing key 'beta0'",
        ),
        (
            {"model": {k: v for k, v in _CS_MODEL.items() if k != "lambdas"}},
            ["diagnose"],
            "model: missing key 'lambdas'",
        ),
        (
            {"model": {"family": "matrix_exp", "risks": [{"kind": "erlang", "rate": 2.0}]}},
            ["diagnose"],
            "model: missing key 'k'",
        ),
        (
            {"model": {"family": "mixed_exp_frailty", "lambdas": [1.0], "mixing": {"law": "gamma"}}},
            ["diagnose"],
            "model: missing key 'alpha'",
        ),
        (
            {"model": {"family": "lognormal", "means": [1.0, 2.0]}},
            ["diagnose"],
            "model: missing key 'variances'",
        ),
        (
            {"model": {"family": "matrix_exp", "risks": [{"kind": "erlang", "k": 2.5, "rate": 2.0}]}},
            ["diagnose"],
            "k must be a whole number, got 2.5",
        ),
        (
            {
                "model": {
                    "family": "mixed_exp_frailty",
                    "lambdas": [1.0],
                    "mixing": {"law": "gamma", "alpha": 2.0, "n_nodes": 50.5},
                }
            },
            ["diagnose"],
            "n_nodes must be a whole number, got 50.5",
        ),
        (
            {"model": {"family": "lognormal", "means": [1.0], "variances": [1.0], "gh_order": 64.5}},
            ["diagnose"],
            "gh_order must be a whole number, got 64.5",
        ),
        ({"bench": {"n_sweep": [5, 100.5]}}, ["diagnose"], "n_sweep must be a whole number, got 100.5"),
        ({"bench": {"reps": 1.5}}, ["diagnose"], "reps must be a whole number, got 1.5"),
        ({"verify": {"n_samples": 20000.5}}, ["diagnose"], "n_samples must be a whole number, got 20000.5"),
        ({"verify": {"seed": 11.5}}, ["diagnose"], "seed must be a whole number, got 11.5"),
        ({"verify": {"method": "series", "tolerance": 0.0}}, ["diagnose"], "tolerance must be finite and > 0"),
        ({"verify": {"tolerance": -1e-3}}, ["diagnose"], "tolerance must be finite and > 0, got -0.001"),
        ({"verify": {"tolerance": float("inf")}}, ["diagnose"], "tolerance must be finite and > 0, got inf"),
        ({"verify": {"method": "mc", "bandwidth": 0.0}}, ["diagnose"], "bandwidth must be finite and > 0"),
        ({"verify": {"bandwidth": -0.05}}, ["diagnose"], "bandwidth must be finite and > 0, got -0.05"),
        ({"grid": {"start": 0.5, "stop": math.inf, "step": 0.5}}, ["diagnose"], "must be finite"),
        (
            {"grid": {"start": 0.1, "stop": 1.0e300, "step": 1.0}},
            ["allocate"],
            "grid: Maximum allowed size exceeded",
        ),
        (b"# \xff\xfe not utf-8\n", ["allocate"], "is not valid YAML"),
        ({"verify": {"seed": -3}}, ["verify"], "seed must lie in [0, 2**64), got -3"),
        ({}, ["verify", "--seed", "-1"], "seed must lie in [0, 2**64), got -1"),
        ({}, ["verify", "--seed", str(2**64)], "seed must lie in [0, 2**64)"),
        ({"tolerance": {"balance": math.inf}}, ["allocate"], "tolerance balance must be finite and positive, got inf"),
        ({"tolerance": {"density_floor": math.inf}}, ["allocate"], "tolerance density_floor must be finite and positive, got inf"),
        ({}, ["diagnose", "--tol", "-1"], "unrecognized arguments: --tol -1"),
        ({"verify": {"n_samples": "2.00005e4"}}, ["diagnose"], "n_samples must be a whole number, got 20000.5"),
        ({"scheme": {"rule": "euler", "A": True}}, ["allocate"], "scheme.A must not be a boolean, got True"),
        (b"tolerance:\n  balance: on\n", ["allocate"], "tolerance.balance must not be a boolean, got True"),
        (b"bench:\n  tilt: yes\n", ["diagnose"], "bench.tilt must not be a boolean, got True"),
        (
            {"model": {"family": "matrix_exp", "risks": [{"kind": "exponential", "rate": True}]}},
            ["allocate"],
            "model.risks[0].rate must not be a boolean, got True",
        ),
        ({"verify": {"method": "mc", "points": []}}, ["verify"], "verify points must be a nonempty list"),
        (
            {"verify": {"method": "mc", "points": [1.0, -2.0]}},
            ["verify"],
            "verify points must be a nonempty list of finite values > 0, got [1.0, -2.0]",
        ),
        ({"verify": {"method": "mc", "points": [math.nan]}}, ["diagnose"], "got [nan]"),
        (
            {"scheme": {"rule": "gaver-stehfest", "N": 16}},
            ["allocate"],
            "scheme keys ['N'] do not apply to rule 'gaver-stehfest'",
        ),
        (
            {"scheme": {"rule": "gaver-stehfest", "M": 10, "A": 30.4, "m": 15}},
            ["diagnose"],
            "scheme keys ['A', 'm'] do not apply to rule 'gaver-stehfest'",
        ),
        ({"scheme": {"rule": "euler", "M": 12}}, ["verify"], "scheme keys ['M'] do not apply to rule 'euler'"),
        ({"scheme": {"M": 12}}, ["allocate"], "scheme keys ['M'] do not apply to rule 'euler'"),
        (
            b"model:\n  family: common_shock_cp\n  lambda0: 1.5\n  lambdas: [0.8, 0.6]\n"
            b"  beta0: 0.9\n  betas: [1.4, 1.9]\n  weights: [.nan, 1.0]\n",
            ["allocate"],
            "weights[0] must be finite, got nan",
        ),
        (
            b"model:\n  family: katz_compound\n  risks:\n"
            b"  - {a: 0.0, b: .inf, severity: {kind: exponential, rate: 1.0}}\n",
            ["allocate"],
            "b[0] must be finite, got inf",
        ),
        (b"grid:\n  step: !!int x\n", ["allocate"], "is not valid YAML: invalid literal for int()"),
    ],
    ids=[
        "model-not-a-mapping",
        "lambdas-not-a-list",
        "scheme-A-not-a-number",
        "grid-points-not-a-list",
        "sweep-not-numbers",
        "common-shock-without-beta0",
        "common-shock-without-lambdas",
        "erlang-risk-without-k",
        "gamma-mixing-without-alpha",
        "lognormal-means-without-variances",
        "fractional-erlang-k",
        "fractional-mixing-n_nodes",
        "fractional-gh_order",
        "fractional-n_sweep",
        "fractional-bench-reps",
        "fractional-verify-n_samples",
        "fractional-verify-seed",
        "zero-verify-tolerance",
        "negative-verify-tolerance",
        "infinite-verify-tolerance",
        "zero-verify-bandwidth",
        "negative-verify-bandwidth",
        "infinite-grid-stop",
        "grid-too-long-to-build",
        "config-not-utf8",
        "negative-verify-seed",
        "negative-seed-option",
        "seed-option-beyond-u64",
        "infinite-balance-tolerance",
        "infinite-density-floor",
        "tol-option-removed",
        "fractional-n_samples-with-exponent",
        "boolean-scheme-A",
        "balance-tolerance-on",
        "bench-tilt-yes",
        "boolean-exponential-rate",
        "empty-verify-points",
        "negative-verify-point",
        "nan-verify-point",
        "euler-key-under-gaver-stehfest",
        "euler-keys-beside-gs-order",
        "gs-order-under-euler",
        "gs-order-under-default-rule",
        "nan-split-weight",
        "infinite-katz-b",
        "int-tag-on-a-word",
    ],
)
def test_bad_input_exits_one_without_traceback(tmp_path, capsys, change, argv, message):
    # ``change`` replaces blocks of the config, or as bytes ends its file
    if isinstance(change, bytes):
        text = ERLANG_YAML.encode() + change
    else:
        data = yaml.safe_load(ERLANG_YAML)
        data.update(change)
        text = yaml.safe_dump(data).encode()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(text)
    verb, *rest = argv
    assert main([verb, "--config", str(cfg), *rest]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""  # refused before any work is done


def test_malformed_yaml_exits_one_without_traceback(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML + "grid: {start: [1\n")
    assert main(["allocate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg} is not valid YAML")
    assert "Traceback" not in captured.err and captured.out == ""


class TestCliVerify:
    def test_closed_form_pass(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.yaml", ERLANG_YAML)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "closed_form reference" in out
        assert "pass" in out

    def test_series_pass(self, tmp_path, capsys):
        text = textwrap.dedent(
            """
            model:
              family: common_shock_cp
              lambda0: 1.5
              lambdas: [0.8, 1.1, 0.6]
              beta0: 0.9
              betas: [1.4, 0.7, 1.9]
              weights: [0.2, 0.3, 0.5]
            grid:
              start: 0.5
              stop: 10.0
              step: 0.5
            scheme:
              rule: euler
              theta: 0.2
            verify:
              method: series
              tolerance: 1.0e-3
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 0
        assert "series reference" in capsys.readouterr().out

    def test_series_pass_on_a_replicated_pool(self, tmp_path, capsys):
        # 300 risks over three cycled claim-size rates: the reference walks
        # the count vectors over the four distinct rates, whatever n is
        spec = _scaled_cscp(
            CommonShockCPSpec(1.5, (0.8, 1.1, 0.6), 0.9, (1.4, 0.7, 1.9), (0.2, 0.3, 0.5)), 300
        )
        doc = {
            "model": {
                "family": "common_shock_cp",
                "lambda0": spec.lambda0,
                "lambdas": list(spec.lambdas),
                "beta0": spec.beta0,
                "betas": list(spec.betas),
                "weights": list(spec.weights),
            },
            "grid": {"start": 0.5, "stop": 10.0, "step": 0.5},
            # shares are about s / 300, so 1e-3 would test little
            "verify": {"method": "series", "tolerance": 1.0e-6},
        }
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))
        assert main(["verify", "--config", cfg]) == 0
        assert "series reference over 20 points: " in capsys.readouterr().out

    @pytest.mark.parametrize("mass_tol", ["0.0", "1.0e-17"])
    def test_bad_series_mass_tol_exits_one(self, tmp_path, capsys, mass_tol):
        text = textwrap.dedent(
            f"""
            model:
              family: common_shock_cp
              lambda0: 1.5
              lambdas: [0.8, 1.1, 0.6]
              beta0: 0.9
              betas: [1.4, 0.7, 1.9]
              weights: [0.2, 0.3, 0.5]
            grid:
              points: [1.0, 2.0]
            verify:
              method: series
              mass_tol: {mass_tol}
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_mc_pass_is_seed_stable(self, tmp_path, capsys):
        text = textwrap.dedent(
            """
            model:
              family: matrix_exp
              risks:
                - kind: exponential
                  rate: 1.0
                - kind: exponential
                  rate: 1.0
                - kind: exponential
                  rate: 1.0
            grid:
              start: 0.5
              stop: 5.0
              step: 0.5
            scheme:
              rule: euler
            verify:
              method: mc
              tolerance: 1.0e-3
              points: [2.0]
              n_samples: 20000
              bandwidth: 0.1
              seed: 7
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--config", cfg]) == 0
        assert capsys.readouterr().out == first
        assert first.count("mc s=2") == 3

    @pytest.mark.parametrize(
        "grid, points, want",
        [
            (
                "{start: 0.1, stop: 10.0, step: 0.1}",
                "[1.0, 50.0]",
                "mc s=50: nearest gridpoint s=10 is ok and 40 away (half the grid step: 0.05): FAIL",
            ),
            (
                "{points: [1.0, 2.0, 40.0]}",
                "[40.0]",
                "mc s=40: nearest gridpoint s=40 is degraded and 0 away (half the grid step: 19): FAIL",
            ),
        ],
        ids=["beyond-the-grid", "not-ok"],
    )
    def test_mc_level_off_its_gridpoint_fails(self, tmp_path, capsys, grid, points, want):
        # a requested level is checked at its nearest gridpoint only: one
        # that is not ok, or more than half a grid step away, is a FAIL line
        # naming both levels, never a check at some other ok gridpoint
        text = textwrap.dedent(
            f"""
            model:
              family: matrix_exp
              risks:
                - kind: exponential
                  rate: 1.0
                - kind: exponential
                  rate: 1.0
                - kind: exponential
                  rate: 1.0
            grid: {grid}
            verify:
              method: mc
              tolerance: 1.0e-3
              points: {points}
              n_samples: 20000
              bandwidth: 0.1
              seed: 7
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 2
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [want]

    def test_mc_line_names_its_bound(self, tmp_path, capsys):
        # iid_exponential.yaml at s = 10, where the 200,000-sample window
        # holds few samples: 3se is far above the 1e-3 tolerance, so every
        # line says the tolerance is not resolved, and the pass rule
        # max(tol, 3se) still passes it
        doc = yaml.safe_load((CONFIGS / "iid_exponential.yaml").read_text())
        doc["verify"]["points"] = [10.0]
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        for i, line in enumerate(out[:3], start=1):
            assert line.startswith(f"mc s=10 risk {i}: |h - est| = ")
            assert ", bound 3se = " in line
            assert line.endswith(" (tolerance 0.001 not resolved): pass")
        assert out[3] == "mc: tolerance 0.001 not resolved at 3 of 3 compared shares (3se > tol)"

    def test_mc_line_names_a_resolved_tolerance(self, tmp_path, capsys):
        doc = yaml.safe_load((CONFIGS / "iid_exponential.yaml").read_text())
        doc["verify"].update(points=[3.0], tolerance=1.0)
        cfg = _write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(", bound tol = 1 (3se = " in line for line in out[:3])
        assert out[3] == "mc: tolerance 1 not resolved at 0 of 3 compared shares (3se > tol)"

    def test_method_none_is_an_error(self, tmp_path, capsys):
        text = ERLANG_YAML.replace("method: closed_form", "method: none")
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 1
        assert "nothing to check" in capsys.readouterr().err

    def test_closed_form_needs_supported_model(self, tmp_path, capsys):
        # two risks so the portfolio has ok gridpoints before the dispatch
        text = textwrap.dedent(
            """
            model:
              family: katz_compound
              risks:
                - a: 0.0
                  b: 1.0
                  severity:
                    kind: exponential
                    rate: 1.0
                - a: 0.0
                  b: 0.5
                  severity:
                    kind: exponential
                    rate: 2.0
            grid:
              start: 0.5
              stop: 3.0
              step: 0.5
            verify:
              method: closed_form
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 1
        assert "closed_form verification is only available" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first_risk",
        [
            "{alpha: [0.5, 0.5], T: [[-1.0, 0.0], [0.0, -3.0]], u: [1.0, 3.0]}",
            "{alpha: [0.7, 0.0], T: [[-2.0, 2.0], [0.0, -2.0]], u: [0.0, 2.0], p0: 0.3}",
        ],
        ids=["hyperexponential", "erlang-with-atom-at-zero"],
    )
    def test_closed_form_refuses_other_two_risk_portfolios(self, tmp_path, capsys, first_risk):
        # of the dimensions (2, 1) of Erlang(2)+Exp, but another law: the
        # closed form does not describe it, and the run says so
        text = ERLANG_YAML.replace(
            "- kind: erlang\n      k: 2\n      rate: 2.0", f"- {first_risk}"
        )
        assert first_risk in text
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["verify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "closed_form verification is only available" in captured.err
        assert captured.out == ""


class TestCliBench:
    def test_tiny_sweep_table(self, tmp_path, capsys):
        text = textwrap.dedent(
            """
            model:
              family: common_shock_cp
              lambda0: 1.5
              lambdas: [0.8, 1.1, 0.6]
              beta0: 0.9
              betas: [1.4, 0.7, 1.9]
              weights: [0.2, 0.3, 0.5]
            grid:
              start: 0.5
              stop: 5.0
              step: 0.5
            bench:
              n_sweep: [2, 4]
              reps: 1
              tilt: 0.2
            """
        )
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert main(["bench", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["n", "untilted_s", "tilted_s", "overhead"]
        assert len(out) == 3
        assert out[1].split()[0] == "2"
        assert out[2].split()[0] == "4"

    def test_bench_rows_report_positive_times(self, tmp_path):
        text = textwrap.dedent(
            """
            model:
              family: common_shock_cp
              lambda0: 1.5
              lambdas: [0.8]
              beta0: 0.9
              betas: [1.4]
              weights: [1.0]
            grid:
              start: 0.5
              stop: 2.0
              step: 0.5
            bench:
              n_sweep: [2]
              reps: 1
            """
        )
        cfg = load_config(_write(tmp_path, "cfg.yaml", text))
        rows = run_bench(cfg)
        assert len(rows) == 1
        assert rows[0].n == 2
        assert rows[0].seconds_untilted > 0.0
        assert rows[0].seconds_tilted > 0.0
        assert math.isfinite(rows[0].tilt_overhead)

    def test_missing_bench_block_rejected(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.yaml", ERLANG_YAML))
        with pytest.raises(ConfigError, match="bench block"):
            run_bench(cfg)


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["allocate", "--config", "configs/erlang_exponential.yaml"], 1),
        (["diagnose", "--config", "configs/erlang_exponential.yaml"], 1),
        (["verify", "--config", "configs/erlang_exponential.yaml"], 1),
        (["verify", "--config", "configs/common_shock_pool.yaml"], 1),
        (["bench"], 2),
    ],
    ids=["allocate", "diagnose", "verify-closed-form", "verify-series", "bench"],
)
def test_each_verb_builds_its_model_once(tmp_path, monkeypatch, capsys, argv, builds):
    names = []
    joint_model = cmrs.models._joint_model

    def counted(name, *args, **kwargs):
        names.append(name)
        return joint_model(name, *args, **kwargs)

    monkeypatch.setattr("cmrs.models._joint_model", counted)
    if argv == ["bench"]:
        # one model per portfolio size; the timing itself is not under test
        monkeypatch.setattr("cmrs.cli._BENCH_SAMPLE_S", 0.0)
        data = {
            "model": _CS_MODEL,
            "grid": {"points": [1.0]},
            "bench": {"n_sweep": [2, 4], "reps": 1},
        }
        argv = ["bench", "--config", _write(tmp_path, "cfg.yaml", yaml.safe_dump(data))]
    elif argv[0] == "allocate":
        argv = [*argv, "--out", str(tmp_path / "run.csv")]
    assert main(argv) in (0, 2)
    capsys.readouterr()
    assert len(names) == builds, names




class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_parses_and_builds(self, name):
        cfg = load_config(str(CONFIGS / name))
        model, _ = build_model_from_config(cfg.model)
        assert model.n >= 1
        assert len(cfg.grid.build()) >= 2


def test_public_names_sorted_unique_and_resolvable():
    # a name deleted from the package but left behind in __all__ fails here
    names = cmrs.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cmrs, name)] == []
