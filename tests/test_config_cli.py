import csv
import importlib
import io
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import cmrs
from cmrs.cli import main, run_bench, run_verify, write_csv
from cmrs.config import (
    BenchSpec,
    GridSpec,
    ModelConfig,
    RunConfig,
    SchemeSpec,
    VerifySpec,
    build_model_from_config,
    config_to_dict,
    dump_config,
    load_config,
    parse_config,
)
from cmrs.errors import ConfigError, InversionError, ModelSpecError
from cmrs.inversion import EulerScheme, GsScheme

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


class TestConfigParsing:
    def test_parse_and_build_reference_pool(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.yaml", ERLANG_YAML))
        assert cfg.model.family == "matrix_exp"
        assert cfg.verify.method == "closed_form"
        model, spec = build_model_from_config(cfg.model)
        assert model.n == 2
        assert len(spec) == 2

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
        with pytest.raises(ConfigError, match="family"):
            ModelConfig(family="weibull", params={})

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

    def test_scientific_notation_strings_coerced(self, tmp_path):
        # yaml reads dot-less exponents as strings; the loader must not
        text = ERLANG_YAML + 'tolerance:\n  balance: "1e-3"\n  density_floor: "1e-300"\n'
        cfg = load_config(_write(tmp_path, "cfg.yaml", text))
        assert cfg.tolerance.balance == 1e-3
        assert cfg.tolerance.density_floor == 1e-300

    def test_non_numeric_scalar_rejected(self, tmp_path):
        text = ERLANG_YAML + 'tolerance:\n  balance: "ten"\n'
        with pytest.raises(ConfigError, match="balance"):
            load_config(_write(tmp_path, "cfg.yaml", text))

    def test_round_trip_is_exact(self, tmp_path):
        text = ERLANG_YAML + 'tolerance:\n  balance: 1.0e-3\n  density_floor: "1e-300"\n'
        cfg = load_config(_write(tmp_path, "cfg.yaml", text))
        out = tmp_path / "dumped.yaml"
        dump_config(cfg, str(out))
        again = load_config(str(out))
        assert again == cfg

    def test_dumped_model_block_is_flat(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.yaml", ERLANG_YAML))
        d = config_to_dict(cfg)
        assert d["model"]["family"] == "matrix_exp"
        assert "risks" in d["model"]
        assert "params" not in d["model"]

    def test_non_mapping_file_rejected(self, tmp_path):
        path = _write(tmp_path, "cfg.yaml", "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_unknown_verify_method_rejected(self):
        with pytest.raises(ConfigError, match="verify method"):
            VerifySpec(method="crystal_ball")

    def test_bench_spec_validation(self):
        with pytest.raises(ConfigError, match="n_sweep"):
            BenchSpec(n_sweep=())
        with pytest.raises(ConfigError, match="reps"):
            BenchSpec(reps=0)

    def test_raw_matrix_exp_risk_block(self):
        data = yaml.safe_load(ERLANG_YAML)
        data["model"]["risks"] = [
            {"alpha": [1.0], "T": [[-2.0]], "u": [2.0]},
            {"kind": "exponential", "rate": 1.0},
        ]
        cfg = parse_config(data)
        model, _ = build_model_from_config(cfg.model)
        assert model.n == 2

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
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "s", "f_S", "xi_1", "xi_2", "h_1", "h_2", "pi_1", "pi_2",
            "sum_h", "balance_residual", "status",
        ]
        assert len(rows) == 11
        for row in rows[1:]:
            assert row[-1] == "ok"
            # every numeric cell round-trips through the 12-digit format
            for cell in row[:-1]:
                assert format(float(cell), ".12g") == cell

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
        assert float(atom[4]) == 0.0  # h at the origin atom
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
        assert "tilt sweep needs the euler scheme" in capsys.readouterr().err


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


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "common_shock_pool.yaml",
            "erlang_exponential.yaml",
            "iid_exponential.yaml",
            "lognormal_pool.yaml",
            "clayton_mixed_exp.yaml",
            "bench_common_shock.yaml",
        ],
    )
    def test_parses_and_builds(self, name):
        cfg = load_config(f"configs/{name}")
        model, _ = build_model_from_config(cfg.model)
        assert model.n >= 1
        assert len(cfg.grid.build()) >= 2
