"""Smoke test of the benchmark itself: every workload at a tiny size, both
modes, every named metric present with its unit; and the output checker
rejects perturbed shares.

Run from the repository root:  python3 -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from bench import E2E_UNITS, LAYER_UNITS, Bench, measure  # noqa: E402
from checks import evaluate  # noqa: E402
from workloads import NAMES, attach_reference, make_workload  # noqa: E402


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_declared_metrics_match_the_code():
    e2e, layer, workloads = _declared()
    assert e2e == E2E_UNITS
    assert layer == LAYER_UNITS
    assert workloads == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    wl = make_workload(name, seed=3, tiny=True)
    result = measure(wl, seconds=0.0, trace=trace, out_dir=str(tmp_path))
    assert result["info"]["failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER_UNITS if trace else E2E_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), k
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in E2E_UNITS)
    json.dumps({k: v for k, v in result.items() if k != "info"})


def test_seed_zero_is_the_shipped_parameters():
    wl = make_workload("cs_wide_fade", seed=0)
    assert wl.config["model"]["lambdas"] == [0.8, 1.1, 0.6]
    assert wl.config["model"]["betas"] == [1.4, 0.7, 1.9]
    assert make_workload("cs_wide_fade", seed=5).config == make_workload("cs_wide_fade", 5).config
    assert make_workload("cs_wide_fade", seed=5).config != wl.config


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """name -> (workload, config, legs) of one checked tiny run at seed 0."""
    out = {}
    for name in NAMES:
        wl = make_workload(name, seed=0, tiny=True)
        bench = Bench(wl, str(tmp_path_factory.mktemp(name) / "w.yaml"))
        cfg, _, requests = bench.setup()
        attach_reference(wl, requests[0].s_grid)
        _, _, legs, _ = bench.run(requests)
        assert evaluate(wl, legs, cfg.tolerance.balance)[1] == []
        out[name] = (wl, cfg, legs)
    return out


def _perturb(legs, index, fn):
    leg, result, scan = legs[index]
    h = result.h.copy()
    fn(h, result)
    out = list(legs)
    out[index] = (leg, dataclasses.replace(result, h=h), scan)
    return out


def _first_ok(result):
    return result.status.index("ok")


@pytest.mark.parametrize("name", NAMES)
def test_checker_rejects_shares_off_the_reference(name, checked):
    wl, cfg, legs = checked[name]
    euler = [k for k, (leg, _, _) in enumerate(legs) if leg.rule == "euler"][0]

    def shift(h, result):
        h[_first_ok(result), 0] += 10 * wl.ref_tol

    _, failures = evaluate(wl, _perturb(legs, euler, shift), cfg.tolerance.balance)
    assert any("reference" in f for f in failures)


def test_checker_rejects_unequal_exchangeable_shares(checked):
    wl, cfg, legs = checked["cs_large_pool"]
    group = wl.groups[0]

    def tweak(h, result):
        h[_first_ok(result), group[1]] *= 1.0 + 1e-6

    _, failures = evaluate(wl, _perturb(legs, 0, tweak), cfg.tolerance.balance)
    assert any("exchangeable" in f for f in failures)


def test_checker_rejects_fade_out_of_order(checked):
    wl, cfg, legs = checked["cs_wide_fade"]
    # the untilted leg's scan handed to the tilted leg: the fades tie
    swapped = [legs[0], legs[1], (legs[2][0], legs[2][1], legs[1][2])]
    _, failures = evaluate(wl, swapped, cfg.tolerance.balance)
    assert any("out of order" in f for f in failures)


def test_checker_rejects_unbalanced_ok_points(checked):
    wl, cfg, legs = checked["me_erlang_pool"]
    leg, result, scan = legs[0]
    resid = result.balance_residual.copy()
    resid[_first_ok(result)] = 2 * cfg.tolerance.balance
    bad = [(leg, dataclasses.replace(result, balance_residual=resid), scan)]
    _, failures = evaluate(wl, bad, cfg.tolerance.balance)
    assert any("budget residual" in f for f in failures)
