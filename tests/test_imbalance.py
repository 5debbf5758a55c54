"""Instances far into the unbalanced regime, where (1 + lambda_L) raised to
a neighborhood size passes the float range.

On K_{200,1} at lambda = (50, 0.1) the single R-vertex has 200 L-neighbors:
51**200 overflows a float, while its polymer weight 0.1 * 51**-200
underflows to 0 and log Z = 200 log 51 + log(1 + w) is about 786.37.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import bipcore as bc
from bipcore import Fugacities, cli, oracle
from bipcore.graph import graph_to_text

LAM = Fugacities(50.0, 0.1)


@pytest.fixture(scope="module")
def k200():
    return bc.complete_bipartite(200, 1)


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_polymer_weight_underflows_instead_of_raising(k200):
    assert bc.polymer_weight(k200, [0], LAM) == 0.0
    assert bc.polymer_weight(k200, [0], Fugacities(1.0, 0.5)) == 0.5 * 2.0**-200


def test_main_condition_past_the_float_range(k200):
    cond = bc.check_main_condition(k200, LAM)
    assert cond.satisfied and not cond.boundary
    assert math.isfinite(cond.rhs) and cond.lhs == pytest.approx(120.0)
    region = bc.check_complex_region(k200, bc.ComplexRegion(50.0, 0.1))
    assert region == cond


def test_certificates_past_the_float_range(k200):
    assert bc.certify_kp(k200, LAM).mode == "analytic"
    assert bc.certify_kp(k200, LAM, eta=2.0).mode == "empirical"
    # two R-vertices of degree 400: the tail envelope's (1 + lambda_L)**200
    # passes the float range too
    assert bc.certify_kp(bc.complete_bipartite(400, 2), LAM, eta=2.0).mode == "empirical"


def test_count_matches_the_oracle(k200):
    res = bc.approx_log_Z(k200, LAM, epsilon=0.1)
    exact = oracle.exact_log_Z(k200, LAM)
    assert exact == pytest.approx(200 * math.log(51.0), rel=1e-15)
    assert abs(res.log_Z_estimate - exact) <= res.error_bound + 1e-12 * abs(exact)


def test_truncated_sampler_and_cumulant(k200):
    sampler = bc.IndependentSetSampler(k200, LAM, backend="truncated")
    for s in sampler.draws(3, seed=0):
        assert not (("R", 0) in s and any(side == "L" for side, _ in s))
    q = bc.truncated_cumulant(k200, LAM, [0], m=4)
    assert q.value == 0.0 and math.isfinite(q.tail_bound)


@pytest.mark.parametrize("command", ["check", "count"])
def test_cli_json_is_standard(k200, tmp_path, capsys, command):
    path = tmp_path / "k200.graph"
    path.write_text(graph_to_text(k200))
    code = cli.main([command, str(path), "--lambda-l", "50", "--lambda-r", "0.1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = _strict_json(out)
    if command == "count":
        assert doc["log_Z_estimate"] == pytest.approx(200 * math.log(51.0), rel=1e-15)
    else:
        assert doc["main_condition"]["satisfied"] and doc["kp_certificate"]["valid"]


def test_an_overflowing_left_side_is_violated_not_at_the_boundary():
    # 24 * 1e308 is inf; inf against a finite right side is no boundary case
    c8 = bc.even_cycle(8)
    cond = bc.check_main_condition(c8, Fugacities(1.0, 1e308))
    assert math.isinf(cond.lhs) and cond.rhs == 2.0
    assert not cond.satisfied and not cond.boundary
    region = bc.check_complex_region(c8, bc.ComplexRegion(10.0, 1e308))
    assert math.isinf(region.lhs) and not region.satisfied and not region.boundary
    assert bc.certify_kp(c8, Fugacities(1.0, 1e308)).mode == "failed"


def test_an_overflowing_polymer_weight_fails_the_certificate():
    # lambda_R**2 = 1e612 passes the float range on every 2-vertex polymer
    c8, lam = bc.even_cycle(8), Fugacities(1.0, 1e306)
    cert = bc.certify_kp(c8, lam)
    assert cert.mode == "failed" and math.isinf(cert.margin)
    with pytest.raises(bc.SizeCapError):
        bc.IndependentSetSampler(c8, lam, backend="exact")


@pytest.mark.parametrize(
    "command, extra, code",
    [("check", [], 0), ("count", [], 2), ("sample", ["--backend", "exact"], 1)],
    ids=["check", "count", "sample"],
)
def test_cli_on_an_overflowing_polymer_weight(tmp_path, capsys, command, extra, code):
    path = tmp_path / "c8.graph"
    path.write_text(graph_to_text(bc.even_cycle(8)))
    argv = [command, str(path), "--lambda-l", "1", "--lambda-r", "1e306", "--json", *extra]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if command == "check":
        assert json.loads(captured.out)["kp_certificate"]["valid"] is False
    else:
        assert captured.out == ""
        err = json.loads(captured.err)  # one JSON error object
        want = "CertificationError" if code == 2 else "SizeCapError"
        assert err["error"]["type"] == want
