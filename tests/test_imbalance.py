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


_GRAPHS = {
    "k200": lambda: bc.complete_bipartite(200, 1),
    "c8": lambda: bc.even_cycle(8),
    "star1030": lambda: bc.complete_bipartite(1, 1030),  # log Z = 1030 log 2 > 709.8
}
_MARGINS = ["kp_certificate.margin", "kp_certificate.per_vertex_margins"]


@pytest.mark.parametrize(
    "graph, argv, nulls",
    [
        ("k200", ["check", "--lambda-l", "50", "--lambda-r", "0.1"], []),
        ("k200", ["count", "--lambda-l", "50", "--lambda-r", "0.1"], []),
        # the tail ratio reaches 1 at eta = 0.2: an unbounded margin
        ("c8", ["check", "--lambda-l", "1", "--lambda-r", "0.2", "--eta", "0.2"], _MARGINS),
        ("c8", ["check", "--lambda-l", "1", "--lambda-r", "1e308"],
         ["main_condition.lhs", "main_condition.ratio", *_MARGINS]),
        ("c8", ["exact", "--lambda-l", "10", "--lambda-r", "0.05", "--marginal", "R:0"], []),
        ("c8", ["exact", "--lambda-l-re", "-3", "--lambda-r-im", "0.2"], []),
        ("star1030", ["exact", "--lambda-l", "1", "--lambda-r", "1"], ["Z"]),
        ("c8", ["zeros", "--bound-l", "10", "--bound-r", "0.05", "--samples", "20"], []),
        ("c8", ["sample", "--lambda-l", "1", "--lambda-r", "0.5", "--draws", "3"], []),
    ],
    ids=[
        "check", "count", "check-inconclusive", "check-overflow", "exact",
        "exact-complex", "exact-overflow", "zeros", "sample",
    ],
)
def test_cli_json_is_standard(tmp_path, capsys, graph, argv, nulls):
    path = tmp_path / f"{graph}.graph"
    path.write_text(graph_to_text(_GRAPHS[graph]()))
    code = cli.main([argv[0], str(path), *argv[1:], "--json"])
    out = capsys.readouterr().out
    assert code == 0
    # sample writes one line per draw, then its summary
    doc = [_strict_json(line) for line in out.splitlines()][-1]
    for field in nulls:
        section, _, key = field.rpartition(".")
        assert (doc[section] if section else doc)[key] is None, field
    if argv[0] == "count":
        assert doc["log_Z_estimate"] == pytest.approx(200 * math.log(51.0), rel=1e-15)
    elif graph == "k200":
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


@pytest.mark.parametrize("eta", [700.0, 1000.0, 1e308])
def test_a_rate_past_the_float_range_fails_the_certificate(eta):
    # e**((1/2 + eta) |gamma|) and the tail's e**(3/2 + eta) pass the float range
    c8 = bc.even_cycle(8)
    cert = bc.certify_kp(c8, Fugacities(10.0, 0.05), eta=eta)
    assert cert.mode == "failed" and math.isinf(cert.margin)
    # a zero weight stays 0 at any rate
    cert = bc.certify_kp(c8, Fugacities(1.0, 0.0), eta=eta)
    assert cert.mode == "empirical" and cert.margin == 0.0


def test_a_vertex_sum_past_the_float_range_fails_the_certificate(tmp_path, capsys):
    # K_{1,3} at lambda_R = 1e154: each 2-set's term is about 1.7e308, so the
    # two through a vertex already sum past the float range
    g, lam = bc.complete_bipartite(1, 3), Fugacities(1.0, 1e154)
    cert = bc.certify_kp(g, lam)
    assert cert.mode == "failed" and cert.margin == math.inf
    assert cert.per_vertex == tuple(bc.kp_vertex_sum(g, v, lam, 0.1, 6) for v in range(3))
    assert all(s.partial == math.inf for s in cert.per_vertex)
    path = tmp_path / "k13.graph"
    path.write_text(graph_to_text(g))
    code = cli.main(["check", str(path), "--lambda-l", "1", "--lambda-r", "1e154", "--json"])
    assert code == 0
    assert _strict_json(capsys.readouterr().out)["kp_certificate"]["valid"] is False


def test_a_subnormal_weight_times_an_overflowing_exponential_is_finite():
    # e**720.5 alone passes the float range, but 1e-320 / 4 * e**720.5 is
    # about 1e-8: the term is taken through logs, not rounded up to inf
    cert = bc.certify_kp(bc.even_cycle(8), Fugacities(1.0, 1e-320), eta=720.0)
    assert cert.mode == "empirical" and 0 < cert.margin < 1e-6


_OVERFLOWING_WEIGHT = ["--lambda-l", "1", "--lambda-r", "1e306"]
_OVERFLOWING_RATE = ["--lambda-l", "10", "--lambda-r", "0.05", "--eta", "1000"]


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("check", _OVERFLOWING_WEIGHT, 0),
        ("count", _OVERFLOWING_WEIGHT, 2),
        ("sample", [*_OVERFLOWING_WEIGHT, "--backend", "exact"], 1),
        ("check", _OVERFLOWING_RATE, 0),
        ("count", _OVERFLOWING_RATE, 2),
    ],
    ids=["check", "count", "sample", "check-eta", "count-eta"],
)
def test_cli_on_an_overflowing_polymer_weight(tmp_path, capsys, command, extra, code):
    # a weight, or a term at a large rate, past the float range fails the
    # certificate: check reports it, count refuses, and nothing raises
    path = tmp_path / "c8.graph"
    path.write_text(graph_to_text(bc.even_cycle(8)))
    argv = [command, str(path), "--json", *extra]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if command == "check":
        assert _strict_json(captured.out)["kp_certificate"]["valid"] is False
    else:
        assert captured.out == ""
        err = json.loads(captured.err)  # one JSON error object
        want = "CertificationError" if code == 2 else "SizeCapError"
        assert err["error"]["type"] == want
