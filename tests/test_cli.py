"""End-to-end command-line behavior: outputs, formats, exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipcore as bc
from bipcore import cli
from bipcore.graph import graph_to_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def biregular_file(tmp_path):
    g = bc.random_biregular(2, 4, 4, seed=1)
    p = tmp_path / "biregular.txt"
    p.write_text(graph_to_text(g))
    return str(p)


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "k11.txt"
    p.write_text(graph_to_text(bc.complete_bipartite(1, 1)))
    return str(p)


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "c8.txt"
    p.write_text(graph_to_text(bc.even_cycle(8)))
    return str(p)


# ---------------------------------------------------------------------------
# gen + exact round trip

def test_gen_then_exact_counts_path(tmp_path, capsys):
    out = tmp_path / "p3.txt"
    code, _, _ = run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(
        capsys, "exact", str(out), "--lambda-l", "1", "--lambda-r", "1"
    )
    assert code == 0
    assert stdout.strip() == "Z = 5"


def test_gen_families(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(
        capsys, "gen", "--family", "random_biregular",
        "--d-l", "2", "--d-r", "4", "--n-l", "4", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    g = bc.load_graph(out.read_text())
    prof = bc.degree_profile(g)
    assert prof.is_biregular
    assert (prof.delta_L_min, prof.delta_R_min) == (2, 4)


def test_gen_missing_param_exits_1(capsys):
    code, _, err = run(capsys, "gen", "--family", "path")
    assert code == 1
    assert "error" in err


def test_gen_unknown_family_exits_1(capsys):
    code, _, _ = run(capsys, "gen", "--family", "hypercube")
    assert code == 1


# ---------------------------------------------------------------------------
# check

def test_check_text(biregular_file, capsys):
    code, out, _ = run(
        capsys, "check", biregular_file, "--lambda-l", "50", "--lambda-r", "0.1"
    )
    assert code == 0
    assert "main condition: satisfied" in out
    assert "certificate: analytic" in out
    assert "valid=yes" in out


def test_check_json_with_corollary(biregular_file, capsys):
    code, out, _ = run(
        capsys, "check", biregular_file, "--json",
        "--lambda-l", "60", "--lambda-r", "60", "--corollary", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["main_condition"]["satisfied"] is True
    assert doc["main_condition"]["lhs"] == pytest.approx(6 * 2 * 4 * 60)
    assert doc["main_condition"]["rhs"] == pytest.approx(61.0**2)
    assert doc["kp_certificate"]["valid"] is True
    # biregular with d_R > d_L and equal activities above (6 d_L d_R)^(d_L/(d_R-d_L)) = 48
    assert doc["corollary"] == {"part": 2, "satisfied": True}


def test_check_json_keeps_the_per_vertex_margins_key(cycle_file, capsys):
    # the key stays in the pinned check --json document, filled from margin
    code, out, _ = run(
        capsys, "check", cycle_file, "--json", "--lambda-l", "10", "--lambda-r", "0.05",
        "--eta", "0.5",
    )
    assert code == 0
    cert = json.loads(out)["kp_certificate"]
    assert cert["mode"] == "empirical"
    assert cert["per_vertex_margins"] == cert["margin"]


def test_check_corollary_structural_mismatch_exits_1(biregular_file, capsys):
    code, _, err = run(
        capsys, "check", biregular_file,
        "--lambda-l", "50", "--lambda-r", "0.1", "--corollary", "2",
    )
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# count

def test_count_json_stable_modulo_wall_time(biregular_file, capsys):
    argv = ("count", biregular_file, "--json", "--lambda-l", "50",
            "--lambda-r", "0.1", "--eps", "0.01")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    t1, t2 = d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    assert t1 >= 0 and t2 >= 0
    assert set(d1) == {
        "log_Z_estimate", "epsilon", "m_used", "eta", "certificate_mode",
        "error_bound", "n_L", "n_R",
    }
    assert d1["certificate_mode"] == "analytic"
    assert abs(d1["log_Z_estimate"] - bc.exact_log_Z(
        bc.random_biregular(2, 4, 4, seed=1), bc.Fugacities(50.0, 0.1)
    )) <= 0.01


def test_count_warns_when_the_budget_degrades(tmp_path, capsys, monkeypatch):
    # one below the 27 coefficients of the Xi_S that K_{3,6}'s one log
    # memoises at every m > 6
    monkeypatch.setattr(bc.clusters, "MAX_COEFFICIENTS", 26)
    p = tmp_path / "k36.txt"
    p.write_text(graph_to_text(bc.complete_bipartite(3, 6)))
    argv = ("count", str(p), "--lambda-l", "200", "--lambda-r", "0.05", "--eps", "0.001")
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    assert "warning: cluster budget forced truncation depth down" in err
    assert set(json.loads(out)) == {
        "log_Z_estimate", "epsilon", "m_used", "eta", "certificate_mode",
        "error_bound", "n_L", "n_R", "wall_time_ms",
    }
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "warning: cluster budget forced truncation depth down" in err
    assert out.startswith("log Z estimate = ")


def test_count_text(edge_file, capsys):
    code, out, _ = run(
        capsys, "count", edge_file, "--lambda-l", "10", "--lambda-r", "0.1",
        "--eps", "0.1",
    )
    assert code == 0
    assert out.startswith("log Z estimate = ")
    assert "certificate analytic" in out


def test_count_refusal_exits_2(edge_file, capsys):
    code, _, err = run(
        capsys, "count", edge_file, "--lambda-l", "1", "--lambda-r", "1"
    )
    assert code == 2
    assert "try `exact`" in err


def test_count_refusal_json_error(edge_file, capsys):
    code, out, err = run(
        capsys, "count", edge_file, "--json", "--lambda-l", "1", "--lambda-r", "1"
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "CertificationError"
    assert "try `exact`" in doc["error"]["message"]


def test_count_refuses_an_infinite_epsilon_with_an_explicit_depth(cycle_file, capsys):
    # --m skips choose_m, not its rule for epsilon
    code, out, err = run(
        capsys, "count", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
        "--eps", "inf", "--m", "5", "--json",
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == {
        "type": "ValueError", "message": "epsilon must be positive and finite, got inf"
    }


def test_count_depth_below_one_exits_1(cycle_file, capsys):
    code, out, err = run(
        capsys, "count", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05", "--m", "0"
    )
    assert code == 1 and out == ""
    assert err == "error: m must be at least 1\n"


def _dumped_values(err):
    lines = [l for l in err.splitlines() if l]
    assert all(l.startswith("set=") and " value=" in l for l in lines)
    return [float(l.rpartition("value=")[2]) for l in lines]


def test_count_dump_clusters(edge_file, capsys):
    code, _, err = run(
        capsys, "count", edge_file, "--lambda-l", "10", "--lambda-r", "0.1",
        "--eps", "0.1", "--m", "3", "--dump-clusters",
    )
    assert code == 0
    values = _dumped_values(err)
    assert len(values) == 1  # K_{1,1} has one 2-linked set, {0}
    lam = bc.Fugacities(10.0, 0.1)
    assert math.fsum(values) == bc.truncated_expansion(bc.complete_bipartite(1, 1), lam, 3).value


def test_count_dump_clusters_on_a_ten_cycle(tmp_path, capsys):
    # the five R-vertices of C_10 are 2-linked in a 5-cycle: 20 arcs and the
    # whole set, all below m = 29
    p = tmp_path / "c10.txt"
    p.write_text(graph_to_text(bc.even_cycle(10)))
    code, out, err = run(
        capsys, "count", str(p), "--lambda-l", "1", "--lambda-r", "0.075",
        "--eps", "0.3", "--dump-clusters",
    )
    assert code == 0
    assert "m=29" in out
    values = _dumped_values(err)
    assert len(values) == 21
    lam = bc.Fugacities(1.0, 0.075)
    assert math.fsum(values) == bc.truncated_expansion(bc.even_cycle(10), lam, 29).value


def test_count_dump_clusters_warns_when_the_table_does_not_fit(tmp_path, capsys, monkeypatch):
    # the count reaches m = 90 with one log per component; the table at
    # m = 90 holds 5,187 coefficients, past the budget, so the dump is
    # skipped with a warning
    monkeypatch.setattr(bc.clusters, "MAX_COEFFICIENTS", 2_000)
    p = tmp_path / "c16.txt"
    p.write_text(graph_to_text(bc.even_cycle(16)))
    argv = ("count", str(p), "--lambda-l", "20", "--lambda-r", "0.05", "--eps", "0.001", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, dumped, err = run(capsys, *argv, "--dump-clusters")
    assert code == 0
    assert json.loads(out)["m_used"] == json.loads(dumped)["m_used"] == 90
    warnings = [l for l in err.splitlines() if "cluster table" in l]
    assert warnings == [
        "warning: the cluster table at m=90 passes the cluster budget; no clusters dumped"
    ]
    assert not any(l.startswith("set=") for l in err.splitlines())


# ---------------------------------------------------------------------------
# exact

def test_exact_json_and_marginals(edge_file, capsys):
    code, out, _ = run(
        capsys, "exact", edge_file, "--json", "--lambda-l", "10",
        "--lambda-r", "0.1", "--marginal", "R:0", "--marginal", "L:0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == pytest.approx(11.1)
    assert doc["log_Z"] == pytest.approx(math.log(11.1))
    assert doc["marginals"]["R:0"] == pytest.approx(0.1 / 11.1)
    assert doc["marginals"]["L:0"] == pytest.approx(10.0 / 11.1)


def test_exact_text_marginal(edge_file, capsys):
    code, out, _ = run(
        capsys, "exact", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--marginal", "R:0",
    )
    assert code == 0
    assert "Z = 3" in out
    assert "Pr[R:0 occupied] = 0.3333333333" in out


@pytest.mark.parametrize("n_R", [1017, 1030])
def test_exact_prints_z_while_it_fits_a_float(n_R, tmp_path, capsys):
    # log Z = 1017 log 2 = 704.9 still fits; 1030 log 2 = 714 does not
    g = bc.complete_bipartite(1, n_R)
    p = tmp_path / "star.txt"
    p.write_text(graph_to_text(g))
    argv = ("exact", str(p), "--lambda-l", "1", "--lambda-r", "1")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    code, text, _ = run(capsys, *argv)
    assert code == 0
    if n_R == 1017:
        assert doc["Z"] == bc.exact_Z(g, bc.Fugacities(1.0, 1.0))
        assert text.startswith("Z = ")
    else:
        assert doc["Z"] is None
        assert text.startswith("log Z = ")


def test_exact_complex_point(edge_file, capsys):
    code, out, _ = run(
        capsys, "exact", edge_file, "--json",
        "--lambda-l-re", "-12", "--lambda-r-re", "0.1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["Z_re"] == pytest.approx(-10.9)
    assert doc["Z_im"] == pytest.approx(0.0)
    assert doc["abs_Z"] == pytest.approx(10.9)


@pytest.mark.parametrize("command", ["check", "count", "sample", "decay"])
def test_complex_activity_flags_only_on_exact(command, cycle_file, capsys):
    # these commands reject complex activities on every path, so the flags
    # are not registered and a usage error names the flag
    for flag in ("--lambda-l-re", "--lambda-l-im", "--lambda-r-re", "--lambda-r-im"):
        code, _, err = run(capsys, command, cycle_file, flag, "1")
        assert code == 1
        assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("command", ["count", "sample", "decay"])
def test_max_clusters_flag_is_gone(command, cycle_file, capsys):
    # the series-coefficient budget is a library constant, not an option
    code, _, err = run(
        capsys, command, cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
        "--max-clusters", "1000",
    )
    assert code == 1
    assert err.startswith("error: ") and "--max-clusters" in err


def test_exact_rejects_mixed_activity_flags(edge_file, capsys):
    code, _, _ = run(
        capsys, "exact", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--lambda-l-re", "2",
    )
    assert code == 1


def test_exact_rejects_complex_marginal(edge_file, capsys):
    code, _, _ = run(
        capsys, "exact", edge_file, "--lambda-l-re", "2", "--lambda-r-re", "0.1",
        "--marginal", "R:0",
    )
    assert code == 1


def test_exact_bad_vertex_token(edge_file, capsys):
    code, _, _ = run(
        capsys, "exact", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--marginal", "Q:0",
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("exact", "--marginal", "R:x"), "bad vertex index in 'R:x'"),
        (("decay", "--cumulant", ""), "--cumulant needs at least one vertex"),
        (("decay", "--set-pair", "R:0"), "--set-pair takes two sets separated by '|', got 'R:0'"),
        (("decay", "--set-pair", "R:0|"), "--set-pair sets must be nonempty"),
    ],
    ids=["marginal-index", "empty-cumulant", "set-pair-no-bar", "set-pair-empty-side"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_bad_vertex_specs_exit_1(cycle_file, capsys, argv, message, as_json):
    command, *rest = argv
    flags = ["--json"] if as_json else []
    code, out, err = run(
        capsys, command, cycle_file, "--lambda-l", "10", "--lambda-r", "0.05", *rest, *flags
    )
    assert code == 1 and out == ""
    if as_json:
        assert json.loads(err)["error"]["message"] == message
    else:
        assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# sample

def test_sample_json_lines(edge_file, capsys):
    code, out, _ = run(
        capsys, "sample", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--draws", "5", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[:5]:
        draw = json.loads(line)
        assert all(side in ("L", "R") and isinstance(i, int) for side, i in draw)
    summary = json.loads(lines[5])
    assert summary["backend"] == "exact"
    assert summary["draws"] == 5
    assert summary["seed"] == 3
    assert 0 <= summary["mean_R_occupied"] <= summary["mean_size"] <= 1


def test_sample_deterministic(edge_file, capsys):
    argv = ("sample", edge_file, "--lambda-l", "2", "--lambda-r", "0.5",
            "--draws", "10", "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_sample_warns_when_the_depth_cap_binds(cycle_file, capsys):
    # C_8 at eps=0.05 asks for m=65, above the truncated backend's cap
    argv = ("sample", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
            "--draws", "2")
    code, out, err = run(capsys, *argv, "--backend", "truncated")
    assert code == 0
    assert "warning: truncation depth capped at m=24 (requested m=65)" in err
    summary = json.loads(out.strip().splitlines()[-1])
    assert sorted(summary) == [
        "backend", "draws", "epsilon", "mean_R_occupied", "mean_size", "seed",
    ]
    code, _, err = run(capsys, *argv, "--backend", "exact")
    assert code == 0
    assert err == ""


def test_sample_uncertified_truncated_exits_2(edge_file, capsys):
    code, _, _ = run(
        capsys, "sample", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--backend", "truncated",
    )
    assert code == 2


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_sample_needs_at_least_one_draw(edge_file, capsys, draws):
    code, out, err = run(
        capsys, "sample", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--draws", draws,
    )
    assert code == 1
    assert out == ""
    assert err == "error: need at least one draw\n"


def test_sample_writes_each_line_as_it_is_drawn(cycle_file, capsys, monkeypatch):
    real_draws = cli.IndependentSetSampler.draws
    out = io.StringIO()

    def draws(self, n, seed):
        for k, s in enumerate(real_draws(self, n, seed)):
            assert out.getvalue().count("\n") == k
            yield s

    monkeypatch.setattr(cli.IndependentSetSampler, "draws", draws)
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main(["sample", cycle_file, "--lambda-l", "1", "--lambda-r", "0.5",
                     "--backend", "exact", "--draws", "50"])
    assert code == 0
    assert out.getvalue().count("\n") == 51


def test_sample_out_file_holds_the_stdout_bytes(cycle_file, tmp_path, capsys):
    argv = ("sample", cycle_file, "--lambda-l", "1", "--lambda-r", "0.5",
            "--backend", "exact", "--draws", "300", "--seed", "4")
    _, out, _ = run(capsys, *argv)
    dest = tmp_path / "s.jsonl"
    code, stdout, _ = run(capsys, *argv, "--out", str(dest))
    assert code == 0 and stdout == ""
    assert dest.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (("--backend", "truncated"), 2, "convergence certification failed"),
        (("--seed", "-1"), 1, "expected non-negative integer"),
    ],
)
def test_sample_failing_before_the_first_draw_creates_no_out_file(
    edge_file, tmp_path, capsys, flags, code, message
):
    dest = tmp_path / "s.jsonl"
    got, out, err = run(
        capsys, "sample", edge_file, "--lambda-l", "1", "--lambda-r", "1",
        "--out", str(dest), *flags,
    )
    assert got == code and out == ""
    assert message in err
    assert not dest.exists()


# peak RSS of the CLI, run in its own process
_PEAK_RSS = """
import resource, sys
from bipcore.cli import main
code = main(sys.argv[1:])
# ru_maxrss is in KiB on Linux, in bytes on macOS
scale = 1 if sys.platform == "darwin" else 1024
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale)
sys.exit(code)
"""
STREAM_RSS_SLACK_MB = 4.0


def test_sample_streams_in_bounded_memory(tmp_path):
    # 16 L-vertices at p_in = 1/2 and P(no polymer) = 0.96: no-polymer
    # draws whose L-sets are nearly all distinct, none kept for sharing.
    # Blocks of uniforms and the line-by-line writer are bounded, so
    # 200,000 draws peak within a few MB of 1,000 draws; keeping the draws
    # or every L-set would take tens of MB more
    graph = tmp_path / "c32.txt"
    graph.write_text(graph_to_text(bc.even_cycle(32)))
    path = [str(Path(bc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def peak_mb(draws: int) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "sample", str(graph), "--lambda-l", "1",
             "--lambda-r", "0.01", "--draws", str(draws), "--out", str(tmp_path / "s.jsonl")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) / 2**20

    small = peak_mb(1_000)
    assert peak_mb(200_000) - small < STREAM_RSS_SLACK_MB


# ---------------------------------------------------------------------------
# decay

def test_decay_csv_output(cycle_file, capsys):
    code, out, _ = run(
        capsys, "decay", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
        "--pair", "R:0,R:2", "--cumulant", "R:0,R:1", "--set-pair", "R:0|R:2,R:3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query_id,kind,distance_or_mst,value,bound,satisfied"
    assert len(lines) == 4
    kinds = [l.split(",")[1] for l in lines[1:]]
    assert kinds == ["pair", "cumulant", "set_pair"]
    assert all(l.endswith("true") for l in lines[1:])


def test_decay_rows_across_components_hold(tmp_path, capsys):
    two_squares = [(i, j) for c in (0, 2) for i in (c, c + 1) for j in (c, c + 1)]
    path = tmp_path / "c4c4.graph"
    path.write_text(graph_to_text(bc.BipartiteGraph(4, 4, two_squares)))
    code, out, _ = run(
        capsys, "decay", str(path), "--lambda-l", "10", "--lambda-r", "0.05",
        "--pair", "R:0,R:2", "--pair", "R:0,R:1", "--set-pair", "R:0|R:2,L:3",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    # rows 0 and 2 join the two squares; row 1 stays inside one
    assert [r.split(",")[2:] for r in rows[::2]] == [["inf", "0.0", "0.0", "true"]] * 2
    assert all(r.endswith(",true") for r in rows) and len(rows) == 3


def test_decay_needs_a_query(cycle_file, capsys):
    code, _, _ = run(
        capsys, "decay", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05"
    )
    assert code == 1


def test_decay_pair_arity(cycle_file, capsys):
    code, _, _ = run(
        capsys, "decay", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
        "--pair", "R:0",
    )
    assert code == 1


def test_decay_uncertified_exits_2(cycle_file, capsys):
    code, _, _ = run(
        capsys, "decay", cycle_file, "--lambda-l", "1", "--lambda-r", "1",
        "--pair", "R:0,R:2",
    )
    assert code == 2


@pytest.mark.parametrize("m", ["0", "-5"])
@pytest.mark.parametrize(
    "query", [("--pair", "R:0,R:2"), ("--cumulant", "R:0"), ("--set-pair", "R:0|R:2")]
)
def test_decay_depth_below_one_exits_1_for_every_query_kind(cycle_file, capsys, m, query):
    code, out, err = run(
        capsys, "decay", cycle_file, "--lambda-l", "10", "--lambda-r", "0.05",
        *query, "--m", m,
    )
    assert code == 1 and out == ""
    assert err == "error: m must be at least 1\n"


# ---------------------------------------------------------------------------
# zeros

def test_zeros_json(edge_file, capsys):
    code, out, _ = run(
        capsys, "zeros", edge_file, "--json", "--bound-l", "10",
        "--bound-r", "0.1", "--samples", "50",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "samples", "min_abs_Z", "argmin_lambda_L_re", "argmin_lambda_L_im",
        "argmin_lambda_R_re", "argmin_lambda_R_im", "zeros_found",
        "bound_L", "bound_R",
    }
    assert doc["samples"] == 50
    assert doc["zeros_found"] == 0
    assert doc["min_abs_Z"] > 0


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["exact", "--lambda-l-re", "nan", "--lambda-r-re", "0.1"], "lambda_L=(nan+0j)"),
        (["zeros", "--bound-l", "inf", "--bound-r", "0.1"], "bound_L=inf"),
    ],
    ids=["exact", "zeros"],
)
def test_non_finite_complex_input_exits_1(edge_file, capsys, argv, bad):
    code, _, err = run(capsys, argv[0], edge_file, "--json", *argv[1:])
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["type"] == "ValueError" and bad in doc["error"]["message"]


def test_zeros_uncertified_region_exits_2(cycle_file, capsys):
    code, _, _ = run(
        capsys, "zeros", cycle_file, "--bound-l", "1", "--bound-r", "1",
        "--samples", "10",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# plumbing

def test_missing_file_exits_1(capsys):
    code, _, err = run(
        capsys, "exact", "/nonexistent/g.txt", "--lambda-l", "1", "--lambda-r", "1"
    )
    assert code == 1
    assert "error" in err


def test_missing_file_json_error(capsys):
    code, _, err = run(
        capsys, "exact", "/nonexistent/g.txt", "--json",
        "--lambda-l", "1", "--lambda-r", "1",
    )
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["type"] == "FileNotFoundError"


def test_malformed_graph_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 1\n0 7\n")
    code, _, _ = run(capsys, "exact", str(p), "--lambda-l", "1", "--lambda-r", "1")
    assert code == 1


def test_no_command_exits_1(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "sample" in out


def test_missing_activities_exit_1(edge_file, capsys):
    code, _, _ = run(capsys, "count", edge_file)
    assert code == 1


def test_out_flag_writes_file(edge_file, tmp_path, capsys):
    dest = tmp_path / "res.json"
    code, out, _ = run(
        capsys, "exact", edge_file, "--json", "--lambda-l", "1",
        "--lambda-r", "1", "--out", str(dest),
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["Z"] == pytest.approx(3.0)


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bipcore.cli", "gen", "--family", "even_cycle", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    g = bc.load_graph(proc.stdout)
    assert (g.n_L, g.n_R) == (2, 2)


def test_generator_failure_is_one_json_error(capsys):
    code, out, err = run(
        capsys, "gen", "--family", "random_biregular",
        "--d-l", "3", "--d-r", "10", "--n-l", "100", "--json",
    )
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "GenerationError"
