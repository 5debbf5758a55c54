"""Set-partition combinatorics, truncated joint cumulants, decay experiments."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    CertificationError,
    ClusterBudgetError,
    Fugacities,
    SizeCapError,
    bell_number,
    cumulant_decay_constant,
    cumulants_from_moments,
    decay_experiment,
    decay_rows_to_csv,
    indicator_cumulant_bound,
    moments_from_cumulants,
    set_partitions,
    straddling_constant,
    straddling_partition_sum,
    truncated_cumulant,
)
from bipcore import cli, clusters, cumulants
from bipcore.cumulants import DecayRow
from bipcore.graph import graph_to_text


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


# ---------------------------------------------------------------------------
# set partitions

@pytest.mark.parametrize("n", range(7))
def test_set_partition_counts(n):
    parts = list(set_partitions(range(n)))
    assert len(parts) == BELL[n]
    assert len(set(map(frozenset, (map(frozenset, p) for p in parts)))) == len(parts)
    for p in parts:
        merged = [x for block in p for x in block]
        assert sorted(merged) == list(range(n))
        assert all(block for block in p)


def test_set_partition_empty_and_cap():
    assert list(set_partitions(()))== [()]
    with pytest.raises(SizeCapError):
        list(set_partitions(range(9)))


def test_bell_numbers():
    assert [bell_number(k) for k in range(9)] == BELL


def test_indicator_cumulant_bound_values():
    # hand sums of S(k,j)(j-1)!: 1; 1+1; 1+3+2; 1+7+12+6; 1+15+50+60+24
    assert [indicator_cumulant_bound(k) for k in range(1, 6)] == [
        1.0,
        2.0,
        6.0,
        26.0,
        150.0,
    ]
    with pytest.raises(ValueError):
        indicator_cumulant_bound(0)


def test_indicator_cumulant_bound_matches_partition_sum():
    # independent route: enumerate partitions and sum (|pi|-1)! directly
    for k in range(1, 8):
        direct = sum(
            math.factorial(len(p) - 1) for p in set_partitions(range(k))
        )
        assert indicator_cumulant_bound(k) == float(direct)


def test_decay_constant_closed_form():
    # sum_{y>=1} y x^(y-1) = (1-x)^(-2) with x = e^(-eta)
    for eta in (0.05, 0.1, 0.3, 1.0):
        for a in (1, 2, 3):
            closed = (1.0 - math.exp(-eta)) ** (-2 * a)
            assert cumulant_decay_constant(a, eta) == pytest.approx(
                closed, rel=1e-9
            )
    with pytest.raises(ValueError):
        cumulant_decay_constant(0, 0.1)
    with pytest.raises(ValueError):
        cumulant_decay_constant(1, 0.0)
    with pytest.raises(ValueError, match="eta must be positive, got nan"):
        cumulant_decay_constant(1, math.nan)


def test_straddling_constant_composition():
    for n in (1, 2, 3, 4):
        assert straddling_constant(n) == bell_number(n) * (
            indicator_cumulant_bound(n) ** n
        )


# ---------------------------------------------------------------------------
# moment <-> cumulant conversions

def test_moment_from_cumulant_small_cases():
    k = {frozenset({0}): 2.0, frozenset({1}): 3.0, frozenset({0, 1}): 0.25}
    assert moments_from_cumulants(k, [0]) == 2.0
    assert moments_from_cumulants(k, [0, 1]) == pytest.approx(0.25 + 6.0)
    mu = {frozenset({0}): 2.0, frozenset({1}): 3.0, frozenset({0, 1}): 6.25}
    assert cumulants_from_moments(mu, [0, 1]) == pytest.approx(0.25)


def test_missing_entries_raise():
    with pytest.raises(ValueError):
        moments_from_cumulants({frozenset({0}): 1.0}, [0, 1])
    with pytest.raises(ValueError):
        cumulants_from_moments({frozenset({0}): 1.0}, [0, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_round_trip_inversion(n, data):
    items = tuple(range(n))
    subsets = [
        frozenset(s)
        for mask in range(1, 1 << n)
        for s in [[i for i in items if mask >> i & 1]]
    ]
    kappa = {
        s: data.draw(
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
            label=f"kappa{sorted(s)}",
        )
        for s in subsets
    }
    mu = {s: moments_from_cumulants(kappa, tuple(s)) for s in subsets}
    for s in subsets:
        back = cumulants_from_moments(mu, tuple(s))
        assert back == pytest.approx(kappa[s], rel=1e-10, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_straddling_identity(na, nb, data):
    A = tuple(range(na))
    B = tuple(range(na, na + nb))
    items = A + B
    n = len(items)
    subsets = [
        frozenset(s)
        for mask in range(1, 1 << n)
        for s in [[items[i] for i in range(n) if mask >> i & 1]]
    ]
    kappa = {
        s: data.draw(st.floats(-1.5, 1.5, allow_nan=False), label=str(sorted(s)))
        for s in subsets
    }
    lhs = straddling_partition_sum(kappa, A, B)
    rhs = (
        moments_from_cumulants(kappa, items)
        - moments_from_cumulants(kappa, A) * moments_from_cumulants(kappa, B)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_straddling_rejects_overlap():
    with pytest.raises(ValueError):
        straddling_partition_sum({}, [0, 1], [1, 2])


# ---------------------------------------------------------------------------
# truncated cumulants against the exact oracle

CERT_G = bc.even_cycle(8)
CERT_LAM = Fugacities(10.0, 0.05)  # 6*2*2*0.05 = 1.2 <= 11: analytic


def test_singleton_matches_occupancy_within_tail():
    for v in range(CERT_G.n_R):
        q = truncated_cumulant(CERT_G, CERT_LAM, [v], m=8)
        exact = bc.exact_marginal(CERT_G, CERT_LAM, ("R", v))
        assert abs(q.value - exact) <= q.tail_bound
        assert q.tail_bound == pytest.approx(10.0 * math.exp(-1.0))  # sup at t=1/eta
        assert q.vertices == (v,)
        assert q.cluster_count > 0


def test_pair_matches_covariance_within_tail():
    for A in ([0, 1], [0, 2], [1, 3]):
        q = truncated_cumulant(CERT_G, CERT_LAM, A, m=8)
        exact = bc.exact_covariance(CERT_G, CERT_LAM, ("R", A[0]), ("R", A[1]))
        assert abs(q.value - exact) <= q.tail_bound + 1e-15


def test_deep_truncation_converges():
    exact = bc.exact_cumulant(CERT_G, CERT_LAM, [("R", 0), ("R", 1)])
    q = truncated_cumulant(CERT_G, CERT_LAM, [0, 1], m=14)
    assert q.value == pytest.approx(exact, abs=1e-8)


def test_tail_bound_monotone_in_m():
    tails = [
        truncated_cumulant(CERT_G, CERT_LAM, [0], m=m).tail_bound
        for m in (2, 6, 10, 12, 14)
    ]
    assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))
    # beyond the maximizer a/eta the sup sits at t = m itself
    q = truncated_cumulant(CERT_G, CERT_LAM, [0], m=14)
    assert q.tail_bound == pytest.approx(14.0 * math.exp(-1.4))


def test_uncertified_tail_is_infinite():
    g = bc.star_center_L(2)
    lam = Fugacities(1.0, 1.0)
    q = truncated_cumulant(g, lam, [0], m=4)
    assert math.isinf(q.tail_bound)
    assert math.isfinite(q.value)


def test_across_components_is_zero():
    g = bc.BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    q = truncated_cumulant(g, Fugacities(10.0, 0.05), [0, 1], m=10)
    assert q.value == 0.0


def test_vertex_set_validation():
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, CERT_LAM, [], m=4)
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, CERT_LAM, [0, 0], m=4)
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, CERT_LAM, [("L", 0)], m=4)
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, CERT_LAM, [99], m=4)
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, CERT_LAM, [0], m=0)
    with pytest.raises(ValueError):
        truncated_cumulant(CERT_G, Fugacities(complex(10), complex(0.05)), [0], m=4)


def test_accepts_side_tuples_and_sorts():
    q = truncated_cumulant(CERT_G, CERT_LAM, [("R", 3), ("R", 1)], m=6)
    assert q.vertices == (1, 3)


# ---------------------------------------------------------------------------
# decay experiments

def test_decay_rows_on_cycle():
    queries = [
        ("pair", ("R", 0), ("R", 1)),
        ("pair", ("R", 0), ("R", 2)),
        ("pair", ("L", 0), ("R", 2)),
        ("cumulant", [0, 1]),
        ("cumulant", [0, 1, 2]),
        ("set_pair", [("R", 0)], [("R", 2), ("R", 3)]),
        ("set_pair", [("L", 0), ("R", 0)], [("R", 2)]),
    ]
    rows = decay_experiment(CERT_G, CERT_LAM, queries, m=8)
    assert [r.query_id for r in rows] == list(range(len(queries)))
    assert all(r.satisfied for r in rows)
    assert all(r.bound > 0 and r.value >= 0 for r in rows)
    kinds = [r.kind for r in rows]
    assert kinds == [q[0] for q in queries]


def test_decay_pair_bound_formula():
    rows = decay_experiment(CERT_G, CERT_LAM, [("pair", ("R", 0), ("R", 2))])
    (row,) = rows
    d = bc.graph_distance(CERT_G, [("R", 0)], [("R", 2)])
    assert row.distance_or_mst == d
    assert row.bound == pytest.approx(
        cumulant_decay_constant(2, 0.1) * math.exp(-0.1 * d / 2.0)
    )


@pytest.mark.parametrize(
    "g", [bc.even_cycle(8), bc.random_biregular(2, 4, 16, seed=0)], ids=["c8", "rb2-4-16"]
)
def test_decay_pair_is_the_set_pair_of_two_singletons(g):
    lam = Fugacities(10.0, 0.05)
    R = [("R", j) for j in range(g.n_R)]
    pairs = [(u, v) for i, u in enumerate(R) for v in R[i + 1:]]
    pairs += [(("L", i), v) for i in range(g.n_L) for v in (("L", (i + 1) % g.n_L), ("R", 0))]
    as_pairs = decay_experiment(g, lam, [("pair", u, v) for u, v in pairs])
    as_sets = decay_experiment(g, lam, [("set_pair", [u], [v]) for u, v in pairs])
    assert len(as_pairs) == len(as_sets) == len(pairs)
    for p, q, (u, v) in zip(as_pairs, as_sets, pairs):
        assert (p.value, p.bound, p.distance_or_mst) == (q.value, q.bound, q.distance_or_mst)
        assert p.value == abs(bc.exact_covariance(g, lam, u, v))
        if u[0] == "R":  # the pair's rule: one cumulant, not straddling_constant(2) of them
            assert p.bound == cumulant_decay_constant(2, 0.1) * math.exp(
                -0.1 * p.distance_or_mst / 2.0
            )


def test_decay_monotone_in_distance():
    g = bc.even_cycle(16)
    rows = decay_experiment(
        g,
        CERT_LAM,
        [("pair", ("R", 0), ("R", k)) for k in (1, 2, 3, 4)],
    )
    vals = [r.value for r in rows]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_decay_skips_identical_pair():
    rows = decay_experiment(
        CERT_G,
        CERT_LAM,
        [("pair", ("R", 0), ("R", 0)), ("pair", ("R", 0), ("R", 1))],
    )
    assert len(rows) == 1
    assert rows[0].query_id == 1  # ids index the original query list


def test_decay_rejects_bad_queries():
    with pytest.raises(ValueError):
        decay_experiment(CERT_G, CERT_LAM, [("mystery", 1)])
    with pytest.raises(ValueError):
        decay_experiment(
            CERT_G, CERT_LAM, [("set_pair", [("R", 0)], [("R", 0)])]
        )
    with pytest.raises(CertificationError):
        decay_experiment(bc.star_center_L(2), Fugacities(1.0, 1.0), [("cumulant", [0])])


@pytest.mark.parametrize("m", [0, -5])
def test_decay_rejects_a_depth_below_one_before_any_query(m, monkeypatch):
    def no_query(*args):
        raise AssertionError("a query ran")

    monkeypatch.setattr(bc.oracle, "exact_covariance", no_query)
    monkeypatch.setattr(bc.oracle, "exact_marginal", no_query)
    queries = [("pair", ("R", 0), ("R", 2)), ("set_pair", [("R", 0)], [("R", 2)])]
    with pytest.raises(ValueError, match="^m must be at least 1$"):
        decay_experiment(CERT_G, CERT_LAM, queries, m=m)


def test_disconnected_pair_distance_inf():
    g = bc.BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    rows = decay_experiment(
        g, Fugacities(10.0, 0.05), [("pair", ("R", 0), ("R", 1))]
    )
    assert math.isinf(rows[0].distance_or_mst)
    assert rows[0].bound == 0.0


def test_csv_format():
    rows = [
        DecayRow(0, "pair", 2.0, 0.125, 0.5, True),
        DecayRow(3, "cumulant", math.inf, 0.0, 0.0, False),
    ]
    text = decay_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "query_id,kind,distance_or_mst,value,bound,satisfied"
    assert lines[1] == "0,pair,2,0.125,0.5,true"
    assert lines[2] == "3,cumulant,inf,0.0,0.0,false"
    assert text.endswith("\n")
    # repr round-trips the floats exactly
    assert float(lines[1].split(",")[3]) == 0.125


def test_csv_matches_experiment():
    rows = decay_experiment(CERT_G, CERT_LAM, [("cumulant", [0, 2])])
    text = decay_rows_to_csv(rows)
    body = text.splitlines()[1].split(",")
    assert body[1] == "cumulant"
    assert float(body[3]) == abs(rows[0].value)
    assert float(body[4]) == rows[0].bound


def test_cumulant_budget_does_not_depend_on_earlier_queries(monkeypatch):
    # the cached engine keeps its memo between queries; each query must still
    # succeed or fail exactly as it does on a fresh engine
    g, lam, m, budget = bc.even_cycle(16), Fugacities(10.0, 0.05), 8, 750
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", budget)
    queries = ([1, 2], [3, 4, 5], [2, 6], [0, 7, 3], [0])

    def outcome(A):
        try:
            return truncated_cumulant(g, lam, A, m)
        except ClusterBudgetError:
            return ClusterBudgetError

    fresh = []
    for A in queries:
        cumulants._cluster_table.cache_clear()
        fresh.append(outcome(A))
    assert fresh[-1] is not ClusterBudgetError  # the last query fits alone
    cumulants._cluster_table.cache_clear()
    try:
        for A, want in zip(queries, fresh):
            assert outcome(A) == want  # equal dataclasses: bit for bit
            assert cumulants._cluster_table(g, lam, m)._stored <= budget
    finally:
        cumulants._cluster_table.cache_clear()


@pytest.mark.parametrize("eta", [0.1, 1.0, 2.0])
def test_set_pair_bound_charges_the_distance_loss_at_rate_eta(eta):
    # L:0 and R:2 of C_8 are at distance 3; reducing L:0 to its two
    # R-neighbours loses 2 of it, which costs e^(eta), not e^1
    g, lam = bc.even_cycle(8), Fugacities(10.0, 0.001)
    (row,) = decay_experiment(g, lam, [("pair", ("L", 0), ("R", 2))], eta=eta)
    assert row.distance_or_mst == 3
    derived = (
        2.0**2
        * straddling_constant(3)
        * cumulant_decay_constant(3, eta)
        * math.exp(-eta * (3 - 2) / 2.0)
    )
    assert row.bound >= derived


def test_set_pair_bound_past_the_float_range_is_infinite(tmp_path, capsys):
    # 20 R-neighbors per L-vertex: straddling_constant(40) passes the float range
    g = bc.complete_bipartite(3, 20)
    lam = Fugacities(1e4, 1e-4)
    rows = decay_experiment(
        g, lam, [("pair", ("L", 0), ("L", 1)), ("set_pair", [("L", 0)], [("L", 1)])]
    )
    assert [r.bound for r in rows] == [math.inf, math.inf]
    assert all(r.satisfied for r in rows)
    path = tmp_path / "k320.graph"
    path.write_text(graph_to_text(g))
    code = cli.main(
        ["decay", str(path), "--lambda-l", "1e4", "--lambda-r", "1e-4", "--pair", "L:0,L:1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].split(",")[4:] == ["inf", "true"]


def test_cumulant_bound_past_the_float_range_is_infinite(tmp_path, capsys):
    # C(2) = (1 - e**-1e-80)**-4 = 1e320 passes the float range
    path = tmp_path / "c8.graph"
    path.write_text(graph_to_text(bc.even_cycle(8)))
    code = cli.main(
        ["decay", str(path), "--lambda-l", "10", "--lambda-r", "0.05",
         "--cumulant", "R:0,R:1", "--eta", "1e-80"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].split(",")[4:] == ["inf", "true"]
