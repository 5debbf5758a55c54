"""The expansion engine over R-vertex sets, against the cluster reference."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import ClusterBudgetError, Fugacities, SeriesEngine
from bipcore import clusters, kernels
from bipcore.clusters import ClusterEngine
from bipcore.graph import _bits, _components
from bipcore.polymers import _connected_sets, _fsum, _link_masks, _two_linked_sets, _weight

from conftest import random_bipartite


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _sets_below_m(engine: SeriesEngine) -> list[int]:
    """Every 2-linked set of R-vertices below m, by ascending size: the
    order in which the engine builds its plain table."""
    full = (1 << engine.graph.n_R) - 1
    return sorted(_two_linked_sets(engine._links, full, engine.m - 1), key=int.bit_count)


def _polymers_inside(engine: ClusterEngine, S: int) -> int:
    """Polymer-index mask of the reference universe's polymers inside S."""
    out = 0
    for i, p in enumerate(engine.system.polymers):
        if p.mask & ~S == 0:
            out |= 1 << i
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
def test_series_log_xi_matches_cluster_sum(seed, m, complex_mode):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 5, 0.5)
    lam_L, lam_R = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0))
    if complex_mode:
        lam = Fugacities(complex(lam_L, float(rng.uniform(-2, 2))),
                         complex(lam_R, float(rng.uniform(-1, 1))))
    else:
        lam = Fugacities(lam_L, lam_R)
    series = SeriesEngine(g, lam, m)
    ref = ClusterEngine(g, lam, max_size=max(m - 1, 1))
    full = (1 << g.n_R) - 1
    assert _close(series.log_xi(), ref.truncated_log_xi(m))
    for S in [full, *(int(rng.integers(0, full + 1)) for _ in range(3))]:
        want = ref.truncated_log_xi(m, allowed=_polymers_inside(ref, S))
        assert _close(series.log_xi(S), want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_series_cumulant_matches_cluster_formula(seed, m):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 5, 0.5)
    lam = Fugacities(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0)))
    series = SeriesEngine(g, lam, m)
    table = list(ClusterEngine(g, lam, max_size=max(m - 1, 1)).clusters(m))
    for _ in range(3):
        k = int(rng.integers(1, min(3, g.n_R) + 1))
        A = [int(v) for v in rng.choice(g.n_R, k, replace=False)]
        want = math.fsum(
            c.contribution * math.prod(c.y_count(v) for v in A) for c in table
        )
        got, count = series.cumulant(sum(1 << v for v in A))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert count == sum(1 for T in _sets_below_m(series) if all(T >> v & 1 for v in A))


def _moebius_over_all_subsets(engine: SeriesEngine) -> dict[int, float]:
    """c_T by subtracting every 2-linked proper subset of T: the Moebius step
    before it went through min T, kept as the reference."""
    links = _link_masks(engine.graph)
    table: dict[int, list[float]] = {}
    for T in _sets_below_m(engine):
        t = T.bit_count()
        f = engine._log_coefficients(T, [])
        for sub in _two_linked_sets(links, T, t - 1):
            h = table[sub]
            lo = engine.m - len(h)
            f[lo:] = [a - c for a, c in zip(f[lo:], h)]
        table[T] = f[t:]
    return {T: _fsum(f) for T, f in table.items()}


def _exact_log_xi(g: bc.BipartiteGraph, lam: Fugacities, S: int, m: int) -> Fraction:
    """T_m(S) in exact rationals: Xi_S(z) sums lambda_R**|U| r**|N(U)| z**|U|
    over the subsets U of S, r = 1/(1 + lambda_L), and the coefficients F_k
    of its log, k F_k = k X_k - sum_j j F_j X_{k-j}, are summed below z**m."""
    counts: Counter[tuple[int, int]] = Counter()
    U = S
    while True:
        nb = 0
        for v in _bits(U):
            nb |= g.adj_R[v]
        counts[U.bit_count(), nb.bit_count()] += 1
        if U == 0:
            break
        U = (U - 1) & S
    lam_R, r = Fraction(lam.lambda_R), 1 / (1 + Fraction(lam.lambda_L))
    X = [Fraction(0)] * m
    for (k, b), c in counts.items():
        if k < m:
            X[k] += c * lam_R**k * r**b
    F = [Fraction(0)] * m
    for k in range(1, m):
        F[k] = X[k] - sum((j * F[j] * X[k - j] for j in range(1, k)), Fraction(0)) / k
    return sum(F, Fraction(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_log_xi_by_components_matches_the_set_sum(seed, m):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 6, 10, float(rng.uniform(0.15, 0.5)))
    lam = Fugacities(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0)))
    engine = SeriesEngine(g, lam, m)
    plain = engine.set_contributions()
    ref = _moebius_over_all_subsets(SeriesEngine(g, lam, m))
    assert plain.keys() == ref.keys()
    for T, c in plain.items():
        assert _close(c, ref[T])
    full = (1 << g.n_R) - 1
    for S in [0, full, *(int(rng.integers(0, full + 1)) for _ in range(8))]:
        got = engine.log_xi(S)
        assert _close(got, math.fsum(c for T, c in plain.items() if T & ~S == 0))
        assert _close(got, float(_exact_log_xi(g, lam, S, m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data(), st.booleans())
def test_terms_match_their_definition(seed, data, complex_mode):
    # two disjoint random pieces: the full R side spans at least two link
    # components, and random subsets of it often do too
    rng = np.random.Generator(np.random.Philox(seed))
    a = random_bipartite(rng, 4, 5, float(rng.uniform(0.2, 0.6)))
    b = random_bipartite(rng, 4, 5, float(rng.uniform(0.2, 0.6)))
    g = bc.BipartiteGraph(
        a.n_L + b.n_L,
        a.n_R + b.n_R,
        [*a.edges, *((u + a.n_L, v + a.n_R) for u, v in b.edges)],
    )
    lam_L, lam_R = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0))
    if complex_mode:
        lam = Fugacities(complex(lam_L, 0.5), complex(lam_R, -0.25))
    else:
        lam = Fugacities(lam_L, lam_R)
    m = data.draw(st.integers(1, g.n_R + 1), label="m")
    engine = SeriesEngine(g, lam, m)
    links = _link_masks(g)
    full = (1 << g.n_R) - 1
    subsets = [full, *(int(rng.integers(1, full + 1)) for _ in range(8))]
    assert len(list(_components(links, full))) >= 2
    for S in subsets:
        want = []
        for gamma in _connected_sets(links, (S & -S).bit_length() - 1, m - 1, S):
            blocked, nbhd = gamma, 0
            for v in _bits(gamma):
                blocked |= links[v]
                nbhd |= g.adj_R[v]
            want.append((gamma, S & ~blocked, _weight(lam, gamma.bit_count(), nbhd.bit_count())))
        got = engine.terms(S)
        assert got == want  # same order, same bits
        assert [type(w) for _, _, w in got] == [type(w) for _, _, w in want]
        if m == 1:
            assert got == []


def _xi_by_min_vertex(engine: SeriesEngine, S: int, memo: dict[int, list]) -> list:
    """Xi_S by the recursion on v = min S: the engine before it pivoted on a
    leaf, kept as the reference."""
    if S == 0:
        return [1.0]
    if S not in memo:
        out = list(_xi_by_min_vertex(engine, S & (S - 1), memo))
        if len(out) < engine.m:
            out.append(0.0)
        for gamma, rest, w in engine.terms(S):
            k0 = gamma.bit_count()
            for k, c in enumerate(_xi_by_min_vertex(engine, rest, memo)[: len(out) - k0]):
                out[k0 + k] += w * c
        memo[S] = out
    return memo[S]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["cycle", "biregular"]), st.booleans(), st.data())
def test_xi_pivot_matches_the_min_vertex_recursion(seed, family, complex_mode, data):
    # an arc of a cycle's link graph that wraps past vertex 0 splits at its
    # minimum, not at its pivot
    rng = np.random.Generator(np.random.Philox(seed))
    if family == "cycle":
        g = bc.even_cycle(2 * int(rng.integers(2, 13)))
    else:
        d_L, d_R, n_L = [(2, 4, 8), (2, 2, 10), (3, 3, 8), (2, 3, 12)][int(rng.integers(4))]
        g = bc.random_biregular(d_L, d_R, n_L, seed=int(rng.integers(100)))
    lam_L, lam_R = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0))
    if complex_mode:
        lam = Fugacities(complex(lam_L, 0.5), complex(lam_R, -0.25))
    else:
        lam = Fugacities(lam_L, lam_R)
    m = data.draw(st.integers(1, g.n_R + 1), label="m")
    engine = SeriesEngine(g, lam, m)
    memo: dict[int, list] = {}
    full = (1 << g.n_R) - 1
    for S in [full, *(int(rng.integers(1, full + 1)) for _ in range(6))]:
        got, want = engine.xi(S), _xi_by_min_vertex(engine, S, memo)
        assert len(got) == len(want)
        assert all(_close(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "g, lam, m",
    [
        (bc.even_cycle(20), Fugacities(3.0, 0.4), 8),
        (bc.random_biregular(2, 4, 12, seed=3), Fugacities(1.5, 0.7), 5),
        (bc.random_biregular(3, 3, 8, seed=1), Fugacities(complex(2.0, 0.5), complex(0.3, -0.2)), 6),
    ],
)
def test_plain_log_is_the_subset_convolution_bit_for_bit(g, lam, m):
    # with A empty the t-algebra's elements are one-entry lists
    engine = SeriesEngine(g, lam, m)
    for T in _sets_below_m(engine):
        got = engine._plain_log(T)
        want = engine._log_coefficients(T, [])
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


def test_xi_memo_stays_on_connected_sets_of_a_cycle():
    # 22 R-vertices on a 22-cycle of links: 462 proper arcs and the whole
    # cycle; recursing on min S would also memoise 6,175 disconnected sets,
    # left by splitting the arcs that wrap past vertex 0
    engine = SeriesEngine(bc.even_cycle(44), Fugacities(20.0, 0.1), 24)
    engine.set_contributions()
    assert len(engine._xi) == len(_sets_below_m(engine)) == 463
    assert set(engine._xi) == set(_sets_below_m(engine))
    assert engine._stored == 11_575


def test_untruncated_xi_is_exact():
    g = bc.random_biregular(2, 4, 8, seed=1)
    lam = Fugacities(3.0, 0.4)
    engine = SeriesEngine(g, lam, g.n_R + 1)
    xi = engine.xi((1 << g.n_R) - 1)
    assert len(xi) == g.n_R + 1
    assert math.fsum(xi) == pytest.approx(bc.exact_Xi(g, lam), rel=1e-13)


def test_budget_counts_stored_coefficients(monkeypatch):
    # K_{3,6}: all 63 nonempty R-sets are 2-linked; at m = 87 their f_T hold
    # sum(87 - |T|) = 5,289 coefficients and the 63 memoised Xi_S 255 more
    g = bc.complete_bipartite(3, 6)
    lam = Fugacities(200.0, 0.05)
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 5_543)
    with pytest.raises(ClusterBudgetError) as exc:
        SeriesEngine(g, lam, 87).set_contributions()
    assert exc.value.clusters_seen == 5_544
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 5_544)
    engine = SeriesEngine(g, lam, 87)
    assert len(engine.set_contributions()) == 63
    assert sum(87 - T.bit_count() for T in engine.set_contributions()) == 5_289
    assert sum(map(len, engine._xi.values())) == 255
    assert engine._stored == 5_544


@pytest.mark.parametrize("A", [0, 0b1, 0b11])
def test_a_table_past_the_budget_stops_its_listing(A, monkeypatch):
    # rb(3,3,16) has 49,665 2-linked sets below 18, 26,926 of them through
    # R:0; each set is charged at least one coefficient as it is listed,
    # so a budget of 1,000 stops the listing within 1,001 sets
    listed = 0

    def counted(lister):
        def wrapper(*args):
            nonlocal listed
            for T in lister(*args):
                listed += 1
                yield T

        return wrapper

    for name in ("_two_linked_sets", "_connected_sets"):
        monkeypatch.setattr(clusters, name, counted(getattr(clusters, name)))
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 1_000)
    engine = SeriesEngine(bc.random_biregular(3, 3, 16, seed=0), Fugacities(1.0, 0.03), 18)
    with pytest.raises(ClusterBudgetError):
        engine.cumulant(A) if A else engine.set_contributions()
    assert listed <= 1_001
    assert engine._stored == 0  # the engine is left empty


def test_a_table_that_raises_leaves_the_engine_empty(monkeypatch):
    # K_{3,6} at m = 87 lists all 63 sets (5,289 coefficients), then passes
    # a budget of 5,543 while memoising Xi_S; the memo goes with the table
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 5_543)
    engine = SeriesEngine(bc.complete_bipartite(3, 6), Fugacities(200.0, 0.05), 87)
    engine.log_xi(1)
    assert engine._xi
    with pytest.raises(ClusterBudgetError):
        engine.set_contributions()
    assert engine._stored == 0 and not engine._xi and engine._plain is None


def test_a_failed_cumulant_leaves_a_fresh_engine(monkeypatch):
    # 504 coefficients are the plain table's own charge on even_cycle(16)
    # at m = 8; a cumulant that fails first, on an empty engine or on the
    # held table, must not crowd the table out
    g, lam = bc.even_cycle(16), Fugacities(10.0, 0.05)
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 504)
    want = {T: v.hex() for T, v in SeriesEngine(g, lam, 8).set_contributions().items()}
    engine = SeriesEngine(g, lam, 8)
    for _ in range(2):
        with pytest.raises(ClusterBudgetError):
            engine.cumulant(0b111000)
        assert engine._stored == 0 and not engine._xi and engine._plain is None
        assert {T: v.hex() for T, v in engine.set_contributions().items()} == want
        assert engine._stored == 504


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_log_xi_below_m_is_the_table_value_bit_for_bit(seed, m):
    # a component below m takes one log of Xi; the twin reads the same T_m
    # off the cluster table, built first
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 6, 9, float(rng.uniform(0.15, 0.5)))
    lam = Fugacities(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.05, 2.0)))
    fresh, twin = SeriesEngine(g, lam, m), SeriesEngine(g, lam, m)
    twin.set_contributions()
    assert fresh.log_xi().hex() == twin.log_xi().hex()
    assert fresh._stored <= twin._stored
    full = (1 << g.n_R) - 1
    for S in [0, *(int(rng.integers(0, full + 1)) for _ in range(8))]:
        assert fresh.log_xi(S).hex() == twin.log_xi(S).hex()


def test_log_xi_below_m_builds_no_cluster_table(monkeypatch):
    # the five R-vertices of C_10 form one component, below m = 29
    def boom(self, A):
        raise AssertionError("cluster table built")

    monkeypatch.setattr(SeriesEngine, "_cluster_series", boom)
    g = bc.even_cycle(10)
    lam = Fugacities(1.0, 0.9 * 2.0 / 24.0)
    res = bc.approx_log_Z(g, lam, epsilon=0.3)
    assert res.m_used == 29 and not res.degraded
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= res.error_bound


@pytest.mark.parametrize("method", ["xi", "log_xi", "cumulant"])
@pytest.mark.parametrize("S", [1 << 4, -1, -16, 2.0, "3"])
def test_sets_outside_the_r_side_are_refused(method, S):
    engine = SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), 5)
    with pytest.raises(ValueError, match=r"is not an integer mask in \[0, 2\*\*4\)"):
        getattr(engine, method)(S)


def test_a_cumulant_of_the_empty_set_is_refused():
    # log_xi is the empty set's route; the refusal leaves the plain
    # table's charge in place
    engine = SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), 5)
    engine.set_contributions()
    stored = engine._stored
    with pytest.raises(ValueError, match="a cumulant needs a nonempty set"):
        engine.cumulant(0)
    assert engine._stored == stored


def test_sets_may_be_numpy_integers():
    engine = SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), 5)
    assert engine.xi(np.int64(15)) == engine.xi(15)
    assert engine.log_xi(np.uint8(6)) == engine.log_xi(6)
    assert engine.log_xi() == engine.log_xi(15)
    assert engine.cumulant(np.int64(3)) == engine.cumulant(3)


def test_engine_needs_a_positive_depth():
    with pytest.raises(ValueError, match="m must be at least 1"):
        SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), 0)


@pytest.mark.parametrize("m", [3.0, 2.5, "4", None])
def test_engine_needs_an_integer_depth(m):
    with pytest.raises(ValueError, match=r"m must be an integer, got "):
        SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), m)


def test_engine_depth_may_be_a_numpy_integer():
    engine = SeriesEngine(bc.even_cycle(8), Fugacities(10.0, 0.05), np.int64(5))
    assert type(engine.m) is int and engine.m == 5


def test_reference_caches_live_with_their_engine():
    g = bc.complete_bipartite(3, 3)
    assert len(list(clusters.enumerate_clusters(g, Fugacities(1.0, 1.0), 6))) > 0
    bc.ursell_deletion_contraction(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    for name, value in vars(clusters).items():
        if not name.startswith("__") and isinstance(value, (dict, list, set)):
            assert not value, f"clusters.{name} keeps {len(value)} entries"


def test_library_paths_need_no_cluster_enumeration(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("cluster enumeration reached from a library path")

    monkeypatch.setattr(kernels, "ursell_edge_sum", boom)
    monkeypatch.setattr(ClusterEngine, "clusters", boom)
    g = bc.even_cycle(10)
    lam = Fugacities(9.0, 0.07)
    res = bc.approx_log_Z(g, lam, epsilon=0.05)
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= res.error_bound
    q = bc.truncated_cumulant(g, lam, [0, 1], m=7)
    assert q.cluster_count > 0
    rows = bc.decay_experiment(g, lam, [("cumulant", [0, 2]), ("pair", ("R", 0), ("R", 1))], m=6)
    assert all(r.satisfied for r in rows)
    for backend in ("exact", "truncated"):
        sampler = bc.IndependentSetSampler(g, lam, backend=backend)
        assert len(list(sampler.draws(5, seed=1))) == 5
