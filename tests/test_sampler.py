"""Sampling: polymer configurations, extension to independent sets, backends."""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    CertificationError,
    Fugacities,
    IndependentSetSampler,
    SizeCapError,
    extend_to_independent_set,
    sample_independent_set,
    sample_polymer_config,
)
from bipcore import clusters
from bipcore.graph import _bits, _components
from bipcore.sampler import BATCH_CUTOVER, UNIFORM_BLOCK, _block_rows

from conftest import random_bipartite


def is_independent(g, vs) -> bool:
    vs = set(vs)
    return not any(("L", u) in vs and ("R", v) in vs for u, v in g.edges)


def config_freqs(sampler, n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    counts = Counter()
    for _ in range(n):
        counts[sampler.sample_config(rng).occupied_R] += 1
    return {k: v / n for k, v in counts.items()}


# ---------------------------------------------------------------------------
# polymer configurations

def test_two_configuration_model():
    g = bc.complete_bipartite(1, 1)
    sampler = IndependentSetSampler(g, Fugacities(10.0, 0.1))
    n = 100_000
    freqs = config_freqs(sampler, n, seed=7)
    w = 0.1 / 11.0
    p = w / (1.0 + w)  # ~ 0.009009
    se = math.sqrt(p * (1 - p) / n)
    assert abs(freqs.get(frozenset({0}), 0.0) - p) <= 3 * se
    assert abs(freqs.get(frozenset(), 0.0) - (1 - p)) <= 3 * se


def test_zero_right_activity_always_empty():
    g = bc.even_cycle(8)
    sampler = IndependentSetSampler(g, Fugacities(2.0, 0.0))
    rng = np.random.Generator(np.random.Philox(0))
    for _ in range(50):
        cfg = sampler.sample_config(rng)
        assert cfg.chosen == ()
        assert cfg.occupied_R == frozenset()
        draw = sampler.sample(rng)
        assert all(side == "L" for side, _ in draw)


def test_star_exact_mode_config_distribution():
    # KP fails at lambda = 1, but the exact backend needs no certificate:
    # configurations {}, {r0}, {r1}, {r0 r1} carry weights (1, .5, .5, .5)/2.5
    g = bc.star_center_L(2)
    lam = Fugacities(1.0, 1.0)
    assert not bc.certify_kp(g, lam).valid
    sampler = IndependentSetSampler(g, lam)
    assert sampler.backend == "exact"
    n = 60_000
    freqs = config_freqs(sampler, n, seed=3)
    expected = {
        frozenset(): 1 / 2.5,
        frozenset({0}): 0.5 / 2.5,
        frozenset({1}): 0.5 / 2.5,
        frozenset({0, 1}): 0.5 / 2.5,
    }
    assert set(freqs) == set(expected)
    for k, p in expected.items():
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freqs[k] - p) <= 4 * se


def test_exact_config_distribution_matches_nu():
    # chi-square of sampled configurations against the polymer measure
    from scipy.stats import chisquare

    g = bc.even_cycle(6)
    lam = Fugacities(1.3, 0.8)
    nu = bc.exact_nu(g, lam)
    sampler = IndependentSetSampler(g, lam, backend="exact")
    n = 40_000
    rng = np.random.Generator(np.random.Philox(11))
    counts = Counter()
    for _ in range(n):
        counts[frozenset(p.vertices for p in sampler.sample_config(rng).chosen)] += 1
    keys = list(nu)
    assert set(counts) <= set(keys)
    observed = [counts.get(k, 0) for k in keys]
    expected = [n * nu[k] for k in keys]
    assert chisquare(observed, expected).pvalue >= 0.001


def test_trace_masks_shrink_monotonically():
    g = bc.even_cycle(8)
    sampler = IndependentSetSampler(g, Fugacities(3.0, 0.6))
    rng = np.random.Generator(np.random.Philox(5))
    plain = np.random.Generator(np.random.Philox(5))
    for _ in range(20):
        trace: list[tuple[int, int]] = []
        cfg = sampler.sample_config(rng, trace=trace)
        # tracing changes neither the configuration nor the uniforms read
        assert sampler.sample_config(plain) == cfg
        assert plain.random() == rng.random()
        assert [v for v, _ in trace] == list(range(g.n_R))
        masks = [mask for _, mask in trace]
        assert masks[0] == (1 << g.n_R) - 1
        for a, b in zip(masks, masks[1:]):
            assert b & ~a == 0  # the allowed set only loses polymers
        for v, mask in trace:
            assert mask & ((1 << v) - 1) == 0  # every lower vertex is decided


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2**16), min_size=1, max_size=30))
def test_lex_key_orders_as_vertex_tuples(masks):
    # the conditionals list their candidates in this order, and draws depend
    # on it; the truncations below each vertex put proper prefixes beside them
    masks = {m & ((2 << k) - 1) for m in masks for k in range(m.bit_length())} - {0}
    by_tuple = sorted(masks, key=lambda m: tuple(_bits(m)))
    assert sorted(masks, key=bc.sampler._lex_key) == by_tuple


def test_config_pairwise_compatible_and_disjoint():
    g = bc.even_cycle(10)
    sampler = IndependentSetSampler(g, Fugacities(1.0, 0.9))
    adj = bc.two_linked_adjacency(g)
    links = [
        sum(1 << j for j in adj[v]) for v in range(g.n_R)
    ]  # incompatible() takes per-vertex bitmasks
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(100):
        cfg = sampler.sample_config(rng)
        polys = cfg.chosen
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert not bc.incompatible(polys[i], polys[j], links)
                assert not (set(polys[i].vertices) & set(polys[j].vertices))


# ---------------------------------------------------------------------------
# extension to independent sets

def test_extend_blocked_and_unblocked():
    g = bc.complete_bipartite(1, 1)
    sampler = IndependentSetSampler(g, Fugacities(1.0, 1.0))
    rng = np.random.Generator(np.random.Philox(2))
    empty = bc.sampler.PolymerConfig(chosen=(), decided_vertices=frozenset({0}))
    outs = Counter(sampler.extend(empty, rng) for _ in range(20_000))
    assert set(outs) == {frozenset(), frozenset({("L", 0)})}
    assert abs(outs[frozenset()] / 20_000 - 0.5) <= 0.02

    occupied = bc.sampler.PolymerConfig(
        chosen=(bc.make_polymer(g, [0], Fugacities(1.0, 1.0)),),
        decided_vertices=frozenset({0}),
    )
    for _ in range(50):
        assert sampler.extend(occupied, rng) == frozenset({("R", 0)})


def test_extend_star_center_blocked():
    g = bc.star_center_L(2)
    lam = Fugacities(7.0, 1.0)
    cfg = bc.sampler.PolymerConfig(
        chosen=(bc.make_polymer(g, [0, 1], lam),),
        decided_vertices=frozenset({0, 1}),
    )
    out = extend_to_independent_set(g, cfg, lam, rng_seed=0)
    assert out == frozenset({("R", 0), ("R", 1)})


def test_module_level_functions_deterministic():
    g = bc.even_cycle(6)
    lam = Fugacities(2.0, 0.5)
    a = sample_polymer_config(g, lam, 0.05, rng_seed=42)
    b = sample_polymer_config(g, lam, 0.05, rng_seed=42)
    assert a == b
    x = sample_independent_set(g, lam, 0.05, rng_seed=42)
    y = sample_independent_set(g, lam, 0.05, rng_seed=42)
    assert x == y
    assert is_independent(g, x)


def test_one_draw_functions_keep_no_sampler(monkeypatch):
    # each call builds its own sampler, and nothing in the module keeps it
    built = []
    init = IndependentSetSampler.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(IndependentSetSampler, "__init__", tracking_init)
    g = bc.even_cycle(6)
    lam = Fugacities(2.0, 0.5)
    sample_polymer_config(g, lam, 0.05, rng_seed=1)
    sample_independent_set(g, lam, 0.05, rng_seed=1)
    gc.collect()
    assert len(built) == 2
    assert all(ref() is None for ref in built)


# ---------------------------------------------------------------------------
# full draws

def test_every_draw_is_an_independent_set():
    g = bc.random_biregular(2, 4, 8, seed=3)
    sampler = IndependentSetSampler(g, Fugacities(4.0, 0.3))
    for draw in sampler.draws(300, seed=9):
        assert is_independent(g, draw)


def test_draws_deterministic_in_seed():
    g = bc.even_cycle(8)
    sampler = IndependentSetSampler(g, Fugacities(1.5, 0.7))
    a = list(sampler.draws(40, seed=13))
    b = list(sampler.draws(40, seed=13))
    c = list(sampler.draws(40, seed=14))
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "g, lam, backend, n",
    [
        (bc.even_cycle(12), Fugacities(1.0, 0.5), "exact", 500),
        (bc.star_center_L(2), Fugacities(10.0, 0.1), "truncated", 2000),
    ],
    ids=["exact", "truncated"],
)
def test_draws_equal_repeated_sample_calls(g, lam, backend, n):
    # about 4,800 and 5,900 uniforms: each stream crosses several blocks
    s = IndependentSetSampler(g, lam, backend=backend)
    rng = np.random.Generator(np.random.Philox(8))
    assert list(s.draws(n, seed=8)) == [s.sample(rng) for _ in range(n)]


# on both sides of the batching cut-over, for both backends; a K_{70,3}
# row's 70 L-uniforms pack into a key of more than 64 bits
_CUTOVER_CASES = [
    (bc.even_cycle(12), Fugacities(1.0, 0.5), "exact", False),
    (bc.even_cycle(12), Fugacities(1.0, 0.05), "exact", True),
    (bc.complete_bipartite(70, 3), Fugacities(1.0, 1e7), "exact", False),
    (bc.complete_bipartite(70, 3), Fugacities(1.0, 4e6), "exact", True),
    (bc.even_cycle(16), Fugacities(2.0, 0.2), "truncated", False),
    (bc.even_cycle(16), Fugacities(10.0, 0.05), "truncated", True),
]


@pytest.mark.parametrize(
    "g, lam, backend, batched",
    _CUTOVER_CASES,
    ids=["C12-walk", "C12-batch", "K70,3-walk", "K70,3-batch", "C16-trunc-walk", "C16-trunc-batch"],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_draws_equal_sample_calls_on_both_sides_of_the_cutover(g, lam, backend, batched, data):
    s = IndependentSetSampler(g, lam, backend=backend)
    p_none = math.prod(1.0 - p for p in s._vacant_chain())
    assert (p_none >= BATCH_CUTOVER) == batched
    k = g.n_R + g.n_L
    rows = _block_rows(p_none, k)
    # n may cross several blocks of rows, and UNIFORM_BLOCK uniforms
    n = data.draw(st.integers(0, 2 * rows + 2 + UNIFORM_BLOCK // k), label="n")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    rng = np.random.Generator(np.random.Philox(seed))
    assert list(s.draws(n, seed)) == [s.sample(rng) for _ in range(n)]


def test_batched_draws_with_no_l_vertices():
    # rows of no L-uniforms: each batched draw has the empty L-set's key
    g, lam = bc.BipartiteGraph(0, 3, []), Fugacities(1.0, 0.01)
    s = IndependentSetSampler(g, lam)
    assert math.prod(1.0 - p for p in s._vacant_chain()) >= BATCH_CUTOVER
    for seed in range(3):
        rng = np.random.Generator(np.random.Philox(seed))
        assert list(s.draws(3000, seed)) == [s.sample(rng) for _ in range(3000)]


def test_batched_draws_clear_the_l_set_memo(monkeypatch):
    # 256 possible L-sets against a memo of 4: every run of batched draws
    # brings more new L-sets than the memo holds, so it is cleared, and the
    # draws stay those of repeated sample calls
    monkeypatch.setattr("bipcore.sampler.L_SET_MEMO", 4)
    s = IndependentSetSampler(bc.even_cycle(16), Fugacities(1.0, 0.001), backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) >= BATCH_CUTOVER
    rng = np.random.Generator(np.random.Philox(5))
    draws = list(s.draws(2000, seed=5))
    assert draws == [s.sample(rng) for _ in range(2000)]
    assert len(set(draws)) > 100


def test_batched_draws_share_identical_l_sets():
    # a walked draw picks a polymer, so a draw with no R-vertex was batched;
    # fewer distinct L-sets than L_SET_MEMO: each is one object
    s = IndependentSetSampler(bc.even_cycle(24), Fugacities(20.0, 0.1), backend="exact")
    draws = list(s.draws(2000, seed=2))
    batched = [d for d in draws if not any(side == "R" for side, _ in d)]
    assert len(batched) > 1900 and len(set(batched)) < 500
    assert len({id(d) for d in batched}) == len(set(batched))
    # built from a set: the table a copy of a set gets, not the larger one
    # a frozenset grown from an iterator may keep
    assert all(sys.getsizeof(d) == sys.getsizeof(frozenset(set(d))) for d in set(batched))


def test_walked_draws_share_identical_sets():
    # below the cut-over every draw is walked; C_12 has 322 independent
    # sets, fewer than L_SET_MEMO, so equal draws are one object
    s = IndependentSetSampler(bc.even_cycle(12), Fugacities(1.0, 0.5), backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) < BATCH_CUTOVER
    draws = list(s.draws(2000, seed=2))
    assert len(set(draws)) < 322
    assert len({id(d) for d in draws}) == len(set(draws))
    assert all(sys.getsizeof(d) == sys.getsizeof(frozenset(set(d))) for d in set(draws))


@pytest.mark.parametrize("memo", [4, 64])
def test_walked_draws_clear_their_memo(monkeypatch, memo):
    # about 300 distinct draws against a memo of 4 (it keeps the draws of
    # states with at most 2 free L-vertices) or of 64 (every state of C_12,
    # 6 L-vertices): it is cleared again and again, and the draws stay those
    # of repeated sample calls
    monkeypatch.setattr("bipcore.sampler.L_SET_MEMO", memo)
    s = IndependentSetSampler(bc.even_cycle(12), Fugacities(1.0, 0.5), backend="exact")
    rng = np.random.Generator(np.random.Philox(5))
    draws = list(s.draws(2000, seed=5))
    assert draws == [s.sample(rng) for _ in range(2000)]
    assert len(set(draws)) > 100


def test_walked_draws_on_a_large_l_side_keep_no_draw():
    # C_12 and 1,994 isolated L-vertices: P(no polymer) stays below the
    # cut-over, and each walked draw holds about 1,000 L-vertices, so no two
    # repeat.  No draw is kept for sharing: streaming 300 of them, 11 MB
    # together, peaks below the size of ten
    c = bc.even_cycle(12)
    edges = [(u, v) for u in range(6) for v in _bits(c.adj_L[u])]
    g = bc.BipartiteGraph(2000, 6, edges)
    s = IndependentSetSampler(g, Fugacities(1.0, 0.5), backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) < BATCH_CUTOVER
    rng = np.random.Generator(np.random.Philox(3))
    expected = [s.sample(rng) for _ in range(300)]
    tracemalloc.start()
    try:
        for i, draw in enumerate(s.draws(300, seed=3)):
            assert draw == expected[i]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = max(map(sys.getsizeof, expected))
    assert sum(map(sys.getsizeof, expected)) > 50 * one
    assert peak < 10 * one


@pytest.mark.parametrize(
    "g", [bc.even_cycle(8), bc.complete_bipartite(1500, 1)], ids=["C8", "K1500,1"]
)
def test_one_draw_functions_equal_their_generator_definitions(g):
    # K_{1500,1} reads up to 1,501 uniforms in one draw
    lam = Fugacities(1.5, 0.7)
    s = IndependentSetSampler(g, lam, 0.05)

    def fresh(seed):
        return np.random.Generator(np.random.Philox(seed))

    for seed in range(20):
        cfg = s.sample_config(fresh(seed))
        assert sample_polymer_config(g, lam, 0.05, rng_seed=seed) == cfg
        assert extend_to_independent_set(g, cfg, lam, rng_seed=seed) == s.extend(
            cfg, fresh(seed)
        )
        assert sample_independent_set(g, lam, 0.05, rng_seed=seed) == s.sample(fresh(seed))


def _draws_digest(draws) -> str:
    h = hashlib.sha256()
    for draw in draws:
        h.update(repr(sorted(draw)).encode())
    return h.hexdigest()


_LAM = Fugacities(20.0, 0.1)
_BIREG = Fugacities(50.0, 0.1)


@pytest.mark.parametrize(
    "g, lam, backend, n, seed, eta, digest",
    [
        (bc.even_cycle(12), Fugacities(1.0, 0.5), "exact", 400, 1, 0.1,
         "4e487aea3dbcad9b7d4eebb9cac310020831362c4fdba759ecffad705eadd059"),
        (bc.even_cycle(24), _LAM, "exact", 400, 2, 0.1,
         "871327078576ca8d76e6124a558982a22e34d0e0f90050e4495b687c583b9ff4"),
        (bc.random_biregular(2, 4, 16, seed=0), _BIREG, "exact", 400, 3, 0.1,
         "aa4ab8349628e39633a4c42644c9f8bc6a67839bb7d1b499f70d4500f1228ca6"),
        (bc.even_cycle(40), _LAM, "exact", 400, 6, 0.1,
         "f39a9eb41445a5694a2abc96a20d3da412c35743e7e8b1be59e34652d80636db"),
        (bc.even_cycle(44), _LAM, "auto", 1, 4, 0.1,
         "07f81d711f3ee415268031f758c8c42a46b85d86c3897b3f1dc7ea3a3afa6f6e"),
        (bc.even_cycle(30), Fugacities(2.0, 0.2), "truncated", 300, 7, 0.1,
         "9c5f582ad6f1ca44f3ae4daff0fdcaf71d8d33fdb5df556e8a116ab47b3e80b3"),
        (bc.random_biregular(2, 4, 60, seed=0), _BIREG, "truncated", 300, 5, 7.0,
         "08b17a1fc59c4f648cb0fb4c78979def226492f35e35dc2c4cdde8674c319df1"),
    ],
    ids=["C12", "C24", "rb(2,4,16)", "C40", "C44-auto", "C30-truncated", "rb(2,4,60)-eta7"],
)
def test_golden_draws(g, lam, backend, n, seed, eta, digest):
    # sha256 of the draws, pinned: a change to the sampler that alters any
    # draw shows here even when draws() and sample() change alike
    s = IndependentSetSampler(g, lam, backend=backend, eta=eta)
    assert _draws_digest(s.draws(n, seed=seed)) == digest


def test_draws_rejects_a_negative_count():
    s = IndependentSetSampler(bc.even_cycle(4), Fugacities(1.0, 1.0))
    with pytest.raises(ValueError):
        s.draws(-1, seed=0)
    with pytest.raises(ValueError):  # before the first draw is asked for
        s.draws(5, seed=-1)
    assert list(s.draws(0, seed=0)) == []


@pytest.mark.parametrize("n", [2.0, "3", None])
def test_draws_refuses_a_count_that_is_not_an_integer(n):
    s = IndependentSetSampler(bc.even_cycle(4), Fugacities(1.0, 1.0))
    with pytest.raises(ValueError, match="must be an integer"):
        s.draws(n, seed=0)  # at the call, not at the first draw
    rng = np.random.Generator(np.random.Philox(0))
    assert list(s.draws(np.int64(3), seed=0)) == [s.sample(rng) for _ in range(3)]


def test_uniform_thirds_on_single_edge():
    g = bc.complete_bipartite(1, 1)
    sampler = IndependentSetSampler(g, Fugacities(1.0, 1.0))
    n = 30_000
    counts = Counter(sampler.draws(n, seed=21))
    assert set(counts) == {
        frozenset(),
        frozenset({("L", 0)}),
        frozenset({("R", 0)}),
    }
    for k in counts:
        assert abs(counts[k] / n - 1 / 3) <= 0.012  # ~4.4 SE


def test_mean_R_occupancy_matches_oracle():
    g = bc.even_cycle(6)
    lam = Fugacities(1.2, 0.9)
    target = sum(bc.exact_marginal(g, lam, ("R", v)) for v in range(g.n_R))
    sampler = IndependentSetSampler(g, lam)
    n = 30_000
    sizes = [sum(1 for s, _ in d if s == "R") for d in sampler.draws(n, seed=6)]
    mean = sum(sizes) / n
    sd = math.sqrt(sum((s - mean) ** 2 for s in sizes) / (n - 1))
    assert abs(mean - target) <= 3 * sd / math.sqrt(n)


def test_full_distribution_matches_oracle():
    g = bc.even_cycle(4)
    lam = Fugacities(1.5, 0.8)
    dist = bc.exact_distribution(g, lam)
    sampler = IndependentSetSampler(g, lam)
    n = 40_000
    counts = Counter(sampler.draws(n, seed=17))
    assert set(counts) <= set(dist)
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in dist.items())
    assert tv <= 0.03  # exact backend: sampling noise only


# ---------------------------------------------------------------------------
# truncated backend

def test_truncated_backend_agrees_with_exact():
    # all polymers share the star's center, so deep clusters stay closed-form;
    # at depth 24 the truncation error is far below one ulp of any threshold,
    # making the two backends' draw streams literally identical
    g = bc.star_center_L(2)
    lam = Fugacities(10.0, 0.1)
    exact = IndependentSetSampler(g, lam, backend="exact")
    trunc = IndependentSetSampler(g, lam, epsilon=0.05, backend="truncated")
    assert trunc.backend == "truncated"
    assert trunc.certificate is not None and trunc.certificate.valid
    assert trunc.m_step == min(bc.choose_m(g.n_R, 0.05 / (2 * g.n_R), 0.1), 24)
    assert list(exact.draws(500, seed=8)) == list(trunc.draws(500, seed=8))


def test_backend_errors():
    wide = bc.BipartiteGraph(1, 21, [])
    with pytest.raises(SizeCapError):
        IndependentSetSampler(wide, Fugacities(1.0, 0.5), backend="exact")
    with pytest.raises(CertificationError):
        IndependentSetSampler(
            bc.star_center_L(2), Fugacities(1.0, 1.0), backend="truncated"
        )
    with pytest.raises(ValueError):
        IndependentSetSampler(bc.even_cycle(4), Fugacities(1.0, 1.0), backend="bogus")
    with pytest.raises(ValueError):
        IndependentSetSampler(bc.even_cycle(4), Fugacities(1.0, 1.0), epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive and finite, got nan"):
        IndependentSetSampler(
            bc.even_cycle(4), Fugacities(1.0, 1.0), epsilon=math.nan, backend="exact"
        )
    for backend in ("exact", "truncated"):
        with pytest.raises(ValueError, match="epsilon must be positive and finite, got inf"):
            IndependentSetSampler(
                bc.star_center_L(2), Fugacities(10.0, 0.1), epsilon=math.inf, backend=backend
            )
    with pytest.raises(ValueError):
        IndependentSetSampler(
            bc.even_cycle(4), Fugacities(complex(1.0), complex(1.0))
        )


def test_auto_backend_resolution():
    assert IndependentSetSampler(bc.even_cycle(4), Fugacities(1.0, 1.0)).backend == "exact"
    # 21 R-vertices push auto past the exact cap; no edges keeps the polymer
    # system tiny (singletons only) so the truncated engine stays cheap
    wide = bc.BipartiteGraph(1, 21, [])
    s = IndependentSetSampler(wide, Fugacities(1.0, 0.1))
    assert s.backend == "truncated"
    assert s.certificate is not None and s.certificate.valid
    draw = next(iter(s.draws(1, seed=0)))
    assert is_independent(wide, draw)


def test_truncated_backend_draws_past_the_exact_cap():
    # n_R = 22: auto routes to the truncated backend, whose conditionals
    # used to exhaust memory before the first draw
    g = bc.even_cycle(44)
    s = IndependentSetSampler(g, Fugacities(20.0, 0.1))
    assert s.backend == "truncated"
    # the per-step budget 0.05 / 44 at eta = 0.1 asks for m = 99 > 24
    assert (s.m_requested, s.m_step, s.degraded) == (99, 24, True)
    draw = next(iter(s.draws(1, seed=4)))
    assert is_independent(g, draw)


def test_truncated_backend_steps_its_depth_down_under_the_budget(monkeypatch):
    # depths 24, 19 and 15 pass 4,000 coefficients and 12 fits (3,146):
    # 24 stores 5,567, one log of Xi per 2-linked set; 19 and 15, below the
    # 22-vertex component, build the table of f_T and store 7,920 and
    # 4,928.  Every coefficient the draws read is then stored before the
    # first draw
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 4_000)
    g = bc.even_cycle(44)
    s = IndependentSetSampler(g, Fugacities(20.0, 0.1))
    assert (s.m_requested, s.m_step, s.degraded) == (99, 12, True)
    stored = s._engine._stored
    for draw in s.draws(20, seed=4):
        assert is_independent(g, draw)
    assert s._engine._stored == stored


def _assert_truncated_build_reads_no_table(g, lam):
    # every link component below m_step: T_m of each 2-linked set is one log
    # of Xi, with the bits a twin engine reads off its table of f_T; the
    # draws then add nothing
    s = IndependentSetSampler(g, lam, backend="truncated")
    engine = s._engine
    assert all(C.bit_count() < s.m_step for C in _components(engine._links, (1 << g.n_R) - 1))
    assert engine._plain is None
    twin = clusters.SeriesEngine(g, lam, s.m_step)
    twin.set_contributions()
    tm = {T: v.hex() for T, v in engine._tm.items()}
    assert tm == {T: v.hex() for T, v in twin._tm.items()}
    stored = engine._stored
    assert stored <= twin._stored
    for draw in s.draws(200, seed=3):
        assert is_independent(g, draw)
    assert engine._stored == stored and engine._plain is None
    assert {T: v.hex() for T, v in engine._tm.items()} == tm


def test_truncated_backend_below_m_builds_no_table():
    # one 22-vertex link component, below m_step = 24
    _assert_truncated_build_reads_no_table(bc.even_cycle(44), Fugacities(20.0, 0.1))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_truncated_backend_below_m_reads_the_table_values(seed):
    # n_R <= 12 against m_step = 24; lambda_R small enough to certify
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 8, 12, float(rng.uniform(0.15, 0.5)))
    _assert_truncated_build_reads_no_table(g, Fugacities(float(rng.uniform(0.5, 5.0)), 1e-3))


def test_stored_draws_share_their_vertex_names():
    # every draw names its vertices with the sampler's tuples, so a stored
    # draw holds references, not copies
    g = bc.even_cycle(12)
    sampler = IndependentSetSampler(g, Fugacities(1.0, 0.5), backend="exact")
    first, *rest = sampler.draws(20, seed=2)
    named = {v: v for v in first}
    shared = [(named[v], v) for draw in rest for v in draw if v[0] == "L" and v in named]
    assert shared
    assert all(a is b for a, b in shared)
    rng = np.random.Generator(np.random.Philox(3))
    configs = [sampler.sample_config(rng) for _ in range(3)]
    assert all(c.decided_vertices is configs[0].decided_vertices for c in configs)
    assert configs[0].decided_vertices == frozenset(range(g.n_R))


def test_exact_backend_on_a_dense_polymer_universe():
    # about 3,000 polymers: the polymer-mask recursion used to pass the
    # default recursion limit
    g = bc.random_biregular(3, 3, 12, seed=100)
    s = IndependentSetSampler(g, Fugacities(50.0, 0.1), backend="exact")
    assert (s.m_requested, s.m_step, s.degraded) == (None, None, False)
    for draw in s.draws(3, seed=5):
        assert is_independent(g, draw)


def test_exact_backend_fills_its_memo_when_built(monkeypatch):
    g = bc.even_cycle(12)
    lam = Fugacities(1.0, 0.5)
    sampler = IndependentSetSampler(g, lam, backend="exact")
    stored = sampler._engine._stored
    assert stored > 0
    for _ in sampler.draws(500, seed=3):
        pass
    assert sampler._engine._stored == stored
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", stored - 1)
    with pytest.raises(bc.ClusterBudgetError):
        IndependentSetSampler(g, lam, backend="exact")


@pytest.mark.parametrize("n_L", [16, 20])
def test_exact_backend_draws_under_the_budget_it_was_built_under(monkeypatch, n_L):
    # Xi's own recursion turns at a leaf of the set, the walk at min S, and
    # on these graphs the two reach different sets: the walk reads only sets
    # its build memoised, so a budget that fits the build fits the draws
    g = bc.random_biregular(2, 4, n_L, seed=0)
    lam = Fugacities(1.0, 0.5)
    stored = IndependentSetSampler(g, lam, backend="exact")._engine._stored
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", stored)
    sampler = IndependentSetSampler(g, lam, backend="exact")
    memo = set(sampler._engine._xi)
    for draw in sampler.draws(500, seed=0):
        assert is_independent(g, draw)
    assert set(sampler._engine._xi) == memo


def test_exact_backend_refuses_a_xi_past_the_float_range():
    # two disjoint 4-leaf stars at lambda_R = 1e60: each star's polymer
    # weighs 5e239, so the z**8 coefficient of Xi_R passes the float range
    g = bc.BipartiteGraph(2, 8, [(0, j) for j in range(4)] + [(1, j) for j in range(4, 8)])
    lam = Fugacities(1.0, 1e60)
    with pytest.raises(SizeCapError):
        bc.exact_Xi(g, lam)
    with pytest.raises(SizeCapError, match="Xi past the float range"):
        IndependentSetSampler(g, lam, backend="exact")


def test_exact_backend_refuses_a_xi_whose_coefficient_sum_overflows():
    # one R-vertex joined to all 50 L-vertices, 19 isolated ones: every
    # coefficient of Xi_R fits a float (the largest is 1.67e308), their sum
    # does not
    g = bc.BipartiteGraph(50, 20, [(u, 0) for u in range(50)])
    with pytest.raises(SizeCapError, match="Xi past the float range"):
        IndependentSetSampler(g, Fugacities(1.0, 1.458e16), backend="exact")


def test_extend_refuses_complex_activities():
    g = bc.even_cycle(8)
    config = bc.sampler.PolymerConfig(chosen=(), decided_vertices=frozenset())
    with pytest.raises(ValueError, match="real activities"):
        bc.extend_to_independent_set(g, config, Fugacities(complex(10.0), complex(0.05)), 0)
