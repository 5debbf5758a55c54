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
from bipcore.polymers import _two_linked_sets
from bipcore.sampler import L_SET_MEMO, UNIFORM_BLOCK, _Uniforms, _vacancy_offsets

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


def test_extending_a_configuration_from_another_graph_names_the_vertex():
    # R-vertex 3 of C_8 is past the two R-vertices of C_4
    lam = Fugacities(1.0, 0.5)
    cfg = bc.sampler.PolymerConfig(
        chosen=(bc.make_polymer(bc.even_cycle(8), [3], lam),),
        decided_vertices=frozenset({3}),
    )
    g = bc.even_cycle(4)
    with pytest.raises(ValueError, match="R-vertex 3"):
        IndependentSetSampler(g, lam).extend(cfg, np.random.Generator(np.random.Philox(0)))
    with pytest.raises(ValueError, match="R-vertex 3"):
        extend_to_independent_set(g, cfg, lam, rng_seed=0)


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


# P(no polymer) on both sides of 0.9, for both backends: the ids name the
# two paths draws() took on either side before one block loop served every
# P(no polymer), and are kept so that the test keeps its ids.  A K_{70,3}
# draw reads 70 L-uniforms
_P_NONE_CASES = [
    (bc.even_cycle(12), Fugacities(1.0, 0.5), "exact", 0.4547),
    (bc.even_cycle(12), Fugacities(1.0, 0.05), "exact", 0.9273),
    (bc.complete_bipartite(70, 3), Fugacities(1.0, 1e7), "exact", 0.5414),
    (bc.complete_bipartite(70, 3), Fugacities(1.0, 4e6), "exact", 0.9486),
    (bc.even_cycle(16), Fugacities(2.0, 0.2), "truncated", 0.8322),
    (bc.even_cycle(16), Fugacities(10.0, 0.05), "truncated", 0.9967),
]


@pytest.mark.parametrize(
    "g, lam, backend, p_none",
    _P_NONE_CASES,
    ids=["C12-walk", "C12-batch", "K70,3-walk", "K70,3-batch", "C16-trunc-walk", "C16-trunc-batch"],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_draws_equal_sample_calls_on_both_sides_of_the_cutover(g, lam, backend, p_none, data):
    s = IndependentSetSampler(g, lam, backend=backend)
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(p_none, abs=1e-4)
    k = g.n_R + g.n_L
    size = max(4 * UNIFORM_BLOCK, 2 * k)  # the uniforms of one block of draws()
    # a draw reads at most k uniforms: n may cross several blocks
    n = data.draw(st.integers(0, 3 * size // k + 2), label="n")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    rng = np.random.Generator(np.random.Philox(seed))
    assert list(s.draws(n, seed)) == [s.sample(rng) for _ in range(n)]


def test_no_polymer_draws_with_no_l_vertices():
    # no L-uniforms: each no-polymer draw has the empty L-set's key
    g, lam = bc.BipartiteGraph(0, 3, []), Fugacities(1.0, 0.01)
    s = IndependentSetSampler(g, lam)
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(1 / 1.01**3)
    for seed in range(3):
        rng = np.random.Generator(np.random.Philox(seed))
        assert list(s.draws(3000, seed)) == [s.sample(rng) for _ in range(3000)]


def test_no_polymer_draws_clear_the_l_set_memo(monkeypatch):
    # 256 possible L-sets, each of chance 1/256: against a memo of 256
    # every no-polymer draw is kept, and the memo, which also holds the
    # polymer draws, fills and is cleared; the draws stay those of
    # repeated sample calls
    monkeypatch.setattr("bipcore.sampler.L_SET_MEMO", 256)
    s = IndependentSetSampler(bc.even_cycle(16), Fugacities(1.0, 0.001), backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(0.9980, abs=1e-4)
    rng = np.random.Generator(np.random.Philox(5))
    draws = list(s.draws(2000, seed=5))
    assert draws == [s.sample(rng) for _ in range(2000)]
    assert len(set(draws)) > 100
    # equal draws built before and after a clearing are two objects
    assert len({id(d) for d in draws}) > len(set(draws))


def test_no_polymer_draws_share_identical_l_sets():
    # P(no polymer) = 0.997 and 12 L-vertices at p_in = 20/21: the
    # likeliest L-set has chance 0.56, so every no-polymer draw is kept;
    # fewer distinct L-sets than L_SET_MEMO: each is one object
    s = IndependentSetSampler(bc.even_cycle(24), Fugacities(20.0, 0.1), backend="exact")
    draws = list(s.draws(2000, seed=2))
    none = [d for d in draws if not any(side == "R" for side, _ in d)]
    assert len(none) > 1900 and len(set(none)) < 500
    assert len({id(d) for d in none}) == len(set(none))
    # built from a set: the table a copy of a set gets, not the larger one
    # a frozenset grown from an iterator may keep
    assert all(sys.getsizeof(d) == sys.getsizeof(frozenset(set(d))) for d in set(none))


def test_walked_draws_share_identical_sets():
    # P(no polymer) = 0.455: more than half the draws are walked; C_12 has
    # 322 independent sets, fewer than L_SET_MEMO, so equal draws are one
    # object
    s = IndependentSetSampler(bc.even_cycle(12), Fugacities(1.0, 0.5), backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(0.4547, abs=1e-4)
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


class _Counted:
    """Generator(Philox(seed)) that counts the doubles ``random()`` read."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self.read = 0

    def random(self) -> float:
        self.read += 1
        return self._rng.random()


@pytest.mark.parametrize(
    "g, lam, memo, n, seed, p_none, offsets",
    [
        (bc.even_cycle(12), Fugacities(1.0, 0.5), L_SET_MEMO, 2_000, 1, 0.4547, True),
        (bc.even_cycle(12), Fugacities(1.0, 0.5), 4, 2_000, 1, 0.4547, True),
        (bc.random_biregular(2, 4, 16, seed=0), Fugacities(1.0, 0.3), L_SET_MEMO, 1_200, 1, 0.8554, True),
        (bc.BipartiteGraph(0, 3, []), Fugacities(1.0, 1.0), L_SET_MEMO, 6_000, 0, 0.125, True),
        (bc.even_cycle(12), Fugacities(1.0, 2.0), L_SET_MEMO, 2_000, 1, 0.0404, False),
    ],
    ids=["C12", "C12-memo4", "rb16", "no-L", "C12-every-draw-walked"],
)
def test_draws_below_the_cutover_equal_sample_calls_across_blocks(
    monkeypatch, g, lam, memo, n, seed, p_none, offsets
):
    # every offset of a block is tested as a draw's first uniform, or,
    # past n_R * max(p_any) = 2, every draw is walked; a draw that would
    # read past the block's end starts the next block, so the stream must
    # cross at least three blocks and hold a polymer draw that straddles an
    # end
    monkeypatch.setattr("bipcore.sampler.L_SET_MEMO", memo)
    s = IndependentSetSampler(g, lam, backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(p_none, abs=1e-4)
    assert (g.n_R * max(s._vacant_chain()) <= 2.0) == offsets
    read, ends = 0, []
    block, skip = _Uniforms.block, _Uniforms.skip

    def spied_block(self, size):
        ends.append(read + size)
        return block(self, size)

    def spied_skip(self, k):
        nonlocal read
        read += k
        skip(self, k)

    monkeypatch.setattr(_Uniforms, "block", spied_block)
    monkeypatch.setattr(_Uniforms, "skip", spied_skip)
    draws = list(s.draws(n, seed))
    rng, want, spans = _Counted(seed), [], []
    for _ in range(n):
        start = rng.read
        want.append(s.sample(rng))
        spans.append((start, rng.read))
    assert draws == want
    assert read == rng.read and len(ends) >= 3
    polymer_spans = [span for span, d in zip(spans, want) if any(v[0] == "R" for v in d)]
    assert any(a < end < b for a, b in polymer_spans for end in ends)


@pytest.mark.parametrize("n_R, size, seed", [(1, 40, 0), (3, 64, 1), (50, 120, 2), (50, 4_096, 3)])
def test_vacancy_offsets_are_the_draws_that_pick_no_polymer(n_R, size, seed):
    # 120 uniforms against 50 states compare two of the uniforms that pick
    # at a time
    rng = np.random.default_rng(seed)
    vacant = rng.random(n_R) * min(0.3, 2.0 / n_R)
    u = rng.random(size)
    starts = size - n_R + 1
    windows = np.lib.stride_tricks.sliding_window_view(u, n_R)[:starts]
    want = (windows >= vacant).all(axis=1)
    assert want.any() and not want.all()
    assert _vacancy_offsets(u, vacant, starts) == want.tobytes()


def test_vacancy_offsets_hold_no_array_past_the_block():
    # a chain of 20,000 states, 100 of them at p_any 0.008 as on a certified
    # even cycle at (1, 0.03), over a block of 2k uniforms: about 480
    # uniforms pick, and comparing all of them with every state at once
    # would take 9.6 million cells
    n_R = 20_000
    vacant = np.full(n_R, 1e-6)
    vacant[::200] = 0.008
    u = np.random.default_rng(4).random(4 * n_R)
    starts = 2 * n_R + 1
    tracemalloc.start()
    try:
        out = _vacancy_offsets(u, vacant, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * u.nbytes
    for p in range(0, starts, 97):
        assert out[p] == (u[p : p + n_R] >= vacant).all()
    assert 0 < sum(out) < len(out)


@pytest.mark.parametrize("memo", [4, L_SET_MEMO])
def test_shared_polymer_configs_equal_a_fresh_samplers(monkeypatch, memo):
    # sample_config hands out one PolymerConfig per tuple of chosen gamma;
    # a fresh sampler per draw, whose memo is empty, builds the same ones
    monkeypatch.setattr("bipcore.sampler.L_SET_MEMO", memo)
    g, lam = bc.even_cycle(12), Fugacities(1.0, 0.5)
    s = IndependentSetSampler(g, lam, backend="exact")
    rng = np.random.Generator(np.random.Philox(6))
    configs = []
    for _ in range(300):
        configs.append(s.sample_config(rng))
        assert len(s._configs) <= memo
    rng = np.random.Generator(np.random.Philox(6))
    fresh = [IndependentSetSampler(g, lam, backend="exact").sample_config(rng) for _ in range(300)]
    assert configs == fresh
    keys = {tuple(p.mask for p in c.chosen) for c in configs if c.chosen}
    assert len(keys) > memo if memo == 4 else len(keys) <= memo
    if memo == L_SET_MEMO:  # nothing was dropped: equal configs are one object
        assert len({id(c) for c in configs if c.chosen}) == len(keys)


def _streamed_peak_in_draws(lam: Fugacities, p_none: float) -> float:
    """C_12 and 1,994 isolated L-vertices: each draw holds about 1,000
    L-vertices, so no two repeat.  The traced peak of streaming 300 draws,
    11 MB together, in units of the largest draw."""
    c = bc.even_cycle(12)
    edges = [(u, v) for u in range(6) for v in _bits(c.adj_L[u])]
    g = bc.BipartiteGraph(2000, 6, edges)
    s = IndependentSetSampler(g, lam, backend="exact")
    assert math.prod(1.0 - p for p in s._vacant_chain()) == pytest.approx(p_none, abs=1e-4)
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
    return peak / one


def test_walked_draws_on_a_large_l_side_keep_no_draw():
    # more than half the draws are walked; no draw is kept for sharing
    assert _streamed_peak_in_draws(Fugacities(1.0, 0.5), 0.4547) < 10


def test_no_polymer_draws_on_a_large_l_side_keep_no_draw():
    # 98.5% of the draws pick no polymer, and the likeliest L-set of 2,000
    # free L-vertices has chance 2**-2000: none is kept for sharing
    assert _streamed_peak_in_draws(Fugacities(1.0, 0.01), 0.9851) < 10


@pytest.mark.parametrize("n_L, n_R", [(3, 0), (0, 0), (0, 3)], ids=["no-R", "empty", "no-L"])
def test_draws_on_an_empty_side_equal_sample_calls(n_L, n_R):
    # no R-vertex leaves the all-vacant chain empty, and no vertex at all
    # makes a draw read no uniform
    s = IndependentSetSampler(bc.BipartiteGraph(n_L, n_R, []), Fugacities(1.0, 0.5))
    for seed in range(3):
        rng = np.random.Generator(np.random.Philox(seed))
        assert list(s.draws(5000, seed)) == [s.sample(rng) for _ in range(5000)]


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
    # 24 stores 11,575, the 463 2-linked sets it lists charged as the table
    # would and one Xi each; 19 and 15, below the 22-vertex component,
    # build the table of f_T and store 7,920 and 4,928.  Every coefficient
    # the draws read is then stored before the first draw
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 4_000)
    g = bc.even_cycle(44)
    s = IndependentSetSampler(g, Fugacities(20.0, 0.1))
    assert (s.m_requested, s.m_step, s.degraded) == (99, 12, True)
    stored = s._engine._stored
    for draw in s.draws(20, seed=4):
        assert is_independent(g, draw)
    assert s._engine._stored == stored


def test_truncated_build_charges_the_sets_it_lists(monkeypatch):
    # rb(3,3,12) is one link component, below m_step = 24: the build lists
    # its 2-linked sets below m and charges each m - |T| as it is listed, as
    # the table would.  Under a budget of 10,000, depths 24, 19 and 15 stop
    # their listings short of the end; 12 and below build the table
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 10_000)
    listed = []

    def counted(links, S, cap):
        listed.append((cap + 1, 0))
        for T in _two_linked_sets(links, S, cap):
            listed[-1] = (cap + 1, listed[-1][1] + 1)
            yield T

    monkeypatch.setattr("bipcore.sampler._two_linked_sets", counted)
    g = bc.random_biregular(3, 3, 12, seed=0)
    s = IndependentSetSampler(g, Fugacities(1.0, 0.03), 0.01, backend="truncated")
    assert (s.m_step, s.degraded) == (5, True)
    assert [m for m, _ in listed] == [24, 19, 15]
    links, full = s._engine._links, (1 << g.n_R) - 1
    for m, n in listed:
        assert 0 < n < sum(1 for _ in _two_linked_sets(links, full, m - 1))


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
    # its build memoised, so a budget that fits the build fits the draws.
    # The build's peak charge holds the gamma its recursion frames list on
    # top of what it stores (16: 156 against 115; 20: 554 against 191)
    g = bc.random_biregular(2, 4, n_L, seed=0)
    lam = Fugacities(1.0, 0.5)
    peak = 0
    charge = clusters.SeriesEngine._charge

    def traced(engine, n):
        nonlocal peak
        charge(engine, n)
        peak = max(peak, engine._stored)

    monkeypatch.setattr(clusters.SeriesEngine, "_charge", traced)
    IndependentSetSampler(g, lam, backend="exact")
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", peak)
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
