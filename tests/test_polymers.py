"""Polymer enumeration, weights, compatibility, and convergence vertex sums."""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    BipartiteGraph,
    ComplexRegion,
    Fugacities,
    NotTwoLinkedError,
    SizeCapError,
    all_polymers,
    enumerate_polymers,
    incompatible,
    kp_vertex_sum,
    polymer_weight,
    polymers,
)
from bipcore.clusters import ClusterEngine
from bipcore.polymers import (
    PolymerSystem, _is_two_linked, _link_masks, make_polymer, two_linked_adjacency
)

from conftest import random_bipartite, random_fugacities

LAM = Fugacities(1.0, 1.0)


# ---------------------------------------------------------------------------
# activities

def test_fugacities_validation():
    with pytest.raises(ValueError):
        Fugacities(0.0, 1.0)
    with pytest.raises(ValueError):
        Fugacities(-2.0, 1.0)
    with pytest.raises(ValueError):
        Fugacities(1.0, -0.5)
    with pytest.raises(ValueError):
        Fugacities(math.inf, 1.0)
    with pytest.raises(ValueError):
        Fugacities(complex(-1.0, 0.0), complex(0.1))
    assert Fugacities(1.0, 0.0).is_real  # zero right activity is allowed
    assert not Fugacities(complex(2, 1), 0.5).is_real
    # complex mode needs finite parts too, and the message names the value
    for lam_L, lam_R, bad in [
        (complex(math.inf, 0), 0.1j, "lambda_L=(inf+0j)"),
        (complex(1, 0), complex(0, math.nan), "lambda_R=nanj"),
        (complex(math.nan, 0), 0.1, "lambda_L=(nan+0j)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(bad)):
            Fugacities(lam_L, lam_R)


def test_complex_region():
    region = ComplexRegion(0.5, 0.2)
    assert region.contains(Fugacities(complex(0.5), complex(0.0, 0.2)))
    assert not region.contains(Fugacities(complex(0.5), complex(0.0, 0.3)))
    assert not region.contains(Fugacities(complex(-1.2, 0.0), complex(0.1)))
    with pytest.raises(ValueError):
        ComplexRegion(-1.0, 0.1)
    for bounds, bad in [((10.0, math.inf), "bound_R=inf"), ((math.nan, 0.1), "bound_L=nan")]:
        with pytest.raises(ValueError, match=bad):
            ComplexRegion(*bounds)


# ---------------------------------------------------------------------------
# the 2-linked relation

def test_two_linked_adjacency_cycle():
    g = bc.even_cycle(8)  # R-vertices around the cycle: 0,1,2,3
    adj = two_linked_adjacency(g)
    assert adj[0] == frozenset({1, 3})
    assert adj[1] == frozenset({0, 2})


def test_two_linked_requires_shared_neighbor():
    g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    adj = two_linked_adjacency(g)
    assert adj[0] == frozenset() and adj[1] == frozenset()


def test_make_polymer_validates():
    g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(NotTwoLinkedError):
        make_polymer(g, [0, 1], LAM)
    with pytest.raises(NotTwoLinkedError):
        make_polymer(g, [], LAM)
    with pytest.raises(NotTwoLinkedError):
        make_polymer(g, [5], LAM)
    p = make_polymer(g, [0], LAM)
    assert p.vertices == (0,) and p.size == 1


# ---------------------------------------------------------------------------
# weights

def test_weight_formula_examples():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(10.0, 0.1)
    assert polymer_weight(g, [0], lam) == pytest.approx(0.1 / 11.0, rel=1e-15)

    star = bc.star_center_L(2)
    # both leaves: lambda_R^2 / (1+lambda_L)^1
    assert polymer_weight(star, [0, 1], Fugacities(1.0, 1.0)) == pytest.approx(0.5)
    assert polymer_weight(star, [0], Fugacities(1.0, 1.0)) == pytest.approx(0.5)


def test_weight_complex_mode():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(complex(0, 1), complex(0.3, 0.4))
    w = polymer_weight(g, [0], lam)
    assert w == pytest.approx(complex(0.3, 0.4) / complex(1, 1), rel=1e-15)


def test_zero_right_activity_kills_weights():
    g = bc.star_center_L(3)
    lam = Fugacities(2.0, 0.0)
    for p in all_polymers(g, lam, 3):
        assert p.weight == 0.0


# ---------------------------------------------------------------------------
# enumeration

def _brute_polymer_masks(g, max_size):
    links = _link_masks(g)
    out = set()
    for mask in range(1, 1 << g.n_R):
        if mask.bit_count() <= max_size and _is_two_linked(mask, links):
            out.add(mask)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_all_polymers_matches_brute_force(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 5, 0.5)
    max_size = int(rng.integers(1, g.n_R + 1))
    ps = all_polymers(g, LAM, max_size)
    masks = [p.mask for p in ps]
    assert len(set(masks)) == len(masks)  # exactly once
    assert set(masks) == _brute_polymer_masks(g, max_size)
    assert [p.vertices for p in ps] == sorted(p.vertices for p in ps)


def test_enumerate_polymers_needs_an_existing_root():
    g = bc.even_cycle(8)
    with pytest.raises(ValueError, match="no R-vertex 4"):
        list(enumerate_polymers(g, LAM, 4, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumerate_polymers_rooted(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 5, 0.5)
    root = int(rng.integers(0, g.n_R))
    k_max = int(rng.integers(1, g.n_R + 1))
    got = {p.mask for p in enumerate_polymers(g, LAM, root, k_max)}
    want = {
        m for m in _brute_polymer_masks(g, k_max) if m & (1 << root)
    }
    assert got == want


def _recursive_growth(adj, root, size_cap, allowed, marks):
    """The canonical growth as a recursion, one generator per vertex: the
    reference for the explicit-stack ``_grown_sets``."""
    def rec(smask, size, ext, forb, acc):
        yield smask, acc
        while ext:
            bit = ext & -ext
            ext ^= bit
            if size < size_cap:
                v = bit.bit_length() - 1
                grown = smask | bit
                new_ext = (ext | (adj[v] & allowed)) & ~grown & ~forb
                yield from rec(grown, size + 1, new_ext, forb, acc | marks[v])
            forb |= bit

    rootbit = 1 << root
    if allowed & rootbit and size_cap >= 1:
        yield from rec(rootbit, 1, adj[root] & allowed & ~rootbit, rootbit, marks[root])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_grown_sets_match_the_recursive_growth(seed):
    # same sets, same unions, same order: the series and the sampler's
    # conditionals sum in this order, so their bits depend on it
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 5, 9, float(rng.uniform(0.2, 0.6)))
    links = _link_masks(g)
    marks = [int(rng.integers(0, 2**20)) for _ in range(g.n_R)]
    for _ in range(4):
        root = int(rng.integers(0, g.n_R))
        size_cap = int(rng.integers(0, g.n_R + 2))
        allowed = int(rng.integers(0, 1 << g.n_R)) | (1 << root) * int(rng.integers(0, 2))
        args = (links, root, size_cap, allowed, marks)
        assert list(polymers._grown_sets(*args)) == list(_recursive_growth(*args))


def test_polymer_count_k11():
    g = bc.complete_bipartite(1, 1)
    assert len(all_polymers(g, LAM, 1)) == 1


def test_polymer_count_complete_2_3():
    # K_{2,3}: every nonempty subset of R is 2-linked
    g = bc.complete_bipartite(2, 3)
    assert len(all_polymers(g, LAM, 3)) == 7


# ---------------------------------------------------------------------------
# compatibility

def test_incompatibility_rules():
    g = bc.even_cycle(8)
    links = _link_masks(g)
    p0 = make_polymer(g, [0], LAM)
    p1 = make_polymer(g, [1], LAM)
    p2 = make_polymer(g, [2], LAM)
    assert incompatible(p0, p0, links)  # self
    assert incompatible(p0, p1, links)  # 2-linked union
    assert not incompatible(p0, p2, links)  # distance 4 in the cycle
    p01 = make_polymer(g, [0, 1], LAM)
    assert incompatible(p01, p2, links)  # shares a 2-linked pair via vertex 1


# ---------------------------------------------------------------------------
# convergence vertex sums

def test_kp_vertex_sum_k11_example():
    g = bc.complete_bipartite(1, 1)
    s = kp_vertex_sum(g, 0, Fugacities(10.0, 0.1), eta=0.1, k_max=1)
    assert s.partial == pytest.approx((0.1 / 11.0) * math.exp(0.6), rel=1e-12)
    assert s.bound == pytest.approx(0.5)
    assert s.tail == 0.0  # d = max_deg_R (max_deg_L - 1) = 0: no larger polymers
    assert s.satisfied is True


def test_kp_vertex_sum_k12_violated():
    g = bc.star_center_L(2)
    s = kp_vertex_sum(g, 0, Fugacities(1.0, 1.0), eta=0.1, k_max=6)
    want = 0.5 * math.exp(0.6) + 0.5 * math.exp(1.2)
    assert s.partial == pytest.approx(want, rel=1e-12)
    assert s.partial == pytest.approx(2.571, abs=5e-4)
    assert s.bound == pytest.approx(0.25)
    assert s.partial > s.bound  # violated regardless of the (infinite) tail
    assert math.isinf(s.tail) and s.satisfied is None


def test_kp_tail_zero_activity():
    g = bc.star_center_L(3)
    s = kp_vertex_sum(g, 0, Fugacities(2.0, 0.0), eta=0.1, k_max=2)
    assert s.partial == 0.0 and s.tail == 0.0 and s.satisfied is True


def test_kp_tail_decreases_in_k_max():
    g = bc.random_biregular(2, 4, 4, seed=1)
    lam = Fugacities(50.0, 0.1)
    totals = [
        kp_vertex_sum(g, 0, lam, eta=0.1, k_max=k).tail for k in range(1, 5)
    ]
    assert all(totals[i] >= totals[i + 1] for i in range(len(totals) - 1))
    assert all(math.isfinite(t) for t in totals)


def test_kp_total_upper_bounds_true_sum():
    # the partial+tail must dominate the exact infinite sum (here: finite graph)
    g = bc.random_biregular(2, 4, 4, seed=3)
    lam = Fugacities(50.0, 0.1)
    s = kp_vertex_sum(g, 0, lam, eta=0.1, k_max=2)
    exact = math.fsum(
        abs(p.weight) * math.exp(0.6 * p.size)
        for p in enumerate_polymers(g, lam, 0, g.n_R)
    )
    assert s.total >= exact - 1e-15


# ---------------------------------------------------------------------------
# polymer systems

def test_polymer_universe_cap(monkeypatch):
    g = bc.even_cycle(8)
    assert len(all_polymers(g, LAM, 4)) > 10
    monkeypatch.setattr(polymers, "DEFAULT_MAX_POLYMERS", 10)
    with pytest.raises(SizeCapError):
        all_polymers(g, LAM, 4)
    with pytest.raises(SizeCapError):
        ClusterEngine(g, LAM, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["real", "zero_R", "complex"]))
def test_system_xi_matches_subset_oracle(seed, kind):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 5, 0.5)
    lam = random_fugacities(rng)
    if kind == "zero_R":
        lam = Fugacities(lam.lambda_L, 0.0)
    elif kind == "complex":  # |lambda_R| <= 0.5 keeps Xi away from 0
        lam = Fugacities(
            complex(lam.lambda_L, rng.uniform(-3, 3)),
            complex(*rng.uniform(-0.35, 0.35, size=2)),
        )
    system = PolymerSystem(g, lam)
    assert system.xi() == pytest.approx(bc.exact_Xi(g, lam), rel=1e-12, abs=1e-12)


def test_system_collections_k12():
    g = bc.star_center_L(2)
    system = PolymerSystem(g, Fugacities(1.0, 1.0))
    cols = list(system.collections())
    # {}, {0}, {1}, {0,1} as single polymers -- all pairs incompatible
    assert len(cols) == 4
    total = math.fsum(w for _, w in cols)
    assert total == pytest.approx(system.xi(), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_system_collections_are_pairwise_compatible(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 3, 4, 0.5)
    lam = random_fugacities(rng)
    system = PolymerSystem(g, lam)
    links = _link_masks(g)
    seen = set()
    for idxs, w in system.collections():
        assert idxs not in seen
        seen.add(idxs)
        for i, j in combinations(idxs, 2):
            assert not incompatible(system.polymers[i], system.polymers[j], links)
        prod = 1.0
        for i in idxs:
            prod *= system.polymers[i].weight
        assert w == pytest.approx(prod, rel=1e-13, abs=1e-300)
