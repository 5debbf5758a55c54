"""Brute-force oracle: partition functions, distributions, cumulants."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import BipartiteGraph, Fugacities, SizeCapError, kernels, oracle
from bipcore.counting import region_points
from bipcore.polymers import ComplexRegion, PolymerSystem, two_linked_adjacency

from conftest import random_bipartite, random_fugacities


# ---------------------------------------------------------------------------
# partition functions

def test_hand_counted_Z():
    one = Fugacities(1.0, 1.0)
    assert bc.exact_Z(bc.complete_bipartite(1, 1), one) == pytest.approx(3.0)
    assert bc.exact_Z(bc.star_center_L(2), one) == pytest.approx(5.0)
    # K_{1,1} with general activities: 1 + a + b
    assert bc.exact_Z(
        bc.complete_bipartite(1, 1), Fugacities(2.0, 7.0)
    ) == pytest.approx(10.0)
    # edgeless 1+1: (1+a)(1+b)
    assert bc.exact_Z(BipartiteGraph(1, 1, []), Fugacities(2.0, 7.0)) == pytest.approx(24.0)


def test_disjoint_union_factorizes(rng):
    for _ in range(10):
        g1 = random_bipartite(rng, 3, 3, 0.5)
        g2 = random_bipartite(rng, 3, 3, 0.5)
        edges = list(g1.edges) + [
            (u + g1.n_L, v + g1.n_R) for u, v in g2.edges
        ]
        g = BipartiteGraph(g1.n_L + g2.n_L, g1.n_R + g2.n_R, edges)
        lam = random_fugacities(rng)
        assert bc.exact_log_Z(g, lam) == pytest.approx(
            bc.exact_log_Z(g1, lam) + bc.exact_log_Z(g2, lam), rel=1e-12
        )


def test_complex_matches_real(rng):
    for _ in range(15):
        g = random_bipartite(rng, 4, 4, 0.5)
        lam = random_fugacities(rng)
        zc = bc.exact_Z_complex(
            g, Fugacities(complex(lam.lambda_L), complex(lam.lambda_R))
        )
        assert zc.imag == pytest.approx(0.0, abs=1e-9)
        assert zc.real == pytest.approx(bc.exact_Z(g, lam), rel=1e-12)


def test_polymer_identity(rng):
    # Z = (1 + lambda_L)^{n_L} * Xi
    for _ in range(25):
        g = random_bipartite(rng, 4, 4, 0.5)
        lam = random_fugacities(rng)
        lhs = bc.exact_Z(g, lam)
        rhs = (1 + lam.lambda_L) ** g.n_L * bc.exact_Xi(g, lam)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_exact_xi_k12():
    # polymers {0}, {1}, {0,1}, pairwise incompatible: Xi = 1 + 3w-ish
    g = bc.star_center_L(2)
    lam = Fugacities(1.0, 1.0)
    assert bc.exact_Xi(g, lam) == pytest.approx(1 + 0.5 + 0.5 + 0.5)


def test_size_caps():
    # the cap is on each component's smaller side, checked before any
    # profile is built, and it serves real and complex activities alike
    k21 = bc.complete_bipartite(21, 21)
    with pytest.raises(SizeCapError):
        bc.exact_log_Z(k21, Fugacities(1.0, 1.0))
    with pytest.raises(SizeCapError):
        bc.exact_Z_complex(k21, Fugacities(complex(1), complex(1)))
    # many vertices on the larger side, large activities: no refusal, and
    # log Z = log((1 + lam_L)**a + (1 + lam_R)**b - 1)
    for a, b, lam in [(1, 30, Fugacities(1.0, 1.0)), (3, 200, Fugacities(50.0, 2.0))]:
        closed = math.log((1 + lam.lambda_L) ** a + (1 + lam.lambda_R) ** b - 1)
        assert bc.exact_log_Z(bc.complete_bipartite(a, b), lam) == pytest.approx(
            closed, rel=1e-13
        )
    with pytest.raises(SizeCapError):
        bc.exact_Xi(bc.complete_bipartite(1, 21), Fugacities(1.0, 1.0))
    # Xi = 1 + 0.1 / 51**200: the polymer weight underflows, it does not overflow
    assert bc.exact_Xi(bc.complete_bipartite(200, 1), Fugacities(50.0, 0.1)) == 1.0
    with pytest.raises(SizeCapError):
        # activities too large for float evaluation: x**15 overflows
        bc.exact_log_Z(bc.complete_bipartite(15, 15), Fugacities(1e30, 1e30))
    with pytest.raises(SizeCapError):
        # 2 * x overflows while r**|N(S)| underflows: inf * 0 is nan, not a value
        bc.exact_log_Z(bc.complete_bipartite(2, 400), Fugacities(1e308, 1e300))
    # log Z = 200 log 51 + log(1 + tiny) > 709: Z itself overflows a float
    big = bc.complete_bipartite(3, 200)
    assert bc.exact_log_Z(big, Fugacities(50.0, 50.0)) > 709
    with pytest.raises(SizeCapError):
        bc.exact_Z(big, Fugacities(50.0, 50.0))


def test_polymer_oracle_overflow_is_a_size_cap():
    cases = [
        (bc.complete_bipartite(1, 2), Fugacities(1.0, 1e300)),  # lambda_R**2 overflows
        (BipartiteGraph(1, 3, []), Fugacities(1.0, 1e200)),  # a product of three does
    ]
    for oracle in (bc.exact_Xi, bc.exact_nu):
        for g, lam in cases:
            with pytest.raises(SizeCapError):
                oracle(g, lam)
    # (1 + lambda_L)**-200 = (-50)**200 overflows a complex power; exact_nu
    # takes real activities only
    with pytest.raises(SizeCapError):
        bc.exact_Xi(bc.complete_bipartite(200, 1), Fugacities(-1.02 + 0j, 0.1))


def test_component_factorization_avoids_cap():
    # 40 vertices in 20 tiny components: fine despite the 30-vertex cap
    g = BipartiteGraph(20, 20, [(i, i) for i in range(20)])
    lam = Fugacities(1.0, 1.0)
    assert bc.exact_log_Z(g, lam) == pytest.approx(20 * math.log(3.0), rel=1e-12)


def _recursion_Z(g: BipartiteGraph, lam: Fugacities, free: int | None = None):
    """Independent-set sum over ``free`` (default: every vertex) by the
    reference recursion, which the side-subset sums must reproduce."""
    adj = list(g.global_adjacency())
    weights = [lam.lambda_L] * g.n_L + [lam.lambda_R] * g.n_R
    if free is None:
        free = (1 << g.n_vertices) - 1
    kernel = kernels.is_sum_real if lam.is_real else kernels.is_sum_complex
    return kernel(adj, weights, free)


def _union(pieces: list[BipartiteGraph]) -> BipartiteGraph:
    n_L = n_R = 0
    edges = []
    for p in pieces:
        edges += [(u + n_L, v + n_R) for u, v in p.edges]
        n_L += p.n_L
        n_R += p.n_R
    return BipartiteGraph(n_L, n_R, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_side_subset_sums_match_the_recursion(seed, flip, zero_R):
    rng = np.random.Generator(np.random.Philox(seed))
    # a star whose center blocks its whole component, random pieces whose
    # smaller side is either side, and isolated vertices on both sides
    pieces = [bc.star_center_L(3)]
    pieces += [
        random_bipartite(rng, 6, 6, float(rng.uniform(0.2, 0.8)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    pieces.append(BipartiteGraph(int(rng.integers(0, 3)), int(rng.integers(0, 3)), []))
    g = _union(pieces)
    if flip:  # the star's center, and each piece's smaller side, change sides
        g = BipartiteGraph(g.n_R, g.n_L, [(v, u) for u, v in g.edges])
    lam = Fugacities(
        float(rng.uniform(0.05, 5.0)), 0.0 if zero_R else float(rng.uniform(0.05, 5.0))
    )

    log_z = bc.exact_log_Z(g, lam)
    assert log_z == pytest.approx(math.log(_recursion_Z(g, lam)), rel=1e-12, abs=1e-12)

    center = ("R", 0) if flip else ("L", 0)
    verts = list(g.vertices())
    sets = [[center], [center, verts[int(rng.integers(len(verts)))]]]
    sets += [
        [verts[int(i)] for i in rng.choice(len(verts), k, replace=False)]
        for k in (1, 2, 3)
    ]
    adj = g.global_adjacency()
    for A in sets:
        gids = {g.global_id(v) for v in A}
        closed = 0
        for gid in gids:
            closed |= 1 << gid | adj[gid]
        if any(adj[gid] >> other & 1 for gid in gids for other in gids):
            want = 0.0
        else:
            factor = math.prod(lam.lambda_L if gid < g.n_L else lam.lambda_R for gid in gids)
            free = ((1 << g.n_vertices) - 1) & ~closed
            want = factor * _recursion_Z(g, lam, free) / _recursion_Z(g, lam)
        assert bc.exact_occupancy(g, lam, A) == pytest.approx(want, rel=1e-12, abs=0.0)

    for lam_L, lam_R in region_points(ComplexRegion(10.0, 0.05), 4, seed):
        lc = Fugacities(lam_L, lam_R)
        want = _recursion_Z(g, lc)
        assert abs(bc.exact_Z_complex(g, lc) - want) <= 1e-12 * abs(want)


def test_oracle_never_runs_the_recursion(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("independent-set recursion reached from the oracle")

    monkeypatch.setattr(kernels, "is_sum_real", boom)
    monkeypatch.setattr(kernels, "is_sum_complex", boom)
    g = bc.even_cycle(12)
    lam = Fugacities(2.0, 0.5)
    log_z = bc.exact_log_Z(g, lam)
    assert log_z == pytest.approx(6 * math.log(3.0) + math.log(bc.exact_Xi(g, lam)), rel=1e-12)
    zc = bc.exact_Z_complex(g, Fugacities(complex(2.0), complex(0.5)))
    assert zc == pytest.approx(math.exp(log_z), rel=1e-12)
    assert 0.0 < bc.exact_occupancy(g, lam, [("L", 0), ("R", 3)]) < 1.0


def test_xi_and_distribution_never_form_the_two_linked_relation(monkeypatch):
    # Xi and the Gibbs law read the subset walk only, so they check the
    # 2-linked machinery that SeriesEngine uses independently of it
    g = bc.even_cycle(10)
    lam = Fugacities(2.0, 0.5)
    log_xi = bc.exact_log_Z(g, lam) - g.n_L * math.log1p(lam.lambda_L)
    marginal = bc.exact_marginal(g, lam, ("R", 0))
    zc = bc.exact_Z_complex(g, Fugacities(complex(2.0, 1.0), complex(0.5)))

    def boom(*args, **kwargs):
        raise AssertionError("2-linked machinery reached from Xi or the Gibbs law")

    monkeypatch.setattr(oracle, "_link_masks", boom)
    monkeypatch.setattr(oracle, "_components", boom)
    assert math.log(bc.exact_Xi(g, lam)) == pytest.approx(log_xi, rel=1e-12)
    xi_c = bc.exact_Xi(g, Fugacities(complex(2.0, 1.0), complex(0.5)))
    assert abs(xi_c * complex(3.0, 1.0) ** g.n_L - zc) <= 1e-12 * abs(zc)
    dist = bc.exact_distribution(g, lam)
    assert math.fsum(p for key, p in dist.items() if ("R", 0) in key) == pytest.approx(
        marginal, rel=1e-12
    )


def test_complex_point_where_one_plus_lambda_R_vanishes():
    # 1 + lambda_R = 0 leaves only the terms with N(S) = R in the profile of
    # a component whose smaller side is L
    g = _union([bc.star_center_L(3), bc.complete_bipartite(2, 3)])
    lam = Fugacities(complex(0.5, 1.0), complex(-1.0))
    want = _recursion_Z(g, lam)
    assert abs(want) > 1.0
    assert abs(bc.exact_Z_complex(g, lam) - want) <= 1e-12 * abs(want)


def test_oracle_in_the_paper_regime():
    # n_L = 100 >> n_R = 20 with 2-linked R-vertices: one 2**20 profile
    g = bc.random_biregular(2, 10, 100, seed=0)
    lam = Fugacities(3.0, 0.5)
    log_z = bc.exact_log_Z(g, lam)
    log_xi = log_z - g.n_L * math.log1p(lam.lambda_L)
    for eta in (2.0, 3.5):
        res = bc.approx_log_Z(g, lam, 0.01, eta=eta)
        assert not res.degraded
        miss = abs(res.log_Z_estimate - log_z)
        assert miss <= res.error_bound + 1e-12 * abs(log_z)
        # log Xi is about 1e-5: dropping the series would miss by all of it
        assert miss <= 1e-3 * abs(log_xi)
    # n_L = 200 at lambda_L = 50: log Z is about 786, beyond a float's Z
    wide = bc.random_biregular(2, 20, 200, seed=3)
    assert (wide.n_L, wide.n_R) == (200, 20)
    assert math.isfinite(bc.exact_log_Z(wide, Fugacities(50.0, 0.1)))
    with pytest.raises(SizeCapError):
        bc.exact_Z_complex(wide, Fugacities(complex(50.0), complex(0.1)))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_side_cap_profile_stays_under_100_mb():
    # the largest profile the cap admits (2**20 subsets) in a fresh process,
    # so the peak RSS it adds is not hidden by an earlier test's peak
    code = (
        "import resource, bipcore as bc\n"
        "g = bc.random_biregular(2, 14, 140, seed=0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "bc.exact_log_Z(g, bc.Fugacities(1.0, 1.0))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert int(out.stdout) < 100 * 1024


# ---------------------------------------------------------------------------
# occupancy and distributions

def test_occupancy_basics():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(1.0, 1.0)
    assert bc.exact_occupancy(g, lam, [("L", 0)]) == pytest.approx(1 / 3)
    assert bc.exact_occupancy(g, lam, [("R", 0)]) == pytest.approx(1 / 3)
    # adjacent pair can never be jointly occupied
    assert bc.exact_occupancy(g, lam, [("L", 0), ("R", 0)]) == 0.0
    assert bc.exact_marginal(g, lam, []) == 1.0
    assert bc.exact_marginal(g, lam, ("L", 0)) == pytest.approx(1 / 3)


def test_occupancy_independent_pair():
    g = BipartiteGraph(1, 2, [(0, 0)])
    lam = Fugacities(2.0, 3.0)
    # sets: {},{L0},{R0},{R1},{L0,R1},{R0,R1} weights 1,2,3,3,6,9 -> Z=24
    assert bc.exact_Z(g, lam) == pytest.approx(24.0)
    assert bc.exact_marginal(g, lam, ("R", 1)) == pytest.approx((3 + 6 + 9) / 24)
    assert bc.exact_marginal(g, lam, [("R", 0), ("R", 1)]) == pytest.approx(9 / 24)


def test_distribution_sums_to_one_and_supports_independent_sets(rng):
    for _ in range(10):
        g = random_bipartite(rng, 3, 3, 0.6)
        lam = random_fugacities(rng)
        dist = bc.exact_distribution(g, lam)
        assert math.fsum(dist.values()) == pytest.approx(1.0, rel=1e-12)
        adj = g.global_adjacency()
        for key in dist:
            gids = [g.global_id(v) for v in key]
            m = 0
            for gid in gids:
                m |= 1 << gid
            assert all(not (adj[gid] & m) for gid in gids)


def test_distribution_matches_occupancy(rng):
    g = random_bipartite(rng, 3, 3, 0.6)
    lam = random_fugacities(rng)
    dist = bc.exact_distribution(g, lam)
    for v in [("L", 0), ("R", g.n_R - 1)]:
        direct = bc.exact_marginal(g, lam, v)
        summed = math.fsum(p for key, p in dist.items() if v in key)
        assert direct == pytest.approx(summed, rel=1e-11, abs=1e-15)


def test_distribution_at_zero_right_activity_lives_on_L():
    # every set with an R-vertex weighs 0 and is left out
    g, lam = bc.even_cycle(4), Fugacities(1.0, 0.0)
    dist = bc.exact_distribution(g, lam)
    assert dist == {
        frozenset(s): 0.25 for s in ((), (("L", 0),), (("L", 1),), (("L", 0), ("L", 1)))
    }


@pytest.mark.parametrize(
    "oracle_fn, args",
    [
        (bc.exact_log_Z, ()),
        (bc.exact_occupancy, ([("R", 0)],)),
        (bc.exact_distribution, ()),
        (bc.exact_nu, ()),
    ],
    ids=["log_Z", "occupancy", "distribution", "nu"],
)
def test_real_only_oracles_refuse_complex_activities(oracle_fn, args):
    lam = Fugacities(complex(1.0), complex(0.5))
    with pytest.raises(ValueError, match="real activities"):
        oracle_fn(bc.even_cycle(4), lam, *args)


def test_complex_z_whose_terms_sum_past_the_float_range():
    # the one L-vertex is the smaller side: the terms (1 + lambda_R)**20 =
    # 9.1e307 and lambda_L = 1e308 fit a float, their sum does not
    g = bc.star_center_L(20)
    with pytest.raises(SizeCapError, match="Z overflows a complex float"):
        bc.exact_Z_complex(g, Fugacities(complex(1e308), complex(2.5e15)))


def test_distribution_cap():
    with pytest.raises(SizeCapError):
        bc.exact_distribution(bc.complete_bipartite(8, 8), Fugacities(1.0, 1.0))


def test_nu_matches_distribution_pushforward(rng):
    # the polymer-configuration law is the image of the spin law:
    # group independent sets by the 2-linked components of their R-part
    for _ in range(8):
        g = random_bipartite(rng, 3, 4, 0.5)
        lam = random_fugacities(rng)
        nu = bc.exact_nu(g, lam)
        assert math.fsum(nu.values()) == pytest.approx(1.0, rel=1e-12)
        dist = bc.exact_distribution(g, lam)
        links = two_linked_adjacency(g)
        grouped: dict[frozenset, float] = {}
        for key, p in dist.items():
            rset = {i for side, i in key if side == "R"}
            comps = []
            rest = set(rset)
            while rest:
                seed = rest.pop()
                comp = {seed}
                frontier = {seed}
                while frontier:
                    nxt = set()
                    for v in frontier:
                        nxt |= links[v] & rest
                    rest -= nxt
                    comp |= nxt
                    frontier = nxt
                comps.append(tuple(sorted(comp)))
            gkey = frozenset(comps)
            grouped[gkey] = grouped.get(gkey, 0.0) + p
        assert set(grouped) == set(nu)
        for k in nu:
            assert nu[k] == pytest.approx(grouped[k], rel=1e-10, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_nu_matches_the_polymer_collections(seed, zero_R):
    # each R-subset is the union of exactly one compatible collection
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 5, 6, float(rng.uniform(0.2, 0.8)))
    lam = Fugacities(float(rng.uniform(0.05, 5.0)), 0.0 if zero_R else float(rng.uniform(0.05, 5.0)))
    system = PolymerSystem(g, lam)
    want: dict[frozenset, float] = {}
    for idxs, w in system.collections():
        want[frozenset(system.polymers[i].vertices for i in idxs)] = w
    total = math.fsum(want.values())
    nu = bc.exact_nu(g, lam)
    assert set(nu) == set(want)
    for key, w in want.items():
        assert abs(nu[key] - w / total) <= 1e-12


# ---------------------------------------------------------------------------
# cumulants

def test_cumulant_order_1_and_2(rng):
    for _ in range(10):
        g = random_bipartite(rng, 3, 3, 0.6)
        lam = random_fugacities(rng)
        vs = list(g.vertices())
        v = vs[int(rng.integers(0, len(vs)))]
        u = vs[int(rng.integers(0, len(vs)))]
        assert bc.exact_cumulant(g, lam, [v]) == pytest.approx(
            bc.exact_marginal(g, lam, v), rel=1e-12, abs=1e-15
        )
        if u != v:
            want = bc.exact_marginal(g, lam, [u, v]) - bc.exact_marginal(
                g, lam, u
            ) * bc.exact_marginal(g, lam, v)
            assert bc.exact_cumulant(g, lam, [u, v]) == pytest.approx(
                want, rel=1e-11, abs=1e-14
            )
            assert bc.exact_covariance(g, lam, u, v) == pytest.approx(
                want, rel=1e-11, abs=1e-14
            )


def test_cumulant_across_components_vanishes():
    g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    lam = Fugacities(2.0, 3.0)
    assert bc.exact_cumulant(g, lam, [("L", 0), ("R", 1)]) == pytest.approx(0.0, abs=1e-14)
    assert bc.exact_covariance(g, lam, ("R", 0), ("R", 1)) == pytest.approx(0.0, abs=1e-14)


def test_cumulant_order_3_known_identity(rng):
    # kappa_3 = E[xyz] - E[xy]E[z] - E[xz]E[y] - E[yz]E[x] + 2 E[x]E[y]E[z]
    g = bc.even_cycle(6)
    lam = Fugacities(1.5, 0.7)
    A = [("R", 0), ("R", 1), ("R", 2)]
    mu = lambda S: bc.exact_marginal(g, lam, S)
    x, y, z = A
    want = (
        mu([x, y, z])
        - mu([x, y]) * mu([z])
        - mu([x, z]) * mu([y])
        - mu([y, z]) * mu([x])
        + 2 * mu([x]) * mu([y]) * mu([z])
    )
    assert bc.exact_cumulant(g, lam, A) == pytest.approx(want, rel=1e-11, abs=1e-14)


def test_cumulant_with_repeated_vertices():
    # an indicator has X**2 = X, so repeats give the Bernoulli cumulants
    g = bc.even_cycle(6)
    lam = Fugacities(1.5, 0.7)
    for v in [("L", 0), ("R", 1)]:
        mu = bc.exact_marginal(g, lam, v)
        assert bc.exact_cumulant(g, lam, [v, v]) == pytest.approx(mu * (1 - mu), rel=1e-12)
        assert bc.exact_cumulant(g, lam, [v, v, v]) == pytest.approx(
            mu * (1 - mu) * (1 - 2 * mu), rel=1e-11
        )


def test_cumulant_caps_and_validation():
    g = bc.even_cycle(6)
    lam = Fugacities(1.0, 1.0)
    with pytest.raises(ValueError):
        bc.exact_cumulant(g, lam, [])
    with pytest.raises(SizeCapError):
        bc.exact_cumulant(g, lam, [("R", i % 3) for i in range(9)])
