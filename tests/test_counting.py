"""Approximation driver and the complex zero-freeness probe."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import bipcore as bc
from bipcore import (
    BipartiteGraph,
    CertificationError,
    ClusterBudgetError,
    ComplexRegion,
    Fugacities,
    SizeCapError,
    approx_log_Z,
    choose_m,
    truncated_expansion,
    zero_probe,
)
from bipcore import clusters, counting, oracle
from bipcore.counting import region_points

from conftest import random_bipartite


# ---------------------------------------------------------------------------
# m selection

def test_choose_m_examples():
    assert choose_m(10, 0.01, 0.1) == 70
    assert choose_m(1, 1.0, 0.1) == 1
    assert choose_m(4, 0.05, 0.1) == 44


def test_choose_m_validation():
    with pytest.raises(ValueError):
        choose_m(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        choose_m(1, 0.0, 0.1)
    with pytest.raises(ValueError):
        choose_m(1, 0.1, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            choose_m(4, bad, 0.1)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            choose_m(4, 0.05, bad)


# ---------------------------------------------------------------------------
# the approximation driver

def test_k11_example():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(10.0, 0.1)
    res = approx_log_Z(g, lam, epsilon=0.1)
    assert abs(res.log_Z_estimate - math.log(11.1)) <= 0.1
    assert res.certificate.mode == "analytic"
    assert res.error_bound is not None and res.error_bound <= 0.1
    assert not res.degraded


def test_zero_right_activity_is_exact():
    g = bc.random_biregular(2, 2, 4, seed=5)
    lam = Fugacities(7.0, 0.0)
    res = approx_log_Z(g, lam, epsilon=0.3)
    assert res.log_Z_estimate == g.n_L * math.log1p(7.0)


def test_matches_oracle_on_biregular():
    g = bc.random_biregular(2, 4, 4, seed=1)
    lam = Fugacities(50.0, 0.1)
    res = approx_log_Z(g, lam, epsilon=0.01)
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= 0.01


def test_refusal_without_certificate():
    with pytest.raises(CertificationError) as exc:
        approx_log_Z(bc.star_center_L(2), Fugacities(1.0, 1.0), epsilon=0.1)
    assert "exact" in str(exc.value)


def test_scaling_identity_bit_exact():
    # log_Z_estimate is the vertex term plus the truncated series, with no
    # hidden adjustment: the sum reproduces the estimate bit for bit, and
    # recomputing the series independently gives the same bits.
    g = bc.random_biregular(2, 4, 4, seed=2)
    lam = Fugacities(50.0, 0.1)
    res = approx_log_Z(g, lam, epsilon=0.1)
    offset = g.n_L * math.log1p(50.0)
    assert res.log_Z_estimate == offset + res.expansion.value
    redo = truncated_expansion(g, lam, res.m_used, certificate=res.certificate)
    assert redo.value == res.expansion.value


def test_monotone_refinement():
    g = bc.random_biregular(2, 4, 4, seed=3)
    lam = Fugacities(50.0, 0.1)
    bounds = [
        approx_log_Z(g, lam, epsilon=0.5, m=m).error_bound for m in (2, 4, 8, 12)
    ]
    assert all(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1))


def test_degradation_flag_under_budget(monkeypatch):
    # one below the 27 coefficients of the Xi_S that K_{3,6}'s one log
    # memoises at every m > 6; at m <= 6 its one component needs the table
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 26)
    g = bc.complete_bipartite(3, 6)
    lam = Fugacities(200.0, 0.05)
    assert bc.certify_kp(g, lam).valid
    res = approx_log_Z(g, lam, epsilon=0.001)
    assert res.degraded
    assert res.m_used < choose_m(g.n_R, 0.001, 0.1)
    assert res.error_bound == pytest.approx(
        g.n_R * math.exp(-res.m_used * 0.1), rel=1e-12
    )
    # still certified, still rigorous: the weaker bound covers the true gap
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= res.error_bound


def test_depth_one_always_fits(monkeypatch):
    # depth 1 stores no coefficient, so under a budget of 0 the count and
    # the truncated sampler degrade to m = 1 and never raise
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 0)
    g, lam = bc.even_cycle(8), Fugacities(10.0, 0.05)
    res = approx_log_Z(g, lam, epsilon=0.01)
    assert res.m_used == 1 and res.degraded
    s = bc.IndependentSetSampler(g, lam, backend="truncated")
    assert s.m_step == 1 and s.degraded


def test_fit_depth_reraises_at_depth_one():
    # unreachable from the drivers (see above), so a build that always fails
    tried = []

    def build(m):
        tried.append(m)
        raise ClusterBudgetError("over budget", clusters_seen=m)

    with pytest.raises(ClusterBudgetError):
        counting._fit_depth(build, 5)
    assert tried == [5, 4, 3, 2, 1]


def test_even_cycle_10_reaches_the_requested_depth():
    # asks for m = 29, where cluster enumeration used to exhaust memory;
    # lambda_R is 0.9 of the main condition's limit for degrees (2, 2)
    g = bc.even_cycle(10)
    lam = Fugacities(1.0, 0.9 * 2.0 / 24.0)
    res = approx_log_Z(g, lam, epsilon=0.3)
    assert not res.degraded
    assert res.m_used == choose_m(g.n_R, 0.3, res.certificate.eta) == 29
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= res.error_bound


def test_one_log_per_small_component_reaches_past_the_table(monkeypatch):
    # at m = 90 the table of C_16's 8-vertex link cycle overruns 5,000
    # coefficients; its one component, below m, needs no table
    monkeypatch.setattr(clusters, "MAX_COEFFICIENTS", 5_000)
    g, lam = bc.even_cycle(16), Fugacities(20.0, 0.05)
    res = approx_log_Z(g, lam, epsilon=0.001)
    assert res.m_used == 90 and not res.degraded
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= res.error_bound


def test_a_biregular_sixteen_reaches_the_requested_depth():
    # n_R = 16 in one component, below m: one log of Xi, with no list of
    # its 2-linked sets, while listing them degraded the count to m = 18
    g, lam = bc.random_biregular(3, 3, 16, seed=0), Fugacities(1.0, 0.03)
    res = approx_log_Z(g, lam, epsilon=0.01)
    assert res.m_used == choose_m(g.n_R, 0.01, 0.1) == 74 and not res.degraded
    assert abs(res.log_Z_estimate - bc.exact_log_Z(g, lam)) <= 1e-12


def test_json_fields_exact():
    g = bc.complete_bipartite(1, 1)
    res = approx_log_Z(g, Fugacities(10.0, 0.1), epsilon=0.1)
    doc = res.to_json_dict()
    assert set(doc) == {
        "log_Z_estimate",
        "epsilon",
        "m_used",
        "eta",
        "certificate_mode",
        "error_bound",
        "n_L",
        "n_R",
        "wall_time_ms",
    }
    assert doc["certificate_mode"] == "analytic"
    assert doc["n_L"] == 1 and doc["n_R"] == 1


def test_epsilon_validation():
    g = bc.complete_bipartite(1, 1)
    with pytest.raises(ValueError):
        approx_log_Z(g, Fugacities(10.0, 0.1), epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive and finite, got nan"):
        approx_log_Z(g, Fugacities(10.0, 0.1), epsilon=math.nan, m=5)
    with pytest.raises(ValueError):
        approx_log_Z(g, Fugacities(complex(10.0), complex(0.1)), epsilon=0.1)


def test_depth_below_one_is_refused():
    with pytest.raises(ValueError, match="m must be at least 1"):
        approx_log_Z(bc.even_cycle(8), Fugacities(10.0, 0.05), epsilon=0.1, m=0)


def test_a_non_integer_depth_is_refused():
    g, lam = bc.even_cycle(8), Fugacities(10.0, 0.05)
    with pytest.raises(ValueError, match="m must be an integer, got 3.0"):
        approx_log_Z(g, lam, 0.1, m=3.0)
    with pytest.raises(ValueError, match="m must be an integer, got 4.0"):
        bc.truncated_expansion(g, lam, 4.0)
    res = approx_log_Z(g, lam, 0.1, m=np.int64(3))
    assert type(res.m_used) is int and res.m_used == 3


# ---------------------------------------------------------------------------
# zero probe

def test_zero_probe_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        zero_probe(bc.even_cycle(8), ComplexRegion(10.0, 0.05), samples=0)


def test_zero_probe_refuses_bad_region():
    g = bc.even_cycle(6)  # degrees 2,2: need 24 * bound_R <= (1+bound_L)
    with pytest.raises(CertificationError):
        zero_probe(g, ComplexRegion(1.0, 1.0), samples=10)


def test_zero_probe_k11_region_admits_negative_Z():
    g = bc.complete_bipartite(1, 1)
    region = ComplexRegion(10.0, 0.1)
    # the region admits lambda_L = -12 (|1-12| = 11 >= 11): Z = -10.9 there
    lam = Fugacities(complex(-12.0), complex(0.1))
    assert region.contains(lam)
    assert bc.exact_Z_complex(g, lam) == pytest.approx(-10.9 + 0j)
    rep = zero_probe(g, region, samples=100, seed=0)
    assert rep.zeros_found == 0
    assert rep.min_abs_Z > 0


def test_zero_probe_zero_right_activity():
    g = bc.random_biregular(2, 2, 3, seed=0)
    lam = Fugacities(complex(-4.0), complex(0.0))
    assert abs(bc.exact_Z_complex(g, lam)) == pytest.approx(3.0**g.n_L)


def test_zero_probe_min_stable_in_sample_count():
    g = bc.random_biregular(2, 4, 4, seed=1)
    region = ComplexRegion(50.0, 0.1)  # 6*2*4*0.1 = 4.8 <= 51^2
    small = zero_probe(g, region, samples=100, seed=0)
    large = zero_probe(g, region, samples=1000, seed=0)
    assert large.min_abs_Z >= 0.5 * small.min_abs_Z
    assert small.zeros_found == large.zeros_found == 0


def test_zero_probe_deterministic_and_threaded():
    g = bc.complete_bipartite(2, 2)
    region = ComplexRegion(23.0, 0.1)  # 6*2*2*0.1 = 2.4 <= 24
    a = zero_probe(g, region, samples=64, seed=9)
    b = zero_probe(g, region, samples=64, seed=9)
    c = zero_probe(g, region, samples=64, seed=9, threads=4)
    assert a == b == c


def test_zero_probe_points_lie_in_region():
    from bipcore.counting import region_points

    region = ComplexRegion(5.0, 0.3)
    pts = region_points(region, 200, seed=4)
    assert pts == region_points(region, 200, seed=4)
    for lam_L, lam_R in pts:
        assert region.contains(Fugacities(lam_L, lam_R))
    # even indices sit on the region boundary, odd ones strictly inside
    for i, (lam_L, lam_R) in enumerate(pts):
        if i % 2 == 0:
            assert abs(lam_R) == pytest.approx(region.bound_R)
            assert abs(1 + lam_L) == pytest.approx(1 + region.bound_L)
        else:
            assert abs(lam_R) <= region.bound_R
            assert abs(1 + lam_L) >= 1 + region.bound_L


def _region_points_per_uniform(region, samples, seed):
    """region_points with one rng.uniform call per coordinate: the reference
    for the points drawn from one block of doubles."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = []
    for i in range(samples):
        th_L, th_R = rng.uniform(0.0, 2.0 * math.pi, 2)
        if i % 2 == 0:
            rad_R = region.bound_R
            rad_L = 1.0 + region.bound_L
        else:
            rad_R = region.bound_R * rng.uniform(0.0, 1.0)
            rad_L = (1.0 + region.bound_L) * (1.0 + 2.0 * rng.uniform(0.0, 1.0))
        dir_L = complex(math.cos(th_L), math.sin(th_L))
        lam_R = rad_R * complex(math.cos(th_R), math.sin(th_R))
        while abs(lam_R) > region.bound_R:
            lam_R *= 1.0 - 2.0**-52
        while abs(-1.0 + rad_L * dir_L + 1.0) < 1.0 + region.bound_L:
            rad_L *= 1.0 + 2.0**-52
        pts.append((-1.0 + rad_L * dir_L, lam_R))
    return pts


@pytest.mark.parametrize("seed", [0, 4, 41])
def test_region_points_are_the_per_uniform_points_bit_for_bit(seed):
    for region in (ComplexRegion(5.0, 0.3), ComplexRegion(10.0, 0.05)):
        for samples in (1, 2, 7, 200):
            got = np.array(region_points(region, samples, seed), dtype=complex)
            want = np.array(_region_points_per_uniform(region, samples, seed), dtype=complex)
            assert got.shape == want.shape == (samples, 2)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _disjoint_union(pieces: list[BipartiteGraph]) -> BipartiteGraph:
    n_L = n_R = 0
    edges = []
    for p in pieces:
        edges += [(u + n_L, v + n_R) for u, v in p.edges]
        n_L += p.n_L
        n_R += p.n_R
    return BipartiteGraph(n_L, n_R, edges)


@pytest.mark.parametrize("block_terms", [None, 1, 50])
def test_zero_probe_reports_the_minimum_of_one_point_evaluations(monkeypatch, block_terms):
    # with a small block the points span many blocks: 50 terms hold one
    # point of even_cycle(24)'s 38 terms and 8 to 25 of the union's
    # components, whose smaller sides lie on both sides
    if block_terms is not None:
        monkeypatch.setattr(oracle, "_BLOCK_TERMS", block_terms)
    region = ComplexRegion(10.0, 0.05)
    union = _disjoint_union(
        [bc.even_cycle(8), bc.complete_bipartite(3, 2), bc.complete_bipartite(1, 2)]
    )
    for g, samples, seed in ((bc.even_cycle(24), 41, 0), (union, 60, 3)):
        rep = zero_probe(g, region, samples=samples, seed=seed)
        pts = region_points(region, samples, seed)
        abs_z = [abs(bc.exact_Z_complex(g, Fugacities(*pt))) for pt in pts]
        assert rep.min_abs_Z == min(abs_z)
        assert rep.argmin == pts[abs_z.index(min(abs_z))]
        assert rep.zeros_found == 0


def test_exact_Z_complex_rounds_as_the_per_point_sum():
    # the per-point evaluation: Python's complex powers and products, parts
    # summed by fsum
    g = bc.random_biregular(2, 4, 16, seed=1)
    for pt in region_points(ComplexRegion(10.0, 0.05), 40, 7):
        lam = Fugacities(*pt)
        want = 1.0 + 0.0j
        for x_is_L, n_Y, hist in oracle._graph_profile(g):
            x, y = (lam.lambda_L, lam.lambda_R) if x_is_L else (lam.lambda_R, lam.lambda_L)
            terms = [c * x**a * (1 + y) ** (n_Y - b) for a, b, c in hist]
            want *= complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert abs(bc.exact_Z_complex(g, lam) - want) <= 1e-15 * abs(want)


def test_zero_probe_overflow_is_a_size_cap_error():
    # the smaller side is the one R-vertex, so Z carries (1 + lambda_L)**200,
    # and |1 + lambda_L| >= 51 puts it past the float range at every point;
    # the overflow surfaces as SizeCapError, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeCapError):
            zero_probe(bc.complete_bipartite(200, 1), ComplexRegion(50.0, 0.1), samples=4)


def test_zero_probe_abs_z_past_the_float_range_is_a_size_cap_error(monkeypatch):
    # both parts fit a float, their modulus does not
    def huge(g, lam_L, lam_R):
        return np.full(len(lam_L), 1.5e308), np.full(len(lam_L), 1.5e308)

    monkeypatch.setattr(counting, "_z_complex_at", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeCapError):
            zero_probe(bc.even_cycle(8), ComplexRegion(10.0, 0.05), samples=3)
