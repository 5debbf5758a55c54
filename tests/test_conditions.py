"""Imbalance condition, special-case checks, certificates, complex regions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    ComplexRegion,
    DegreeProfile,
    Fugacities,
    StructuralMismatchError,
    certify_kp,
    check_complex_region,
    check_corollary,
    check_main_condition,
    conditions,
    kp_vertex_sum,
    polymer_weight,
    polymers,
)
from bipcore.conditions import SERIES_RATIO_LIMIT
from bipcore.graph import _bits, _union

from conftest import random_bipartite
from test_polymers import _brute_polymer_masks


# ---------------------------------------------------------------------------
# main condition

def test_main_condition_examples():
    c = check_main_condition((2, 4, 4), Fugacities(50.0, 0.1))
    assert c.satisfied and c.lhs == pytest.approx(4.8) and c.rhs == pytest.approx(2601.0)

    c = check_main_condition((3, 3, 3), Fugacities(1.0, 1.0))
    assert not c.satisfied and c.lhs == pytest.approx(54.0) and c.rhs == pytest.approx(2.0)


def test_main_condition_boundary_regular():
    # regular d=3 with lambda_L = 6 d^2 = 54, lambda_R = 1: 54 <= 55
    c = check_main_condition((3, 3, 3), Fugacities(54.0, 1.0))
    assert c.satisfied and c.lhs == pytest.approx(54.0) and c.rhs == pytest.approx(55.0)


def test_main_condition_exact_boundary_flagged():
    # engineer lhs == rhs: d_L=1, d_R=1, lambda_L chosen so rhs = lhs
    lam_R = 0.25
    lhs = 6 * 1 * 1 * lam_R  # 1.5
    c = check_main_condition((1, 1, 1), Fugacities(lhs - 1.0, lam_R))
    assert c.boundary and c.satisfied


def test_main_condition_takes_graph_or_profile():
    g = bc.random_biregular(2, 4, 4, seed=1)
    lam = Fugacities(50.0, 0.1)
    a = check_main_condition(g, lam)
    b = check_main_condition(bc.degree_profile(g), lam)
    assert a == b


def test_main_condition_rejects_complex():
    with pytest.raises(ValueError):
        check_main_condition((1, 1, 1), Fugacities(complex(1), complex(0.1)))


def test_main_condition_needs_positive_maximum_degrees():
    with pytest.raises(StructuralMismatchError, match="positive maximum degrees"):
        check_main_condition((0, 1, 1), Fugacities(1.0, 0.1))


@pytest.mark.parametrize(
    "kwargs, message",
    [({"v": 0, "k_max": 0}, "k_max must be at least 1"), ({"v": 8, "k_max": 6}, "no R-vertex 8")],
)
def test_vertex_sum_argument_errors(kwargs, message):
    with pytest.raises(ValueError, match=message):
        bc.kp_vertex_sum(bc.even_cycle(16), lam=Fugacities(10.0, 0.05), eta=0.1, **kwargs)


def test_certificates_reject_a_nan_rate():
    # a NaN rate used to give an "inconclusive" certificate with NaN margins
    g, lam = bc.even_cycle(8), Fugacities(10.0, 0.05)
    with pytest.raises(ValueError, match="eta must be positive, got nan"):
        certify_kp(g, lam, eta=math.nan)
    with pytest.raises(ValueError, match="eta must be positive, got nan"):
        bc.kp_vertex_sum(g, 0, lam, eta=math.nan, k_max=6)


# ---------------------------------------------------------------------------
# special cases

def test_corollary_part1():
    assert check_corollary((3, 3), Fugacities(54.0, 1.0), 1)
    assert not check_corollary((3, 3), Fugacities(53.0, 1.0), 1)
    with pytest.raises(StructuralMismatchError):
        check_corollary((2, 4), Fugacities(54.0, 1.0), 1)


def test_corollary_part2():
    assert check_corollary((2, 4), Fugacities(49.0, 49.0), 2)
    assert not check_corollary((2, 4), Fugacities(48.0, 48.0), 2)  # strict >
    with pytest.raises(StructuralMismatchError):
        check_corollary((4, 2), Fugacities(49.0, 49.0), 2)
    with pytest.raises(StructuralMismatchError):
        check_corollary((2, 4), Fugacities(49.0, 1.0), 2)


def test_corollary_part3():
    one = Fugacities(1.0, 1.0)
    assert check_corollary((6, 76), one, 3)
    assert not check_corollary((6, 75), one, 3)  # 7*6*ln 6 = 75.26 > 75
    with pytest.raises(StructuralMismatchError):
        check_corollary((6, 76), Fugacities(2.0, 2.0), 3)
    with pytest.raises(StructuralMismatchError):
        check_corollary((2, 76), one, 3)  # below the d_L floor


def test_corollary_reads_a_graph_as_its_degree_profile():
    g = bc.even_cycle(8)  # (2, 2)-biregular
    for lam in (Fugacities(24.0, 1.0), Fugacities(23.0, 1.0)):
        assert check_corollary(g, lam, 1) == check_corollary((2, 2), lam, 1)


@pytest.mark.parametrize(
    "profile, lam, part, error, message",
    [
        ((3, 3), Fugacities(complex(54.0), complex(1.0)), 1, ValueError, "real activities"),
        (bc.path(5), Fugacities(54.0, 1.0), 1, StructuralMismatchError, "biregular"),
        ((0, 3), Fugacities(54.0, 1.0), 1, StructuralMismatchError, "positive"),
        ((3, 3), Fugacities(54.0, 1.0), 4, ValueError, "part must be"),
    ],
    ids=["complex", "not-biregular", "zero-degree", "part-4"],
)
def test_corollary_argument_errors(profile, lam, part, error, message):
    with pytest.raises(error, match=message):
        check_corollary(profile, lam, part)


def test_corollary_implies_main_condition_samples(rng):
    # randomized soundness of each special case
    for _ in range(60):
        d = int(rng.integers(1, 6))
        lam_R = float(rng.uniform(0.05, 2.0))
        lam_L = 6.0 * d * d * lam_R * float(rng.uniform(1.0, 4.0))
        assert check_corollary((d, d), Fugacities(lam_L, lam_R), 1)
        assert check_main_condition((d, d, d), Fugacities(lam_L, lam_R)).satisfied
    for _ in range(60):
        d_L = int(rng.integers(1, 5))
        d_R = d_L + int(rng.integers(1, 5))
        lam = (6.0 * d_L * d_R) ** (d_L / (d_R - d_L)) * float(rng.uniform(1.001, 3.0))
        f = Fugacities(lam, lam)
        assert check_corollary((d_L, d_R), f, 2)
        assert check_main_condition((d_L, d_R, d_R), f).satisfied
    one = Fugacities(1.0, 1.0)
    for _ in range(60):
        d_L = int(rng.integers(6, 10))
        d_R = int(math.ceil(7 * d_L * math.log(d_L))) + int(rng.integers(0, 30))
        assert check_corollary((d_L, d_R), one, 3)
        assert check_main_condition((d_L, d_R, d_R), one).satisfied


def test_corollary_boundary_instances():
    # the two boundary cases pinned in the acceptance contract
    assert check_corollary((3, 3), Fugacities(54.0, 1.0), 1)
    assert check_main_condition((3, 3, 3), Fugacities(54.0, 1.0)).satisfied
    one = Fugacities(1.0, 1.0)
    assert check_corollary((6, 76), one, 3)
    assert check_main_condition((6, 76, 76), one).satisfied


# ---------------------------------------------------------------------------
# certificates

def test_certificate_analytic_route():
    g = bc.random_biregular(2, 4, 4, seed=1)
    cert = certify_kp(g, Fugacities(50.0, 0.1))
    assert cert.mode == "analytic" and cert.valid
    assert cert.eta == 0.1
    assert cert.per_vertex is None
    assert 0 < cert.margin < 1


def test_certificate_zero_right_activity():
    g = bc.star_center_L(3)
    cert = certify_kp(g, Fugacities(5.0, 0.0))
    assert cert.valid and cert.margin == 0.0


def test_certificate_failed_route():
    cert = certify_kp(bc.star_center_L(2), Fugacities(1.0, 1.0))
    assert cert.mode == "failed" and not cert.valid
    assert cert.margin > 1.0
    assert cert.per_vertex is not None


def test_certificate_empirical_route_larger_eta():
    # eta above the analytic ceiling forces the per-vertex route
    g = bc.complete_bipartite(1, 1)
    cert = certify_kp(g, Fugacities(10.0, 0.1), eta=0.3)
    assert cert.mode == "empirical" and cert.valid
    assert cert.eta == 0.3
    assert cert.per_vertex is not None and len(cert.per_vertex) == 1


def test_certificate_edgeless_graph():
    g = bc.BipartiteGraph(2, 2, [])
    cert = certify_kp(g, Fugacities(1.0, 0.05))
    assert cert.valid  # singleton polymers only; sums are tiny


def test_analytic_implies_empirical_on_instances(rng):
    # the analytic certificate promises the per-vertex sums fit at eta = 0.1
    checked = 0
    for _ in range(40):
        g = random_bipartite(rng, 3, 4, 0.6)
        if g.n_R < 1 or not any(g.adj_L):
            continue
        lam = Fugacities(float(rng.uniform(10, 60)), float(rng.uniform(0.01, 0.1)))
        try:
            cond = check_main_condition(g, lam)
        except StructuralMismatchError:
            continue
        if not cond.satisfied:
            continue
        cert = certify_kp(g, lam)
        assert cert.mode == "analytic"
        for v in range(g.n_R):
            s = bc.kp_vertex_sum(g, v, lam, eta=0.1, k_max=6)
            assert s.satisfied
        checked += 1
    assert checked >= 5


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(0.0, 3.0, exclude_min=True, allow_nan=False),
)
def test_per_vertex_sums_match_brute_force(seed, complex_mode, eta):
    # each vertex's partial sum is the correctly rounded sum over every
    # 2-linked set of at most 6 R-vertices containing it, found by brute force
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 7, 0.5)
    if complex_mode:
        r, th = rng.uniform(0.5, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        lam = Fugacities(
            complex(r * math.cos(th) - 1.0, r * math.sin(th)),
            complex(*rng.uniform(-2.0, 2.0, 2)),
        )
    else:
        lam = Fugacities(float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.0, 2.0)))
    cert = certify_kp(g, lam, eta)
    assume(cert.per_vertex is not None)  # not the analytic route
    masks = _brute_polymer_masks(g, 6)
    for v in range(g.n_R):
        want = math.fsum(
            abs(polymer_weight(g, list(_bits(mask)), lam))
            * math.exp((0.5 + eta) * mask.bit_count())
            for mask in masks
            if mask >> v & 1
        )
        assert cert.per_vertex[v].partial == want
    assert cert.per_vertex == tuple(
        kp_vertex_sum(g, v, lam, eta, 6) for v in range(g.n_R)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(60.0, 160.0).map(lambda e: 10.0**e),
    st.floats(0.0, 3.0, exclude_min=True, allow_nan=False),
)
def test_vertex_sums_past_the_float_range_fail_the_certificate(seed, lam_R, eta):
    # from lambda_R = 1e60 on, a term, a weight or a vertex's sum passes the
    # float range on most graphs; each sum is inf then, never an exception
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 7, 0.5)
    lam = Fugacities(1.0, lam_R)
    cert = certify_kp(g, lam, eta)
    assert cert.mode == "failed"
    assert cert.per_vertex == tuple(
        kp_vertex_sum(g, v, lam, eta, 6) for v in range(g.n_R)
    )


def test_a_vertex_sum_past_the_float_range_of_finite_terms_reads_inf():
    # path(15) at lambda_R = 2e51: vertex 3 lies in the two 6-vertex sets of
    # class (6, 7), whose terms are about 1.37e308 each.  Every term is
    # finite, and only the exact sum passes the float range
    g, lam, eta = bc.path(15), Fugacities(0.5, 2e51), 0.1
    grown = polymers._grown_sets(
        polymers._link_masks(g), 3, conditions.KP_DEPTH, (1 << g.n_R) - 1, g.adj_R
    )
    counts = conditions._kp_classes(g.n_R, grown)[3]
    assert counts[6, 7] == 2
    for k, nb in counts:
        t = conditions._times_exp(abs(polymers._weight(lam, k, nb)), (0.5 + eta) * k)
        assert t < math.inf
    cert = certify_kp(g, lam, eta)
    assert cert.mode == "failed"
    assert cert.per_vertex[3].partial == math.inf


def test_certificate_visits_each_two_linked_set_once(monkeypatch):
    real = polymers._grown_sets
    visited: list[int] = []

    def counting(*args):
        for gamma, union in real(*args):
            visited.append(gamma)
            yield gamma, union

    def no_polymer(*args):
        raise AssertionError("the certificate built a Polymer")

    # the walk grows each set once, carrying N(gamma), through _grown_sets
    monkeypatch.setattr(polymers, "_grown_sets", counting)
    monkeypatch.setattr(conditions, "_grown_sets", counting)
    monkeypatch.setattr(polymers, "_build_polymer", no_polymer)
    # 8 R-vertices: some 2-linked sets exceed the depth of 6
    g = bc.random_biregular(3, 3, 8, seed=0)
    cert = certify_kp(g, Fugacities(1.0, 1.0), eta=0.5)
    assert cert.per_vertex is not None
    assert sorted(visited) == sorted(_brute_polymer_masks(g, 6))
    assert any(m.bit_count() > 6 for m in _brute_polymer_masks(g, g.n_R))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_class_counts_match_a_rescan(seed, size_cap):
    # the counts carried through the growth, against each set's vertices
    # re-scanned for |gamma| and |N(gamma)|; dense graphs on up to 9
    # R-vertices give counts of several bits
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 5, 9, float(rng.uniform(0.2, 0.9)))
    links, full = polymers._link_masks(g), (1 << g.n_R) - 1
    want: list[dict] = [{} for _ in range(g.n_R)]
    for gamma in polymers._two_linked_sets(links, full, size_cap):
        verts = tuple(_bits(gamma))
        cls = (len(verts), _union(g.adj_R, gamma).bit_count())
        for v in verts:
            want[v][cls] = want[v].get(cls, 0) + 1
    grown = polymers._grown_two_linked(links, full, size_cap, g.adj_R)
    assert conditions._kp_classes(g.n_R, grown) == want


def _log_tree_count(k: int, d: int) -> float:
    # log t_k(d): k-vertex subtrees through the root of the d-regular tree
    n = (d - 1) * k
    return (
        math.log(d) + math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 2)
        - math.log((d - 2) * k + 2)
    )


@pytest.mark.parametrize("d", [100, 1000, 10**4])
@pytest.mark.parametrize("q", [0.001, 0.01])
def test_tail_covers_the_tree_count(d, q):
    # with max_deg_L = 2 every graph of maximum R-degree d is a link graph,
    # and one of girth above k has t_k(d) 2-linked k-sets through each vertex
    eta, k_max, lam_L = 0.5, 6, 1e-3
    prof = DegreeProfile(2, 2, d, d)
    lam_R = q / (d * math.exp(1.5 + eta)) * (1.0 + lam_L) ** (d / 2)
    tail, _ = conditions._kp_tail_bound(prof, Fugacities(lam_L, lam_R), eta, k_max)
    log_wb = math.log(lam_R) - (d / 2) * math.log1p(lam_L)
    tree_sum = math.fsum(
        math.exp(_log_tree_count(k, d) + k * (log_wb + 0.5 + eta))
        for k in range(k_max + 1, 400)
    )
    assert tail >= tree_sum


def test_inconclusive_with_an_unbounded_tail():
    cert = certify_kp(bc.even_cycle(8), Fugacities(1.0, 0.2), eta=0.2)
    assert cert.mode == "inconclusive" and not cert.valid
    assert cert.margin == math.inf
    assert all(s.partial <= s.bound and s.satisfied is None for s in cert.per_vertex)


def test_inconclusive_with_a_finite_tail():
    cert = certify_kp(bc.even_cycle(8), Fugacities(1.0, 0.03), eta=2.0)
    assert cert.mode == "inconclusive" and not cert.valid
    assert 1.0 < cert.margin < math.inf
    assert cert.margin == max(s.ratio for s in cert.per_vertex)
    assert all(s.partial <= s.bound and s.satisfied is False for s in cert.per_vertex)


# ---------------------------------------------------------------------------
# what a certificate proves: refusal, truncation bound and its inverse, cumulant tail

UNCERTIFIED_C8 = [
    ((1.0, 0.2), 0.2, "inconclusive"),
    ((1.0, 0.03), 2.0, "inconclusive"),
    ((1.0, 5.0), 0.1, "failed"),
]


@settings(max_examples=300, deadline=None)
@given(
    n_R=st.integers(1, 10**4),
    epsilon=st.floats(1e-12, 10.0, exclude_min=True, exclude_max=True),
    eta=st.floats(1e-3, 10.0, exclude_min=True, exclude_max=True),
)
def test_choose_m_is_the_least_depth_within_epsilon(n_R, epsilon, eta):
    cert = conditions.KPCertificate(eta, "empirical", 0.5, None, "test")
    m = conditions.choose_m(n_R, epsilon, eta)
    assert cert.error_bound(n_R, m) <= epsilon * (1 + 1e-12)
    if m > 1:
        assert cert.error_bound(n_R, m - 1) > epsilon * (1 - 1e-12)


def test_choose_m_is_one_object():
    assert bc.choose_m is bc.counting.choose_m is conditions.choose_m


@pytest.mark.parametrize(
    "g, lam, eta, mode",
    [
        (bc.random_biregular(2, 4, 4, seed=1), Fugacities(50.0, 0.1), 0.1, "analytic"),
        (bc.complete_bipartite(1, 1), Fugacities(10.0, 0.1), 0.3, "empirical"),
    ],
)
def test_require_returns_a_valid_certificate(g, lam, eta, mode):
    cert = certify_kp(g, lam, eta=eta)
    assert cert.mode == mode
    assert cert.require("unused") is cert
    assert cert.error_bound(g.n_R, 5) == g.n_R * math.exp(-5 * eta)
    t = max(5.0, 2 / eta)
    assert cert.cumulant_tail(2, 5) == t**2 * math.exp(-eta * t)


def test_cumulant_tail_past_the_float_range():
    g, lam = bc.random_biregular(2, 4, 4, seed=1), Fugacities(50.0, 0.1)
    # t = 4/eta = 2e77: t**4 passes the float range, (t/e)**4 does not
    eta = 2e-77
    cert = certify_kp(g, lam, eta=eta)
    assert cert.valid
    assert cert.cumulant_tail(4, 5) == pytest.approx((2e77 / math.e) ** 4, rel=1e-12)
    assert certify_kp(g, lam, eta=1e-80).cumulant_tail(4, 5) == math.inf


@pytest.mark.parametrize("lam, eta, mode", UNCERTIFIED_C8)
def test_an_invalid_certificate_refuses_and_bounds_nothing(lam, eta, mode):
    cert = certify_kp(bc.even_cycle(8), Fugacities(*lam), eta=eta)
    assert cert.mode == mode
    with pytest.raises(bc.CertificationError) as info:
        cert.require("the caller needs one")
    assert str(info.value) == f"convergence certification {mode}; the caller needs one"
    assert cert.error_bound(4, 10) is None
    assert cert.cumulant_tail(2, 10) == math.inf


def test_series_constant_threshold():
    # the geometric-series constant used by the analytic chain
    s = SERIES_RATIO_LIMIT
    total = math.fsum(s**k / k**1.5 for k in range(1, 1_000_001))
    assert total < math.e / 2
    # and a value just above the threshold violates it
    s = 0.84
    total = math.fsum(s**k / k**1.5 for k in range(1, 1_000_001))
    assert total > math.e / 2


# ---------------------------------------------------------------------------
# complex regions

def test_complex_region_condition():
    c = check_complex_region((1, 1, 1), ComplexRegion(10.0, 0.1))
    assert c.satisfied and c.lhs == pytest.approx(0.6) and c.rhs == pytest.approx(11.0)
    c = check_complex_region((3, 3, 3), ComplexRegion(0.5, 1.0))
    assert not c.satisfied


def test_in_region_membership():
    region = ComplexRegion(10.0, 0.1)
    assert region.contains(Fugacities(complex(-12.0), complex(0.1)))
    assert not ComplexRegion(1.0, 0.1).contains(Fugacities(complex(-1.5), complex(0.05)))
    assert not region.contains(Fugacities(complex(5.0), complex(0.2)))
