"""Cluster enumeration and the truncated expansion of log Xi."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    ClusterBudgetError,
    Fugacities,
    certify_kp,
    truncated_expansion,
)
from bipcore.clusters import enumerate_clusters

from conftest import random_bipartite, random_fugacities


def test_k11_m3_cluster_list():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(1.0, 1.0)
    cs = list(enumerate_clusters(g, lam, 3))
    assert [c.total_size for c in cs] == [1, 2]
    sizes_and_mults = [
        tuple((p.vertices, m) for p, m in c.polymers) for c in cs
    ]
    assert sizes_and_mults == [(((0,), 1),), (((0,), 2),)]
    assert cs[0].ursell == Fraction(1)
    assert cs[1].ursell == Fraction(-1, 2)
    assert cs[1].ordering_multiplier == 1  # 2!/2!


def test_m1_is_empty():
    g = bc.complete_bipartite(2, 2)
    assert list(enumerate_clusters(g, Fugacities(1.0, 1.0), 1)) == []


def test_k12_m2_only_singletons():
    g = bc.star_center_L(2)
    cs = list(enumerate_clusters(g, Fugacities(1.0, 1.0), 2))
    supports = sorted(tuple(p.vertices for p, _ in c.polymers) for c in cs)
    assert supports == [((0,),), ((1,),)]


def test_single_polymer_multiplicity_convention():
    # k copies of one polymer form a complete slot graph K_k; together with
    # the ordering multiplier the coefficient must be (-1)^(k+1)/k
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(1.0, 1.0)  # w = 1/2
    w = 0.5
    cs = list(enumerate_clusters(g, lam, 6))
    assert len(cs) == 5
    for k, c in enumerate(cs, start=1):
        assert c.total_size == k
        coeff = c.ordering_multiplier * c.ursell
        assert coeff == Fraction((-1) ** (k + 1), k)
        assert c.contribution == pytest.approx(
            (-1) ** (k + 1) * w**k / k, rel=1e-14
        )


@pytest.mark.parametrize("m", range(1, 9))
def test_single_polymer_series_identity(m):
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(10.0, 0.1)
    w = 0.1 / 11.0
    want = math.fsum((-1) ** (k + 1) * w**k / k for k in range(1, m))
    est = truncated_expansion(g, lam, m)
    assert est.value == pytest.approx(want, abs=1e-12)
    assert est.error_bound is None  # no certificate supplied


def test_truncation_example_k11():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(10.0, 0.1)
    est = truncated_expansion(g, lam, 2)
    w = 0.1 / 11.0
    assert est.value == pytest.approx(w, rel=1e-14)
    assert abs(est.value - math.log1p(w)) <= math.exp(-0.2)


def test_zero_right_activity():
    g = bc.random_biregular(2, 2, 4, seed=0)
    lam = Fugacities(3.0, 0.0)
    for m in (1, 3, 5):
        assert truncated_expansion(g, lam, m).value == 0.0


def test_certificate_populates_error_bound():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(10.0, 0.1)
    cert = certify_kp(g, lam)
    est = truncated_expansion(g, lam, 4, certificate=cert)
    assert est.error_bound == pytest.approx(g.n_R * math.exp(-0.4), rel=1e-14)
    assert est.eta == 0.1
    assert est.error_bound is not None


def test_budget_error_reports_progress():
    g = bc.complete_bipartite(3, 6)
    lam = Fugacities(1.0, 1.0)
    with pytest.raises(ClusterBudgetError) as exc:
        list(enumerate_clusters(g, lam, 8, max_clusters=10))
    assert exc.value.clusters_seen >= 10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expansion_converges_to_exact_log_xi(seed):
    # with certified parameters, T_m approaches log Xi within the stated bound
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 3, 4, 0.5)
    lam = Fugacities(float(rng.uniform(5.0, 30.0)), float(rng.uniform(0.01, 0.08)))
    cert = certify_kp(g, lam)
    if not cert.valid:
        return
    log_xi = math.log(bc.exact_Xi(g, lam))
    for m in (2, 4, 6):
        est = truncated_expansion(g, lam, m, certificate=cert)
        assert abs(est.value - log_xi) <= g.n_R * math.exp(-0.1 * m) + 1e-12


def test_cluster_stream_exactly_once():
    g = bc.star_center_L(3)
    lam = Fugacities(1.0, 1.0)
    seen = set()
    for c in enumerate_clusters(g, lam, 5):
        key = tuple((p.vertices, m) for p, m in c.polymers)
        assert key not in seen
        seen.add(key)
        assert c.total_size == sum(p.size * m for p, m in c.polymers)
        assert c.total_size < 5


def test_complex_activities_expansion():
    g = bc.complete_bipartite(1, 1)
    lam = Fugacities(complex(10.0, 0.0), complex(0.0, 0.1))
    w = complex(0.0, 0.1) / 11.0
    est = truncated_expansion(g, lam, 3)
    want = w - w * w / 2.0
    assert est.value == pytest.approx(want, rel=1e-13)
