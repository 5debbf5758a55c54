"""Graph container, file format, metrics, and generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipcore as bc
from bipcore import (
    BipartiteGraph,
    DegenerateGraphError,
    GraphFormatError,
    SizeCapError,
    connected_components,
    degree_profile,
    graph_distance,
    graph_to_text,
    load_graph,
    steiner_tree_size,
)
from bipcore.oracle import brute_force_steiner

from conftest import random_bipartite


# ---------------------------------------------------------------------------
# container

def test_basic_adjacency():
    g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert g.n_L == 2 and g.n_R == 3 and g.n_vertices == 5
    assert g.adj_L[0] == 0b101 and g.adj_L[1] == 0b010
    assert g.adj_R[0] == 0b01 and g.adj_R[1] == 0b10 and g.adj_R[2] == 0b01


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 1, [(0, 1)])
    with pytest.raises(ValueError):
        BipartiteGraph(1, 1, [(1, 0)])
    with pytest.raises(ValueError):
        BipartiteGraph(-1, 1, [])
    # an empty side is constructible; only degree-dependent code rejects it
    assert BipartiteGraph(0, 1, []).n_vertices == 1


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [(0, 0), (0, 0)])


@pytest.mark.parametrize(
    "vertex",
    [("L", 2), ("R", -1), ("X", 0), ("R", 1.5)],
    ids=["L-range", "R-range", "side", "non-integer"],
)
def test_global_id_rejects_a_missing_vertex(vertex):
    with pytest.raises(GraphFormatError):
        bc.complete_bipartite(2, 3).global_id(vertex)


@pytest.mark.parametrize("gid", [-1, 5])
def test_vertex_of_rejects_an_id_out_of_range(gid):
    with pytest.raises(GraphFormatError, match="out of range"):
        bc.complete_bipartite(2, 3).vertex_of(gid)


@pytest.mark.parametrize(
    "args",
    [(2, 2, [(0.5, 1.9)]), (2, 2, [("0", "1")]), (2.0, 2, []), (2, "2", [])],
    ids=["float-endpoints", "string-endpoints", "float-size", "string-size"],
)
def test_construction_takes_only_integer_indices(args):
    with pytest.raises(GraphFormatError, match="is not an integer"):
        BipartiteGraph(*args)


def test_construction_takes_numpy_integers_as_ints():
    g = BipartiteGraph(np.int64(2), np.int32(2), [(np.int64(1), np.int8(0))])
    assert g.edges == ((1, 0),) and g == BipartiteGraph(2, 2, [(1, 0)])
    assert all(type(i) is int for i in (g.n_L, g.n_R, *g.edges[0]))


def test_vertex_of_rejects_a_non_integer_id():
    with pytest.raises(GraphFormatError, match="is not an integer"):
        bc.complete_bipartite(2, 3).vertex_of(1.5)


def test_neighbors_and_degree():
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert g.neighbors(("L", 0)) == {("R", 0), ("R", 1)}
    assert g.neighbors(("R", 1)) == {("L", 0), ("L", 1)}
    assert g.degree(("L", 0)) == 2
    assert g.degree(("R", 0)) == 1


# ---------------------------------------------------------------------------
# file format

def test_load_round_trip():
    g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert load_graph(graph_to_text(g)) == g


def test_load_with_comments_and_blanks():
    text = "# sizes\n2 2\n\n0 0\n# an edge\n1 1\n"
    g = load_graph(text)
    assert g.n_L == 2 and g.edges == ((0, 0), (1, 1))


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 0),
        ("junk\n0 0\n", 1),
        ("1 1\n0 0 0\n", 2),
        ("1 1\n0 1\n", 2),
        ("1 1\n0 0\n0 0\n", 3),
        ("1 1\n-1 0\n", 2),
    ],
)
def test_load_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text)
    if line:
        assert exc.value.line == line


@pytest.mark.parametrize(
    "text, message",
    [("1 x\n", "expected two integers"), ("-1 1\n", "nonnegative")],
    ids=["token", "negative-header"],
)
def test_load_rejects_bad_tokens_and_negative_sizes(text, message):
    with pytest.raises(GraphFormatError, match=message) as exc:
        load_graph(text)
    assert exc.value.line == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_round_trip_random(seed):
    g = random_bipartite(np.random.Generator(np.random.Philox(seed)))
    assert load_graph(graph_to_text(g)) == g


# ---------------------------------------------------------------------------
# degree profile

def test_degree_profile_star():
    p = degree_profile(bc.star_center_L(3))
    assert p.delta_L_max == 3 and p.delta_R_max == 1 and p.delta_R_min == 1
    # constant degree on each side, so biregular, but not regular
    assert p.is_biregular and not p.is_regular


def test_degree_profile_biregular():
    g = bc.random_biregular(2, 4, 4, seed=1)
    p = degree_profile(g)
    assert p.is_biregular and not p.is_regular
    assert p.delta_L_max == p.delta_L_min == 2
    assert p.delta_R_max == p.delta_R_min == 4


def test_degree_profile_rejects_empty_side():
    with pytest.raises(DegenerateGraphError):
        degree_profile(BipartiteGraph(0, 2, []))
    # edgeless but two-sided graphs are fine: all degrees zero
    p = degree_profile(BipartiteGraph(1, 1, []))
    assert p.delta_L_max == 0 and p.delta_R_min == 0


# ---------------------------------------------------------------------------
# distances

def test_distance_path():
    g = bc.path(5)  # L0-R0-L1-R1-L2
    assert graph_distance(g, [("L", 0)], [("L", 2)]) == 4
    assert graph_distance(g, [("L", 0)], [("R", 1)]) == 3
    assert graph_distance(g, [("L", 0)], [("L", 0)]) == 0


def test_distance_disconnected_is_inf():
    g = BipartiteGraph(2, 2, [(0, 0)])
    assert math.isinf(graph_distance(g, [("L", 0)], [("R", 1)]))


def test_distance_set_to_set_is_min():
    g = bc.path(7)
    d = graph_distance(g, [("L", 0), ("L", 3)], [("R", 2)])
    assert d == 1  # L3 is adjacent to R2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_triangle_inequality(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 4, 0.6)
    vs = [("L", i) for i in range(g.n_L)] + [("R", j) for j in range(g.n_R)]
    idx = rng.integers(0, len(vs), size=3)
    a, b, c = (vs[int(i)] for i in idx)
    dab = graph_distance(g, [a], [b])
    dbc = graph_distance(g, [b], [c])
    dac = graph_distance(g, [a], [c])
    assert dac <= dab + dbc


# ---------------------------------------------------------------------------
# Steiner trees

def test_distance_needs_nonempty_sets():
    with pytest.raises(ValueError, match="nonempty"):
        graph_distance(bc.path(5), [], [("L", 0)])


def test_steiner_needs_one_to_eight_terminals():
    g = bc.path(18)
    with pytest.raises(ValueError, match="at least one terminal"):
        steiner_tree_size(g, [])
    with pytest.raises(SizeCapError, match="at most 8 terminals"):
        steiner_tree_size(g, [("L", i) for i in range(9)])


def test_steiner_single_and_pair():
    g = bc.path(7)
    assert steiner_tree_size(g, [("L", 0)]) == 0
    assert steiner_tree_size(g, [("L", 0), ("R", 0)]) == 1
    assert steiner_tree_size(g, [("L", 0), ("L", 3)]) == 6


def test_steiner_disconnected():
    g = BipartiteGraph(2, 2, [(0, 0)])
    assert math.isinf(steiner_tree_size(g, [("L", 0), ("L", 1)]))


def test_steiner_star_three_leaves():
    # three terminals around a common center: tree needs all 3 spokes
    g = bc.star_center_L(3)
    verts = [("R", 0), ("R", 1), ("R", 2)]
    assert steiner_tree_size(g, verts) == 3


@pytest.mark.parametrize("n", [8, 40, 2000])
def test_steiner_on_an_even_cycle_is_the_cycle_less_its_largest_gap(n):
    # R-vertex i sits at cycle position 2i + 1, so the tree is the cycle
    # less the largest gap between cyclically consecutive terminals
    g = bc.even_cycle(n)
    rng = np.random.Generator(np.random.Philox(n))
    for t in range(1, min(8, n // 2) + 1):
        terms = sorted(int(i) for i in rng.choice(n // 2, t, replace=False))
        pos = [2 * i + 1 for i in terms]
        gaps = [b - a for a, b in zip(pos, pos[1:])] + [pos[0] + n - pos[-1]]
        assert steiner_tree_size(g, [("R", i) for i in terms]) == n - max(gaps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_steiner_of_two_terminals_is_their_distance(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 8, 8, 0.3)
    vs = list(g.vertices())
    a, b = (vs[int(i)] for i in rng.choice(len(vs), 2, replace=False))
    assert steiner_tree_size(g, [a, b]) == graph_distance(g, [a], [b])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_steiner_matches_brute_force(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = random_bipartite(rng, 4, 4, 0.5)
    vs = [("L", i) for i in range(g.n_L)] + [("R", j) for j in range(g.n_R)]
    k = int(rng.integers(1, min(4, len(vs)) + 1))
    picks = rng.choice(len(vs), size=k, replace=False)
    terms = [vs[int(i)] for i in picks]
    assert steiner_tree_size(g, terms) == brute_force_steiner(g, terms)


# ---------------------------------------------------------------------------
# components and generators

def test_connected_components():
    g = BipartiteGraph(2, 2, [(0, 0)])
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [1, 1, 2]


def test_even_cycle_shape():
    g = bc.even_cycle(8)
    p = degree_profile(g)
    assert g.n_L == g.n_R == 4
    assert p.is_regular and p.delta_L_max == 2
    assert len(connected_components(g)) == 1


def test_path_shape():
    g = bc.path(6)
    assert g.n_L == 3 and g.n_R == 3
    degs = sorted(g.degree(("L", i)) for i in range(3))
    assert degs == [1, 2, 2]


def test_random_biregular_is_biregular_and_deterministic():
    g1 = bc.random_biregular(3, 2, 4, seed=9)
    g2 = bc.random_biregular(3, 2, 4, seed=9)
    assert g1 == g2
    p = degree_profile(g1)
    assert p.is_biregular
    assert p.delta_L_max == 3 and p.delta_R_max == 2
    assert g1.n_R == 6


def test_random_biregular_rejects_impossible():
    with pytest.raises(ValueError):
        bc.random_biregular(2, 3, 4, seed=0)  # 8 stubs not divisible by 3


@pytest.mark.parametrize(
    "args, message",
    [((0, 1, 1), "must be positive"), ((3, 3, 2), "no simple graph")],  # d_R = 3 > n_L = 2
)
def test_random_biregular_argument_errors(args, message):
    with pytest.raises(ValueError, match=message):
        bc.random_biregular(*args, seed=0)


@pytest.mark.parametrize("make, n", [(bc.even_cycle, 5), (bc.path, 0)])
def test_family_sizes_out_of_range(make, n):
    with pytest.raises(ValueError):
        make(n)


def test_generate_dispatch():
    g = bc.generate("complete_bipartite", a=2, b=3)
    assert g.n_L == 2 and g.n_R == 3 and len(g.edges) == 6
    with pytest.raises(ValueError):
        bc.generate("no_such_family")
    with pytest.raises(ValueError):
        bc.generate("path")  # missing n
    with pytest.raises(ValueError):
        bc.generate("path", n=3, k=1)  # extraneous parameter
