"""Bipartite graphs with dense integer indices per side.

Vertices are addressed as ``(side, index)`` pairs with side ``"L"`` or
``"R"``.  Internally a vertex also has a global id: L-vertices occupy
``0 .. n_L-1`` and R-vertices ``n_L .. n_L+n_R-1``.  Adjacency is kept as
bitmasks, one mask per vertex, which the exact kernels consume directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import DegenerateGraphError, GraphFormatError, SizeCapError

Side = Literal["L", "R"]
Vertex = tuple[Side, int]

STEINER_TERMINAL_CAP = 8


class BipartiteGraph:
    """Immutable bipartite graph.

    Edges are (L-index, R-index) pairs.  Construction validates index ranges
    and rejects duplicate edges.  Edge order is preserved so serialization
    round-trips exactly.
    """

    __slots__ = ("n_L", "n_R", "edges", "adj_L", "adj_R", "_hash")

    def __init__(self, n_L: int, n_R: int, edges: Iterable[tuple[int, int]]):
        if n_L < 0 or n_R < 0:
            raise GraphFormatError("side sizes must be nonnegative")
        edges = tuple((int(u), int(v)) for u, v in edges)
        adj_L = [0] * n_L
        adj_R = [0] * n_R
        seen = set()
        for u, v in edges:
            if not (0 <= u < n_L and 0 <= v < n_R):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for sides {n_L}/{n_R}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            adj_L[u] |= 1 << v
            adj_R[v] |= 1 << u
        object.__setattr__(self, "n_L", n_L)
        object.__setattr__(self, "n_R", n_R)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj_L", tuple(adj_L))
        object.__setattr__(self, "adj_R", tuple(adj_R))
        object.__setattr__(self, "_hash", hash((n_L, n_R, frozenset(seen))))

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_L == other.n_L
            and self.n_R == other.n_R
            and set(self.edges) == set(other.edges)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BipartiteGraph(n_L={self.n_L}, n_R={self.n_R}, m={len(self.edges)})"

    @property
    def n_vertices(self) -> int:
        return self.n_L + self.n_R

    def vertices(self) -> Iterator[Vertex]:
        for i in range(self.n_L):
            yield ("L", i)
        for j in range(self.n_R):
            yield ("R", j)

    def global_id(self, vertex: Vertex) -> int:
        side, i = vertex
        if side == "L":
            if not 0 <= i < self.n_L:
                raise GraphFormatError(f"no L-vertex {i}")
            return i
        if side == "R":
            if not 0 <= i < self.n_R:
                raise GraphFormatError(f"no R-vertex {i}")
            return self.n_L + i
        raise GraphFormatError(f"bad side {side!r}")

    def vertex_of(self, gid: int) -> Vertex:
        if 0 <= gid < self.n_L:
            return ("L", gid)
        if self.n_L <= gid < self.n_vertices:
            return ("R", gid - self.n_L)
        raise GraphFormatError(f"global id {gid} out of range")

    def degree(self, vertex: Vertex) -> int:
        side, i = vertex
        self.global_id(vertex)
        mask = self.adj_L[i] if side == "L" else self.adj_R[i]
        return mask.bit_count()

    def neighbors(self, vertex: Vertex) -> frozenset[Vertex]:
        side, i = vertex
        self.global_id(vertex)
        if side == "L":
            return frozenset(("R", j) for j in _bits(self.adj_L[i]))
        return frozenset(("L", u) for u in _bits(self.adj_R[i]))

    def global_adjacency(self) -> tuple[int, ...]:
        """Adjacency bitmasks over global ids (length n_L + n_R)."""
        n_L = self.n_L
        adj = [0] * self.n_vertices
        for u in range(n_L):
            adj[u] = self.adj_L[u] << n_L
        for v in range(self.n_R):
            adj[n_L + v] = self.adj_R[v]
        return tuple(adj)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Connected components of the subgraph that the adjacency bitmasks
    ``adj`` induce on ``mask``, as masks, by ascending lowest vertex."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        yield comp
        mask &= ~comp


@dataclass(frozen=True)
class DegreeProfile:
    """Degree extremes of a bipartite graph, used by the condition checks."""

    delta_L_min: int
    delta_L_max: int
    delta_R_min: int
    delta_R_max: int

    def in_class(self, max_deg_L: int, min_deg_R: int, max_deg_R: int) -> bool:
        """Membership in the family with L-degrees at most ``max_deg_L`` and
        R-degrees between ``min_deg_R`` and ``max_deg_R``."""
        return (
            self.delta_L_max <= max_deg_L
            and self.delta_R_min >= min_deg_R
            and self.delta_R_max <= max_deg_R
        )

    @property
    def is_biregular(self) -> bool:
        return (
            self.delta_L_min == self.delta_L_max
            and self.delta_R_min == self.delta_R_max
        )

    @property
    def is_regular(self) -> bool:
        return self.is_biregular and self.delta_L_max == self.delta_R_max


def degree_profile(g: BipartiteGraph) -> DegreeProfile:
    """Compute degree extremes; errors on graphs with an empty side."""
    if g.n_L == 0 or g.n_R == 0:
        raise DegenerateGraphError("degree profile needs both sides nonempty")
    degs_L = [m.bit_count() for m in g.adj_L]
    degs_R = [m.bit_count() for m in g.adj_R]
    return DegreeProfile(min(degs_L), max(degs_L), min(degs_R), max(degs_R))


# ---------------------------------------------------------------------------
# serialization

def load_graph(text: str) -> BipartiteGraph:
    """Parse the plain edge-list format.

    First non-comment line is ``n_L n_R``; each following line is an edge
    ``u v`` with u an L-index and v an R-index.  ``#`` starts a comment.
    Errors carry 1-based line numbers.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two integers, got {line!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"expected two integers, got {line!r}", line=lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphFormatError("side sizes must be nonnegative", line=lineno)
            header = (a, b)
        else:
            edges.append((a, b))
            edge_lines.append(lineno)
    if header is None:
        raise GraphFormatError("missing header line 'n_L n_R'")
    n_L, n_R = header
    seen: dict[tuple[int, int], int] = {}
    for (u, v), lineno in zip(edges, edge_lines):
        if not (0 <= u < n_L and 0 <= v < n_R):
            raise GraphFormatError(
                f"edge ({u}, {v}) out of range for sides {n_L}/{n_R}", line=lineno
            )
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", line=lineno)
        seen[(u, v)] = lineno
    return BipartiteGraph(n_L, n_R, edges)


def graph_to_text(g: BipartiteGraph) -> str:
    """Serialize in the format accepted by load_graph (round-trip exact)."""
    lines = [f"{g.n_L} {g.n_R}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics

def _bfs_from(adj: tuple[int, ...], sources: int, n: int) -> list[float]:
    dist = [math.inf] * n
    frontier = sources
    seen = sources
    d = 0
    while frontier:
        for v in _bits(frontier):
            dist[v] = d
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def graph_distance(g: BipartiteGraph, a: Iterable[Vertex], b: Iterable[Vertex]) -> float:
    """Shortest path length between vertex sets (math.inf if disconnected)."""
    amask = 0
    for v in a:
        amask |= 1 << g.global_id(v)
    bmask = 0
    for v in b:
        bmask |= 1 << g.global_id(v)
    if amask == 0 or bmask == 0:
        raise ValueError("distance needs nonempty vertex sets")
    if amask & bmask:
        return 0
    adj = g.global_adjacency()
    dist = _bfs_from(adj, amask, g.n_vertices)
    best = min(dist[v] for v in _bits(bmask))
    return best


def steiner_tree_size(g: BipartiteGraph, terminals: Iterable[Vertex]) -> float:
    """Minimum edge count of a connected subgraph containing ``terminals``.

    Dynamic program over terminal subsets (Dreyfus-Wagner).  Capped at
    8 terminals; returns math.inf when the terminals do not share a
    component.  A single terminal gives 0.
    """
    gids = sorted({g.global_id(v) for v in terminals})
    if not gids:
        raise ValueError("steiner tree needs at least one terminal")
    if len(gids) > STEINER_TERMINAL_CAP:
        raise SizeCapError(
            f"steiner_tree_size supports at most {STEINER_TERMINAL_CAP} terminals"
        )
    if len(gids) == 1:
        return 0
    n = g.n_vertices
    adj = g.global_adjacency()
    dist = [_bfs_from(adj, 1 << v, n) for v in range(n)]
    t = len(gids)
    full = (1 << t) - 1
    INF = math.inf
    dp = [[INF] * n for _ in range(full + 1)]
    for i, term in enumerate(gids):
        row = dp[1 << i]
        for v in range(n):
            row[v] = dist[term][v]
    for s in range(1, full + 1):
        if s & (s - 1) == 0:
            continue
        row = dp[s]
        # merge two terminal subsets at a common vertex
        sub = (s - 1) & s
        while sub:
            if sub < (s ^ sub):
                break
            a, b = dp[sub], dp[s ^ sub]
            for v in range(n):
                c = a[v] + b[v]
                if c < row[v]:
                    row[v] = c
            sub = (sub - 1) & s
        # relay through the metric closure
        for v in range(n):
            dv = dist[v]
            rv = row[v]
            if rv == INF:
                continue
            for u in range(n):
                c = rv + dv[u]
                if c < row[u]:
                    row[u] = c
    return min(dp[full])


def connected_components(g: BipartiteGraph) -> list[frozenset[Vertex]]:
    return [
        frozenset(g.vertex_of(v) for v in _bits(comp))
        for comp in _components(g.global_adjacency(), (1 << g.n_vertices) - 1)
    ]


# ---------------------------------------------------------------------------
# generators

def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, [(u, v) for u in range(a) for v in range(b)])


def star_center_L(k: int) -> BipartiteGraph:
    """Star with the center on the L side and k leaves on R."""
    return BipartiteGraph(1, k, [(0, j) for j in range(k)])


def star_center_R(k: int) -> BipartiteGraph:
    """Star with the center on the R side and k leaves on L."""
    return BipartiteGraph(k, 1, [(u, 0) for u in range(k)])


def even_cycle(n: int) -> BipartiteGraph:
    """Cycle on n vertices (n even, at least 4), sides alternating."""
    if n < 4 or n % 2:
        raise ValueError("even_cycle needs an even n >= 4")
    k = n // 2
    edges = []
    for i in range(k):
        edges.append((i, i))
        edges.append(((i + 1) % k, i))
    return BipartiteGraph(k, k, edges)


def path(n: int) -> BipartiteGraph:
    """Path on n vertices; positions alternate L, R, L, ... from one end."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    edges = []
    for p in range(n - 1):
        if p % 2 == 0:
            edges.append((p // 2, p // 2))
        else:
            edges.append(((p + 1) // 2, p // 2))
    return BipartiteGraph((n + 1) // 2, n // 2, edges)


def random_biregular(d_L: int, d_R: int, n_L: int, seed: int) -> BipartiteGraph:
    """Random simple (d_L, d_R)-biregular graph on n_L left vertices.

    Configuration model with rejection of duplicate edges; deterministic for
    a fixed seed.  Requires d_L * n_L divisible by d_R.
    """
    if d_L < 1 or d_R < 1 or n_L < 1:
        raise ValueError("degrees and n_L must be positive")
    if (d_L * n_L) % d_R:
        raise ValueError("d_L * n_L must be divisible by d_R")
    n_R = d_L * n_L // d_R
    if d_R > n_L or d_L > n_R:
        raise ValueError("degree exceeds the opposite side size; no simple graph")
    left_stubs = [u for u in range(n_L) for _ in range(d_L)]
    right_stubs = [v for v in range(n_R) for _ in range(d_R)]
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(2000):
        perm = rng.permutation(len(right_stubs))
        pairs = {(left_stubs[i], right_stubs[perm[i]]) for i in range(len(left_stubs))}
        if len(pairs) == len(left_stubs):
            return BipartiteGraph(n_L, n_R, sorted(pairs))
    raise RuntimeError("could not realize a simple biregular graph; try another seed")


_FAMILIES = {
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "star_center_L": (star_center_L, ("k",)),
    "star_center_R": (star_center_R, ("k",)),
    "even_cycle": (even_cycle, ("n",)),
    "path": (path, ("n",)),
    "random_biregular": (random_biregular, ("d_L", "d_R", "n_L", "seed")),
}


def generate(family: str, **params) -> BipartiteGraph:
    """Build a named graph family; see _FAMILIES for parameter names."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choices: {sorted(_FAMILIES)}")
    fn, names = _FAMILIES[family]
    missing = [p for p in names if params.get(p) is None]
    if missing:
        raise ValueError(f"family {family!r} needs parameters {missing}")
    extra = [p for p, v in params.items() if p not in names and v is not None]
    if extra:
        raise ValueError(f"family {family!r} does not take {extra}")
    return fn(**{p: params[p] for p in names})
