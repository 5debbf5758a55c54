"""The truncated expansion of log Xi, and clusters as its reference.

The library computes the expansion with ``SeriesEngine``: power series of
restricted partition functions indexed by sets of R-vertices, and one
Moebius step over 2-linked (connected) sets.  Counting, cumulants and both
sampler backends go through it.

Cluster enumeration stays as the reference the tests compare against.  A
cluster is a multiset of polymers whose incompatibility graph H (one slot
per polymer copy; same-polymer slots always adjacent) is connected.  Its
Ursell factor is

    phi(H) = (1/|V(H)|!) * sum over spanning connected edge subsets A
             of (-1)**|A|

and the ordered-multiset count k!/prod(multiplicities!) enters as a separate
integer factor, so a cluster contributes

    (k!/prod m_i!) * phi(H) * prod w(gamma_i)**m_i

to log Xi.  Truncation keeps clusters of total size (sum of polymer sizes,
with multiplicity) strictly below m.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from . import kernels
from .errors import ClusterBudgetError, SizeCapError
from .graph import BipartiteGraph, _bits, _components
from .polymers import (
    Fugacities,
    Polymer,
    PolymerSystem,
    Scalar,
    _connected_sets,
    _fsum,
    _grown_sets,
    _link_masks,
    _two_linked_sets,
    _weight,
)

if TYPE_CHECKING:  # pragma: no cover
    from .conditions import KPCertificate

URSELL_VERTEX_CAP = 12
URSELL_EDGE_SUBSET_CAP = 6
SLOT_CAP = 14
# series coefficients one SeriesEngine may hold: what it stores, and the
# gamma and 2-linked sets it has listed and not yet released
MAX_COEFFICIENTS = 500_000


def _validate_simple(n: int, edges) -> frozenset[tuple[int, int]]:
    out = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError("loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


def _connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    return next(_components(adj, full), 0) == full


def ursell_edge_subsets(n: int, edges) -> Fraction:
    """Ursell factor by direct enumeration of edge subsets."""
    es = sorted(_validate_simple(n, edges))
    return Fraction(kernels.ursell_edge_sum(n, es), math.factorial(n))


DCCache = dict[tuple[int, frozenset[tuple[int, int]]], int]


def _dc_int(n: int, edges: frozenset[tuple[int, int]], cache: DCCache) -> int:
    """Signed spanning-connected-subgraph count by deletion-contraction.

    Recursion on the first edge e: subsets without e live in G - e, subsets
    with e contribute -1 times the count of G / e (contraction keeps the
    graph simple: parallel edges collapse, which leaves the sum unchanged).
    ``cache`` memoises subgraphs for the caller's lifetime.
    """
    if not edges:
        return 1 if n == 1 else 0
    key = (n, edges)
    hit = cache.get(key)
    if hit is not None:
        return hit
    e = min(edges)
    without = _dc_int(n, edges - {e}, cache)
    u, v = e
    mapped = set()
    for a, b in edges:
        if (a, b) == e:
            continue
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 > v:
            a2 -= 1
        if b2 > v:
            b2 -= 1
        if a2 != b2:
            mapped.add((min(a2, b2), max(a2, b2)))
    out = without - _dc_int(n - 1, frozenset(mapped), cache)
    cache[key] = out
    return out


def ursell_deletion_contraction(n: int, edges) -> Fraction:
    """Ursell factor by deletion-contraction; agrees with the edge-subset
    enumeration on every connected graph (tested exhaustively to 6 vertices)."""
    es = _validate_simple(n, edges)
    return Fraction(_dc_int(n, es, {}), math.factorial(n))


def ursell(n: int, edges) -> Fraction:
    """Ursell factor of a connected graph on n <= 12 vertices.

    Dispatches to edge-subset enumeration up to 6 vertices and to
    deletion-contraction beyond.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > URSELL_VERTEX_CAP:
        raise SizeCapError(f"ursell capped at {URSELL_VERTEX_CAP} vertices")
    es = _validate_simple(n, edges)
    if not _connected(n, es):
        raise ValueError("ursell is defined here for connected graphs only")
    if n <= URSELL_EDGE_SUBSET_CAP:
        return Fraction(kernels.ursell_edge_sum(n, sorted(es)), math.factorial(n))
    return Fraction(_dc_int(n, es, {}), math.factorial(n))


# ---------------------------------------------------------------------------
# slot graphs

SlotCache = dict[tuple[tuple[int, ...], int], int]


def _slot_U(
    mults: tuple[int, ...], adjbits: int, slot_cache: SlotCache, dc_cache: DCCache
) -> int:
    """Signed connected-subgraph count of the slot graph: support polymer i
    blown up to a clique of mults[i] slots, cliques joined completely along
    incompatible support pairs (bit a*(a-1)/2 + b of adjbits for b < a)."""
    key = (mults, adjbits)
    hit = slot_cache.get(key)
    if hit is not None:
        return hit
    j = len(mults)
    k = sum(mults)
    complete = adjbits == (1 << (j * (j - 1) // 2)) - 1
    if complete or j == 1:
        u = (-1) ** (k - 1) * math.factorial(k - 1)
    else:
        offsets = [0] * j
        acc = 0
        for i, m in enumerate(mults):
            offsets[i] = acc
            acc += m
        edges = []
        for i, m in enumerate(mults):
            base = offsets[i]
            for a in range(m):
                for b in range(a + 1, m):
                    edges.append((base + a, base + b))
        bit = 0
        for a in range(j):
            for b in range(a):
                if adjbits >> bit & 1:
                    for s in range(mults[a]):
                        for t in range(mults[b]):
                            edges.append((offsets[b] + t, offsets[a] + s))
                bit += 1
        if k <= URSELL_EDGE_SUBSET_CAP:
            u = kernels.ursell_edge_sum(k, sorted((min(e), max(e)) for e in edges))
        elif k <= SLOT_CAP:
            u = _dc_int(k, frozenset((min(e), max(e)) for e in edges), dc_cache)
        else:
            raise ClusterBudgetError(
                f"cluster with {k} slots and a non-complete incompatibility "
                f"graph exceeds the Ursell slot cap ({SLOT_CAP})"
            )
    slot_cache[key] = u
    return u


# ---------------------------------------------------------------------------
# clusters

@dataclass(frozen=True)
class Cluster:
    """Unordered representation of a cluster: distinct polymers with their
    multiplicities, in canonical polymer order."""

    polymers: tuple[tuple[Polymer, int], ...]
    total_size: int
    ursell: Fraction
    ordering_multiplier: int

    @property
    def coefficient(self) -> Fraction:
        """ordering_multiplier * ursell, an exact rational."""
        return self.ordering_multiplier * self.ursell

    @property
    def weight_product(self) -> Scalar:
        out: Scalar = 1.0
        for p, m in self.polymers:
            out *= p.weight**m
        return out

    @property
    def contribution(self) -> Scalar:
        return float(self.coefficient) * self.weight_product

    def y_count(self, v: int) -> int:
        """Number of slots whose polymer contains R-vertex v."""
        bit = 1 << v
        return sum(m for p, m in self.polymers if p.mask & bit)


def _mult_vectors(sizes: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity vectors (each >= 1) with sum(m_i * s_i) <= cap."""
    j = len(sizes)

    def rec(idx: int, left: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if idx == j:
            yield acc
            return
        s = sizes[idx]
        tail_min = sum(sizes[idx + 1 :])
        m = 1
        while m * s + tail_min <= left:
            yield from rec(idx + 1, left - m * s, acc + (m,))
            m += 1

    yield from rec(0, cap, ())


# perfbench/spans.py:74 wraps ClusterEngine.truncated_log_xi by name, so the
# reference stays in this module until that span goes
class ClusterEngine:
    """Cluster enumeration over an explicit polymer universe: the reference
    for ``SeriesEngine``.

    Supports restriction to a subset of the universe (bitmask over polymer
    indices).  Its Ursell memo tables live as long as the engine.
    """

    def __init__(self, g: BipartiteGraph, lam: Fugacities, max_size: int):
        self.system = PolymerSystem(g, lam, max_size=max_size)
        self.graph = g
        self.lam = lam
        self._sizes = tuple(p.size for p in self.system.polymers)
        # support adjacency excludes the self-incompatibility bit
        self._adj = tuple(
            m & ~(1 << i) for i, m in enumerate(self.system.incompat_masks)
        )
        self._slot_cache: SlotCache = {}
        self._dc_cache: DCCache = {}

    def clusters(
        self,
        m: int,
        allowed: int | None = None,
        max_clusters: int = MAX_COEFFICIENTS,
    ) -> Iterator[Cluster]:
        """All clusters of total size < m over the allowed polymers, each
        exactly once, deterministic order.  Raises ClusterBudgetError when
        more than max_clusters would be produced."""
        if allowed is None:
            allowed = self.system.full_mask
        budget = m - 1
        if budget < 1:
            return
        polymers = self.system.polymers
        sizes = self._sizes
        count = 0
        for anchor in range(len(polymers)):
            if not (allowed >> anchor) & 1 or sizes[anchor] > budget:
                continue
            high = allowed & ~((1 << anchor) - 1)
            for support_mask, base in self._supports(anchor, budget, high):
                idxs = list(_bits(support_mask))
                sup_sizes = [sizes[i] for i in idxs]
                adjbits = 0
                bit = 0
                for a in range(len(idxs)):
                    for b in range(a):
                        if (self._adj[idxs[a]] >> idxs[b]) & 1:
                            adjbits |= 1 << bit
                        bit += 1
                for mults in _mult_vectors(sup_sizes, budget):
                    u = _slot_U(mults, adjbits, self._slot_cache, self._dc_cache)
                    k = sum(mults)
                    ordering = math.factorial(k)
                    for mi in mults:
                        ordering //= math.factorial(mi)
                    count += 1
                    if count > max_clusters:
                        raise ClusterBudgetError(
                            f"more than {max_clusters} clusters below size {m}",
                            clusters_seen=count,
                        )
                    yield Cluster(
                        polymers=tuple((polymers[i], mi) for i, mi in zip(idxs, mults)),
                        total_size=sum(mi * s for mi, s in zip(mults, sup_sizes)),
                        ursell=Fraction(u, math.factorial(k)),
                        ordering_multiplier=ordering,
                    )

    def _supports(self, anchor: int, budget: int, allowed: int) -> Iterator[tuple[int, int]]:
        """Connected subsets of the incompatibility graph containing anchor
        (anchor minimal), weighted size <= budget.  Yields (mask, size)."""
        sizes = self._sizes
        adj = self._adj

        def rec(smask: int, total: int, ext: int, forb: int) -> Iterator[tuple[int, int]]:
            yield smask, total
            while ext:
                bit = ext & -ext
                ext ^= bit
                i = bit.bit_length() - 1
                if total + sizes[i] <= budget:
                    grown = smask | bit
                    new_ext = (ext | (adj[i] & allowed)) & ~grown & ~forb
                    yield from rec(grown, total + sizes[i], new_ext, forb)
                forb |= bit

        rootbit = 1 << anchor
        yield from rec(
            rootbit, sizes[anchor], adj[anchor] & allowed & ~rootbit, rootbit
        )

    def truncated_log_xi(
        self,
        m: int,
        allowed: int | None = None,
        max_clusters: int = MAX_COEFFICIENTS,
    ) -> Scalar:
        """Sum of cluster contributions of total size < m (compensated)."""
        return _fsum([c.contribution for c in self.clusters(m, allowed, max_clusters)])


# ---------------------------------------------------------------------------
# the expansion engine: power series over R-vertex sets

def _depth(m: int) -> int:
    """m as a truncation depth: an integer of at least 1, else ValueError."""
    try:
        depth = operator.index(m)
    except TypeError:
        raise ValueError(f"m must be an integer, got {m!r}") from None
    if depth < 1:
        raise ValueError("m must be at least 1")
    return depth


def _lowest(links: Sequence[int], S: int) -> int:
    """min S, the vertex the sampler's walk decides at."""
    return (S & -S).bit_length() - 1


def _pivot(links: Sequence[int], S: int) -> int:
    """The lowest vertex of S with at most one link inside S, or min S when
    S has no such vertex: the vertex ``SeriesEngine.xi`` recurses on."""
    for v in _bits(S):
        if (links[v] & S).bit_count() <= 1:
            return v
    return _lowest(links, S)


class SeriesEngine:
    """Power series of restricted partition functions, indexed by sets of
    R-vertices (bitmasks), and the truncated expansion of log Xi built on
    them.

    With z marking polymer size, Xi_S(z) sums prod w(gamma) z**|gamma| over
    the pairwise compatible polymer collections inside S.  ``xi`` keeps its
    coefficients below z**m, memoised on S, by one recursion on a vertex v
    of S:

        Xi_S = Xi_{S-v} + sum over 2-linked gamma in S containing v of
               w(gamma) z**|gamma| Xi_{S minus gamma minus N2(gamma)}

    with N2(gamma) the R-vertices 2-linked to gamma.  The clusters whose
    polymers cover exactly the 2-linked set T sum to a series f_T starting
    at z**|T|, with log Xi_T the sum of f_T' over the 2-linked T' in T.  The
    T' that miss v are the 2-linked sets of the components C of T - v, so

        f_T = log Xi_T - sum over C of log Xi_C
                       - sum over 2-linked T' strictly inside T with v in T'
                         of f_T'.

    Both identities hold for any v in the set.  The engine takes the
    pivot: the lowest vertex with at most one link inside the set, or the
    set's minimum when no vertex has (``_pivot``).  Removing a leaf never
    disconnects S - v.  The sets S minus gamma minus N2(gamma) of the
    other branch can still be disconnected; on a path or a cycle of links
    they are not, and the memo of a 2-linked T holds only connected sets.
    At min S instead, a cycle's arc that wraps past vertex 0 splits into
    two arcs, each a further memo entry.  The sampler's walk decides at
    min S (``terms``), so its exact backend builds its memo by the
    recursion on min S (``_xi_on`` with ``_lowest``): then the memo holds
    every set a draw reads.

    The expansion of log Xi_S truncated at total cluster size m is

        T_m(S) = sum over 2-linked T in S with |T| < m of
                 the coefficients of f_T from z**|T| to z**(m-1),

    the coefficient-extraction route of Helmuth-Perkins-Regts (arXiv
    1806.11548, Thm 2.2), with no Ursell functions.  ``log_xi`` builds the
    table of f_T only to split a link component of m or more vertices, and
    so does the truncated sampler before its first draw.  Once built the
    engine keeps scalars, not series: per set T, the sum of f_T's kept
    coefficients and T_m(T).

    Cumulants of the R-vertices in A weight each polymer by
    prod_{v in gamma and A} (1 + t_v) with t_v**2 = 0.  That weighted Xi_T
    equals sum over B in A of t^B sum over C in B of (-1)**|C| Xi_{T-C}, so
    it comes from the same memo; [t^A] of the resulting f_T is the cluster
    sum of w(Gamma) prod_{v in A} Y_v(Gamma), and A empty gives the plain
    series.

    ``MAX_COEFFICIENTS``, read at construction, bounds the series
    coefficients the engine holds: each memoised Xi_S, and the m - |T| of
    each f_T, from the listing of T until its table is dropped (a cumulant's
    when its query ends); ClusterBudgetError is raised before that bound is
    passed.  The recursion for Xi_S also charges one per gamma it lists, in
    blocks of 1,024 as they are listed, and releases that charge when its
    frame returns, so a dense set stops its listing at the budget instead
    of holding millions of terms.  A component below m charges only the
    Xi_S its recursion memoises, and the gamma while they are held; the
    truncated sampler adds the m - |T| of each 2-linked T below m that its
    build lists, as the table would.  The m coefficients of
    each log Xi_C that the step above reads are not charged: they live only
    while the table is built, and for every 2-linked T they number at most
    the m - |T| of f_T plus the |T| + 1 of Xi_T already charged, so they at
    most double the peak.  A cumulant query succeeds exactly when it would
    on a fresh engine, whatever queries came before it.
    """

    def __init__(self, g: BipartiteGraph, lam: Fugacities, m: int):
        self.graph = g
        self.lam = lam
        self.m = _depth(m)
        self._budget = MAX_COEFFICIENTS
        self._links = _link_masks(g)
        # per R-vertex v: {v} | N2(v) in the low n_R bits, N(v) above them
        self._marks = tuple(
            (1 << v) | link | nb << g.n_R for v, (link, nb) in enumerate(zip(self._links, g.adj_R))
        )
        self._xi: dict[int, list[Scalar]] = {}
        self._stored = 0
        self._plain: dict[int, Scalar] | None = None
        self._tm: dict[int, Scalar] = {}  # T_m(C), one scalar per link component C

    def _charge(self, n: int) -> None:
        total = self._stored + n
        if total > self._budget:
            raise ClusterBudgetError(
                f"more than {self._budget} series coefficients below z**{self.m}",
                clusters_seen=total,
            )
        self._stored = total

    def terms(self, S: int) -> list[tuple[int, int, Scalar]]:
        """(gamma, S minus gamma minus N2(gamma), w(gamma)) for every 2-linked
        gamma in the nonempty set S with min gamma = min S and |gamma| < m,
        in the order of ``polymers._connected_sets``.  The growth carries
        gamma | N2(gamma) in the low n_R bits of each union and N(gamma)
        above them (see ``_marks``)."""
        return list(self._terms(S, _lowest(self._links, S)))

    def _terms(self, S: int, root: int) -> Iterator[tuple[int, int, Scalar]]:
        """``terms`` of the gamma through ``root``, a vertex of S, as they
        are listed."""
        lam, n_R = self.lam, self.graph.n_R
        return (
            (gamma, S & ~reach, _weight(lam, gamma.bit_count(), (reach >> n_R).bit_count()))
            for gamma, reach in _grown_sets(self._links, root, self.m - 1, S, self._marks)
        )

    def _mask(self, S: int) -> int:
        """S as a set of R-vertices: an integer with 0 <= S < 2**n_R."""
        n_R = self.graph.n_R
        try:
            mask = operator.index(S)
        except TypeError:
            mask = -1
        if not 0 <= mask < 1 << n_R:
            raise ValueError(f"set {S!r} is not an integer mask in [0, 2**{n_R})")
        return mask

    def xi(self, S: int) -> list[Scalar]:
        """Coefficients of Xi_S(z) from z**0 to z**min(|S|, m - 1).  S is
        an integer mask with 0 <= S < 2**n_R; ValueError otherwise."""
        return self._xi_on(self._mask(S), _pivot)

    def _xi_on(self, S: int, vertex: Callable[[Sequence[int], int], int]) -> list[Scalar]:
        """``xi``, recursing on vertex(links, S') for each set S' it adds to
        the memo."""
        if S == 0:
            return [1.0]
        hit = self._xi.get(S)
        if hit is not None:
            return hit
        v = vertex(self._links, S)
        listing = self._terms(S, v)
        terms: list[tuple[int, int, Scalar]] = []
        try:
            # each gamma is charged as it is listed, in blocks, and only
            # while this frame holds it
            while True:
                block = list(itertools.islice(listing, 1_024))
                self._charge(len(block))
                terms += block
                if len(block) < 1_024:
                    break
            out = list(self._xi_on(S & ~(1 << v), vertex))
            if len(out) < self.m:
                out.append(0.0)
            for gamma, rest, w in terms:
                k0 = gamma.bit_count()
                for k, c in enumerate(self._xi_on(rest, vertex)[: len(out) - k0]):
                    out[k0 + k] += w * c
        finally:
            self._stored -= len(terms)
        self._charge(len(out))
        self._xi[S] = out
        return out

    def _plain_log(self, T: int) -> list[Scalar]:
        """log Xi_T, z**0 to z**(m-1): ``_log_coefficients(T, [])`` in plain
        floats, the same operations in the same order."""
        G = self._xi_on(T, _pivot)
        deg = len(G) - 1
        F = [0.0]
        for k in range(1, self.m):
            acc = k * G[k] if k <= deg else 0.0
            for j in range(max(1, k - deg), k):
                acc -= j * (F[j] * G[k - j])
            F.append(acc / k)
        return F

    def _log_coefficients(self, T: int, A: list[int]) -> list[Scalar]:
        """[t^A] of log of the (1 + t_v)-weighted Xi_T, z**0 to z**(m-1).

        Algebra elements are lists indexed by subsets B of A (bit i of B for
        the vertex A[i]); products are subset convolutions."""
        d = 1 << len(A)
        rows = []
        for C in range(d):
            removed = 0
            for i in _bits(C):
                removed |= 1 << A[i]
            rows.append(self._xi_on(T & ~removed, _pivot))
        deg = len(rows[0]) - 1
        G = [[row[k] if k < len(row) else 0.0 for row in rows] for k in range(deg + 1)]
        # in place: G[k][B] becomes sum over C in B of (-1)**|C| Xi_{T-C}[k]
        for i in range(len(A)):
            bit = 1 << i
            for Gk in G:
                for B in range(d):
                    if B & bit:
                        Gk[B] = Gk[B ^ bit] - Gk[B]
        # log G by k F_k = k G_k - sum_{j<k} j F_j G_{k-j}, with G_0 = 1
        F: list[list[Scalar]] = [[0.0] * d]
        for k in range(1, self.m):
            acc = [k * x for x in G[k]] if k <= deg else [0.0] * d
            for j in range(max(1, k - deg), k):
                Fj, Gkj = F[j], G[k - j]
                for B in range(d):
                    C = B
                    s = Fj[B] * Gkj[0]
                    while C:
                        C = (C - 1) & B
                        s += Fj[C] * Gkj[B ^ C]
                    acc[B] -= j * s
            F.append([x / k for x in acc])
        return [Fk[d - 1] for Fk in F]

    def _cluster_series(self, A: int) -> dict[int, list[Scalar]]:
        """For each 2-linked T containing A with |T| < m, by ascending size,
        [t^A] of f_T from z**|T| to z**(m-1), charged as T is listed.  A
        table past the budget leaves the engine empty, holding nothing.

        Each f_T subtracts only the 2-linked proper subsets of T through
        v = min A, or the pivot of T when A is empty (see the class docstring):
        the others miss A, or, with A empty, add up to the log Xi_C of the
        components C of T - v, which ``logs`` keeps while the table is
        built.  With A empty, T_m(T), the sum of log Xi_T's coefficients, is
        memoised for ``log_xi``."""
        links, cap, R = self._links, self.m - 1, (1 << self.graph.n_R) - 1
        a_verts = list(_bits(A))
        sets: list[int] = []
        table: dict[int, list[Scalar]] = {}
        logs: dict[int, list[Scalar]] = {}
        try:
            for T in (_connected_sets(links, a_verts[0], cap, R) if A
                      else _two_linked_sets(links, R, cap)):
                if T & A == A:
                    self._charge(self.m - T.bit_count())
                    sets.append(T)
            for T in sorted(sets, key=int.bit_count):
                t = T.bit_count()
                f = self._log_coefficients(T, a_verts) if A else self._plain_log(T)
                v = a_verts[0] if A else _pivot(links, T)
                if not A:
                    logs[T] = list(f)
                    self._tm[T] = _fsum(f)
                    for C in _components(links, T & ~(1 << v)):
                        f = [a - c for a, c in zip(f, logs[C])]
                for sub in _connected_sets(links, v, t - 1, T):
                    h = table.get(sub)
                    if h is not None:
                        lo = self.m - len(h)
                        f[lo:] = [a - c for a, c in zip(f[lo:], h)]
                table[T] = f[t:]
        except ClusterBudgetError:
            self._xi.clear()
            self._plain, self._stored = None, 0
            raise
        return table

    def set_contributions(self) -> dict[int, Scalar]:
        """For each 2-linked T with |T| < m, the summed contribution of the
        clusters whose polymers cover exactly T: the kept coefficients of
        f_T, z**|T| to z**(m-1)."""
        if self._plain is None:
            self._plain = {T: _fsum(f) for T, f in self._cluster_series(0).items()}
        return self._plain

    def log_xi(self, S: int | None = None) -> Scalar:
        """T_m(S), the expansion of log Xi_S truncated at total size m
        (S = all of R by default, else a mask as in ``xi``): the sum of
        T_m(C) over the link components C of S, each memoised as one scalar.

        A 2-linked T with |T| < m has every 2-linked subset below m, so
        T_m(T) sums log Xi_T's coefficients below z**m: one log of Xi_T,
        with no table of f_T.  Only a component of m or more vertices needs
        the table: it splits at v = min C into the 2-linked sets through v,
        which add their ``set_contributions``, and the components of C - v,
        whose T_m come from the memo.  The table stores T_m(T) for every
        such T as it is built, with the same bits, so the order of calls
        does not change a value.  The truncated sampler calls this and then
        ``_log_xi`` of every 2-linked set below m before its first draw,
        and its draws then read only memo hits."""
        return self._log_xi((1 << self.graph.n_R) - 1 if S is None else self._mask(S))

    def _log_xi(self, S: int) -> Scalar:
        """``log_xi`` of a mask S, unchecked, for the sampler's draws."""
        links, memo, cap = self._links, self._tm, self.m - 1
        parts = []
        for C in _components(links, S):
            pending = [C]
            while pending:  # a stack, not recursion: C may have n_R vertices
                D = pending[-1]
                if D in memo:
                    pending.pop()
                    continue
                if D.bit_count() < self.m:
                    memo[pending.pop()] = _fsum(self._plain_log(D))
                    continue
                v = (D & -D).bit_length() - 1
                rest = list(_components(links, D & ~(1 << v)))
                missing = [E for E in rest if E not in memo]
                if missing:
                    pending.extend(missing)
                    continue
                pending.pop()
                plain = self.set_contributions()
                vals = [plain[gamma] for gamma in _connected_sets(links, v, cap, D)]
                vals.extend(memo[E] for E in rest)
                memo[D] = _fsum(vals)
            parts.append(memo[C])
        return _fsum(parts)

    def cumulant(self, A: int) -> tuple[Scalar, int]:
        """The cluster sum of w(Gamma) prod_{v in A} Y_v(Gamma) over total
        sizes below m, with the number of 2-linked sets it adds up.  A is a
        nonempty mask as in ``xi``; ValueError otherwise.

        The query's f_T are charged until it returns; its Xi_S stay
        memoised.  A query that began on a memo and passes the budget runs
        again on the engine that failure emptied, as a fresh engine would:
        a memo holds every series its entries were built from, so success
        on a full memo implies success on an empty one."""
        A = self._mask(A)
        if not A:
            raise ValueError("a cumulant needs a nonempty set; log_xi takes the empty one")
        warm = bool(self._xi)
        try:
            table = self._cluster_series(A)
        except ClusterBudgetError:
            if not warm:
                raise
            table = self._cluster_series(A)
        self._stored -= sum(map(len, table.values()))
        return _fsum([c for f in table.values() for c in f]), len(table)


@dataclass(frozen=True)
class ExpansionEstimate:
    """Truncated expansion value with its tail bound: the certificate's
    ``error_bound(n_R, m)``, None (unbounded) without a valid certificate."""

    value: Scalar
    m: int
    eta: float | None
    error_bound: float | None
    cluster_count: int  # the link components of the R-side, whose T_m ``log_xi`` sums


def enumerate_clusters(
    g: BipartiteGraph,
    lam: Fugacities,
    m: int,
    max_clusters: int = MAX_COEFFICIENTS,
) -> Iterator[Cluster]:
    """All clusters of the full polymer model with total size < m."""
    engine = ClusterEngine(g, lam, max_size=max(m - 1, 0))
    yield from engine.clusters(m, max_clusters=max_clusters)


def truncated_expansion(
    g: BipartiteGraph,
    lam: Fugacities,
    m: int,
    certificate: "KPCertificate | None" = None,
) -> ExpansionEstimate:
    """Truncated cluster expansion of log Xi at depth m.

    The tail bound is populated only when a valid convergence certificate is
    supplied; without one the estimate is returned unbounded.  Raises
    ClusterBudgetError when the depth needs more than MAX_COEFFICIENTS
    series coefficients.
    """
    engine = SeriesEngine(g, lam, m)
    value = engine.log_xi()
    bound = None if certificate is None else certificate.error_bound(g.n_R, engine.m)
    eta = None if bound is None else certificate.eta
    count = sum(1 for _ in _components(engine._links, (1 << g.n_R) - 1))
    return ExpansionEstimate(value, engine.m, eta, bound, count)
