"""Exact brute-force reference computations.

Everything here is evaluated without series truncation: partition functions
by summing over the subsets of each component's smaller side, the polymer
partition function by summing over subsets of R, distributions by full
enumeration, and joint cumulants from exact moments via the partition
lattice.  Size caps keep the runtimes sane; these routines exist to validate
the approximate pipeline, not to scale.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations

from .errors import SizeCapError
from .graph import BipartiteGraph, Vertex, _bits
from .polymers import Fugacities, PolymerSystem, Scalar, _link_masks

EXACT_REAL_CAP = 30  # largest connected component, real activities
EXACT_COMPLEX_CAP = 24  # largest connected component, complex activities
DISTRIBUTION_CAP = 14  # total vertices for full-distribution enumeration
XI_SUBSET_CAP = 20  # R-side size for the subset-sum polymer oracle
CUMULANT_SET_CAP = 8
LOG_WEIGHT_LIMIT = 700.0  # keeps every partition-function sum below overflow

# A component's side-subset profile: whether its smaller side X is the L
# side, and the triples (|S|, |Y| - |N(S)|, count) over the subsets S of X,
# with Y the other side.  Then Z = sum count * x**|S| * (1 + y)**(|Y|-|N(S)|)
# for x, y the activities of X and Y.
_SideProfile = tuple[bool, tuple[tuple[int, int, int], ...]]


def _component_masks(adj: tuple[int, ...], todo: int) -> list[int]:
    """Connected components of the subgraph induced on the mask ``todo``."""
    out = []
    while todo:
        comp = todo & -todo
        frontier = comp
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & todo & ~comp
            comp |= frontier
        todo &= ~comp
        out.append(comp)
    return out


def _side_profile(adj: tuple[int, ...], n_L: int, comp: int) -> _SideProfile:
    """Side-subset profile of the component ``comp`` (global ids), built by
    doubling the list of neighborhoods N(S) one vertex of X at a time."""
    left = comp & ((1 << n_L) - 1)
    right = comp & ~left
    x_is_L = left.bit_count() <= right.bit_count()
    X, Y = (left, right) if x_is_L else (right, left)
    nb = [0]
    for v in _bits(X):
        a = adj[v] & Y
        nb += [s | a for s in nb]
    # the index of N(S) in nb has the bits of S
    hist = Counter(zip(map(int.bit_count, range(len(nb))), map(int.bit_count, nb)))
    n_Y = Y.bit_count()
    return x_is_L, tuple((a, n_Y - b, c) for (a, b), c in hist.items())


@lru_cache(maxsize=8)
def _graph_profile(g: BipartiteGraph) -> tuple[int, tuple[_SideProfile, ...]]:
    """Size of the largest component, and the profile of every component.

    Raises SizeCapError, before building any profile, when a component
    exceeds the real cap; callers with a smaller cap check the size.
    """
    adj = g.global_adjacency()
    comps = _component_masks(adj, (1 << g.n_vertices) - 1)
    largest = max((c.bit_count() for c in comps), default=0)
    if largest > EXACT_REAL_CAP:
        raise SizeCapError(
            f"component with {largest} vertices exceeds the exact cap ({EXACT_REAL_CAP})"
        )
    return largest, tuple(_side_profile(adj, g.n_L, c) for c in comps)


def _terms(profile: _SideProfile, lam: Fugacities) -> list[Scalar]:
    x_is_L, hist = profile
    x, y = (lam.lambda_L, lam.lambda_R) if x_is_L else (lam.lambda_R, lam.lambda_L)
    y1 = 1 + y
    return [c * x**a * y1**e for a, e, c in hist]


def _log_z(profile: _SideProfile, lam: Fugacities) -> float:
    """log Z of one component, real activities: every term is nonnegative
    and the empty set contributes (1 + y)**|Y| >= 1."""
    return math.log(math.fsum(_terms(profile, lam)))


def _check_magnitude(g: BipartiteGraph, lam: Fugacities) -> None:
    total = g.n_L * math.log1p(abs(lam.lambda_L)) + g.n_R * math.log1p(abs(lam.lambda_R))
    if total > LOG_WEIGHT_LIMIT:
        raise SizeCapError(
            "activities too large for exact float evaluation "
            f"(sum of log(1+|activity|) = {total:.1f} > {LOG_WEIGHT_LIMIT})"
        )


def exact_log_Z(g: BipartiteGraph, lam: Fugacities) -> float:
    """log of the exact partition function, real activities.

    Factorizes over connected components; each component is capped at 30
    vertices and costs 2**(its smaller side).  Every summand is positive,
    so the log is always defined.
    """
    if not lam.is_real:
        raise ValueError("exact_log_Z takes real activities; see exact_Z_complex")
    _check_magnitude(g, lam)
    _, profiles = _graph_profile(g)
    return math.fsum(_log_z(p, lam) for p in profiles)


def exact_Z(g: BipartiteGraph, lam: Fugacities) -> float:
    """Exact partition function, real activities."""
    return math.exp(exact_log_Z(g, lam))


def exact_Z_complex(g: BipartiteGraph, lam: Fugacities) -> complex:
    """Exact partition function for complex (or real) activities.

    Factorizes over connected components, each capped at 24 vertices.  The
    graph's side-subset profiles are memoised, so a call at new activities
    costs one small polynomial evaluation per component.
    """
    _check_magnitude(g, lam)
    largest, profiles = _graph_profile(g)
    if largest > EXACT_COMPLEX_CAP:
        raise SizeCapError(
            f"component with {largest} vertices exceeds the complex exact cap "
            f"({EXACT_COMPLEX_CAP})"
        )
    out = 1.0 + 0.0j
    for p in profiles:
        terms = _terms(p, lam)
        out *= complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return out


# ---------------------------------------------------------------------------
# polymer-side partition function

def exact_Xi(g: BipartiteGraph, lam: Fugacities) -> Scalar:
    """Polymer partition function by direct summation over subsets of R.

    Each subset S contributes the product of the weights of its 2-linked
    components; the empty set contributes 1.  This does not go through the
    cluster expansion or the restricted-universe recursion, so it serves as
    an independent check of both.  Capped at 20 R-vertices.
    """
    if g.n_R > XI_SUBSET_CAP:
        raise SizeCapError(
            f"exact_Xi enumerates 2**n_R subsets; n_R capped at {XI_SUBSET_CAP}"
        )
    links = _link_masks(g)
    lam_R = lam.lambda_R
    one_plus_L = 1 + lam.lambda_L

    @lru_cache(maxsize=None)
    def component_weight(mask: int) -> Scalar:
        nb = 0
        for v in _bits(mask):
            nb |= g.adj_R[v]
        return lam_R ** mask.bit_count() / one_plus_L ** nb.bit_count()

    def subset_weight(s: int) -> Scalar:
        out: Scalar = 1.0
        rest = s
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= links[v]
                frontier = nxt & rest & ~comp
                comp |= frontier
            out *= component_weight(comp)
            rest &= ~comp
        return out

    vals = [subset_weight(s) for s in range(1 << g.n_R)]
    if isinstance(lam_R, complex) or isinstance(one_plus_L, complex):
        return complex(
            math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals)
        )
    return math.fsum(vals)


# ---------------------------------------------------------------------------
# occupation probabilities and distributions

def exact_occupancy(g: BipartiteGraph, lam: Fugacities, vertices) -> float:
    """Probability that every vertex in ``vertices`` is occupied.

    Real activities.  Returns 0 when the set is not independent.  Computed
    as the activity product times the partition function of the graph minus
    the closed neighborhood of the set, over the partition function, so the
    usual component cap applies.
    """
    if not lam.is_real:
        raise ValueError("occupation probabilities need real activities")
    _check_magnitude(g, lam)
    gids = sorted(g.global_id(v) for v in set(vertices))
    adj = g.global_adjacency()
    target = 0
    for gid in gids:
        target |= 1 << gid
    if any(adj[gid] & target for gid in gids):
        return 0.0
    factor = 1.0
    for gid in gids:
        factor *= lam.lambda_L if gid < g.n_L else lam.lambda_R
    if factor == 0.0:
        return 0.0
    _, profiles = _graph_profile(g)
    blocked = target
    for gid in gids:
        blocked |= adj[gid]
    free = ((1 << g.n_vertices) - 1) & ~blocked
    log_num = math.log(factor) + math.fsum(
        _log_z(_side_profile(adj, g.n_L, c), lam) for c in _component_masks(adj, free)
    )
    log_den = math.fsum(_log_z(p, lam) for p in profiles)
    return math.exp(log_num - log_den)


def exact_marginal(g: BipartiteGraph, lam: Fugacities, A) -> float:
    """Probability that every vertex of A lies in the random independent set.

    ``A`` may be a single (side, index) vertex or any collection of them;
    the empty collection has probability 1.
    """
    if isinstance(A, tuple) and len(A) == 2 and isinstance(A[0], str):
        A = [A]
    vs = set(A)
    if not vs:
        return 1.0
    return exact_occupancy(g, lam, vs)


def exact_distribution(g: BipartiteGraph, lam: Fugacities) -> dict[frozenset[Vertex], float]:
    """Full Gibbs distribution over independent sets (graphs up to 14
    vertices).  Keys are frozensets of (side, index) vertices."""
    if not lam.is_real:
        raise ValueError("distributions need real activities")
    if g.n_vertices > DISTRIBUTION_CAP:
        raise SizeCapError(
            f"distribution enumeration capped at {DISTRIBUTION_CAP} vertices"
        )
    lam_L, lam_R = lam.lambda_L, lam.lambda_R
    blocked_by = [0] * (1 << g.n_L)
    for lmask in range(1 << g.n_L):
        if lmask == 0:
            continue
        low = lmask & -lmask
        blocked_by[lmask] = blocked_by[lmask ^ low] | g.adj_L[low.bit_length() - 1]
    out: dict[frozenset[Vertex], float] = {}
    total = 0.0
    for lmask in range(1 << g.n_L):
        blocked = blocked_by[lmask]
        wl = lam_L ** lmask.bit_count()
        for rmask in range(1 << g.n_R):
            if rmask & blocked:
                continue
            w = wl * lam_R ** rmask.bit_count()
            if w == 0.0:
                continue
            key = frozenset(
                [("L", i) for i in _bits(lmask)] + [("R", j) for j in _bits(rmask)]
            )
            out[key] = w
            total += w
    return {k: v / total for k, v in out.items()}


def exact_nu(
    g: BipartiteGraph, lam: Fugacities, max_polymers: int = 200_000
) -> dict[frozenset[tuple[int, ...]], float]:
    """Exact polymer-configuration measure: each pairwise compatible
    collection of polymers, keyed by the frozenset of vertex tuples, with
    probability proportional to the product of polymer weights."""
    if not lam.is_real:
        raise ValueError("the configuration measure needs real activities")
    if g.n_R > XI_SUBSET_CAP:
        raise SizeCapError(f"exact_nu capped at {XI_SUBSET_CAP} R-vertices")
    system = PolymerSystem(g, lam, max_polymers=max_polymers)
    out: dict[frozenset[tuple[int, ...]], float] = {}
    total = 0.0
    for idxs, w in system.collections():
        key = frozenset(system.polymers[i].vertices for i in idxs)
        out[key] = out.get(key, 0.0) + w
        total += w
    return {k: v / total for k, v in out.items()}


# ---------------------------------------------------------------------------
# exact joint cumulants of occupation indicators

def _set_partitions(items: tuple):
    """All set partitions, via restricted growth strings."""
    n = len(items)
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            blocks: dict[int, list] = {}
            for item, b in zip(items, rgs):
                blocks.setdefault(b, []).append(item)
            yield tuple(tuple(blocks[b]) for b in sorted(blocks))
            return
        for b in range(maxval + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxval, b))

    yield from rec(1, 0)


def exact_cumulant(g: BipartiteGraph, lam: Fugacities, vertices) -> float:
    """Joint cumulant of the occupation indicators of ``vertices`` (a
    sequence of (side, index) pairs, repeats allowed), from exact joint
    moments via the partition-lattice inversion."""
    verts = tuple(vertices)
    if not verts:
        raise ValueError("cumulant of an empty family is undefined")
    if len(verts) > CUMULANT_SET_CAP:
        raise SizeCapError(f"exact_cumulant capped at {CUMULANT_SET_CAP} variables")

    def moment(block: tuple[Vertex, ...]) -> float:
        return exact_occupancy(g, lam, set(block))

    total = 0.0
    for part in _set_partitions(tuple(range(len(verts)))):
        term = (-1.0) ** (len(part) - 1) * math.factorial(len(part) - 1)
        for block in part:
            term *= moment(tuple(verts[i] for i in block))
        total += term
    return total


def exact_covariance(g: BipartiteGraph, lam: Fugacities, u: Vertex, v: Vertex) -> float:
    """Cov(X_u, X_v) of occupation indicators; equals the order-2 joint
    cumulant but computed directly for clarity."""
    joint = exact_occupancy(g, lam, [u, v]) if u != v else exact_marginal(g, lam, u)
    return joint - exact_marginal(g, lam, u) * exact_marginal(g, lam, v)


def brute_force_steiner(g: BipartiteGraph, terminals) -> float:
    """Minimum edges of a connected subgraph containing the terminals, by
    scanning vertex supersets (oracle for the dynamic program; tiny graphs
    only)."""
    gids = sorted({g.global_id(t) for t in terminals})
    if not gids:
        raise ValueError("need at least one terminal")
    if len(gids) == 1:
        return 0
    n = g.n_vertices
    if n > 16:
        raise SizeCapError("brute_force_steiner capped at 16 vertices")
    adj = g.global_adjacency()
    tmask = 0
    for gid in gids:
        tmask |= 1 << gid
    best = math.inf
    for vmask in range(1 << n):
        if vmask & tmask != tmask:
            continue
        k = vmask.bit_count()
        if k - 1 >= best:
            continue
        # connected induced check
        start = vmask & -vmask
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for x in _bits(frontier):
                nxt |= adj[x]
            frontier = nxt & vmask & ~comp
            comp |= frontier
        if comp == vmask:
            best = min(best, k - 1)
    return best
