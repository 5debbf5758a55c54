"""Exact brute-force reference computations.

Everything here is evaluated without series truncation.  One walk,
``_neighborhoods``, lists N(S) for every subset S of a set X of at most
SIDE_CAP = 20 vertices, and every subset sum reads it: Z over each
component's smaller side, Xi and the polymer-configuration measure over R,
the Gibbs distribution over L.  Joint cumulants come from exact moments via
the partition lattice.  These routines validate the approximate pipeline;
they do not scale.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import SizeCapError
from .graph import BipartiteGraph, Vertex, _bits, _components, _global_mask, _union
from .polymers import Fugacities, Scalar, _fsum, _link_masks

SIDE_CAP = 20  # vertices in one walked set: 2**20 subsets
DISTRIBUTION_CAP = 14  # total vertices for full-distribution enumeration
SET_PARTITION_CAP = 8  # Bell(8) = 4140 partitions
# terms per numpy pass of the complex evaluator: its arrays stay a few MB
# however many points one call evaluates
_BLOCK_TERMS = 1 << 15

# The (|S|, |N(S)|, count) triples over the subsets S of a walked set.
_Histogram = tuple[tuple[int, int, int], ...]

# A component's side-subset profile: whether its smaller side X is the L
# side, the size of the other side Y, and the histogram of the subsets of X.
# With x, y the activities of X and Y,
# Z = sum count * x**|S| * (1 + y)**(|Y| - |N(S)|); real log Z takes the
# factor (1 + y)**|Y| out of the sum, so it never overflows there.
_SideProfile = tuple[bool, int, _Histogram]


def _neighborhoods(adj: Sequence[int], X: int, Y: int) -> list[int]:
    """N(S) & Y for every subset S of the mask X, built by doubling the list
    one vertex of X at a time: the index of N(S) has bit i set when S holds
    the i-th lowest vertex of X.  ``adj`` is indexed by the vertices of X.
    SizeCapError, before any work, when X has more than SIDE_CAP vertices."""
    if X.bit_count() > SIDE_CAP:
        raise SizeCapError(
            f"a walked set of {X.bit_count()} vertices (a component's smaller side, "
            f"or R) exceeds the exact cap ({SIDE_CAP})"
        )
    nb = [0]
    for v in _bits(X):
        a = adj[v] & Y
        nb += [s | a for s in nb]
    return nb


def _histogram(nb: list[int]) -> _Histogram:
    """The (|S|, |N(S)|, count) triples of a ``_neighborhoods`` list."""
    hist = Counter(zip(map(int.bit_count, range(len(nb))), map(int.bit_count, nb)))
    return tuple((a, b, c) for (a, b), c in hist.items())


def _side_profile(adj: tuple[int, ...], n_L: int, comp: int) -> _SideProfile:
    """Side-subset profile of the component ``comp`` (global ids)."""
    left = comp & ((1 << n_L) - 1)
    right = comp & ~left
    x_is_L = left.bit_count() <= right.bit_count()
    X, Y = (left, right) if x_is_L else (right, left)
    return x_is_L, Y.bit_count(), _histogram(_neighborhoods(adj, X, Y))


@lru_cache(maxsize=8)
def _graph_profile(g: BipartiteGraph) -> tuple[_SideProfile, ...]:
    """The profile of every component."""
    adj = g.global_adjacency()
    return tuple(_side_profile(adj, g.n_L, c) for c in _components(adj, (1 << g.n_vertices) - 1))


def _activities(profile: _SideProfile, lam: Fugacities) -> tuple[Scalar, Scalar]:
    """The activities x of the component's smaller side X and y of Y."""
    return (lam.lambda_L, lam.lambda_R) if profile[0] else (lam.lambda_R, lam.lambda_L)


def _finite_sum(hist: _Histogram, x: Scalar, r: Scalar) -> Scalar:
    """sum count * x**|S| * r**|N(S)| over a histogram, compensated;
    SizeCapError unless it is a finite float (a power or the sum overflowing,
    fsum meeting inf - inf, or inf * 0 when r**|N(S)| underflows)."""
    try:
        total = _fsum([c * x**a * r**b for a, b, c in hist])
    except (OverflowError, ValueError):
        total = math.inf
    if not cmath.isfinite(total):
        raise SizeCapError("activities too large for exact float evaluation")
    return total


def _log_z(profile: _SideProfile, lam: Fugacities) -> float:
    """log Z of one component, real activities, as |Y| log(1 + y) plus the
    log of sum count * x**|S| * r**|N(S)| with r = 1/(1 + y) <= 1.  Every
    term is nonnegative and the empty set contributes 1, so the log is
    defined."""
    _, n_Y, hist = profile
    x, y = _activities(profile, lam)
    return n_Y * math.log1p(y) + math.log(_finite_sum(hist, x, 1 / (1 + y)))


def exact_log_Z(g: BipartiteGraph, lam: Fugacities) -> float:
    """log of the exact partition function, real activities.

    Factorizes over connected components; each costs 2**(its smaller side),
    capped at SIDE_CAP = 20.  Every summand is positive, so the log is always
    defined, and the factor (1 + y)**|Y| stays in log form.
    """
    if not lam.is_real:
        raise ValueError("exact_log_Z takes real activities; see exact_Z_complex")
    return math.fsum(_log_z(p, lam) for p in _graph_profile(g))


def exact_Z(g: BipartiteGraph, lam: Fugacities) -> float:
    """Exact partition function, real activities; SizeCapError when it
    overflows a float."""
    log_z = exact_log_Z(g, lam)
    try:
        return math.exp(log_z)
    except OverflowError:
        raise SizeCapError(f"Z overflows a float (log Z = {log_z:.1f})") from None


def _cprod(ar, ai, br, bi):
    """Parts of (ar + i ai)(br + i bi), rounded as Python's complex product
    rounds them (numpy's complex multiply may fuse them)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _z_complex_at(g: BipartiteGraph, lam_L, lam_R) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exact Z at each point (lam_L[i],
    lam_R[i]) of two equal-length sequences of complex activities.

    Per component, each block of points is one numpy pass over the terms
    count * x**|S| * (1 + y)**(|Y| - |N(S)|), at most _BLOCK_TERMS of them;
    each point's real and imaginary parts are then summed by fsum.  The
    powers, products and sums round as Python's complex arithmetic on one
    point does, except powers of exponent 100 or more.  SizeCapError when
    a power, a sum or Z at any point does not fit a complex float."""
    lam_L = np.asarray(lam_L, dtype=complex)
    lam_R = np.asarray(lam_R, dtype=complex)
    n = len(lam_L)
    zr, zi = np.ones(n), np.zeros(n)
    with np.errstate(all="ignore"):  # overflow shows as inf or nan, caught below
        for x_is_L, n_Y, hist in _graph_profile(g):
            x, y1 = (lam_L, 1 + lam_R) if x_is_L else (lam_R, 1 + lam_L)
            a, b, c = np.array(hist).T
            e = n_Y - b  # the exponent of 1 + y
            x_exp, y_exp = np.arange(a.max() + 1), np.arange(e.min(), e.max() + 1)
            e -= e.min()
            step = max(1, _BLOCK_TERMS // len(hist))
            for lo in range(0, n, step):
                blk = slice(lo, lo + step)
                xa = np.power(x[blk, None], x_exp)[:, a]
                yb = np.power(y1[blk, None], y_exp)[:, e]
                tr, ti = _cprod(c, 0.0, xa.real, xa.imag)
                tr, ti = _cprod(tr, ti, yb.real, yb.imag)
                try:
                    sr = [math.fsum(row) for row in tr.tolist()]
                    si = [math.fsum(row) for row in ti.tolist()]
                except (OverflowError, ValueError):  # past the float range, or inf - inf
                    raise SizeCapError("Z overflows a complex float") from None
                zr[blk], zi[blk] = _cprod(zr[blk], zi[blk], np.array(sr), np.array(si))
    if not (np.isfinite(zr).all() and np.isfinite(zi).all()):
        raise SizeCapError("Z overflows a complex float")
    return zr, zi


def exact_Z_complex(g: BipartiteGraph, lam: Fugacities) -> complex:
    """Exact partition function for complex (or real) activities.

    Factorizes over connected components, with the same cap as exact_log_Z.
    The graph's side-subset profiles are memoised, so a call at new
    activities costs one small polynomial evaluation per component.  This
    is the one-point case of the block evaluator ``zero_probe`` uses, so Z
    is computed in complex arithmetic even for real activities.  Raises
    SizeCapError when Z, a power of the activities, or a sum of terms does
    not fit a complex float.
    """
    zr, zi = _z_complex_at(g, [lam.lambda_L], [lam.lambda_R])
    return complex(zr[0], zi[0])


# ---------------------------------------------------------------------------
# polymer-side partition function

def exact_Xi(g: BipartiteGraph, lam: Fugacities) -> Scalar:
    """Polymer partition function: the sum over U subset of R of
    lambda_R**|U| * r**|N(U)|, r = 1/(1 + lambda_L), read from the
    (|U|, |N(U)|) histogram.  U is the union of one compatible collection,
    its 2-linked components, whose disjoint neighborhoods make this weight
    the product of polymer weights; no polymer or 2-linked relation is
    formed, so this checks the expansion engine independently.  Real or
    complex activities; SizeCapError past SIDE_CAP R-vertices, or when a
    power or Xi overflows a float."""
    nb = _neighborhoods(g.adj_R, (1 << g.n_R) - 1, (1 << g.n_L) - 1)
    return _finite_sum(_histogram(nb), lam.lambda_R, 1 / (1 + lam.lambda_L))


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
    target = _global_mask(g, vertices)
    adj = g.global_adjacency()
    reach = _union(adj, target)
    if reach & target:
        return 0.0
    factor = 1.0
    for gid in _bits(target):
        factor *= lam.lambda_L if gid < g.n_L else lam.lambda_R
    if factor == 0.0:
        return 0.0
    log_den = exact_log_Z(g, lam)
    free = ((1 << g.n_vertices) - 1) & ~(target | reach)
    log_num = math.log(factor) + math.fsum(
        _log_z(_side_profile(adj, g.n_L, c), lam) for c in _components(adj, free)
    )
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
    blocked_by = _neighborhoods(g.adj_L, (1 << g.n_L) - 1, (1 << g.n_R) - 1)
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


def exact_nu(g: BipartiteGraph, lam: Fugacities) -> dict[frozenset[tuple[int, ...]], float]:
    """Exact polymer-configuration measure: each pairwise compatible
    collection of polymers, keyed by the frozenset of vertex tuples, with
    probability proportional to the product of polymer weights.  The
    collection with union U holds U's 2-linked components and weighs
    lambda_R**|U| * r**|N(U)| (see exact_Xi); zero-weight collections
    (lambda_R = 0) keep their key.  SizeCapError as in exact_Xi."""
    if not lam.is_real:
        raise ValueError("the configuration measure needs real activities")
    nb = _neighborhoods(g.adj_R, (1 << g.n_R) - 1, (1 << g.n_L) - 1)
    lam_R, r = lam.lambda_R, 1 / (1 + lam.lambda_L)
    total = _finite_sum(_histogram(nb), lam_R, r)  # raises before a power below overflows
    links = _link_masks(g)
    return {
        frozenset(tuple(_bits(c)) for c in _components(links, U)):
        lam_R ** U.bit_count() * r ** n.bit_count() / total
        for U, n in enumerate(nb)
    }


# ---------------------------------------------------------------------------
# the partition lattice, and exact joint cumulants of occupation indicators

def set_partitions(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """All set partitions of ``items``, each exactly once, via restricted
    growth strings.  Blocks and the partition itself keep input order."""
    items = tuple(items)
    n = len(items)
    if n > SET_PARTITION_CAP:
        raise SizeCapError(f"set partitions capped at {SET_PARTITION_CAP} elements")
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int) -> Iterator[tuple[tuple, ...]]:
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


def _lattice_sum(
    parts: Iterable[tuple[tuple, ...]],
    block_value: Callable[[tuple], float],
    moebius: bool = False,
) -> float:
    """Sum over the partitions pi in ``parts`` of prod_{S in pi} block_value(S),
    each term weighted by the Moebius function (-1)**(|pi|-1) (|pi|-1)! of the
    partition lattice when ``moebius`` is set (moments to cumulants)."""
    total = 0.0
    for part in parts:
        k = len(part)
        term = (-1.0) ** (k - 1) * math.factorial(k - 1) if moebius else 1.0
        for block in part:
            term *= block_value(block)
        total += term
    return total


def exact_cumulant(g: BipartiteGraph, lam: Fugacities, vertices) -> float:
    """Joint cumulant of the occupation indicators of ``vertices`` (a
    sequence of (side, index) pairs, repeats allowed), from exact joint
    moments via the partition-lattice inversion."""
    verts = tuple(vertices)
    if not verts:
        raise ValueError("cumulant of an empty family is undefined")
    return _lattice_sum(
        set_partitions(range(len(verts))),
        lambda block: exact_occupancy(g, lam, {verts[i] for i in block}),
        moebius=True,
    )


def exact_covariance(g: BipartiteGraph, lam: Fugacities, u: Vertex, v: Vertex) -> float:
    """Cov(X_u, X_v) of occupation indicators: the order-2 joint cumulant."""
    return exact_cumulant(g, lam, [u, v])


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
        if next(_components(adj, vmask)) == vmask:
            best = min(best, k - 1)
    return best
