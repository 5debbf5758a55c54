"""Polymers: 2-linked subsets of the R side and their weights.

Two R-vertices are 2-linked when they share an L-neighbor.  A polymer is a
nonempty subset of R that is connected under that relation; its weight is

    w(gamma) = lambda_R**|gamma| * r**|N(gamma)|,   r = 1 / (1 + lambda_L),

with N(gamma) the L-neighborhood; for real activities r < 1, so a large one
underflows to 0 rather than overflowing.  Two polymers are compatible when
their union is not 2-linked; every polymer is incompatible with itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import NotTwoLinkedError, SizeCapError
from .graph import BipartiteGraph, _bits, _components, _union

DEFAULT_MAX_POLYMERS = 200_000

Scalar = float | complex


def _fsum(vals: list[Scalar]) -> Scalar:
    """Compensated sum; complex values are summed by parts."""
    try:
        return math.fsum(vals)
    except TypeError:  # complex values
        return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


@dataclass(frozen=True)
class Fugacities:
    """Vertex activities per side.

    Real mode requires lambda_L > 0 and lambda_R >= 0 (the zero R-activity
    edge case is allowed and makes every polymer weight vanish).  Passing a
    ``complex`` for either activity selects complex mode, which requires
    finite parts and 1 + lambda_L != 0.
    """

    lambda_L: Scalar
    lambda_R: Scalar

    def __post_init__(self):
        lL, lR = self.lambda_L, self.lambda_R
        if isinstance(lL, complex) or isinstance(lR, complex):
            for name, value in (("lambda_L", lL), ("lambda_R", lR)):
                if not cmath.isfinite(value):
                    raise ValueError(f"complex mode needs finite activities, got {name}={value!r}")
            if abs(1 + complex(lL)) == 0.0:
                raise ValueError("complex mode needs 1 + lambda_L != 0")
            object.__setattr__(self, "lambda_L", complex(lL))
            object.__setattr__(self, "lambda_R", complex(lR))
        else:
            lL, lR = float(lL), float(lR)
            if not (lL > 0.0) or math.isinf(lL) or math.isnan(lL):
                raise ValueError("real mode needs lambda_L > 0 and finite")
            if not (lR >= 0.0) or math.isinf(lR) or math.isnan(lR):
                raise ValueError("real mode needs lambda_R >= 0 and finite")
            object.__setattr__(self, "lambda_L", lL)
            object.__setattr__(self, "lambda_R", lR)

    @property
    def is_real(self) -> bool:
        return not isinstance(self.lambda_L, complex)


@dataclass(frozen=True)
class ComplexRegion:
    """Polydisc-style parameter region: |lambda_R| <= bound_R together with
    |1 + lambda_L| >= 1 + bound_L, for positive finite real bounds."""

    bound_L: float
    bound_R: float

    def __post_init__(self):
        for name, value in (("bound_L", self.bound_L), ("bound_R", self.bound_R)):
            if not 0 < value < math.inf:
                raise ValueError(f"region bounds must be positive and finite, got {name}={value!r}")

    def contains(self, lam: Fugacities) -> bool:
        return (
            abs(lam.lambda_R) <= self.bound_R
            and abs(1 + lam.lambda_L) >= 1 + self.bound_L
        )


@dataclass(frozen=True)
class Polymer:
    """A 2-linked subset of R with its precomputed weight data."""

    vertices: tuple[int, ...]
    mask: int
    neighborhood_size: int
    weight: Scalar

    @property
    def size(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return f"Polymer({list(self.vertices)}, |N|={self.neighborhood_size}, w={self.weight!r})"


@lru_cache(maxsize=256)
def _link_masks(g: BipartiteGraph) -> tuple[int, ...]:
    """For each R-vertex, the bitmask of other R-vertices sharing an
    L-neighbor with it (adjacency of the 2-linked relation)."""
    return tuple(_union(g.adj_L, nb) & ~(1 << v) for v, nb in enumerate(g.adj_R))


def two_linked_adjacency(g: BipartiteGraph) -> dict[int, frozenset[int]]:
    """Public view of the 2-linked relation on R indices."""
    masks = _link_masks(g)
    return {v: frozenset(_bits(masks[v])) for v in range(g.n_R)}


def _is_two_linked(mask: int, links: Sequence[int]) -> bool:
    return next(_components(links, mask), 0) == mask


def polymer_weight(g: BipartiteGraph, vertices, lam: Fugacities) -> Scalar:
    """Weight of the polymer on ``vertices`` (R indices); validates shape."""
    return make_polymer(g, vertices, lam).weight


def make_polymer(g: BipartiteGraph, vertices, lam: Fugacities) -> Polymer:
    verts = tuple(sorted(set(int(v) for v in vertices)))
    if not verts:
        raise NotTwoLinkedError("a polymer is a nonempty subset of R")
    if verts[0] < 0 or verts[-1] >= g.n_R:
        raise NotTwoLinkedError(f"R indices out of range: {verts}")
    mask = 0
    for v in verts:
        mask |= 1 << v
    links = _link_masks(g)
    if not _is_two_linked(mask, links):
        raise NotTwoLinkedError(f"{list(verts)} is not 2-linked")
    return _build_polymer(g, mask, verts, lam)


def _weight(lam: Fugacities, size: int, nbhd: float) -> Scalar:
    """w(gamma) from |gamma| and |N(gamma)|; ``nbhd`` may be fractional, as
    in the per-vertex envelope of the tail bound.  SizeCapError when a power
    overflows a float."""
    try:
        return lam.lambda_R**size * (1 / (1 + lam.lambda_L)) ** nbhd
    except OverflowError:
        raise SizeCapError(f"a polymer weight overflows a float (|gamma| = {size})") from None


def _nbhd_size(g: BipartiteGraph, verts: Sequence[int]) -> int:
    """|N(gamma)| for gamma on the R-vertices ``verts``."""
    nb = 0
    for v in verts:
        nb |= g.adj_R[v]
    return nb.bit_count()


def _build_polymer(g: BipartiteGraph, mask: int, verts: tuple[int, ...], lam: Fugacities) -> Polymer:
    nb = _nbhd_size(g, verts)
    return Polymer(verts, mask, nb, _weight(lam, len(verts), nb))


def _grown_sets(
    adj: Sequence[int], root: int, size_cap: int, allowed: int, marks: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """(gamma, the union of marks[v] over v in gamma) for every connected set
    gamma containing ``root`` inside ``allowed``, each exactly once, sizes up
    to ``size_cap``.  Canonical growth: candidates are consumed in ascending
    order and barred from later branches, so no deduplication table is
    needed, and the union grows with the set, one OR per vertex added.
    Depth first, each set before the sets grown from it: a deterministic
    emission order.  The path is an explicit stack, so a set is yielded
    once, not passed up through a generator per vertex."""
    rootbit = 1 << root
    if not (allowed & rootbit) or size_cap < 1:
        return
    yield rootbit, marks[root]
    if size_cap == 1:
        return
    # one frame per set on the path that may still grow:
    # [set, its union, candidates left, barred vertices]
    stack = [[rootbit, marks[root], adj[root] & allowed & ~rootbit, rootbit]]
    while stack:
        top = stack[-1]
        smask, acc, ext, forb = top
        if not ext:
            stack.pop()
            continue
        bit = ext & -ext
        ext ^= bit
        top[2] = ext
        top[3] = forb | bit
        v = bit.bit_length() - 1
        grown = smask | bit
        acc |= marks[v]
        yield grown, acc
        if len(stack) + 1 < size_cap:  # the frame at depth i holds a set of i + 1 vertices
            stack.append([grown, acc, (ext | (adj[v] & allowed)) & ~grown & ~forb, forb])


def _connected_sets(adj: Sequence[int], root: int, size_cap: int, allowed: int) -> Iterator[int]:
    """The masks of ``_grown_sets``, in its order."""
    return map(itemgetter(0), _grown_sets(adj, root, size_cap, allowed, adj))


def _grown_two_linked(
    links: Sequence[int], within: int, size_cap: int, marks: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """(gamma, the union of marks[v] over v in gamma) for every 2-linked
    subset gamma of ``within`` with at most ``size_cap`` vertices, each
    exactly once, grown from its minimum vertex in ascending order of that
    vertex."""
    for root in _bits(within):
        yield from _grown_sets(links, root, size_cap, within & (-1 << root), marks)


def _two_linked_sets(links: Sequence[int], within: int, size_cap: int) -> Iterator[int]:
    """The masks of ``_grown_two_linked``, in its order."""
    return map(itemgetter(0), _grown_two_linked(links, within, size_cap, links))


def enumerate_polymers(
    g: BipartiteGraph, lam: Fugacities, root: int, k_max: int
) -> Iterator[Polymer]:
    """All polymers containing R-vertex ``root`` with size <= k_max, each
    exactly once, in a deterministic order."""
    if not 0 <= root < g.n_R:
        raise ValueError(f"no R-vertex {root}")
    for mask in _connected_sets(_link_masks(g), root, k_max, (1 << g.n_R) - 1):
        yield _build_polymer(g, mask, tuple(_bits(mask)), lam)


def all_polymers(g: BipartiteGraph, lam: Fugacities, max_size: int) -> list[Polymer]:
    """Every polymer of size <= max_size, each exactly once, sorted by the
    canonical key (lexicographic vertex tuple).  SizeCapError past
    DEFAULT_MAX_POLYMERS of them."""
    out = []
    for mask in _two_linked_sets(_link_masks(g), (1 << g.n_R) - 1, max_size):
        out.append(_build_polymer(g, mask, tuple(_bits(mask)), lam))
        if len(out) > DEFAULT_MAX_POLYMERS:
            raise SizeCapError(f"more than {DEFAULT_MAX_POLYMERS} polymers; graph too dense")
    out.sort(key=lambda p: p.vertices)
    return out


def incompatible(p1: Polymer, p2: Polymer, links: Sequence[int]) -> bool:
    """True when the union of the two polymers is 2-linked, i.e. they share a
    vertex or some cross pair is 2-linked.  Always true for p1 == p2."""
    return bool((p1.mask | _union(links, p1.mask)) & p2.mask)


# ---------------------------------------------------------------------------
# explicit polymer universes

class PolymerSystem:
    """Explicit list of polymers with incompatibility bitmasks.

    Supports exact evaluation of the polymer partition function restricted
    to any subset of the universe (memoized) and enumeration of compatible
    collections.  Used by the exact collection oracle and by the reference
    cluster enumeration.
    """

    def __init__(self, g: BipartiteGraph, lam: Fugacities, max_size: int | None = None):
        self.graph = g
        self.lam = lam
        self.max_size = g.n_R if max_size is None else min(max_size, g.n_R)
        self.polymers = all_polymers(g, lam, self.max_size)
        n = len(self.polymers)
        self.full_mask = (1 << n) - 1
        links = _link_masks(g)
        member = [0] * g.n_R
        for i, p in enumerate(self.polymers):
            for v in p.vertices:
                member[v] |= 1 << i
        incomp = []
        for p in self.polymers:
            reach = p.mask
            for v in p.vertices:
                reach |= links[v]
            m = 0
            for v in _bits(reach):
                m |= member[v]
            incomp.append(m)
        self.incompat_masks = tuple(incomp)
        self._xi_cache: dict[int, Scalar] = {}

    def __len__(self) -> int:
        return len(self.polymers)

    def xi(self, avail: int | None = None) -> Scalar:
        """Partition function of the polymer model restricted to the
        polymers indexed by ``avail`` (all of them by default)."""
        if avail is None:
            avail = self.full_mask
        return self._xi(avail)

    def _xi(self, avail: int) -> Scalar:
        if avail == 0:
            return 1.0
        hit = self._xi_cache.get(avail)
        if hit is not None:
            return hit
        low = avail & -avail
        i = low.bit_length() - 1
        out = self._xi(avail & ~low) + self.polymers[i].weight * self._xi(
            avail & ~self.incompat_masks[i]
        )
        self._xi_cache[avail] = out
        return out

    def collections(self, avail: int | None = None) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        """Yield (polymer index tuple, weight product) for every pairwise
        compatible collection, the empty collection included."""
        if avail is None:
            avail = self.full_mask

        def rec(acc: tuple[int, ...], w: Scalar, rest: int) -> Iterator[tuple[tuple[int, ...], Scalar]]:
            yield acc, w
            r = rest
            while r:
                low = r & -r
                r ^= low
                i = low.bit_length() - 1
                higher = rest & ~((low << 1) - 1)
                yield from rec(acc + (i,), w * self.polymers[i].weight, higher & ~self.incompat_masks[i])

        yield from rec((), 1.0, avail)
