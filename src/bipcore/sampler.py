"""Approximate sampling from the polymer measure and the hard-core measure.

A polymer configuration is built one decision at a time.  The state is the
set S of R-vertices still free, and the walk decides only at v = min S:
every vertex below v has left S, covered, blocked or vacant.  The
candidates at v are the 2-linked gamma in S with min gamma = v; the chance
of picking gamma is proportional to w(gamma) * Xi_{S minus gamma minus
N2(gamma)} and of picking none to Xi_{S-v}, with N2(gamma) the R-vertices
2-linked to gamma.  These are the terms of the expansion engine's
recursion for Xi_S (``clusters.SeriesEngine``), so this is the exact
conditional factorization of the polymer measure nu
(Jenssen-Keevash-Perkins, arXiv 1807.04804).  The restricted partition
functions come from the same engine, either summed untruncated (exact
backend, small R sides) or as the truncated expansion T_m(S) (certified
instances).

Each conditional is cached per state and holds masks: every candidate is
the pair (gamma, the state it leaves), with the cumulative probabilities
and p_any, the chance that some polymer is picked.  A uniform at or above
p_any is a vacancy and costs no search.  A ``Polymer`` is built only for a
polymer a draw returns, once per gamma and sampler.

A configuration extends to an independent set by occupying its polymers'
vertices and then each unblocked L-vertex independently with probability
lambda_L / (1 + lambda_L).

Every decision reads one uniform through ``rng.random()``.  Only
``IndependentSetSampler.draws`` fetches its uniforms in blocks,
UNIFORM_BLOCK or more at a time; they are the doubles repeated scalar calls
return, so its draws equal repeated ``sample(rng)`` calls on a fresh
``Generator(Philox(seed))``, the generator the one-draw functions pass.

In the paper's regime polymers are rare, and most draws pick none: the walk
then passes the all-vacant chain of states, full, full & (full - 1), ...,
and leaves every L-vertex free.  Such a draw is decided by n_R comparisons
against that chain's p_any and n_L against lambda_L / (1 + lambda_L), so
when P(no polymer) is at least BATCH_CUTOVER, ``draws`` makes those
comparisons for a block of draws in one numpy operation and walks only the
draws that pick a polymer.  The uniforms read, their order and every draw
stay those of the walk.  Below the cut-over, where blocks would be cut
short too often to pay, every draw is walked.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .clusters import SeriesEngine, _lowest
from .conditions import KPCertificate, _check_epsilon, certify_kp, choose_m
from .counting import _fit_depth
from .errors import SizeCapError
from .graph import BipartiteGraph, Vertex, _bits
from .oracle import SIDE_CAP
from .polymers import Fugacities, Polymer, _build_polymer

TRUNCATION_DEPTH_CAP = 24
UNIFORM_BLOCK = 1024  # doubles per generator call in draws()
# draws() decides the draws in blocks of rows when P(no polymer) is at least
# this.  Batching broke even at P(no polymer) = 0.81 on even_cycle(12), 0.88
# on even_cycle(24) and 0.90 on random_biregular(2,4,16), all at
# lambda_L = 1, where L-sets rarely repeat; on even_cycle(40) at
# lambda_L = 20 it was already 1.7x faster at 0.855 (4,000 draws, best of 9)
BATCH_CUTOVER = 0.9
BATCH_DOUBLES = 1 << 15  # the most uniforms in one block of rows
L_SET_MEMO = 1024  # distinct L-sets one draws() call keeps for sharing, past one block's

Backend = Literal["auto", "exact", "truncated"]


@dataclass(frozen=True)
class PolymerConfig:
    """A pairwise-compatible polymer collection plus the processed vertices."""

    chosen: tuple[Polymer, ...]
    decided_vertices: frozenset[int]  # perfbench/test_perfbench.py:144 builds it by name

    @property
    def occupied_R(self) -> frozenset[int]:
        return frozenset(_bits(_occupied(self)))


def _occupied(config: PolymerConfig) -> int:
    """The mask of the R-vertices the configuration's polymers cover."""
    mask = 0
    for p in config.chosen:
        mask |= p.mask
    return mask


# at a state: p_any, the cumulative probabilities of the candidates, and the
# candidates as (gamma, the state gamma leaves)
_Conditional = tuple[float, list[float], list[tuple[int, int]]]


_MEMBER_FIRST = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """A key that orders masks as their ascending vertex tuples order
    lexicographically: one character per vertex from 0 up to the largest,
    "0" for a member and "1" for a non-member, so a proper prefix sorts
    first.  The same order as ``tuple(_bits(mask))``, built without a
    Python-level loop."""
    return bin(mask)[:1:-1].translate(_MEMBER_FIRST)


class _Uniforms:
    """The doubles of Generator(Philox(seed)) in stream order, fetched at
    least UNIFORM_BLOCK at a time: the doubles repeated ``random()`` calls
    on the generator return.  ``random()`` reads the next one through a list
    iterator's ``__next__``, with no Python frame per read, once ``listed(k)``
    has listed at least k of them; ``rows`` hands the next ones over as a
    numpy array and ``skip`` reads them."""

    __slots__ = ("random", "_rng", "_block", "_at", "_listed", "_n_listed")

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self._block = np.empty(0)
        self._at = 0  # the first double of the list, or the next one to read when none is listed
        self._listed: Iterator[float] = iter(())
        self._n_listed = 0
        self.random = self._listed.__next__

    def _fetch(self, k: int) -> None:
        """At least k unread doubles in the block; no list open."""
        self._at += self._n_listed - operator.length_hint(self._listed)
        self._n_listed = 0
        self._listed = iter(())
        self.random = self._listed.__next__  # nothing listed: no stale read
        have = len(self._block) - self._at
        if have < k:
            fresh = self._rng.random(max(UNIFORM_BLOCK, k - have))
            self._block = np.concatenate((self._block[self._at :], fresh))
            self._at = 0

    def listed(self, k: int, to_block_end: bool = True) -> None:
        """Make sure ``random()`` can read the next k doubles.  A new list
        runs to the block's end, or holds just k doubles."""
        if operator.length_hint(self._listed) >= k:
            return
        self._fetch(k)
        stop = len(self._block) if to_block_end else self._at + k
        run = self._block[self._at : stop].tolist()
        self._listed = iter(run)
        self._n_listed = len(run)
        self.random = self._listed.__next__

    def rows(self, j: int, k: int) -> np.ndarray:
        """The next j * k doubles as j rows of k, still unread."""
        self._fetch(j * k)
        return self._block[self._at : self._at + j * k].reshape(j, k)

    def skip(self, n: int) -> None:
        """Read the next n doubles handed over by ``rows``."""
        self._at += n


class IndependentSetSampler:
    """Reusable sampling engine for one (graph, activities, epsilon) triple.

    Conditional distributions are cached per state, the set of R-vertices
    still free, so repeated draws are cheap.  A draw decides only at
    v = min state, and a cached conditional holds masks, not polymers (see
    the module docstring).  backend="exact" computes
    restricted partition functions exactly and needs no certificate;
    "truncated" uses exp of the truncated expansion at depth m_step, chosen
    for a per-step error budget epsilon / (2 n_R) but capped at
    TRUNCATION_DEPTH_CAP, and requires a valid certificate; "auto" picks
    exact for n_R up to the oracle's SIDE_CAP (20), truncated otherwise.
    ``m_requested`` is the depth the budget asks for (None for the exact
    backend) and ``degraded`` flags m_step < m_requested, when the draws are
    not certified within epsilon.  Both backends build every series
    coefficient their draws read here.  The truncated backend steps m_step
    down as ``approx_log_Z`` steps its depth while they pass
    ``clusters.MAX_COEFFICIENTS``; the exact backend raises
    ClusterBudgetError, and SizeCapError when a polymer weight, a
    coefficient of Xi_R or their sum overflows a float: it refuses a Xi past
    the float range rather than read inf / inf.  During the draws the
    truncated backend memoises T_m per link component of a state as one
    scalar each, on demand and outside that budget.
    """

    def __init__(
        self,
        g: BipartiteGraph,
        lam: Fugacities,
        epsilon: float = 0.05,
        backend: Backend = "auto",
        eta: float = 0.1,
    ):
        if not lam.is_real:
            raise ValueError("sampling needs real activities")
        _check_epsilon(epsilon)  # choose_m's rule, for both backends
        if backend == "auto":
            backend = "exact" if g.n_R <= SIDE_CAP else "truncated"
        self.graph = g
        self.lam = lam
        self.epsilon = epsilon
        self.backend: Backend = backend
        self.certificate: KPCertificate | None = None
        if backend == "exact":
            if g.n_R > SIDE_CAP:
                raise SizeCapError(f"exact sampling backend capped at {SIDE_CAP} R-vertices")
            self.m_requested = self.m_step = None
            # Xi_S has degree |S|: depth n_R + 1 keeps every coefficient
            self._engine = SeriesEngine(g, lam, g.n_R + 1)
            xi = self._engine.xi
            # log Xi_S, the restricted partition function a conditional reads
            self._log_xi = lambda S: math.log(math.fsum(xi(S)))
            # the walk's states are the sets of the recursion for Xi_R on
            # v = min S, so building Xi_R by it memoises every series a draw
            # reads; the weights being >= 0, each is coefficientwise at most
            # Xi_R's
            try:
                xi_R = math.fsum(self._engine._xi_on((1 << g.n_R) - 1, _lowest))
            except (OverflowError, ValueError):
                xi_R = math.inf
            if not math.isfinite(xi_R):
                raise SizeCapError("Xi past the float range: the exact backend cannot draw")
        elif backend == "truncated":
            self.certificate = cert = certify_kp(g, lam, eta=eta).require(
                "the truncated sampling backend needs a valid certificate"
            )
            step_budget = epsilon / (2.0 * g.n_R)
            self.m_requested = choose_m(g.n_R, step_budget, cert.eta)

            def build(m: int) -> SeriesEngine:
                engine = SeriesEngine(g, lam, m)
                engine.set_contributions()  # every coefficient a draw reads
                return engine

            self._engine = _fit_depth(build, min(self.m_requested, TRUNCATION_DEPTH_CAP))
            self.m_step = self._engine.m
            self._log_xi = self._engine.log_xi
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.degraded = self.m_step is not None and self.m_step < self.m_requested
        self._conditional_cache: dict[int, _Conditional] = {}
        self._vacant: np.ndarray | None = None  # p_any along the all-vacant chain
        self._polymers: dict[int, Polymer] = {}  # one per gamma a draw has returned
        # one object, shared by every draw that picks no polymer
        self._empty = PolymerConfig(chosen=(), decided_vertices=frozenset(range(g.n_R)))
        self._p_in = lam.lambda_L / (1.0 + lam.lambda_L)
        self._names = _vertex_names(g)

    # -- conditionals -------------------------------------------------------

    def _conditional(self, state: int) -> _Conditional:
        """The law at v = min state: p_any, the candidates' cumulative
        probabilities, and the candidates, each a 2-linked gamma with the
        state it leaves; the rest of the mass is the vacancy at v."""
        log_none = self._log_xi(state & (state - 1))
        # lexicographic in the vertex tuple: draws stay identical to earlier releases
        terms = sorted(self._engine.terms(state), key=lambda t: _lex_key(t[0]))
        raw = [
            0.0 if w == 0.0 else w * math.exp(self._log_xi(rest) - log_none)
            for _, rest, w in terms
        ]
        total = 1.0 + math.fsum(raw)
        cum = list(itertools.accumulate(r / total for r in raw))
        out = (cum[-1] if cum else 0.0, cum, [(gamma, rest) for gamma, rest, _ in terms])
        self._conditional_cache[state] = out
        return out

    # -- sampling -----------------------------------------------------------

    def sample_config(
        self, rng: np.random.Generator, trace: list[tuple[int, int]] | None = None
    ) -> PolymerConfig:
        """One polymer configuration; ``trace`` receives (v, state) at every
        vertex, the state being the mask of R-vertices still free."""
        # perfbench/spans.py:137-139 passes ``trace`` to read the states, and
        # perfbench/test_perfbench.py:143 patches in this signature
        state = (1 << self.graph.n_R) - 1
        chosen: list[int] = []
        cache = self._conditional_cache
        random = rng.random
        traced = 0  # the vertices below this one are in the trace
        while state:
            if trace is not None:  # v = min state, and the vertices skipped before it
                v = (state & -state).bit_length()
                trace.extend((u, state) for u in range(traced, v))
                traced = v
            try:
                p_any, cum, candidates = cache[state]
            except KeyError:
                p_any, cum, candidates = self._conditional(state)
            x = random()
            if x >= p_any:  # the vacancy at v: no search
                state &= state - 1
            else:
                gamma, state = candidates[bisect.bisect_right(cum, x)]
                chosen.append(gamma)
        if trace is not None:
            trace.extend((u, 0) for u in range(traced, self.graph.n_R))
        if not chosen:
            return self._empty
        polymers = self._polymers
        return PolymerConfig(
            chosen=tuple(polymers.get(gamma) or self._polymer(gamma) for gamma in chosen),
            decided_vertices=self._empty.decided_vertices,
        )

    def _polymer(self, gamma: int) -> Polymer:
        p = self._polymers[gamma] = _build_polymer(
            self.graph, gamma, tuple(_bits(gamma)), self.lam
        )
        return p

    def extend(self, config: PolymerConfig, rng: np.random.Generator) -> frozenset[Vertex]:
        return _extend(self.graph, self._p_in, _occupied(config), rng, self._names)

    def sample(self, rng: np.random.Generator) -> frozenset[Vertex]:
        # through the two public steps, so that what wraps either one (the
        # spans of perfbench/spans.py) sees every draw
        return self.extend(self.sample_config(rng), rng)

    def draws(self, n: int, seed: int) -> Iterator[frozenset[Vertex]]:
        """n independent sets from one deterministic stream: the sets n
        repeated ``sample(rng)`` calls give on a fresh
        ``Generator(Philox(seed))``, reading the same uniforms.

        P(no polymer) is the product of 1 - p_any over the all-vacant
        chain.  When it is at least BATCH_CUTOVER (0.9, where batching
        broke even on the slowest case measured; see the constant), the
        draws are decided in blocks: the next rows of n_R + n_L uniforms
        form one numpy array, and a row whose first n_R uniforms are each
        at or above the p_any of the chain's state is a draw with no
        polymer, its L-set ``row[n_R:] < p_in``.  Those are the uniforms
        and the comparisons of the walk, so the draw is the same.  At the
        first row that fails, the walk and the extension run from that
        row's first uniform (a draw reads at most n_R + n_L), and batching
        resumes after the uniforms they read.  So the uniforms read, their
        order and every draw are those of repeated ``sample``.  Equal
        L-sets of one call may be one shared frozenset, from a memo of at
        most L_SET_MEMO sets past the current block's.  Batched draws do
        not go through ``sample_config`` and ``extend``."""
        if n < 0:
            raise ValueError(f"cannot draw {n} sets")
        return self._draws(n, _Uniforms(seed))  # the seed is checked here, not at the first draw

    def _vacant_chain(self) -> np.ndarray:
        """p_any at each state of the all-vacant chain, full, full & (full - 1), ..."""
        if self._vacant is None:
            cache, p_any = self._conditional_cache, []
            state = (1 << self.graph.n_R) - 1
            while state:
                p_any.append((cache.get(state) or self._conditional(state))[0])
                state &= state - 1
            self._vacant = np.array(p_any, dtype=float)
        return self._vacant

    def _draws(self, n: int, src: _Uniforms) -> Iterator[frozenset[Vertex]]:
        n_R, n_L = self.graph.n_R, self.graph.n_L
        k = n_R + n_L  # the most uniforms a draw reads
        vacant = self._vacant_chain()
        p_none = float(np.prod(1.0 - vacant))
        if p_none < BATCH_CUTOVER:
            for _ in range(n):
                src.listed(k)
                yield self.sample(src)
            return
        per_block = _block_rows(p_none, k)
        l_names, p_in = self._names[0], self._p_in
        memo: dict[bytes, frozenset[Vertex]] = {}
        done = 0
        while done < n:
            j = min(n - done, per_block)
            rows = src.rows(j, k)
            walked = np.flatnonzero((rows[:, :n_R] < vacant).any(axis=1))
            m = int(walked[0]) if len(walked) else j  # rows before the first walked draw
            if m:
                bits = rows[:m, n_R:] < p_in
                keys = _row_keys(bits)
                new = set(keys).difference(memo)
                if len(memo) + len(new) > L_SET_MEMO:
                    memo.clear()
                    new = set(keys)
                if new:
                    row_of = dict(zip(keys, range(m)))
                    new = list(new)
                    for key, row in zip(new, bits[[row_of[key] for key in new]].tolist()):
                        memo[key] = frozenset({*itertools.compress(l_names, row)})
                yield from map(memo.__getitem__, keys)
                src.skip(m * k)
                done += m
            if m < j:
                src.listed(k, to_block_end=False)
                yield self.sample(src)
                done += 1


def _block_rows(p_none: float, k: int) -> int:
    """Rows per block: enough for about four runs of no-polymer draws, and
    at most BATCH_DOUBLES uniforms of k per row."""
    rows = max(1, BATCH_DOUBLES // max(k, 1))
    return rows if p_none == 1.0 else max(1, min(rows, int(4.0 / (1.0 - p_none))))


def _row_keys(bits: np.ndarray) -> list[bytes]:
    """One bytes key per row of a boolean array, equal for equal rows."""
    packed = np.packbits(bits, axis=1)
    if not packed.shape[1]:
        return [b""] * len(packed)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


_Names = tuple[tuple[Vertex, ...], tuple[Vertex, ...]]


def _vertex_names(g: BipartiteGraph) -> _Names:
    """The ("L", u) and ("R", v) tuples, built once so that draws share them."""
    return tuple(("L", u) for u in range(g.n_L)), tuple(("R", v) for v in range(g.n_R))


def _extend(
    g: BipartiteGraph, p_in: float, occupied_R: int, rng: np.random.Generator, names: _Names
) -> frozenset[Vertex]:
    """Occupy the R-vertices in ``occupied_R``, then each unblocked L-vertex
    independently with probability ``p_in``: one uniform per unblocked
    L-vertex, in L order.  With no R-vertex occupied every L-vertex is
    free, and the prebuilt name tuple is walked as it is."""
    l_names, r_names = names
    free = l_names
    if occupied_R:
        # an L-vertex with an occupied neighbour is blocked and reads no uniform
        free = [u for u, nb in zip(l_names, g.adj_L) if not nb & occupied_R]
    random = rng.random
    out = {u for u in free if random() < p_in}
    out.update(r_names[v] for v in _bits(occupied_R))
    return frozenset(out)


def sample_polymer_config(
    g: BipartiteGraph,
    lam: Fugacities,
    epsilon: float,
    rng_seed: int,
    backend: Backend = "auto",
) -> PolymerConfig:
    """One polymer configuration, deterministic in the seed.  Builds a
    sampler for this one draw; reuse an IndependentSetSampler for many."""
    sampler = IndependentSetSampler(g, lam, epsilon, backend)
    return sampler.sample_config(np.random.Generator(np.random.Philox(rng_seed)))


def extend_to_independent_set(
    g: BipartiteGraph, config: PolymerConfig, lam: Fugacities, rng_seed: int
) -> frozenset[Vertex]:
    """Occupy the configuration's polymers, then each unblocked L-vertex
    independently with probability lambda_L / (1 + lambda_L)."""
    if not lam.is_real:
        raise ValueError("sampling needs real activities")
    p_in = lam.lambda_L / (1.0 + lam.lambda_L)
    rng = np.random.Generator(np.random.Philox(rng_seed))
    return _extend(g, p_in, _occupied(config), rng, _vertex_names(g))


def sample_independent_set(
    g: BipartiteGraph,
    lam: Fugacities,
    epsilon: float,
    rng_seed: int,
    backend: Backend = "auto",
) -> frozenset[Vertex]:
    """One draw from the hard-core measure: exact in the exact backend, and
    within total-variation epsilon of it in the truncated backend unless the
    sampler is ``degraded`` (see IndependentSetSampler).  Builds a sampler for
    this one draw; reuse an IndependentSetSampler for many."""
    sampler = IndependentSetSampler(g, lam, epsilon, backend)
    return sampler.sample(np.random.Generator(np.random.Philox(rng_seed)))
