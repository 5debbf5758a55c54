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
instances).  A state's T_m is the sum of T_m over its link components, and
each such component is a 2-linked set.  Before the first draw the
truncated backend memoises T_m of every 2-linked set below m, one log of
Xi each.  It builds the engine's table of f_T only when a link component
of R has m or more vertices, the one case where T_m needs it.

Each conditional is cached per state and holds masks: every candidate is
the pair (gamma, the state it leaves), with the cumulative probabilities
and p_any, the chance that some polymer is picked.  A uniform at or above
p_any is a vacancy and costs no search.  A ``Polymer`` is built only for a
polymer a draw returns, once per gamma and sampler, and ``sample_config``
returns one shared ``PolymerConfig`` per tuple of chosen gamma, keeping at
most L_SET_MEMO of them.

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
``draws`` tests every offset of a block of uniforms in numpy as a draw's
first uniform and reads the draws off in order: a no-polymer draw from the
test, a polymer draw by the walk.  The test compares about
n_R * max(p_any) slices of the block with the chain; when that passes 2,
no-polymer draws are too rare for it to pay, and every draw is walked.  The
uniforms read, their order and every draw stay those of the walk.  A walked
draw of ``draws`` calls ``sample_config`` and then reads its free
L-vertices' comparisons from the block.  Equal draws of one call share one
frozenset through a memo.  A draw repeats only when its L-set is likely, so
the memo keeps a draw only when its state's likeliest L-set has a chance of
at least 1 / L_SET_MEMO: with f L-vertices free,
max(p_in, 1 - p_in) ** f >= 1 / L_SET_MEMO, at most 10 at lambda_L = 1.
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
from .polymers import Fugacities, Polymer, _build_polymer, _two_linked_sets

TRUNCATION_DEPTH_CAP = 24
UNIFORM_BLOCK = 1024  # doubles per generator call in draws()
# the most draws, configs or free-L tuples one memo keeps for sharing; a
# draw is kept only when its state's likeliest L-set has a chance of at
# least 1 / L_SET_MEMO
L_SET_MEMO = 1024

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
    on the generator return.  ``block(n)`` hands the next n over as a numpy
    array, still unread, and ``skip`` reads them.  ``random`` is the
    ``__next__`` of a list iterator the reader sets, positioned at a walk's
    first double, so a walk reads with no Python frame per double."""

    __slots__ = ("random", "_rng", "_block", "_at")

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self._block = np.empty(0)
        self._at = 0  # the next double to read
        self.random = iter(()).__next__

    def block(self, n: int) -> np.ndarray:
        """The next n doubles, still unread."""
        have = len(self._block) - self._at
        if have < n:
            fresh = self._rng.random(max(UNIFORM_BLOCK, n - have))
            self._block = np.concatenate((self._block[self._at :], fresh))
            self._at = 0
        return self._block[self._at : self._at + n]

    def skip(self, n: int) -> None:
        """Read the next n doubles."""
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
    coefficient their draws read here.  The truncated backend memoises T_m
    of every 2-linked set below m_step, one log of Xi each, and builds the
    table of f_T only when a link component of R has m_step or more
    vertices.  It steps m_step down as ``approx_log_Z``
    steps its depth while what it holds passes
    ``clusters.MAX_COEFFICIENTS``, the sets it lists included; the exact
    backend raises ClusterBudgetError, and SizeCapError when a polymer
    weight, a coefficient of Xi_R or their sum overflows a float: it refuses
    a Xi past the float range rather than read inf / inf.  During the draws
    the truncated backend memoises T_m of a state's link components of
    m_step or more vertices as one scalar each, on demand and outside that
    budget.
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
            xi = self._engine._xi_on
            # log Xi_S, the restricted partition function a conditional reads
            self._log_xi = lambda S: math.log(math.fsum(xi(S, _lowest)))
            # the walk's states are the sets of the recursion for Xi_R on
            # v = min S, so building Xi_R by it memoises every series a draw
            # reads; the weights being >= 0, each is coefficientwise at most
            # Xi_R's
            try:
                xi_R = math.fsum(xi((1 << g.n_R) - 1, _lowest))
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
                # T_m(R) builds the f_T table only for a link component of
                # m or more vertices, and the table memoises T_m of every
                # 2-linked T below m.  Otherwise those T are listed here,
                # each charged m - |T| as the table would, and memoised one
                # log of Xi_T each; either way a draw reads only memo entries
                engine.log_xi()
                if engine._plain is None:
                    for T in _two_linked_sets(engine._links, (1 << g.n_R) - 1, m - 1):
                        engine._charge(m - T.bit_count())
                        engine._log_xi(T)
                return engine

            self._engine = _fit_depth(build, min(self.m_requested, TRUNCATION_DEPTH_CAP))
            self.m_step = self._engine.m
            self._log_xi = self._engine._log_xi
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.degraded = self.m_step is not None and self.m_step < self.m_requested
        self._conditional_cache: dict[int, _Conditional] = {}
        self._vacant: np.ndarray | None = None  # p_any along the all-vacant chain
        self._polymers: dict[int, Polymer] = {}  # one per gamma a draw has returned
        # one per tuple of chosen gamma, at most L_SET_MEMO of them
        self._configs: dict[tuple[int, ...], PolymerConfig] = {}
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
        key = tuple(chosen)
        config = self._configs.get(key)
        if config is None:
            if len(self._configs) >= L_SET_MEMO:
                self._configs.clear()
            polymers = self._polymers
            config = self._configs[key] = PolymerConfig(
                chosen=tuple(polymers.get(gamma) or self._polymer(gamma) for gamma in chosen),
                decided_vertices=self._empty.decided_vertices,
            )
        return config

    def _polymer(self, gamma: int) -> Polymer:
        p = self._polymers[gamma] = _build_polymer(
            self.graph, gamma, tuple(_bits(gamma)), self.lam
        )
        return p

    def extend(self, config: PolymerConfig, rng: np.random.Generator) -> frozenset[Vertex]:
        return _extend(self.graph, self._p_in, _occupied(config), rng, self._names)

    def sample(self, rng: np.random.Generator) -> frozenset[Vertex]:
        # through the two public steps, so that what wraps either one (the
        # spans of perfbench/spans.py) sees every draw of this call; draws()
        # calls sample_config for its polymer draws only, and not extend
        return self.extend(self.sample_config(rng), rng)

    def draws(self, n: int, seed: int) -> Iterator[frozenset[Vertex]]:
        """n independent sets from one deterministic stream: the sets n
        repeated ``sample(rng)`` calls give on a fresh
        ``Generator(Philox(seed))``, reading the same uniforms.

        A draw whose first n_R uniforms are each at or above the p_any of
        the all-vacant chain's state picks no polymer, and its L-set is
        ``u < p_in`` of the n_L uniforms after them: the uniforms and the
        comparisons of the walk, so the draw is the same.  A draw reads at
        most k = n_R + n_L uniforms.  A block of at least
        4 * UNIFORM_BLOCK uniforms is tested at every offset as a draw's
        first uniform, in one comparison with the largest p_any and a few
        on the uniforms below it, no array of them longer than the block;
        the draws are then read off in order, a no-polymer draw from the
        test and any other by the walk, until the next could pass the
        block's end, where the next block starts.  When n_R * max(p_any)
        passes 2 the test is skipped and every draw is walked.  So the
        uniforms read, their order and every draw are those of repeated
        ``sample``.

        A walked draw calls ``sample_config`` on the uniforms from its
        first one, and reads the comparisons of its free L-vertices from
        the block; no draw goes through ``sample`` or ``extend``.  Equal
        draws of one call may be one shared frozenset, through a memo of at
        most L_SET_MEMO draws.  It keeps a draw only when its state's
        likeliest L-set has a chance of at least 1 / L_SET_MEMO:
        max(p_in, 1 - p_in) ** f >= 1 / L_SET_MEMO with f L-vertices free.
        ValueError when n is not a nonnegative integer."""
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"the number of draws must be an integer, got {n!r}") from None
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
        adj_L, p_in = self.graph.adj_L, self._p_in
        l_names, r_names = self._names
        # a state with f L-vertices free is kept for sharing when its
        # likeliest L-set has a chance of at least 1 / L_SET_MEMO: only
        # then do its draws repeat
        likeliest, least = max(p_in, 1.0 - p_in), 1.0 / L_SET_MEMO
        memo: dict[bytes | tuple[int, bytes], frozenset[Vertex]] = {}
        none_memo = memo if likeliest**n_L >= least else None
        # occupied R-mask -> its free L-vertices.  Like the configs of
        # sample_config, it pays when polymer draws repeat their occupied
        # set, as on a small R side: 99% of them on even_cycle(12)
        frees: dict[int, tuple[Vertex, ...]] = {}

        def walked(run: np.ndarray, flags: bytes, p: int) -> tuple[int, frozenset[Vertex]]:
            """The draw whose first uniform is run[0] and whose flags < p_in
            start at flags[p]: ``sample_config`` reads its R-uniforms, at
            most n_R, from ``run`` through src, and its free L-vertices the
            flags after them.  Returns the draw's end in flags, and the
            draw."""
            listed = iter(run.tolist())
            src.random = listed.__next__
            occupied = _occupied(self.sample_config(src))
            p += n_R - operator.length_hint(listed)
            free = frees.get(occupied)
            shared = free is not None
            if not shared:
                free = tuple(u for u, nb in zip(l_names, adj_L) if not nb & occupied)
                shared = likeliest ** len(free) >= least
                if shared:
                    if len(frees) >= L_SET_MEMO:
                        frees.clear()
                    frees[occupied] = free
            end = p + len(free)
            return end, _named(occupied, free, flags[p:end], r_names, memo if shared else None)

        size = max(4 * UNIFORM_BLOCK, 2 * k)
        # the test reads about n_R * max(p_any) slices of the block.  It
        # broke even with walking every draw near 2, where P(no polymer)
        # was 0.1-0.2 on even cycles of 12 to 200 vertices, and was 14%
        # slower at 5.5; past 2 every draw is walked
        test = n_R * float(vacant.max(initial=0.0)) <= 2.0
        done = 0
        while done < n:
            u = src.block(size)
            flags = (u < p_in).tobytes()
            vacancy = _vacancy_offsets(u, vacant, size - k + 1) if test else bytes(size - k + 1)
            p = 0  # the next draw's first uniform
            while done < n and p <= size - k:
                if vacancy[p]:
                    bits = flags[p + n_R : p + k]
                    draw = memo.get(bits)
                    yield draw if draw is not None else _named(0, l_names, bits, r_names, none_memo)
                    p += k
                else:
                    p, draw = walked(u[p : p + n_R], flags, p)
                    yield draw
                done += 1
            src.skip(p)


def _vacancy_offsets(u: np.ndarray, vacant: np.ndarray, starts: int) -> bytes:
    """For each offset p below ``starts``, 1 when the draw whose first
    uniform is u[p] picks no polymer, u[p + i] >= vacant[i] for every state
    i of the all-vacant chain, else 0.  One comparison with the largest
    p_any finds the uniforms that pick at some state; only those are
    compared with every state, a slice of them at a time so that no array
    holds more than len(u) cells."""
    n_R = len(vacant)
    q = np.flatnonzero(u[: starts + n_R - 1] < vacant.max(initial=0.0))
    out = np.ones(starts, dtype=bool)
    step = max(1, len(u) // max(n_R, 1))
    states = np.arange(n_R)
    for lo in range(0, len(q), step):
        at = q[lo : lo + step]
        p = (at[:, None] - states)[u[at, None] < vacant]  # the draws that pick at u[at]
        out[p[(p >= 0) & (p < starts)]] = False
    return out.tobytes()


_Names = tuple[tuple[Vertex, ...], tuple[Vertex, ...]]


def _vertex_names(g: BipartiteGraph) -> _Names:
    """The ("L", u) and ("R", v) tuples, built once so that draws share them."""
    return tuple(("L", u) for u in range(g.n_L)), tuple(("R", v) for v in range(g.n_R))


def _named(
    occupied_R: int,
    free: tuple[Vertex, ...],
    bits: bytes,
    r_names: tuple[Vertex, ...],
    memo: dict[bytes | tuple[int, bytes], frozenset[Vertex]] | None,
) -> frozenset[Vertex]:
    """The draw that occupies the R-vertices in ``occupied_R`` and each
    L-vertex of ``free`` whose byte in ``bits`` is 1, built from a set of
    the sampler's name tuples.  ``memo``, when given, maps bits, or
    (occupied_R, bits) when some R-vertex is occupied, to the draw, so that
    equal draws through one memo share one frozenset; it is emptied when it
    holds L_SET_MEMO draws."""
    key = (occupied_R, bits) if occupied_R else bits
    out = None if memo is None else memo.get(key)
    if out is None:
        out = frozenset({*itertools.compress(free, bits), *(r_names[v] for v in _bits(occupied_R))})
        if memo is not None:
            if len(memo) >= L_SET_MEMO:
                memo.clear()
            memo[key] = out
    return out


def _extend(
    g: BipartiteGraph,
    p_in: float,
    occupied_R: int,
    rng: np.random.Generator,
    names: _Names,
) -> frozenset[Vertex]:
    """Occupy the R-vertices in ``occupied_R``, then each unblocked L-vertex
    independently with probability ``p_in``: one uniform per unblocked
    L-vertex, in L order.  With no R-vertex occupied every L-vertex is
    free, and the prebuilt name tuple is walked as it is.  ValueError when
    ``occupied_R`` holds a vertex past g's R side."""
    if occupied_R >> g.n_R:
        raise ValueError(
            f"the configuration occupies R-vertex {occupied_R.bit_length() - 1}, "
            f"outside the graph's {g.n_R} R-vertices"
        )
    l_names, r_names = names
    free = l_names
    if occupied_R:
        # an L-vertex with an occupied neighbour is blocked and reads no uniform
        free = tuple(u for u, nb in zip(l_names, g.adj_L) if not nb & occupied_R)
    random = rng.random
    return _named(occupied_R, free, bytes([random() < p_in for _ in free]), r_names, None)


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
