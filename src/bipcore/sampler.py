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
polymer a draw returns.

A configuration extends to an independent set by occupying its polymers'
vertices and then each unblocked L-vertex independently with probability
lambda_L / (1 + lambda_L).

Every decision reads one uniform through ``rng.random()``.  A sampler that
owns its generator (``IndependentSetSampler.draws`` and the one-draw
functions) fetches the uniforms UNIFORM_BLOCK at a time; they are the
doubles repeated scalar calls return, so its draws equal repeated
``sample(rng)`` calls on a fresh ``Generator(Philox(seed))``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .clusters import SeriesEngine
from .conditions import KPCertificate, _check_epsilon, certify_kp, choose_m
from .counting import _fit_depth
from .errors import SizeCapError
from .graph import BipartiteGraph, Vertex, _bits
from .oracle import SIDE_CAP
from .polymers import Fugacities, Polymer, _build_polymer

TRUNCATION_DEPTH_CAP = 24
UNIFORM_BLOCK = 1024  # doubles per generator call where a sampler owns the generator

Backend = Literal["auto", "exact", "truncated"]


@dataclass(frozen=True)
class PolymerConfig:
    """A pairwise-compatible polymer collection plus the processed vertices."""

    chosen: tuple[Polymer, ...]
    decided_vertices: frozenset[int]

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


class _BlockedUniforms:
    """The ``random()`` of Generator(Philox(seed)), served from blocks of
    UNIFORM_BLOCK doubles: the same doubles, without a generator call each."""

    __slots__ = ("random",)

    def __init__(self, seed: int):
        rng = np.random.Generator(np.random.Philox(seed))
        blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)  # endless
        self.random = itertools.chain.from_iterable(blocks).__next__


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
            # every series a draw reads lies in the recursion for Xi_R, and
            # the weights being >= 0, each is coefficientwise at most Xi_R's
            try:
                xi_R = math.fsum(self._engine.xi((1 << g.n_R) - 1))
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
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.degraded = self.m_step is not None and self.m_step < self.m_requested
        self._conditional_cache: dict[int, _Conditional] = {}
        # one object, shared by every draw that picks no polymer
        self._empty = PolymerConfig(chosen=(), decided_vertices=frozenset(range(g.n_R)))
        self._p_in = lam.lambda_L / (1.0 + lam.lambda_L)
        self._names = _vertex_names(g)

    # -- restricted partition functions ------------------------------------

    def _log_xi(self, S: int) -> float:
        if self.backend == "exact":
            return math.log(math.fsum(self._engine.xi(S)))
        return self._engine.log_xi(S)

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
        g, lam = self.graph, self.lam
        return PolymerConfig(
            chosen=tuple(_build_polymer(g, gamma, tuple(_bits(gamma)), lam) for gamma in chosen),
            decided_vertices=self._empty.decided_vertices,
        )

    def extend(self, config: PolymerConfig, rng: np.random.Generator) -> frozenset[Vertex]:
        return _extend(self.graph, self._p_in, _occupied(config), rng, self._names)

    def sample(self, rng: np.random.Generator) -> frozenset[Vertex]:
        # through the two public steps, so that what wraps either one (the
        # spans of perfbench/spans.py) sees every draw
        return self.extend(self.sample_config(rng), rng)

    def draws(self, n: int, seed: int) -> Iterator[frozenset[Vertex]]:
        """n independent sets from one deterministic stream: the sets n
        repeated ``sample(rng)`` calls give on a fresh
        ``Generator(Philox(seed))``, with the uniforms fetched in blocks."""
        if n < 0:
            raise ValueError(f"cannot draw {n} sets")
        rng = _BlockedUniforms(seed)
        return (self.sample(rng) for _ in range(n))


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
    return sampler.sample_config(_BlockedUniforms(rng_seed))


def extend_to_independent_set(
    g: BipartiteGraph, config: PolymerConfig, lam: Fugacities, rng_seed: int
) -> frozenset[Vertex]:
    """Occupy the configuration's polymers, then each unblocked L-vertex
    independently with probability lambda_L / (1 + lambda_L)."""
    if not lam.is_real:
        raise ValueError("sampling needs real activities")
    p_in = lam.lambda_L / (1.0 + lam.lambda_L)
    return _extend(g, p_in, _occupied(config), _BlockedUniforms(rng_seed), _vertex_names(g))


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
    return sampler.sample(_BlockedUniforms(rng_seed))
