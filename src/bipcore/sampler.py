"""Approximate sampling from the polymer measure and the hard-core measure.

A polymer configuration is built one R-vertex at a time (ascending index).
The state is the set S of R-vertices still free: every vertex below the
current one has left it.  At a vertex v in S the candidates are the 2-linked
gamma in S with min gamma = v; the chance of picking gamma is proportional
to w(gamma) * Xi_{S minus gamma minus N2(gamma)} and of picking none to
Xi_{S-v}, with N2(gamma) the R-vertices 2-linked to gamma.  These are the
terms of the expansion engine's recursion for Xi_S (``clusters.SeriesEngine``),
so this is the exact conditional factorization of the polymer measure nu
(Jenssen-Keevash-Perkins, arXiv 1807.04804).  The restricted partition
functions come from the same engine, either summed untruncated (exact
backend, small R sides) or as the truncated expansion T_m(S) (certified
instances).

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
from .conditions import KPCertificate, certify_kp, choose_m
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
        out: set[int] = set()
        for p in self.chosen:
            out.update(p.vertices)
        return frozenset(out)


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
    still free, so repeated draws are cheap.  backend="exact" computes
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
    ClusterBudgetError, and SizeCapError when a polymer weight overflows a
    float.  During the draws the truncated backend memoises T_m per link
    component of a state as one scalar each, on demand and outside that
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
        if not 0 < epsilon < math.inf:  # choose_m's rule, for both backends
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
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
            # every series a draw reads lies in the recursion for Xi_R
            self._engine.xi((1 << g.n_R) - 1)
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
        self._conditional_cache: dict[int, tuple[list[tuple[Polymer, int]], list[float]]] = {}
        self._decided = frozenset(range(g.n_R))  # one object, shared by every configuration
        self._names = _vertex_names(g)

    # -- restricted partition functions ------------------------------------

    def _log_xi(self, S: int) -> float:
        if self.backend == "exact":
            return math.log(math.fsum(self._engine.xi(S)))
        return self._engine.log_xi(S)

    def _conditional(self, state: int) -> tuple[list[tuple[Polymer, int]], list[float]]:
        """Candidates at v = min state, each a polymer with the state it
        leaves, plus cumulative probabilities; the final slot is the
        no-polymer outcome."""
        hit = self._conditional_cache.get(state)
        if hit is not None:
            return hit
        g, lam = self.graph, self.lam
        log_none = self._log_xi(state & (state - 1))
        candidates = []
        raw = []
        # lexicographic in the vertex tuple: draws stay identical to earlier releases
        for gamma, rest, w in sorted(
            self._engine.terms(state), key=lambda t: tuple(_bits(t[0]))
        ):
            candidates.append((_build_polymer(g, gamma, tuple(_bits(gamma)), lam), rest))
            raw.append(0.0 if w == 0.0 else w * math.exp(self._log_xi(rest) - log_none))
        total = 1.0 + math.fsum(raw)
        cum = []
        acc = 0.0
        for r in raw:
            acc += r / total
            cum.append(acc)
        cum.append(1.0)
        out = (candidates, cum)
        self._conditional_cache[state] = out
        return out

    # -- sampling -----------------------------------------------------------

    def sample_config(
        self, rng: np.random.Generator, trace: list[tuple[int, int]] | None = None
    ) -> PolymerConfig:
        """One polymer configuration; ``trace`` receives (v, state) at every
        vertex, the state being the mask of R-vertices still free."""
        g = self.graph
        state = (1 << g.n_R) - 1
        chosen: list[Polymer] = []
        cached = self._conditional_cache.get
        random = rng.random
        for v in range(g.n_R):
            if trace is not None:
                trace.append((v, state))
            if not (state >> v) & 1:
                continue  # covered or blocked by a chosen polymer
            candidates, cum = cached(state) or self._conditional(state)
            pick = bisect.bisect_right(cum, random(), 0, len(candidates))
            if pick == len(candidates):
                state &= ~(1 << v)
            else:
                polymer, state = candidates[pick]
                chosen.append(polymer)
        return PolymerConfig(chosen=tuple(chosen), decided_vertices=self._decided)

    def extend(self, config: PolymerConfig, rng: np.random.Generator) -> frozenset[Vertex]:
        return _extend(self.graph, self.lam, config, rng, self._names)

    def sample(self, rng: np.random.Generator) -> frozenset[Vertex]:
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
    g: BipartiteGraph,
    lam: Fugacities,
    config: PolymerConfig,
    rng: np.random.Generator,
    names: _Names,
) -> frozenset[Vertex]:
    """Occupy the configuration's polymers, then each unblocked L-vertex
    independently with probability lambda_L / (1 + lambda_L)."""
    l_names, r_names = names
    occupied_R = 0
    for p in config.chosen:
        occupied_R |= p.mask
    p_in = lam.lambda_L / (1.0 + lam.lambda_L)
    random = rng.random
    # an L-vertex with an occupied neighbour is blocked and reads no uniform
    out = {u for u, nb in zip(l_names, g.adj_L) if not nb & occupied_R and random() < p_in}
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
    return _extend(g, lam, config, _BlockedUniforms(rng_seed), _vertex_names(g))


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
