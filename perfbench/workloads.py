"""The four workloads: inputs made from the seed, op lists, and the
correctness check of every op.

Every library call goes through the bipcore module that owns the name at
call time (``counting.approx_log_Z``, ``graph.even_cycle``), so the span
recorder's wrappers see it.  Checks run after the op's timed interval, with
recording off.

Why these workloads:

- ``count`` runs ``approx_log_Z`` at default eta and m on a fixed ladder of
  structures whose cost the seed cannot change; nearly all time is cluster
  enumeration.  ``even_cycle(10)`` exhausts the address-space cap today.
- ``decay`` builds one cluster table per graph at an explicit m and reads it
  with many cumulant queries, next to exact-oracle pair queries; explicit m
  bypasses depth choice.
- ``sample`` draws tens of thousands of sets through the exact backend,
  where restricted polymer partition functions do the work and clusters stay
  idle; it also holds the two sampler ops that fail today.
- ``zeros`` evaluates exact complex Z at seeded points, half with one thread
  and half with two; oracle and kernels do all the work.

Random graph sizes and explicit depths are chosen so that the seed moves the
cost of a workload by a few percent at most.

``count`` and ``decay`` run at activities just inside the main condition
(``near_boundary``), where the polymer terms carry enough of log Z that the
checks below see a wrong series; the cluster counts, and so the cost, do not
depend on the activities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bipcore import counting, cumulants, graph, oracle, sampler
from bipcore.graph import degree_profile
from bipcore.polymers import ComplexRegion, Fugacities

from isolate import CheckFailed

# |estimate - exact| may exceed the certified bound by floating-point
# rounding, which grows with |log Z|.
ROUNDING_ALLOWANCE = 1e-12

# The certified bounds are far looser than the truncation error on these
# small graphs (on the cycle and path: a count bound of 0.27-0.67 against
# log Xi of about 0.06; a cumulant tail bound of at least 3.68 against
# cumulants below 0.02), so answers must also land within these tolerances
# of the exact value.
# count: truncating at depth 3 already misses log Xi by at most 5e-4 of it,
# while a series of single-polymer clusters alone misses by 0.9-2.9%.
SERIES_REL_TOL = 1e-3
# decay: the partial sums at m=8 (cycles) and m=5 (random graphs) miss the
# exact cumulant by at most 3.3e-10, while every single-vertex cumulant is
# above 4e-3, so a zeroed or wrong cluster table fails.
CUMULANT_REL_TOL = 1e-3
CUMULANT_ABS_TOL = 1e-8

# Allowed chance that the TV check fails an exact sampler.  McDiarmid: one
# draw moves the empirical TV by at most 1/N, so TV exceeds its expectation
# by more than sqrt(log(1/p) / 2N) with probability below p.
TV_FALSE_ALARM = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=stream))


def _allowance(log_z: float) -> float:
    return ROUNDING_ALLOWANCE * max(1.0, abs(log_z))


def near_boundary(g, share: float = 0.9, lambda_L: float = 1.0) -> Fugacities:
    """Activities with lambda_R at ``share`` of the largest value the main
    condition allows for g's degrees, so the analytic certificate holds."""
    p = degree_profile(g)
    d_L, d_R_min, d_R_max = p.delta_L_max, p.delta_R_min, p.delta_R_max
    lambda_R = share * (1.0 + lambda_L) ** (d_R_min / d_L) / (6.0 * d_L * d_R_max)
    return Fugacities(lambda_L, lambda_R)


# ---------------------------------------------------------------------------
# count


def _count_op(name: str, g, eps: float) -> Op:
    lam = near_boundary(g)

    def run():
        return counting.approx_log_Z(g, lam, eps)

    def check(res) -> dict:
        exact = oracle.exact_log_Z(g, lam)
        log_xi = exact - g.n_L * math.log1p(lam.lambda_L)
        bound = res.error_bound
        if bound is None:
            raise CheckFailed(f"{name}: no certified bound")
        limit = min(bound, SERIES_REL_TOL * abs(log_xi)) + _allowance(exact)
        if abs(res.log_Z_estimate - exact) > limit:
            raise CheckFailed(
                f"{name}: estimate {res.log_Z_estimate!r} vs exact {exact!r}, "
                f"certified bound {bound!r}, log Xi {log_xi!r}"
            )
        return {"eps_miss": bound > eps}

    return Op(name, run, check)


def count_ops(seed: int) -> list[Op]:
    k32 = graph.complete_bipartite(3, 2)
    return [
        _count_op("count K_3,2 eps=0.01", k32, 0.01),
        _count_op("count K_3,2 eps=0.001", k32, 0.001),
        _count_op("count even_cycle(6) eps=0.3", graph.even_cycle(6), 0.3),
        # the cluster budget degrades m from 24 to 15: bound 0.67 > eps
        _count_op("count path(7) eps=0.3", graph.path(7), 0.3),
        _count_op("count star_center_R(5) eps=0.01", graph.star_center_R(5), 0.01),
        # asks for m=29; MemoryError under the cap today
        _count_op("count even_cycle(10) eps=0.3", graph.even_cycle(10), 0.3),
    ]


# ---------------------------------------------------------------------------
# decay


def _decay_queries(g, rng: np.random.Generator) -> list[tuple]:
    def r_vertices(k: int) -> list[int]:
        return sorted(int(v) for v in rng.choice(g.n_R, k, replace=False))

    queries: list[tuple] = []
    for _ in range(4):
        a, b = r_vertices(2)
        queries.append(("pair", ("R", a), ("R", b)))
    queries.append(("pair", ("L", int(rng.integers(g.n_L))), ("R", r_vertices(1)[0])))
    for k in (1, 2, 3, 3):
        queries.append(("cumulant", r_vertices(k)))
    a, b, c = r_vertices(3)
    queries.append(("set_pair", [("R", a)], [("R", b), ("R", c)]))
    return queries


def _decay_op(name: str, g, m: int, rng: np.random.Generator) -> Op:
    lam = near_boundary(g)
    queries = _decay_queries(g, rng)
    direct = [[int(v) for v in rng.choice(g.n_R, k, replace=False)] for k in (1, 1, 2, 2)]

    def run():
        rows = cumulants.decay_experiment(g, lam, queries, m=m)
        qs = [cumulants.truncated_cumulant(g, lam, A, m) for A in direct]
        return rows, qs

    def exact_cumulant(A: list[int]) -> float:
        return oracle.exact_cumulant(g, lam, [("R", v) for v in A])

    def tolerance(exact: float) -> float:
        return CUMULANT_REL_TOL * abs(exact) + CUMULANT_ABS_TOL

    def check(out) -> dict:
        rows, qs = out
        bad = [r for r in rows if not r.satisfied]
        if bad or len(rows) != len(queries):
            raise CheckFailed(f"{name}: {len(bad)} of {len(rows)} decay rows unsatisfied")
        for query, row in zip(queries, rows):
            if query[0] == "cumulant":
                exact = exact_cumulant(query[1])
                # a row holds |kappa|
                if abs(row.value - abs(exact)) > tolerance(exact):
                    raise CheckFailed(
                        f"{name}: decay row of {query[1]} holds {row.value!r}, exact {exact!r}"
                    )
        for A, q in zip(direct, qs):
            exact = exact_cumulant(A)
            if abs(q.value - exact) > min(q.tail_bound, tolerance(exact)):
                raise CheckFailed(
                    f"{name}: truncated cumulant of {A} is {q.value!r}, exact {exact!r}, "
                    f"tail bound {q.tail_bound!r}"
                )
        return {}

    return Op(name, run, check)


def decay_ops(seed: int) -> list[Op]:
    return [
        _decay_op("decay even_cycle(16) m=8", graph.even_cycle(16), 8, _rng(seed, 1)),
        _decay_op("decay even_cycle(24) m=8", graph.even_cycle(24), 8, _rng(seed, 2)),
        _decay_op(
            "decay random_biregular(2,4,16) m=5",
            graph.random_biregular(2, 4, 16, seed=seed),
            5,
            _rng(seed, 3),
        ),
        _decay_op(
            "decay random_biregular(3,3,12) m=5",
            graph.random_biregular(3, 3, 12, seed=seed),
            5,
            _rng(seed, 4),
        ),
    ]


# ---------------------------------------------------------------------------
# sample


def _is_independent(g, s) -> bool:
    r_mask = 0
    for side, i in s:
        if side == "R":
            r_mask |= 1 << i
    return all(not g.adj_L[i] & r_mask for side, i in s if side == "L")


def _tv_tolerance(exact: dict, n: int) -> float:
    """E[TV] of n exact draws is at most sum_x sqrt(p_x / n) / 2; add the
    concentration margin."""
    expected = sum(math.sqrt(p / n) for p in exact.values()) / 2.0
    return expected + math.sqrt(math.log(1.0 / TV_FALSE_ALARM) / (2.0 * n))


def _r_part(s: frozenset) -> frozenset:
    return frozenset(v for v in s if v[0] == "R")


def _tv_check(name: str, law: dict, draws: list) -> None:
    """Raise CheckFailed when the draws' TV distance to law is too large."""
    n = len(draws)
    counts: dict = {}
    for s in draws:
        counts[s] = counts.get(s, 0) + 1
    keys = set(law) | set(counts)
    dist = sum(abs(counts.get(k, 0) / n - law.get(k, 0.0)) for k in keys) / 2.0
    tol = _tv_tolerance(law, n)
    if dist > tol:
        raise CheckFailed(f"{name}: TV {dist:.4f} to the exact law exceeds {tol:.4f}")


def _sample_op(
    name: str, g, lam: Fugacities, backend: str, n: int, stream: int, tv: bool = False
) -> Op:
    def run():
        s = sampler.IndependentSetSampler(g, lam, backend=backend)
        return list(s.draws(n, seed=stream))

    def check(draws) -> dict:
        if len(draws) != n:
            raise CheckFailed(f"{name}: {len(draws)} draws, asked for {n}")
        bad = sum(1 for s in set(draws) if not _is_independent(g, s))
        if bad:
            raise CheckFailed(f"{name}: {bad} distinct draws are not independent sets")
        if tv:
            exact = oracle.exact_distribution(g, lam)
            _tv_check(name, exact, draws)
            # the occupied R-set is the polymer configuration; its law has a
            # smaller support, hence a tighter tolerance
            r_law: dict = {}
            for s, p in exact.items():
                r_law[_r_part(s)] = r_law.get(_r_part(s), 0.0) + p
            _tv_check(name + " (R-sets)", r_law, [_r_part(s) for s in draws])
        return {"draws": n}

    return Op(name, run, check)


def sample_ops(seed: int) -> list[Op]:
    lam = Fugacities(20.0, 0.1)
    bireg = Fugacities(50.0, 0.1)
    stream = seed * 8
    return [
        # 12 vertices: the whole law fits exact_distribution.  At these
        # activities polymers carry real mass (no R-vertex is occupied with
        # probability 0.455), so the TV checks see the polymer layer.
        _sample_op("sample even_cycle(12) exact", graph.even_cycle(12), Fugacities(1.0, 0.5),
                   "exact", 20000, stream + 1, tv=True),
        _sample_op("sample even_cycle(24) exact", graph.even_cycle(24), lam, "exact",
                   10000, stream + 2),
        _sample_op(
            "sample random_biregular(2,4,16) exact",
            graph.random_biregular(2, 4, 16, seed=seed),
            bireg,
            "exact",
            10000,
            stream + 3,
        ),
        # n_R = 20, the largest graph "auto" still routes to the exact backend
        _sample_op("sample even_cycle(40) exact", graph.even_cycle(40), lam, "exact",
                   10000, stream + 6),
        # n_R = 22 routes to the truncated backend: MemoryError under the cap today
        _sample_op("sample even_cycle(44) auto", graph.even_cycle(44), lam, "auto",
                   1, stream + 4),
        # about 3,000 polymers: RecursionError in PolymerSystem._xi today
        _sample_op(
            "sample random_biregular(3,3,12) exact",
            graph.random_biregular(3, 3, 12, seed=seed),
            bireg,
            "exact",
            1,
            stream + 5,
        ),
    ]


# ---------------------------------------------------------------------------
# zeros


def _zeros_op(name: str, g, region: ComplexRegion, lam: Fugacities, samples: int, seed: int) -> Op:
    def run():
        one = counting.zero_probe(g, region, samples=samples, seed=seed, threads=1)
        two = counting.zero_probe(g, region, samples=samples, seed=seed, threads=2)
        return one, two, oracle.exact_log_Z(g, lam)

    def check(out) -> dict:
        one, two, log_z = out
        if one.zeros_found or two.zeros_found:
            raise CheckFailed(f"{name}: a zero inside the certified region")
        if one.to_json_dict() != two.to_json_dict():
            raise CheckFailed(f"{name}: threads=1 and threads=2 reports differ")
        via_xi = g.n_L * math.log1p(lam.lambda_L) + math.log(oracle.exact_Xi(g, lam))
        if abs(log_z - via_xi) > _allowance(log_z):
            raise CheckFailed(f"{name}: exact_log_Z {log_z!r} but exact_Xi gives {via_xi!r}")
        return {}

    return Op(name, run, check)


def zeros_ops(seed: int) -> list[Op]:
    region = ComplexRegion(10.0, 0.05)
    lam = Fugacities(10.0, 0.05)
    # exact cost per point varies 2.5x between random (2,4,16) graphs, so
    # four of them share a smaller slice of the points
    return [
        _zeros_op("zeros even_cycle(24)", graph.even_cycle(24), region, lam, 150, seed * 8),
        *(
            _zeros_op(
                f"zeros random_biregular(2,4,16) #{k}",
                graph.random_biregular(2, 4, 16, seed=seed * 4 + k),
                region,
                lam,
                20,
                seed * 8 + 1 + k,
            )
            for k in range(4)
        ),
    ]


OP_LISTS: dict[str, Callable[[int], list[Op]]] = {
    "count": count_ops,
    "decay": decay_ops,
    "sample": sample_ops,
    "zeros": zeros_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """Generate the workload's inputs from the seed and return its op list."""
    return OP_LISTS[workload](seed)
