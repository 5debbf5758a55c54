"""Joint cumulants of occupation indicators and correlation-decay bounds.

For A a set of R-vertices, the cumulant has the convergent expansion

    kappa(A) = sum over clusters Gamma of w(Gamma) * prod_{v in A} Y_v(Gamma)

with Y_v the number of polymer slots containing v.  Truncating at total size
m leaves a tail below ``KPCertificate.cumulant_tail`` (derived in
``conditions``).  The truncated sum comes from the expansion engine
(``clusters.SeriesEngine``) as a mixed derivative of log Xi, with no cluster
enumeration.  Cumulants decay like e^(-eta * MST(A) / 2) with an
explicit constant; through the partition-lattice identity

    mu_A = sum over set partitions pi of A of prod_{S in pi} kappa(S)

this yields decay of |mu_{A u B} - mu_A mu_B| in the distance between the
sets, including sets that touch L (via an inclusion-exclusion factor
2^(|N(A_L)| + |N(B_L)|)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Mapping, Sequence

from .clusters import SeriesEngine, _depth
from .conditions import KPCertificate, certify_kp
from .graph import BipartiteGraph, Vertex, _global_mask, _union, graph_distance, steiner_tree_size
from .polymers import Fugacities
from . import oracle
from .oracle import SET_PARTITION_CAP, set_partitions  # the cap is re-exported


# ---------------------------------------------------------------------------
# moment/cumulant conversions on the partition lattice

def _block_value(table: Mapping, block: tuple) -> float:
    key = frozenset(block)
    if key not in table:
        raise ValueError(f"missing value for subset {sorted(block)!r}")
    return table[key]


def moments_from_cumulants(kappa: Mapping, A: Sequence) -> float:
    """mu_A = sum over set partitions pi of A of prod_{S in pi} kappa(S).
    ``kappa`` maps frozensets (all nonempty subsets of A) to values."""
    return oracle._lattice_sum(set_partitions(A), lambda S: _block_value(kappa, S))


def cumulants_from_moments(mu: Mapping, A: Sequence) -> float:
    """kappa(A) = sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! prod mu_S;
    the inverse of moments_from_cumulants on the partition lattice."""
    return oracle._lattice_sum(
        set_partitions(A), lambda S: _block_value(mu, S), moebius=True
    )


def straddling_partition_sum(kappa: Mapping, A: Sequence, B: Sequence) -> float:
    """Sum of prod kappa(S) over partitions of A+B having at least one block
    that meets both A and B; equals mu_{A u B} - mu_A mu_B when kappa holds
    the true cumulants (the within-side partitions cancel the product)."""
    a_set = frozenset(A)
    b_set = frozenset(B)
    if a_set & b_set:
        raise ValueError("the two sets must be disjoint")
    straddling = (
        part
        for part in set_partitions(tuple(A) + tuple(B))
        if any(set(block) & a_set and set(block) & b_set for block in part)
    )
    return oracle._lattice_sum(straddling, lambda S: _block_value(kappa, S))


# ---------------------------------------------------------------------------
# combinatorial constants

@lru_cache(maxsize=64)
def _stirling2_row(k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)
    prev = _stirling2_row(k - 1)
    row = [0] * (k + 1)
    for j in range(1, k + 1):
        upper = prev[j] if j < len(prev) else 0
        row[j] = j * upper + prev[j - 1]
    return tuple(row)


def bell_number(k: int) -> int:
    return sum(_stirling2_row(k))


def indicator_cumulant_bound(k: int) -> float:
    """Bound on |kappa| of k indicator variables: each moment has magnitude
    at most 1, so the partition-lattice sum is at most
    sum over partitions of (|pi|-1)! = sum_j S(k,j) (j-1)!."""
    if k < 1:
        raise ValueError("need at least one variable")
    row = _stirling2_row(k)
    return float(sum(row[j] * math.factorial(j - 1) for j in range(1, k + 1)))


def _inf_past_float_range(bound: Callable[..., float]) -> Callable[..., float]:
    """A decay bound that reads +inf (sound, and never NaN) where its
    arithmetic passes the float range."""

    @wraps(bound)
    def guarded(*args, **kwargs) -> float:
        try:
            b = bound(*args, **kwargs)
        except OverflowError:
            return math.inf
        return math.inf if math.isnan(b) else b

    return guarded


@_inf_past_float_range
def cumulant_decay_constant(a: int, eta: float) -> float:
    """The explicit constant in the cumulant decay bound

        sum over clusters of |w| prod Y_v <= C e^(-eta MST(A)/2),

    C = (sum_{y>=1} y e^(-eta (y-1)))^a = (1 - e^(-eta))^(-2a), +inf past
    the float range."""
    if a < 1:
        raise ValueError("need at least one vertex")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    return (-math.expm1(-eta)) ** (-2 * a)


def straddling_constant(n: int) -> float:
    """Partition-count constant in the set-pair bound: the number of set
    partitions of the union, times the largest joint cumulant of at most n
    indicator variables, to the n-th power."""
    return float(bell_number(n)) * indicator_cumulant_bound(n) ** n


# ---------------------------------------------------------------------------
# truncated cumulants

@dataclass(frozen=True)
class CumulantQuery:
    """Truncated-cumulant result for a set of R-vertices."""

    vertices: tuple[int, ...]
    m: int
    value: float
    tail_bound: float
    eta: float
    cluster_count: int  # the 2-linked sets summed


def _normalize_R_set(g: BipartiteGraph, A) -> tuple[int, ...]:
    out = []
    for v in A:
        if isinstance(v, tuple):
            side, i = v
            if side != "R":
                raise ValueError(f"cluster-formula cumulants take R-vertices, got {v!r}")
            v = i
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"R-vertex index {v!r} is not an integer") from None
        if not 0 <= v < g.n_R:
            raise ValueError(f"no R-vertex {v}")
        out.append(v)
    if not out:
        raise ValueError("the vertex set must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError("the vertex set must not repeat vertices")
    return tuple(sorted(out))


# One expansion engine per (graph, activities, int m), shared by the queries:
# its restricted-Xi memo serves every vertex set, and a query's outcome does
# not depend on the queries before it.
_cluster_table = lru_cache(maxsize=4)(SeriesEngine)


@lru_cache(maxsize=16)
def _shared_certificate(g: BipartiteGraph, lam: Fugacities, eta: float) -> KPCertificate:
    return certify_kp(g, lam, eta=eta)


def truncated_cumulant(
    g: BipartiteGraph,
    lam: Fugacities,
    A,
    m: int,
    eta: float = 0.1,
) -> CumulantQuery:
    """Partial sum of the cluster formula for kappa(A) over clusters of total
    size < m.  The tail bound is the certificate's ``cumulant_tail`` at rate
    eta, infinity unless it is valid (the value is still exact as a partial
    sum either way)."""
    if not lam.is_real:
        raise ValueError("cumulants take real activities")
    m = _depth(m)
    verts = _normalize_R_set(g, A)
    cert = _shared_certificate(g, lam, eta)
    value, count = _cluster_table(g, lam, m).cumulant(sum(1 << v for v in verts))
    return CumulantQuery(
        vertices=verts,
        m=m,
        value=value,
        tail_bound=cert.cumulant_tail(len(verts), m),
        eta=cert.eta,
        cluster_count=count,
    )


# ---------------------------------------------------------------------------
# decay experiments

@dataclass(frozen=True)
class DecayRow:
    query_id: int
    kind: str  # pair | cumulant | set_pair
    distance_or_mst: float
    value: float
    bound: float
    satisfied: bool


def _as_vertex(g: BipartiteGraph, v) -> Vertex:
    side, i = v
    g.global_id(v)  # raises GraphFormatError for a missing or non-integer index
    return (side, operator.index(i))


@_inf_past_float_range
def _cumulant_bound(a: int, eta: float, mst: float) -> float:
    """Bound on an a-vertex truncated cumulant: C(a) e^(-eta MST/2)."""
    return cumulant_decay_constant(a, eta) * math.exp(-eta * mst / 2.0)


@_inf_past_float_range
def _set_pair_bound(
    g: BipartiteGraph, A: Sequence[Vertex], B: Sequence[Vertex], dist: float, eta: float
) -> float:
    """Bound on |mu_{A u B} - mu_A mu_B|.

    Two R-singletons {u}, {v}: the one straddling partition is the block
    {u, v}, so the bound is that cumulant's, C(2) e^(-eta D/2).  Both sets
    inside R: straddling blocks all have Steiner size >= D(A,B),
    so every straddling cumulant is at most C(n) e^(-eta D/2) and the
    partition identity gives straddling_constant(n) times that.  Sets
    touching L reduce to the R-side case by inclusion-exclusion over
    neighborhoods, costing a 2^(|N(A_L)|+|N(B_L)|) factor, a distance loss
    of 2 (a factor e^eta, since e^(-eta (D-2)/2) = e^eta e^(-eta D/2)), and
    enlarged set sizes.
    """
    a_L = [v for v in A if v[0] == "L"]
    b_L = [v for v in B if v[0] == "L"]
    n_plain = len(A) + len(B)
    if not a_L and not b_L:
        if n_plain == 2:
            return _cumulant_bound(2, eta, dist)
        return (
            straddling_constant(n_plain)
            * cumulant_decay_constant(n_plain, eta)
            * math.exp(-eta * dist / 2.0)
        )
    # |N(A_L)| + |N(B_L)|; an L-vertex's global id is its index
    n_nb = sum(_union(g.adj_L, _global_mask(g, X)).bit_count() for X in (a_L, b_L))
    n_hat = max(n_nb + (len(A) - len(a_L)) + (len(B) - len(b_L)), 1)
    return (
        2.0 ** n_nb
        * straddling_constant(n_hat)
        * cumulant_decay_constant(n_hat, eta)
        * math.exp(-eta * (dist - 2.0) / 2.0)
    )


def decay_experiment(
    g: BipartiteGraph,
    lam: Fugacities,
    queries: Sequence[tuple],
    m: int = 8,
    eta: float = 0.1,
) -> list[DecayRow]:
    """Measured correlations/cumulants against their proved decay bounds.

    Query forms:
      ("pair", u, v)        u, v vertices; |mu_uv - mu_u mu_v| vs distance.
      ("cumulant", A)       A a set of R-vertices; |truncated kappa| vs MST.
      ("set_pair", A, B)    disjoint vertex sets; |mu_{AuB} - mu_A mu_B|.

    A pair is the set pair ({u}, {v}), same value and bound; pairs with
    u = v are skipped (zero-distance degenerate).  Requires a
    valid convergence certificate: the bounds are only proved at rate eta.
    The mu side is exact (oracle), with the oracle's size caps; sets in different
    components are independent, so their rows read 0 with no oracle call.
    """
    m = _depth(m)  # pair queries alone build no engine to check it
    cert = _shared_certificate(g, lam, eta).require(
        "decay bounds need a certificate at the requested rate"
    )
    rows: list[DecayRow] = []
    for qid, query in enumerate(queries):
        kind = query[0] if len(query) else None
        if (kind, len(query)) not in (("pair", 3), ("cumulant", 2), ("set_pair", 3)):
            raise ValueError(
                "a decay query is ('pair', u, v), ('cumulant', A) or ('set_pair', A, B), "
                f"not {query!r}"
            )
        if kind == "cumulant":
            verts = _normalize_R_set(g, query[1])
            mst = steiner_tree_size(g, [("R", i) for i in verts])
            q = truncated_cumulant(g, lam, verts, m, eta)
            value = abs(q.value)
            dist = mst
            bound = _cumulant_bound(len(verts), cert.eta, mst)
        else:
            A, B = query[1:]
            if kind == "pair":
                A, B = [A], [B]
            A = [_as_vertex(g, x) for x in A]
            B = [_as_vertex(g, x) for x in B]
            if set(A) & set(B):
                if kind == "pair":
                    continue  # u = v
                raise ValueError("set_pair queries need disjoint sets")
            dist = graph_distance(g, A, B)
            value = 0.0  # no path joins A and B: the events are independent
            if dist < math.inf or not lam.is_real:  # the oracle refuses complex activities
                mu_ab, mu_a, mu_b = (oracle.exact_marginal(g, lam, X) for X in (set(A) | set(B), A, B))
                value = abs(mu_ab - mu_a * mu_b)
            bound = _set_pair_bound(g, A, B, dist, cert.eta)
        rows.append(
            DecayRow(
                query_id=qid,
                kind=kind,
                distance_or_mst=dist,
                value=value,
                bound=bound,
                satisfied=value <= bound,
            )
        )
    return rows


def decay_rows_to_csv(rows: Sequence[DecayRow]) -> str:
    lines = ["query_id,kind,distance_or_mst,value,bound,satisfied"]
    for r in rows:
        d = "inf" if math.isinf(r.distance_or_mst) else f"{r.distance_or_mst:g}"
        lines.append(
            f"{r.query_id},{r.kind},{d},{r.value!r},{r.bound!r},"
            f"{'true' if r.satisfied else 'false'}"
        )
    return "\n".join(lines) + "\n"
