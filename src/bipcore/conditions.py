"""Sufficient conditions for convergence of the polymer expansion.

The main imbalance condition for the graph class with L-degrees at most
``max_deg_L`` and R-degrees in ``[min_deg_R, max_deg_R]`` reads

    6 * max_deg_L * max_deg_R * lambda_R
        <= (1 + lambda_L) ** (min_deg_R / max_deg_L).

A certificate at rate eta > 0 asserts, with d = max_deg_R (max_deg_L - 1),
that for every R-vertex v

    (KP_v)  sum over polymers gamma containing v of
                |w(gamma)| * e**((1/2 + eta) |gamma|)  <=  1 / (2 (d + 1)).

The per-vertex route proves (KP_v) at any eta > 0 as

    P_v(eta) + tail(eta) <= 1 / (2 (d + 1)),

with P_v the exact sum over the 2-linked sets of at most K = KP_DEPTH = 6
R-vertices containing v, and tail(eta) a bound on the larger ones.  The
2-linked relation has maximum degree d, so at most as many polymers of size
k contain v as the infinite d-regular tree has k-vertex subtrees through its
root, and for k > K

    t_k(d) = d C((d-1) k, k-1) / ((d-2) k + 2)  <=  c (e d)**(k-1) / k**1.5,
    c = e sqrt((K+1)/K) / sqrt(2 pi)  (1.171 at K = 6):

C(n, j) <= n**j / j!, j! >= sqrt(2 pi j) (j/e)**j and (k/(k-1))**(k-1) <= e
give C((d-1) k, k-1) <= e (e (d-1))**(k-1) / sqrt(2 pi (k-1)); then
1/(k-1) <= ((K+1)/K) / k, and d k (1 - 1/d)**(k-1) <= (d-2) k + 2 for d >= 3
and k >= 4, by (1 - x)**n <= 1/(1 + n x).  (For d <= 2 at most k polymers of
size k contain v.)  Each has |w| <= wb**k with
wb = |lambda_R| / |1 + lambda_L|**(min_deg_R / max_deg_L), so with
q = d * wb * e**(3/2 + eta) < 1

    tail(eta) = c q**(K+1) / (e d (K+1)**1.5 (1 - q))

(and 0 when d = 0, since then every polymer is a singleton).

From (KP_v) to the truncation bound: a polymer is incompatible with gamma
exactly when it contains a vertex of gamma or one 2-linked to it, at most
|gamma| (d + 1) vertices.  Summing (KP_v) over them gives the Kotecky-Preiss
condition with a(gamma) = |gamma| / 2 and decay e**(eta |gamma|):

    sum over gamma' incompatible with gamma of
        |w(gamma')| e**(a(gamma') + eta |gamma'|)  <=  a(gamma).

Kotecky-Preiss then bounds the clusters Gamma incompatible with gamma by
sum |phi(Gamma) w(Gamma)| e**(eta ||Gamma||) <= a(gamma).  A cluster is
incompatible with {v} for every vertex v of its polymers, so the clusters of
total size ||Gamma|| >= m sum to at most n_R * a({v}) * e**(-m eta), and the
truncation error at depth m is below n_R * e**(-m * eta) (``KPCertificate.
error_bound``; ``choose_m`` inverts it).  The joint cumulant of a set A of
R-vertices weighs each cluster by prod_{v in A} Y_v(Gamma), Y_v the number
of its polymer slots containing v.  A cluster of nonzero weight is
incompatible with {v} for v in A, and Y_v(Gamma) <= ||Gamma||, so the
clusters of total size >= m add at most a({v}) = 1/2 times
sup_{t >= m} t**|A| e**(-eta t) (``KPCertificate.cumulant_tail``).

The analytic route covers only eta <= 0.1: the main condition bounds every
(KP_v) at eta = 0.1 with no enumeration, and the sums increase with eta, so
smaller rates inherit the certificate; above 0.1 only the per-vertex route
certifies.  The same arithmetic with moduli gives a zero-free region for
complex activities.  In both checks a right side past the float range is
reported as the largest float, satisfied and not at the boundary; a left
side past it is infinite, violated and not at the boundary.  A vertex's
partial sum is read from its count of sets per class (|gamma|, |N(gamma)|),
which fixes |w(gamma)|: correctly rounded, and +inf past the float range
(a weight past it, or a term at a large rate eta, about 700 and up), which
fails the certificate.  A zero weight stays 0 at any eta.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Mapping

from .errors import CertificationError, SizeCapError, StructuralMismatchError
from .graph import BipartiteGraph, DegreeProfile, degree_profile
from .polymers import (
    ComplexRegion, Fugacities, _grown_sets, _grown_two_linked, _link_masks, _weight
)

BOUNDARY_REL_TOL = 1e-12
ANALYTIC_ETA = 0.1
KP_DEPTH = 6  # the per-vertex route sums 2-linked sets up to this size exactly
SERIES_RATIO_LIMIT = 0.832  # sum_{k>=1} s^k / k^(3/2) < e/2 for s up to here


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool
    lhs: float
    rhs: float
    ratio: float
    boundary: bool


def _profile_tuple(profile) -> tuple[int, int, int]:
    if isinstance(profile, DegreeProfile):
        return profile.delta_L_max, profile.delta_R_min, profile.delta_R_max
    if isinstance(profile, BipartiteGraph):
        return _profile_tuple(degree_profile(profile))
    d_L, d_R_min, d_R_max = profile
    return int(d_L), int(d_R_min), int(d_R_max)


def _imbalance(profile, act_L: float, act_R: float) -> ConditionCheck:
    """6 d_L d_R_max act_R against (1 + act_L)**(d_R_min / d_L)."""
    d_L, d_R_min, d_R_max = _profile_tuple(profile)
    if d_L < 1 or d_R_max < 1:
        raise StructuralMismatchError("condition needs positive maximum degrees")
    lhs = 6.0 * d_L * d_R_max * act_R
    try:
        rhs = math.exp((d_R_min / d_L) * math.log1p(act_L))
    except OverflowError:
        rhs = sys.float_info.max  # lhs is finite: far from the boundary
    # an infinite lhs is past the float range, not at the boundary
    boundary = math.isfinite(lhs) and abs(lhs - rhs) <= BOUNDARY_REL_TOL * max(abs(lhs), abs(rhs), 1.0)
    ratio = lhs / rhs if rhs != 0 else math.inf
    return ConditionCheck(lhs <= rhs or boundary, lhs, rhs, ratio, boundary)


def check_main_condition(profile, lam: Fugacities) -> ConditionCheck:
    """The imbalance condition above for real activities.

    ``profile`` may be a graph, a DegreeProfile, or a (max_deg_L, min_deg_R,
    max_deg_R) tuple.  Near-boundary comparisons (relative gap below 1e-12)
    are flagged as boundary and counted as satisfied.
    """
    if not lam.is_real:
        raise ValueError("main condition takes real activities; see check_complex_region")
    return _imbalance(profile, lam.lambda_L, lam.lambda_R)


def check_corollary(profile, lam: Fugacities, part: Literal[1, 2, 3]) -> bool:
    """Special-case sufficient hypotheses implying the main condition.

    part 1: regular graphs (all degrees equal d); lambda_L >= 6 d^2 lambda_R.
    part 2: biregular with d_R > d_L, equal activities;
            lambda > (6 d_L d_R) ** (d_L / (d_R - d_L)).
    part 3: biregular, both activities 1, d_L >= 6; d_R >= 7 d_L ln(d_L).

    Raises StructuralMismatchError when the graph or activities do not match
    the part's shape.  For part 3 the d_L >= 6 floor is structural: below
    it this criterion does not imply the main condition.
    """
    if not lam.is_real:
        raise ValueError("corollary checks take real activities")
    if isinstance(profile, BipartiteGraph):
        profile = degree_profile(profile)
    if isinstance(profile, DegreeProfile):
        if not profile.is_biregular:
            raise StructuralMismatchError("corollary parts need biregular degrees")
        d_L, d_R = profile.delta_L_max, profile.delta_R_max
    else:
        d_L, d_R = (int(x) for x in profile)
    if d_L < 1 or d_R < 1:
        raise StructuralMismatchError("degrees must be positive")
    if part == 1:
        if d_L != d_R:
            raise StructuralMismatchError("part 1 needs a regular graph")
        return lam.lambda_L >= 6.0 * d_L * d_L * lam.lambda_R
    if part == 2:
        if d_R <= d_L:
            raise StructuralMismatchError("part 2 needs d_R > d_L")
        if lam.lambda_L != lam.lambda_R:
            raise StructuralMismatchError("part 2 needs equal activities")
        threshold = (6.0 * d_L * d_R) ** (d_L / (d_R - d_L))
        return lam.lambda_L > threshold
    if part == 3:
        if lam.lambda_L != 1.0 or lam.lambda_R != 1.0:
            raise StructuralMismatchError("part 3 needs both activities equal to 1")
        if d_L < 6:
            raise StructuralMismatchError("part 3 applies for d_L >= 6")
        return d_R >= 7.0 * d_L * math.log(d_L)
    raise ValueError("part must be 1, 2, or 3")


# ---------------------------------------------------------------------------
# per-vertex sums

@dataclass(frozen=True)
class KPVertexSum:
    """One vertex's share of the convergence condition

        sum over polymers containing v of |w| * e**((1/2 + eta)|gamma|)
            <= 1 / (2 (max_deg_R (max_deg_L - 1) + 1)).

    ``partial`` is the exact sum over polymers of size <= k_max; ``tail`` is
    a geometric bound on the rest from the analytic weight and count bounds
    (infinite when the geometric ratio reaches 1).  ``satisfied`` is None
    when the tail cannot be bounded.
    """

    vertex: int
    partial: float
    tail: float
    bound: float
    k_max: int
    eta: float

    @property
    def total(self) -> float:
        return self.partial + self.tail

    @property
    def satisfied(self) -> bool | None:
        return None if math.isinf(self.tail) else self.total <= self.bound

    @property
    def ratio(self) -> float:
        return self.total / self.bound


def _times_exp(w: float, x: float) -> float:
    """w * e**x for w >= 0: 0 when w is, through logs when e**x alone
    overflows, and inf past the float range (past every bound)."""
    try:
        return w * math.exp(x) if w else 0.0
    except OverflowError:
        try:
            return math.exp(math.log(w) + x)
        except OverflowError:
            return math.inf


def _kp_classes(n_R: int, grown: Iterable[tuple[int, int]]) -> list[dict[tuple[int, int], int]]:
    """For each R-vertex v, how many of the 2-linked sets containing v have
    each class (|gamma|, |N(gamma)|), which fixes |w(gamma)|.  ``grown``
    holds the pairs (gamma, N(gamma)).  Each class keeps its per-vertex
    counts in binary, one mask per bit ("planes"), so adding a set is a
    carry through the planes and never visits gamma's vertices."""
    planes_of: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for gamma, nbhd in grown:
        planes = planes_of[gamma.bit_count(), nbhd.bit_count()]
        for i, plane in enumerate(planes):
            planes[i] = plane ^ gamma
            gamma &= plane
            if not gamma:
                break
        else:
            planes.append(gamma)
    out: list[dict[tuple[int, int], int]] = [{} for _ in range(n_R)]
    for cls, planes in planes_of.items():
        for v in range(n_R):
            count = sum(((plane >> v) & 1) << i for i, plane in enumerate(planes))
            if count:
                out[v][cls] = count
    return out


def _kp_partial(counts: Mapping[tuple[int, int], int], lam: Fugacities, eta: float) -> float:
    """A vertex's partial sum from its class counts, count times |w(gamma)|
    e**((1/2 + eta) k) over the classes (k, nb): the exact sum rounded once,
    as the fsum of one term per set, and +inf past the float range."""
    total = Fraction(0)
    for (k, nb), n in counts.items():
        try:
            t = _times_exp(abs(_weight(lam, k, nb)), (0.5 + eta) * k)
        except SizeCapError:  # the weight overflows
            t = math.inf
        if not t < math.inf:  # past every bound
            return math.inf
        total += n * Fraction(t)
    try:
        return float(total)  # numerator / denominator, one correct rounding
    except OverflowError:
        return math.inf


def _kp_tail_bound(prof: DegreeProfile, lam: Fugacities, eta: float, k_max: int) -> tuple[float, float]:
    """The vertex-independent parts of a vertex sum: the tail bound beyond
    size k_max and the right-hand side 1 / (2 (d + 1))."""
    d = max(prof.delta_R_max * (prof.delta_L_max - 1), 0)
    bound = 1.0 / (2.0 * (d + 1))
    if d == 0:
        return 0.0, bound  # all polymers are singletons, already in the partial sum
    # per-size envelope: count <= c (e d)**(k-1) / k**1.5, |w| <= wb**k
    wb = abs(_weight(lam, 1, prof.delta_R_min / prof.delta_L_max))
    q = _times_exp(d * wb, 1.5 + eta)
    if q >= 1.0:
        return math.inf, bound
    c = math.e * math.sqrt((k_max + 1) / k_max / (2.0 * math.pi))
    tail = c * q ** (k_max + 1) / (math.e * d * (k_max + 1) ** 1.5 * (1.0 - q))
    return tail, bound


def kp_vertex_sum(g: BipartiteGraph, v: int, lam: Fugacities, eta: float, k_max: int) -> KPVertexSum:
    """One vertex's sum, enumerating only the polymers that contain v."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not 0 <= v < g.n_R:
        raise ValueError(f"no R-vertex {v}")
    grown = _grown_sets(_link_masks(g), v, k_max, (1 << g.n_R) - 1, g.adj_R)
    partial = _kp_partial(_kp_classes(g.n_R, grown)[v], lam, eta)
    tail, bound = _kp_tail_bound(degree_profile(g), lam, eta, k_max)
    return KPVertexSum(v, partial, tail, bound, k_max, eta)


CertificateMode = Literal["analytic", "empirical", "failed", "inconclusive"]


@dataclass(frozen=True)
class KPCertificate:
    """Result of a convergence certification attempt.

    mode:
      analytic     - the main condition holds, certifying eta (at most 0.1).
      empirical    - every per-vertex sum plus its tail bound fits.
      failed       - some partial sum alone already exceeds its bound.
      inconclusive - partial sums fit, but some sum plus its tail bound
                     (infinite when unbounded) does not.

    margin is the worst-case ratio of a certified quantity to its bound
    (condition lhs/rhs for analytic mode, vertex-sum ratio otherwise).
    """

    eta: float
    mode: CertificateMode
    margin: float
    per_vertex: tuple[KPVertexSum, ...] | None
    provenance: str

    @property
    def valid(self) -> bool:
        return self.mode in ("analytic", "empirical")

    def require(self, reason: str) -> KPCertificate:
        """This certificate if valid; else CertificationError with the mode and reason."""
        if not self.valid:
            raise CertificationError(f"convergence certification {self.mode}; {reason}")
        return self

    def error_bound(self, n_R: int, m: int) -> float | None:
        """Bound on the truncation error at depth m, n_R * e**(-m * eta); None unless valid."""
        return n_R * math.exp(-m * self.eta) if self.valid else None

    def cumulant_tail(self, a: int, m: int) -> float:
        """An a-vertex cumulant's tail bound at depth m, sup_{t>=m} t**a e**(-eta t);
        inf if invalid or past the float range."""
        if not self.valid:
            return math.inf
        t = max(float(m), a / self.eta)
        try:
            return t**a * math.exp(-self.eta * t)
        except OverflowError:  # t**a alone passes the float range; the product may not
            return _times_exp(1.0, a * math.log(t) - self.eta * t)


def _check_epsilon(epsilon: float) -> None:
    """A target error must be positive and finite; ValueError otherwise."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")


def choose_m(n_R: int, epsilon: float, eta: float) -> int:
    """The least depth m >= 1 whose ``KPCertificate.error_bound`` is <= epsilon at rate eta."""
    if n_R < 1:
        raise ValueError("n_R must be at least 1")
    _check_epsilon(epsilon)
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    return max(math.ceil(math.log(n_R / epsilon) / eta), 1)


def certify_kp(g: BipartiteGraph, lam: Fugacities, eta: float = ANALYTIC_ETA) -> KPCertificate:
    """Try to certify expansion convergence at rate eta.

    The analytic route applies for real activities and eta <= 0.1: if the
    main condition holds, the certificate follows with no enumeration (the
    vertex sums are monotone in eta, so any smaller eta inherits it).
    Otherwise the per-vertex sums up to size KP_DEPTH plus geometric tails
    are checked.  Each 2-linked set is enumerated once, from its minimum
    vertex, and its class is counted at every vertex it contains; ``per_vertex``
    equals ``kp_vertex_sum(g, v, lam, eta, KP_DEPTH)`` for each v.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    prof = degree_profile(g)
    if (
        lam.is_real
        and eta <= ANALYTIC_ETA + BOUNDARY_REL_TOL
        and prof.delta_L_max >= 1
        and prof.delta_R_max >= 1
    ):
        # graphs with an edgeless side fall through to the per-vertex route,
        # whose sums are still well defined
        cond = check_main_condition(prof, lam)
        if cond.satisfied:
            provenance = (
                f"main imbalance condition holds (lhs={cond.lhs:.6g} <= rhs={cond.rhs:.6g}); "
                "vertex sums bounded at eta <= 0.1"
            )
            return KPCertificate(
                eta=eta, mode="analytic", margin=cond.ratio, per_vertex=None, provenance=provenance
            )
    grown = _grown_two_linked(_link_masks(g), (1 << g.n_R) - 1, KP_DEPTH, g.adj_R)
    tail, bound = _kp_tail_bound(prof, lam, eta, KP_DEPTH)
    sums = tuple(
        KPVertexSum(v, _kp_partial(c, lam, eta), tail, bound, KP_DEPTH, eta)
        for v, c in enumerate(_kp_classes(g.n_R, grown))
    )
    if any(s.partial > s.bound for s in sums):
        mode: CertificateMode = "failed"
        margin = max(s.partial / s.bound for s in sums)
    else:
        # an unbounded tail gives satisfied None and ratio inf
        mode = "empirical" if all(s.satisfied for s in sums) else "inconclusive"
        margin = max(s.ratio for s in sums)
    provenance = f"per-vertex sums up to size {KP_DEPTH} plus geometric tails"
    return KPCertificate(eta=eta, mode=mode, margin=margin, per_vertex=sums, provenance=provenance)


def check_complex_region(profile, region: ComplexRegion) -> ConditionCheck:
    """Zero-freeness condition for a complex region: the main condition
    arithmetic applied to the region bounds."""
    return _imbalance(profile, region.bound_L, region.bound_R)
