"""Approximate counting driver and the complex zero-freeness probe.

The estimate is log Z = n_L * log(1 + lambda_L) + T_m with T_m the truncated
expansion of the polymer model; with a valid convergence certificate at rate
eta and m >= log(n_R / eps) / eta, the result is an eps-relative
approximation in the two-sided e**(+-eps) sense.  Everything stays in log
domain; raw magnitudes like (1 + lambda_L)**n_L are never formed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .clusters import ExpansionEstimate, truncated_expansion
from .conditions import KPCertificate, certify_kp, check_complex_region
from .errors import CertificationError, ClusterBudgetError
from .graph import BipartiteGraph, degree_profile
from .polymers import ComplexRegion, Fugacities
from .oracle import exact_Z_complex

DEGRADE_FACTOR = 0.8


def choose_m(n_R: int, epsilon: float, eta: float) -> int:
    """Truncation depth giving tail n_R * e**(-m * eta) <= epsilon; at least 1."""
    if n_R < 1:
        raise ValueError("n_R must be at least 1")
    if epsilon <= 0 or eta <= 0:
        raise ValueError("epsilon and eta must be positive")
    return max(math.ceil(math.log(n_R / epsilon) / eta), 1)


def _fit_depth(build: Callable[[int], Any], m: int) -> Any:
    """build(m), retried at geometrically smaller depths while it raises
    ClusterBudgetError; the error propagates when even depth 1 does not
    fit.  The caller reads the depth that fit off the result."""
    while True:
        try:
            return build(m)
        except ClusterBudgetError:
            if m <= 1:
                raise
            m = max(1, int(m * DEGRADE_FACTOR))


@dataclass(frozen=True)
class CountResult:
    """Approximate-counting output.

    log_Z_estimate = n_L * log1p(lambda_L) + expansion.value, by
    construction; ``expansion`` keeps the raw truncated-series value so the
    identity can be checked bit-for-bit.  ``degraded`` flags a truncation
    depth below the requested one (resource cap), in which case error_bound
    reflects the weaker achieved guarantee.
    """

    log_Z_estimate: float
    epsilon: float
    m_used: int
    certificate: KPCertificate
    expansion: ExpansionEstimate
    n_L: int
    n_R: int
    wall_time_ms: float
    degraded: bool = False

    @property
    def error_bound(self) -> float | None:
        return self.expansion.error_bound

    def to_json_dict(self) -> dict:
        return {
            "log_Z_estimate": self.log_Z_estimate,
            "epsilon": self.epsilon,
            "m_used": self.m_used,
            "eta": self.certificate.eta,
            "certificate_mode": self.certificate.mode,
            "error_bound": self.error_bound,
            "n_L": self.n_L,
            "n_R": self.n_R,
            "wall_time_ms": self.wall_time_ms,
        }


def approx_log_Z(
    g: BipartiteGraph,
    lam: Fugacities,
    epsilon: float,
    eta: float = 0.1,
    m: int | None = None,
) -> CountResult:
    """Certified approximation of log Z.

    Refuses (CertificationError) when no convergence certificate can be
    obtained: an uncertified number would carry no guarantee.  When the
    expansion at the required depth needs more than
    ``clusters.MAX_COEFFICIENTS`` series coefficients, the driver retries at
    geometrically smaller depths and flags the result degraded, reporting
    the weaker bound actually achieved.
    """
    if not lam.is_real:
        raise ValueError("approx_log_Z takes real activities")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t0 = time.perf_counter()
    cert = certify_kp(g, lam, eta=eta)
    if not cert.valid:
        raise CertificationError(
            f"convergence certification {cert.mode}; refusing to emit an "
            "uncertified approximation (the exact oracle handles small graphs)"
        )
    m_requested = choose_m(g.n_R, epsilon, cert.eta) if m is None else m
    if m_requested < 1:
        raise ValueError("m must be at least 1")
    est = _fit_depth(
        lambda m_try: truncated_expansion(g, lam, m_try, certificate=cert), m_requested
    )
    wall = (time.perf_counter() - t0) * 1000.0
    log_Z = g.n_L * math.log1p(lam.lambda_L) + est.value
    return CountResult(
        log_Z_estimate=log_Z,
        epsilon=epsilon,
        m_used=est.m,
        certificate=cert,
        expansion=est,
        n_L=g.n_L,
        n_R=g.n_R,
        wall_time_ms=wall,
        degraded=est.m < m_requested,
    )


# ---------------------------------------------------------------------------
# zero-freeness probe

@dataclass(frozen=True)
class ZeroProbeReport:
    """Empirical scan of |Z| over a certified zero-free region."""

    samples: int
    min_abs_Z: float
    argmin: tuple[complex, complex]
    zeros_found: int
    bound_L: float
    bound_R: float

    def to_json_dict(self) -> dict:
        aL, aR = self.argmin
        return {
            "samples": self.samples,
            "min_abs_Z": self.min_abs_Z,
            "argmin_lambda_L_re": aL.real,
            "argmin_lambda_L_im": aL.imag,
            "argmin_lambda_R_re": aR.real,
            "argmin_lambda_R_im": aR.imag,
            "zeros_found": self.zeros_found,
            "bound_L": self.bound_L,
            "bound_R": self.bound_R,
        }


def region_points(
    region: ComplexRegion, samples: int, seed: int
) -> list[tuple[complex, complex]]:
    """Deterministic sample of activity pairs in the region: even indices on
    the boundary (|lambda_R| = bound_R, |1+lambda_L| = 1+bound_L), odd ones
    in the validity interior (smaller |lambda_R|, larger |1+lambda_L|)."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = []
    for i in range(samples):
        th_L, th_R = rng.uniform(0.0, 2.0 * math.pi, 2)
        if i % 2 == 0:
            rad_R = region.bound_R
            rad_L = 1.0 + region.bound_L
        else:
            rad_R = region.bound_R * rng.uniform(0.0, 1.0)
            rad_L = (1.0 + region.bound_L) * (1.0 + 2.0 * rng.uniform(0.0, 1.0))
        dir_L = complex(math.cos(th_L), math.sin(th_L))
        lam_R = rad_R * complex(math.cos(th_R), math.sin(th_R))
        # polar-to-cartesian rounding can push a boundary point a last bit
        # outside the region; nudge inward so membership always holds
        while abs(lam_R) > region.bound_R:
            lam_R *= 1.0 - 2.0**-52
        while abs(-1.0 + rad_L * dir_L + 1.0) < 1.0 + region.bound_L:
            rad_L *= 1.0 + 2.0**-52
        pts.append((-1.0 + rad_L * dir_L, lam_R))
    return pts


def zero_probe(
    g: BipartiteGraph,
    region: ComplexRegion,
    samples: int = 500,
    seed: int = 0,
    threads: int = 1,
) -> ZeroProbeReport:
    """Evaluate exact Z at sampled points of a zero-free region.

    Refuses (CertificationError) when the region fails the zero-freeness
    condition: probing an uncertified region would be vacuous.  A zero (or
    any suspiciously small |Z|) would indicate an implementation or
    configuration bug, never a counterexample.  The points are evaluated
    serially; ``threads`` is accepted for compatibility, and neither the
    report nor the cost depends on it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    prof = degree_profile(g)
    cond = check_complex_region(prof, region)
    if not cond.satisfied:
        raise CertificationError(
            "region fails the zero-freeness condition "
            f"(lhs={cond.lhs:.6g} > rhs={cond.rhs:.6g}); probe refused"
        )
    pts = region_points(region, samples, seed)
    values = [exact_Z_complex(g, Fugacities(aL, aR)) for aL, aR in pts]
    min_abs = math.inf
    argmin = pts[0]
    zeros = 0
    for pt, z in zip(pts, values):
        a = abs(z)
        if a == 0.0:
            zeros += 1
        if a < min_abs:
            min_abs = a
            argmin = pt
    return ZeroProbeReport(
        samples=samples,
        min_abs_Z=min_abs,
        argmin=argmin,
        zeros_found=zeros,
        bound_L=region.bound_L,
        bound_R=region.bound_R,
    )
