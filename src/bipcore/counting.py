"""Approximate counting driver and the complex zero-freeness probe.

The estimate is log Z = n_L * log(1 + lambda_L) + T_m with T_m the truncated
expansion of the polymer model; under a valid convergence certificate and at
the depth ``conditions.choose_m`` derives, the result is an eps-relative
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
from .conditions import KPCertificate, _check_epsilon, certify_kp, check_complex_region, choose_m
from .errors import CertificationError, ClusterBudgetError, SizeCapError
from .graph import BipartiteGraph
from .polymers import ComplexRegion, Fugacities
# exact_Z_complex stays bound here, where perfbench/spans.py wraps it
from .oracle import _z_complex_at, exact_Z_complex  # noqa: F401

DEGRADE_FACTOR = 0.8


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
    _check_epsilon(epsilon)  # choose_m's rule, whether or not m is given
    t0 = time.perf_counter()
    cert = certify_kp(g, lam, eta=eta).require(
        "refusing to emit an uncertified approximation (the exact oracle handles small graphs)"
    )
    m_requested = choose_m(g.n_R, epsilon, cert.eta) if m is None else m
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
    # the doubles that one uniform(0, 2 pi, 2) call per point and two
    # uniform(0, 1) calls per odd point read, in that order; uniform(0, s)
    # is 0 + s * u, so s * u gives the same bits
    u = iter(rng.random(2 * samples + 2 * (samples // 2)).tolist())
    pts = []
    for i in range(samples):
        th_L, th_R = 2.0 * math.pi * next(u), 2.0 * math.pi * next(u)
        if i % 2 == 0:
            rad_R = region.bound_R
            rad_L = 1.0 + region.bound_L
        else:
            rad_R = region.bound_R * next(u)
            rad_L = (1.0 + region.bound_L) * (1.0 + 2.0 * next(u))
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
    threads: int = 1,  # perfbench/workloads.py:322-323 passes 1 and 2
) -> ZeroProbeReport:
    """Evaluate exact Z at sampled points of a zero-free region.

    Refuses (CertificationError) when the region fails the zero-freeness
    condition: probing an uncertified region would be vacuous.  A zero (or
    any suspiciously small |Z|) would indicate an implementation or
    configuration bug, never a counterexample.  All points go through one
    block evaluator, the one exact_Z_complex calls with a single point, a
    numpy pass per component and block of points; ``threads`` is accepted
    for compatibility, and neither the report nor the cost depends on it.
    SizeCapError as in exact_Z_complex, when Z at any point overflows.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    cond = check_complex_region(g, region)
    if not cond.satisfied:
        raise CertificationError(
            "region fails the zero-freeness condition "
            f"(lhs={cond.lhs:.6g} > rhs={cond.rhs:.6g}); probe refused"
        )
    pts = region_points(region, samples, seed)
    lam_L, lam_R = np.array(pts).T
    with np.errstate(over="ignore"):
        abs_z = np.hypot(*_z_complex_at(g, lam_L, lam_R))  # libm's hypot, as abs(complex)
    if not np.isfinite(abs_z).all():
        raise SizeCapError("|Z| overflows a float")
    k = int(np.argmin(abs_z))
    return ZeroProbeReport(
        samples=samples,
        min_abs_Z=float(abs_z[k]),
        argmin=pts[k],
        zeros_found=int(np.count_nonzero(abs_z == 0.0)),
        bound_L=region.bound_L,
        bound_R=region.bound_R,
    )
