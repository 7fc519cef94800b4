"""Field, potential, and circle-kernel evaluation for charge configurations.

Kernel conventions for charges x_k with weights a_k:

    field_at(x)     = sum_k a_k (x_k - x) / |x_k - x|^d
    potential_at(x) = sum_k a_k ln|x - x_k|              (d = 2)
                      sum_k a_k / |x - x_k|              (d = 3)
                      sum_k a_k |x - x_k|^(2-d) / (d-2)  (d >= 4)

The gradient relation is forced by the kernels themselves and differs by
dimension: field = -grad(potential) for d = 2, field = +grad(potential) for
d >= 3. Both signs are pinned by finite-difference tests.

For d = 2 the field vector is the complex conjugate of the discrete Cauchy
transform C(z) = sum_k a_k / (z_k - z), so |field| == |C| pointwise; the test
suite checks the identity to 1e-12.

The batch kernels behind the quadratures evaluate many points per call; for
d >= 3 they work component-major, as described above `_offsets`.

All evaluators are pure functions; nothing here carries mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ._cubature import integrate_1d
from .configurations import ChargeConfiguration

__all__ = [
    "SingularPointError",
    "FieldSample",
    "field_at",
    "cauchy_transform",
    "potential_at",
    "averaged_kernel",
    "averaged_kernel_batch",
]

# Evaluation points closer than this to a pole are rejected as singular.
SINGULAR_TOL = 1e-13

TWO_PI = 2.0 * math.pi


class SingularPointError(ValueError):
    """Raised when an evaluation point (numerically) coincides with a pole."""


@dataclass(frozen=True)
class FieldSample:
    """Field vector at one strictly interior point."""

    point: np.ndarray
    field: np.ndarray
    magnitude: float


def _check_interior(x, d, name="x"):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (d,):
        raise ValueError(f"{name} must be a {d}-vector")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if np.dot(x, x) >= 1.0:
        raise ValueError(f"{name} must lie strictly inside the unit ball")
    return x


def _pole_distances(config, x):
    diff = config.positions - x[None, :]
    return np.sqrt(np.sum(diff * diff, axis=1)), diff


def field_at(config: ChargeConfiguration, x) -> FieldSample:
    """Weighted inverse-power field sum at a strictly interior point.

    Raises SingularPointError if x is within 1e-13 of a pole.
    """
    x = _check_interior(x, config.dimension)
    dist, diff = _pole_distances(config, x)
    if np.any(dist < SINGULAR_TOL):
        k = int(np.argmin(dist))
        raise SingularPointError(f"evaluation point coincides with pole {k}")
    scale = config.weights / dist ** config.dimension
    vec = np.sum(scale[:, None] * diff, axis=0)
    return FieldSample(point=x, field=vec, magnitude=float(np.sqrt(np.dot(vec, vec))))


def cauchy_transform(config: ChargeConfiguration, z: complex) -> complex:
    """sum_k a_k / (z_k - z) for a planar configuration, |z| < 1."""
    if config.dimension != 2:
        raise ValueError("cauchy_transform requires dimension 2")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("z must lie strictly inside the unit disc")
    poles = config.complex_positions()
    den = poles - z
    if np.any(np.abs(den) < SINGULAR_TOL):
        k = int(np.argmin(np.abs(den)))
        raise SingularPointError(f"evaluation point coincides with pole {k}")
    return complex(np.sum(config.weights / den))


def potential_at(config: ChargeConfiguration, x) -> float:
    """Dimension-matched potential whose gradient reproduces the field.

    Defined off the poles; unlike field_at it does not restrict x to the ball.
    """
    d = config.dimension
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (d,):
        raise ValueError(f"x must be a {d}-vector")
    dist, _ = _pole_distances(config, x)
    if np.any(dist < SINGULAR_TOL):
        k = int(np.argmin(dist))
        raise SingularPointError(f"evaluation point coincides with pole {k}")
    if d == 2:
        return float(np.sum(config.weights * np.log(dist)))
    if d == 3:
        return float(np.sum(config.weights / dist))
    return float(np.sum(config.weights * dist ** (2 - d)) / (d - 2))


# ---------------------------------------------------------------------------
# batch magnitude kernels (quadrature internals)
# ---------------------------------------------------------------------------

# pole-times-point pairs per chunk of the planar kernel: its one complex
# (poles x points) buffer stays within 32 MB however many points a call has
_CHUNK_PAIRS = 1 << 21
# the d >= 3 kernels hold about ten (poles x points) float arrays per chunk;
# at 2^15 pairs (256 KB each) they stay in a core's L2 cache, and a call on
# 10^5 points or more ran 1.5-2x faster than in chunks of _CHUNK_PAIRS
_CACHE_PAIRS = 1 << 15


def _chunks(m, n, pairs):
    """Slices of at most pairs // n points covering range(m)."""
    step = max(1, pairs // max(n, 1))
    return [slice(i, i + step) for i in range(0, m, step)]


def _cauchy_abs_batch(poles, weights, z):
    """|sum_k w_k / (p_k - z)| on a flat complex array of points.

    Chunk layout depends only on the pole count and the reduction is numpy's
    pairwise sum, so results are bit-identical run to run (no BLAS).
    """
    z = np.asarray(z)
    out = np.empty(z.shape, dtype=float)
    for sl in _chunks(z.size, len(poles), _CHUNK_PAIRS):
        # one (poles x points) buffer, divided in place: a second one of the
        # same size makes the allocator hand both back to the OS on every
        # call, and the next call page-faults them in again
        terms = np.subtract(poles[:, None], z[None, sl])
        np.divide(weights[:, None], terms, out=terms)
        out[sl] = np.abs(np.sum(terms, axis=0))
    return out


# The d >= 3 kernels work component-major: for a chunk of points x_j they
# build diff[c, k, j] = x_k[c] - x_j[c], one (poles x points) array per
# component, and r2[k, j] = |x_k - x_j|^2 once, accumulated component by
# component. Every consumer of r2 (the field below, the d = 3 surrogate and
# on-pole guard in quadrature.py) reads the same array, and each reduction
# runs over poles (or components) in index order, so a point's value depends
# neither on the chunking nor on how many points share its call.

def _offsets(positions, pts):
    """Component-major pole offsets (d, poles, points) and their r^2."""
    d, n, m = pts.shape[1], positions.shape[0], pts.shape[0]
    # contiguous rows of the point coordinates: broadcasting against the
    # strided columns of pts runs at less than half the speed
    cols = np.ascontiguousarray(pts.T)
    diff = np.empty((d, n, m))
    for c in range(d):
        np.subtract(positions[:, c, None], cols[c], out=diff[c])
    r2 = diff[0] * diff[0]
    sq = np.empty_like(r2)
    for c in range(1, d):
        r2 += np.multiply(diff[c], diff[c], out=sq)
    return diff, r2


def _pole_sum(terms):
    """Sum a (poles x points) array over poles, in pole order.

    np.sum(axis=0) adds in this order too, except on a single-point chunk,
    where numpy switches to pairwise summation over the poles.
    """
    out = terms[0].copy()
    for row in terms[1:]:
        out += row
    return out


def _field_mag(diff, r2, weights, d):
    """|sum_k w_k diff_k / r_k^d| per point; scales diff in place."""
    scale = r2 ** (-0.5 * d)
    scale *= weights[:, None]
    mag2 = 0.0
    for comp in diff:
        comp *= scale
        v = _pole_sum(comp)
        mag2 += v * v
    return np.sqrt(mag2, out=mag2)


def _field_mag_batch(positions, weights, pts, d):
    """|sum_k w_k (x_k - x)/|x_k - x|^d| for pts of shape (m, d), chunked."""
    out = np.empty(pts.shape[0])
    for sl in _chunks(pts.shape[0], positions.shape[0], _CACHE_PAIRS):
        diff, r2 = _offsets(positions, pts[sl])
        out[sl] = _field_mag(diff, r2, weights, d)
    return out


# ---------------------------------------------------------------------------
# circle-arc averaged kernel
# ---------------------------------------------------------------------------

def _validate_arc(arc):
    a, b = float(arc[0]), float(arc[1])
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError("arc must be (a, b) with b > a")
    if b - a > TWO_PI + 1e-12:
        raise ValueError("arc length cannot exceed 2*pi")
    return a, min(b, a + TWO_PI)


def averaged_kernel(z: complex, arc, rel_tol: float = 1e-10) -> complex:
    """Mean of the boundary kernel over an arc: (1/l) * int_a^b dtheta/(z - e^(i theta)).

    Evaluated by adaptive 1D quadrature to the requested relative accuracy.
    |z| must be strictly below 1; no special casing is needed near the arc
    because the integrand stays integrable there.
    """
    a, b = _validate_arc(arc)
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("z must lie strictly inside the unit disc")

    def integrand(theta):
        return 1.0 / (z - np.exp(1j * theta))

    # seed a cut at the closest-approach angle so refinement starts near it
    phase = math.atan2(z.imag, z.real)
    cuts = []
    for shift in (-TWO_PI, 0.0, TWO_PI):
        t = phase + shift
        if a < t < b:
            cuts.append(t)
    res = integrate_1d(integrand, a, b, rel_tol, max_evals=500_000,
                       cuts=cuts or None)
    return complex(res.value) / (b - a)


def _arc_integral_series(z, a, b):
    """Power-series evaluation of int_a^b dtheta/(z - e^(i theta)), |z| <= 0.55."""
    z = np.asarray(z, dtype=complex)
    ea = np.exp(-1j * a)
    eb = np.exp(-1j * b)
    pa = np.ones((), dtype=complex) * ea
    pb = np.ones((), dtype=complex) * eb
    zpow = np.ones_like(z)
    out = np.zeros_like(z)
    # sum_j z^j (e^(-i(j+1)b) - e^(-i(j+1)a)) / (i (j+1)); tail < 1e-18 at |z|<=0.55
    for j in range(70):
        out += zpow * (pb - pa) / (1j * (j + 1))
        zpow = zpow * z
        pa = pa * ea
        pb = pb * eb
    return out


def _arc_integral_log(z, a, b):
    """Branch-tracked log evaluation for 0.45 <= |z| < 1, arc length < 2*pi.

    Uses that arg(z - e^(i theta)) increases monotonically in theta for
    |z| < 1 and gains exactly 2*pi per full turn, so the continuous increment
    over a proper subarc lies in (0, 2*pi) and equals the principal difference
    mod 2*pi. The two wrap boundaries are disambiguated with a midpoint probe.
    """
    z = np.asarray(z, dtype=complex)
    za = z - np.exp(1j * a)
    zb = z - np.exp(1j * b)
    p = np.mod(np.angle(zb) - np.angle(za), TWO_PI)
    risky = (p < 1e-9) | (p > TWO_PI - 1e-9)
    if np.any(risky):
        zm = z[risky] - np.exp(1j * (0.5 * (a + b)))
        half = (np.mod(np.angle(zm) - np.angle(za[risky]), TWO_PI)
                + np.mod(np.angle(zb[risky]) - np.angle(zm), TWO_PI))
        # halves sum to the true increment modulo 2*pi, and only the total's
        # side of pi is needed to pick the branch
        p_fixed = np.where(half > math.pi, np.maximum(p[risky], TWO_PI - 1e-12),
                           np.minimum(p[risky], 1e-12))
        p = p.copy()
        p[risky] = p_fixed
    log_ratio = np.log(np.abs(zb) / np.abs(za)) + 1j * p
    return (1j * (b - a) - log_ratio) / (1j * z)


def averaged_kernel_batch(z, arc) -> np.ndarray:
    """Exact vectorized mean kernel over an arc for an array of points.

    Same value as `averaged_kernel` (cross-checked to 1e-10 in tests) but in
    closed form: power series near the origin, branch-tracked logarithms
    elsewhere, and a complement expansion for near-full arcs. Used by the
    defect quadratures, where the kernel is evaluated at ~1e5 points.
    """
    a, b = _validate_arc(arc)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    length = b - a
    tau = TWO_PI - length
    if tau <= 1e-12:
        # the kernel integrates to zero over the full circle; remove the
        # (possibly empty) complement arc instead of chasing the wrap branch
        if tau <= 0.0:
            return np.zeros_like(z)
        mid = 0.5 * (a + b) + math.pi
        return (-tau / (z - np.exp(1j * mid))) / length

    out = np.empty_like(z)
    near = np.abs(z) <= 0.5
    if np.any(near):
        out[near] = _arc_integral_series(z[near], a, b)
    far = ~near
    if np.any(far):
        out[far] = _arc_integral_log(z[far], a, b)
    return out / length
