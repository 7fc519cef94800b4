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
d >= 3 they work component-major, as described above `_offsets`. The
arc-averaged boundary kernel behind the defect integrals is a closed form
(`averaged_kernel_batch`) that takes one arc for all points or one per
point.

All evaluators are pure functions; nothing here carries mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

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


# The d >= 3 kernels, and the Monte Carlo path in any dimension, work
# component-major: for a chunk of points x_j they build
# diff[c, k, j] = x_k[c] - x_j[c], one (poles x points) array per component,
# and r2[k, j] = |x_k - x_j|^2 once, accumulated component by component.
# Every consumer of r2 (the field below; in quadrature.py the d = 3
# surrogate, the Monte Carlo importance density and both on-pole guards)
# reads the same array, and each reduction runs over poles (or components)
# in index order, so a point's value depends neither on the chunking nor on
# how many points share its call.

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


# ---------------------------------------------------------------------------
# circle-arc averaged kernel
# ---------------------------------------------------------------------------

def _validate_arc(arc):
    """Arc ends (a, b), floats or arrays, with b clipped to a + 2 pi."""
    a, b = (np.asarray(end, dtype=float) for end in arc)
    if not np.all(np.isfinite(b - a) & (b > a)):
        raise ValueError("arc must be (a, b) with b > a")
    if np.any(b - a > TWO_PI + 1e-12):
        raise ValueError("arc length cannot exceed 2*pi")
    return a, np.minimum(b, a + TWO_PI)


def averaged_kernel(z: complex, arc) -> complex:
    """Mean of the boundary kernel over an arc: (1/l) * int_a^b dtheta/(z - e^(i theta)).

    The one-point case of `averaged_kernel_batch`; |z| must be strictly
    below 1.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("z must lie strictly inside the unit disc")
    return complex(averaged_kernel_batch(np.array([z]), arc)[0])


def averaged_kernel_batch(z, arc) -> np.ndarray:
    """Arc mean (1/l) int_a^b dtheta/(z - e^(i theta)) at an array of points.

    `arc` is (a, b): floats, or arrays of z's shape giving each point its
    own arc. For |z| < 1 the integral is (i/z) Log1p(w), where
    w = z (e^(-ia) - e^(-ib)) / (1 - z e^(-ia)): 1 + w is the ratio of
    1 - z e^(-ib) to 1 - z e^(-ia), both in the right half-plane, so the
    principal log needs no branch tracking. e^(-ia) - e^(-ib) is
    2i sin(l/2) e^(-i(a+b)/2), with sin(l/2) taken of the shorter of l and
    2 pi - l, so nothing cancels at small |z|, on short arcs or on the full
    circle (where it is exactly 0). Log1p(x + iy) is 0.5 log1p(x(2 + x) +
    y^2) + i atan2(y, 1 + x), since numpy's complex log1p loses the real
    part of a small w; its real part is log|1 + w| where |1 + w| < 1/2. At
    z = 0 the mean is the limit -i(e^(-ib) - e^(-ia)) / l.
    """
    a, b = _validate_arc(arc)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    # contiguous arc arrays of z's shape: a point's value then does not
    # depend on whether its arc came alone or one per point
    a = np.ascontiguousarray(np.broadcast_to(a, z.shape))
    b = np.ascontiguousarray(np.broadcast_to(b, z.shape))
    length = b - a
    sin_half = np.sin(0.5 * np.minimum(length, TWO_PI - length))
    mid = 0.5 * (a + b)
    # e^(-i mid), and e^(-ia) = e^(-i mid) e^(i l/2)
    turn = np.cos(mid) - 1j * np.sin(mid)
    chord = 2j * sin_half * turn
    start = turn * (np.cos(0.5 * length) + 1j * sin_half)
    w = z * chord / (1.0 - z * start)
    x, y = w.real, w.imag
    t = x * (2.0 + x) + y * y
    log = np.empty_like(w)
    log.real = 0.5 * np.log1p(np.maximum(t, -0.75))
    small = t < -0.75
    if np.any(small):
        log.real[small] = np.log(np.hypot(1.0 + x[small], y[small]))
    log.imag = np.arctan2(y, 1.0 + x)
    zero = z == 0
    if np.any(zero):
        z = np.where(zero, 1.0, z)
        log[zero] = chord[zero]
    return 1j * log / (z * length)
