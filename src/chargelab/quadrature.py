"""Energy and defect integrals over the unit disc and ball.

Every integrand here is a field magnitude with integrable point singularities
at the charge locations. Each dimension handles them its own way:

  * d = 2: a "pole zone" around each charge (a pole-centered disc of radius
    at most DEFAULT_POLE_RADIUS, clipped to the unit disc) is integrated in
    pole-centered polar coordinates, where the s Jacobian cancels the ~ w/s
    blow-up, and the rest of the disc by deterministic adaptive cubature on
    angular-band slices. There are two cubature region families: the zones,
    one row per piece of a pole's direction range between the directions
    where its zone meets the circle (a pole on the circle has only the
    inward half of the directions), and the bulk pieces. Every region is
    one row and starts as one cell. Several disc problems can share the two
    families, which is how a sum of weighted defect integrals (the
    reduction budget) is refined as one integral.
  * d >= 3: the singular surrogates |w_k| c(r)/r^(d-1) have an exact mass
    (closed form in d = 3, a fixed Gauss-Legendre rule over the spherical
    cap fraction in d >= 4), and randomized quasi-Monte Carlo integrates
    the bounded residual (field magnitude minus the surrogates) over the
    whole ball. In d = 3 a cluster of crowded poles (diameter D, well apart
    from the rest) adds a ring surrogate for its summed weight, which has a
    closed-form mass too, and two strata about its centre: the ball of
    radius 4D and a halo out to 0.25 with log-uniform radius. The bulk
    leaves out what the strata hold.
  * d >= 4 with crowded poles, or past the dimensions of the Sobol table:
    Monte Carlo with the field magnitude divided by the density of a
    half-and-half mixture (importance sampling): of each block of points,
    drawn as one direction and one radius per point, exactly the first half
    is uniform in the ball and the rest lies near uniformly drawn poles.

The sampled integrands are two kernels, `_residual` (RQMC) and
`_importance_ratio` (Monte Carlo). Per chunk of points they build the
component-major offsets of fields.py, form r^2 once, and read it for the
field, the on-pole test and the surrogate or the sampling density. Chunks
hold at most 2^15 pole-point pairs, so their arrays stay in a core's cache.

The RQMC bulk and the Monte Carlo differ only in how a replicate draws its
points: both run `_replicated_mean`, which owns the sums, the estimate, its
standard error and the tolerance and budget stops. The RQMC bulk's first
round (8 replicates x 4096 ball points) depends only on the spec seed and
the dimension and ends most calls, so `_first_round` caches it per seed and
dimension as one read-only block (about 0.8 MB in d = 3, 2.6 MB with the
strata's points; at most _FIRST_ROUND_SEEDS blocks), and round 0 is one
kernel pass over it. A later round draws its points afresh from a stateless
scrambled Sobol engine (`_sobol`: key, dimension, start, count), so calls
share no mutable state. The engine is numpy only and gives
scipy.stats.qmc.Sobol's points bit for bit.

Determinism contract: identical inputs (including the seed) give
bit-identical results regardless of machine load or thread count. All
reductions are fixed-order numpy pairwise sums; stochastic paths draw from
generators keyed by purpose tags (rng.py).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

# integrate_1d is unused here; perfbench's tracer patches it by this name
from ._cubature import integrate_1d  # noqa: F401
from ._cubature import integrate_regions, split_intervals, split_lines
from .configurations import (BOUNDARY_SNAP, ChargeConfiguration,
                             _cluster_labels, _on_sphere, _pairwise_dists,
                             _sphere_points, merge_coincident)
from .fields import (_CACHE_PAIRS, _cauchy_abs_batch, _chunks, _field_mag,
                     _offsets, _pole_sum, _validate_arc, averaged_kernel_batch)
from .rng import derive_key, substream

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "chui_energy",
    "l1_defect",
    "two_pole_l1",
    "unit_ball_volume",
]

TWO_PI = 2.0 * math.pi

# cap on the d = 2 zone radii (energies, defects and two-pole integrals)
DEFAULT_POLE_RADIUS = 0.1

# RQMC bulk: replicates, first-round points per replicate, and how many
# first rounds stay cached (d x 4096 doubles per replicate, about 0.8 MB per
# seed in d = 3; 10 x 4096 with cluster strata)
_RQMC_REPS = 8
_RQMC_FIRST = 4096
_FIRST_ROUND_SEEDS = 8
# d = 3 cluster strata: a cluster of diameter D has an inner ball of radius
# _CLUSTER_K * D and a halo out to _HALO about its centre
_CLUSTER_K = 4.0
_HALO = 0.25
# Sobol points mapped into the ball at a time
_MAP_POINTS = 4096
# scrambled Sobol: 30-bit digits and, per dimension, the primitive polynomial
# and initial direction numbers of Joe and Kuo's new-joe-kuo-6.21201 table
# (the first rows of scipy's copy); the bulk in B^d uses d, the d = 3 strata 6
_SOBOL_BITS = 30
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                (1, 3, 5, 13), (1, 1, 5, 5, 17))
# d >= 4 surrogate mass: Gauss-Legendre nodes per piece, and the ratio of the
# geometric cuts that grade the pieces above |1 - t|
_MASS_NODES = 16
_MASS_GRADING = 4.0


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance, seed and evaluation budget of one integral.

    The input picks the method: adaptive cubature (d=2), RQMC (d=3, and
    d>=4 without crowded poles), Monte Carlo (d>=4 with crowded poles, or
    d above 8). QuadratureResult.method names the method that ran.
    """

    rel_tolerance: float = 1e-3
    seed: int = 0
    max_evals: int = 10_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 0.5):
            raise ValueError("rel_tolerance must lie in (0, 0.5)")
        if int(self.max_evals) < 1000:
            raise ValueError("max_evals must be at least 1000")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with an error figure.

    `method` is "adaptive" (d=2), "rqmc" (d=3, and d>=4 without crowded
    poles) or "mc" (the other d>=4 inputs). `error` is the standard error
    of the mean over replicates for the stochastic methods ("rqmc", "mc")
    and, for "adaptive", the summed Kronrod-Gauss discrepancy, a
    conservative estimate rather than a rigorous bound.
    """

    value: float
    error: float
    evals: int
    converged: bool
    method: str


# ---------------------------------------------------------------------------
# pole spacing
# ---------------------------------------------------------------------------

def _nearest_neighbor_dists(points):
    dist = _pairwise_dists(points)
    np.fill_diagonal(dist, np.inf)
    return np.min(dist, axis=1)


# ---------------------------------------------------------------------------
# d = 2: deterministic zones + angular-band bulk
# ---------------------------------------------------------------------------

def _zone_rows(on_sphere, t, rho):
    """Rows (pole, start, span) of the pole-zone family.

    A zone is integrated over the direction gamma, measured from its pole's
    outward radius, and the distance from the pole. An interior pole covers
    gamma in [-pi, pi], a pole on the circle only the inward half
    [pi/2, 3pi/2]. Each range is cut, through `split_intervals`, at the
    directions +-acos((1 - t^2 - rho^2) / (2 rho t)) where the zone's radius
    cap meets the circle, taken mod 2 pi into the range; a pole at the
    origin has none. Each piece is one row, in pole order.
    """
    with np.errstate(divide="ignore"):
        cross = (1.0 - t * t - rho * rho) / (2.0 * rho * t)
    meets = np.abs(cross) < 1.0
    # scalar math.acos, not np.arccos (see the atan2 note in _integrate_disc)
    g = np.array([math.acos(c) for c in cross[meets]])
    cuts = np.full((t.size, 2), np.nan)
    cuts[meets] = np.column_stack([-g, g])
    cuts[on_sphere] %= TWO_PI
    lo = np.where(on_sphere, 0.5 * math.pi, -math.pi)
    return split_intervals(lo, lo + np.where(on_sphere, math.pi, TWO_PI),
                           cuts)


def _bulk_cut_angles(params, extra):
    """Angles where a ray's zone-intersection pattern can change."""
    cuts = []
    for t, phi, rho in params:
        if rho < t:
            half = math.asin(min(rho / t, 1.0))
            cuts += [phi - half, phi + half]
        if t > 1e-14:
            c = (1.0 + t * t - rho * rho) / (2.0 * t)
            if -1.0 <= c <= 1.0:
                half = math.acos(c)
                cuts += [phi - half, phi + half]
    cuts += list(extra)
    # normalize to (-pi, pi] and dedup
    cuts = sorted(math.remainder(c, TWO_PI) for c in cuts)
    out = []
    for c in cuts:
        if not out or c - out[-1] > 1e-12:
            out.append(c)
    if out and (out[0] + TWO_PI) - out[-1] <= 1e-12:
        out.pop()
    return out if out else [-math.pi]


def _interval_bounds(theta, t, phi, rho):
    """Clamped [0,1] radial interval cut out of a ray by one zone disc."""
    delta = theta - phi
    mid = t * np.cos(delta)
    disc = rho * rho - (t * np.sin(delta)) ** 2
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip(mid - root, 0.0, 1.0)
    hi = np.clip(mid + root, 0.0, 1.0)
    return lo, np.maximum(hi, lo)


def _bulk_pieces(t, phi, rho, extra_cuts):
    """Disc-minus-zones as angular bands sliced radially between zones.

    Band boundaries include every tangency and rim-crossing angle of every
    zone, so within one band the set of zones met by a ray, and the radial
    ordering of their intervals, are constant; each gap between consecutive
    intervals becomes one smooth mapped region. Returns, per piece, its band
    start and span and the zones below and above it, with -1 standing for
    the origin below or the rim above.
    """
    # `_bulk_cut_angles` keeps cuts more than 1e-12 apart, wrap-around
    # included, so every band is wider than that
    band_lo = np.array(_bulk_cut_angles(zip(t, phi, rho), extra_cuts))
    band_span = np.append(band_lo[1:], band_lo[0] + TWO_PI) - band_lo

    # zone intervals on each band's mid ray, (bands x poles)
    mid_lo, mid_hi = _interval_bounds((band_lo + 0.5 * band_span)[:, None],
                                      t, phi, rho)
    met = mid_hi - mid_lo > 1e-15
    # zones met by each band, in radial order (ties keep pole order)
    order = np.argsort(np.where(met, mid_lo, np.inf), axis=1, kind="stable")
    n_met = np.sum(met, axis=1)
    n_gap = n_met + 1
    band = np.repeat(np.arange(band_lo.size), n_gap)
    j = np.arange(band.size) - np.repeat(np.cumsum(n_gap) - n_gap, n_gap)
    last = order.shape[1] - 1
    below = np.where(j > 0, order[band, j - 1], -1)
    above = np.where(j < n_met[band], order[band, np.minimum(j, last)], -1)
    # pieces empty at the band midpoint are empty across the band:
    # interval endpoints move continuously and can only cross at the
    # tangency/crossing angles, which are all band boundaries
    lo_m = np.where(below >= 0, mid_hi[band, below], 0.0)
    hi_m = np.where(above >= 0, mid_lo[band, above], 1.0)
    piece = hi_m - lo_m > 1e-15
    return (band_lo[band[piece]], band_span[band[piece]], below[piece],
            above[piece])


def _integrate_disc(g, problems, rel_tol, max_evals):
    """Sum of disc integrals, refined in one global adaptive loop.

    Problem p is (poles, zone radii, extra bulk cut angles) and adds the
    integral of g(z, p) over the unit disc; g takes points z shaped
    (lines, 15), the radial nodes of one direction per line, and one
    problem index per line, so it can weight each problem. Two region
    families cover the discs: the pole zones (family 0, `_zone_rows`,
    problem by problem in pole order) and the bulk pieces (family 1). Each
    family is called once per chunk of 18 cells (at most
    `_cubature._CALL_POINTS` nodes) per round, however many problems
    share it, and refinement goes where the summed error is.
    """
    zones, pieces = [], []
    offset = 0
    for pole_p, radii_p, extra in problems:
        # scalar math.atan2, not np.arctan2: the two can differ in the last
        # bit, and every cut angle and zone parameter derives from phi. A
        # pole at the origin gets phi = 0 whatever the signs of its zeros
        t = np.array([abs(z) for z in pole_p])
        phi = np.array([math.atan2(z.imag, z.real) if z else 0.0
                        for z in pole_p])
        rho = np.asarray(radii_p, dtype=float)
        start, span, below, above = _bulk_pieces(t, phi, rho, extra)
        # zone indices count past the earlier problems' zones; -1 stays
        below, above = (np.where(z >= 0, z + offset, -1)
                        for z in (below, above))
        zones.append((pole_p, t, phi, rho))
        pieces.append((start, span, below, above))
        offset += t.size
    poles, t, phi, rho = map(np.concatenate, zip(*zones))
    start, span, below, above = map(np.concatenate, zip(*pieces))
    pole, gstart, gspan = _zone_rows(_on_sphere(t), t, rho)
    zprob, bprob = (np.repeat(np.arange(len(problems)),
                              [part[0].size for part in parts])
                    for parts in (zones, pieces))
    zprob = zprob[pole]
    t_gap = (1.0 - t) * (1.0 + t)

    # each integrand takes its points as lines of 15 radial nodes at one
    # direction and forms what depends on the direction once per line
    def zone(x, r):
        u, v, r = split_lines(x, r)
        k = pole[r]
        gamma = gstart[r] + gspan[r] * u
        # where the ray leaves the disc: 1 - t^2 sin^2 is written as
        # cos^2 + (1 - t^2) sin^2, which stays accurate near tangency (for a
        # pole on the circle it is cos^2 exactly)
        c, sn = np.cos(gamma), np.sin(gamma)
        exit_s = -t[k] * c + np.sqrt(c * c + t_gap[k] * sn * sn)
        cap = np.minimum(rho[k], exit_s)[:, None]
        s = cap * v
        z = poles[k][:, None] + s * np.exp(1j * (phi[k] + gamma))[:, None]
        # the s Jacobian cancels the 1/s blow-up at the pole
        return g(z, zprob[r]) * s * cap * gspan[r][:, None]

    def bulk(x, k):
        u, v, k = split_lines(x, k)
        theta = start[k] + span[k] * u
        zb, za = below[k], above[k]
        a = np.where(zb >= 0,
                     _interval_bounds(theta, t[zb], phi[zb], rho[zb])[1], 0.0)
        b = np.where(za >= 0,
                     _interval_bounds(theta, t[za], phi[za], rho[za])[0], 1.0)
        width = np.maximum(b - a, 0.0)[:, None]
        s = a[:, None] + width * v
        z = s * np.exp(1j * theta)[:, None]
        return g(z, bprob[k]) * s * width * span[k][:, None]

    # (family, row) per region: the zone rows, then the pieces
    regions = np.column_stack([
        np.repeat([0, 1], [pole.size, start.size]),
        np.concatenate([np.arange(pole.size), np.arange(start.size)])])
    res = integrate_regions([zone, bulk], 2, regions, rel_tol, max_evals)
    return QuadratureResult(float(res.value), float(res.error), res.evals,
                            res.converged, "adaptive")


def _energy_adaptive_2d(config, spec):
    poles = config.complex_positions()
    weights = config.weights
    # half the nearest-neighbor distance keeps zones pairwise disjoint, so
    # each zone sees exactly one singularity
    radii = np.minimum(DEFAULT_POLE_RADIUS,
                       0.5 * _nearest_neighbor_dists(config.positions))

    def g(z, p):
        return _cauchy_abs_batch(poles, weights, z.ravel()).reshape(z.shape)

    return _integrate_disc(g, [(poles, radii, ())],
                           spec.rel_tolerance, spec.max_evals)


# ---------------------------------------------------------------------------
# d >= 3: exact surrogate mass + RQMC of the bounded residual
# ---------------------------------------------------------------------------

def _cutoff(r, support):
    """C^1 taper: 1 on [0, R/2], cubic smoothstep down to 0 at R.

    support may be an array broadcasting against r, one radius per pole.
    The ramp variable is clipped to [0, 1], which gives exactly 1 up to R/2
    and exactly 0 wherever r >= R (for r < R it is below 1 unclipped), so no
    separate support test is needed.
    """
    half = 0.5 * support
    xi = r - half
    xi /= half
    np.clip(xi, 0.0, 1.0, out=xi)
    ramp = 2.0 * xi
    np.subtract(3.0, ramp, out=ramp)
    xi *= xi
    xi *= ramp
    return np.subtract(1.0, xi, out=xi)


def _residual(positions, weights, supports, pts):
    """Field magnitude minus the surrogate sum_k |w_k| c(r_k)/r_k^(d-1),
    r_k = |x - x_k|, at pts of shape (m, d).

    The surrogate matches each pole's leading blow-up |w_k|/r^(d-1), whatever
    the sign of w_k, so the residual stays bounded. One pass per chunk of
    points: the component-major offsets and r^2 (see fields.py) feed the
    field sum and the surrogate's cutoff; r^(d-1) is (r r)^((d-1)/2), times r
    in even d. A point exactly on a pole (r^2 == 0) would give nan and
    contributes 0 instead: scrambled Sobol coordinates are 30-bit values, so
    the RQMC bulk can land exactly on a pole at the origin. The floating
    point warnings of such points are silenced.
    """
    d = positions.shape[1]
    out = np.empty(pts.shape[0])
    for sl in _chunks(pts.shape[0], positions.shape[0], _CACHE_PAIRS):
        diff, r2 = _offsets(positions, pts[sl])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.sqrt(r2)
            cut = _cutoff(r, supports[:, None])
            cut *= np.abs(weights)[:, None]
            if d % 2 == 0:
                cut /= r
            r *= r
            if d > 4:
                r **= (d - 1) // 2
            cut /= r
            res = _field_mag(diff, r2, weights, d)
            res -= _pole_sum(cut)
        res[np.any(r2 == 0.0, axis=0)] = 0.0
        out[sl] = res
    return out


def _surrogate_mass(t, support):
    """Closed-form ball integrals of c(r)/r^2 for pole radii t, supports R.

    With h = R/2 and s = r/h, c is 1 on s <= 1 and 3y^2 - 2y^3 in y = 2 - s
    on [1, 2]. The solid angle of sphere(pole, r) inside the ball is 4 pi
    for r <= 1 - t, 0 for r < t - 1 (a snapped sphere pole a few ulps
    outside) and 2 pi + pi (1 - t^2)/(t r) - pi r/t between, so the mass is
    pi h times a sum of g0, g1 and gm: the integrals of c, c s and c/s from
    s_lo = |1 - t|/h to 2, free of cancellation in y. log(s_lo) is never
    taken at s_lo = 0 (t = 1), where its factor 1 - t^2 vanishes.
    """
    h = 0.5 * support
    s_lo = np.minimum(np.abs(1.0 - t) / h, 2.0)
    flat = np.minimum(s_lo, 1.0)
    y = 2.0 - np.maximum(s_lo, 1.0)
    g0 = 1.0 - flat + y ** 3 * (1.0 - 0.5 * y)
    g1 = 0.5 * (1.0 - flat * flat) + y ** 3 * (2.0 - 1.75 * y + 0.4 * y * y)
    gm = (-np.log(np.where(flat > 0.0, flat, 1.0)) + (2.0 / 3.0) * y ** 3
          + 0.5 * y * y + 2.0 * y + 4.0 * np.log1p(-0.5 * y))
    # all g vanish at s_lo = 2 (t near 0 included), where t may not divide
    ts = np.where(s_lo < 2.0, t, 1.0)
    inside = t < 1.0
    # for t < 1 the 4 pi below s_lo adds 4 (3/2 - g0); adding its 6 last
    # gives an interior pole (all g = 0) exactly 3 pi R
    shell = (np.where(inside, -2.0, 2.0) * g0
             + (1.0 - ts * ts) / (ts * h) * gm - h / ts * g1)
    return 0.5 * (np.where(inside, 6.0, 0.0) + shell) * math.pi * support


@functools.cache
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _cap_fraction(h, d):
    """Fraction of the sphere S^(d-1) whose first coordinate lies below h.

    With phi = arccos(-h) it is I(phi)/I(pi), I(phi) the integral of
    sin^(d-2) from 0 to phi, by the recurrence
    I_n = ((n - 1) I_(n-2) - sin^(n-1) cos) / n from I_0 = phi and
    I_1 = 1 - cos. h is clipped to [-1, 1]; fmax and fmin send a nan h to
    -1 (fraction 0).
    """
    def integral(phi):
        sin, cos = np.sin(phi), np.cos(phi)
        total = phi if d % 2 == 0 else 1.0 - cos
        for n in range(2 + d % 2, d - 1, 2):
            total = ((n - 1) * total - sin ** (n - 1) * cos) / n
        return total

    phi = np.arccos(-np.fmin(np.fmax(h, -1.0), 1.0))
    return integral(phi) / integral(math.pi)


def _cap_mass(t, support, d):
    """Ball integrals of c(r)/r^(d-1) for pole radii t and supports R.

    The sphere(pole, r) has area |S^(d-1)| r^(d-1) times the fraction of it
    inside the ball, `_cap_fraction` of h = (1 - t^2 - r^2)/(2 r t), so the
    mass is |S^(d-1)| times the integral of c(r) F(h(r)) over [0, R]. It is
    smooth between the cuts 0, |1 - t|, R/2 and R, but for a pole at a small
    gap |1 - t| its cap varies on the scale of the gap all the way up to
    R/2, so geometric cuts |1 - t| _MASS_GRADING^k grade [|1 - t|, R/2].
    Each piece [a, b] gets a fixed Gauss-Legendre rule in s, r - a =
    (b - a) s^2, which absorbs the cap's (r - |1 - t|)^((d-1)/2) onset.
    t and R are arrays, one entry per pole; empty pieces add 0.
    """
    gap, half = np.abs(1.0 - t), 0.5 * support
    graded = (gap > 0.0) & (gap < half)
    levels = np.ceil(np.log(half[graded] / gap[graded])
                     / math.log(_MASS_GRADING))
    grid = gap[:, None] * _MASS_GRADING ** np.arange(
        int(np.max(levels, initial=0.0)) + 1)
    cuts = np.sort(np.column_stack([np.zeros_like(t), half, support,
                                    np.minimum(grid, support[:, None])]))
    a = cuts[:, :-1, None]
    width = cuts[:, 1:, None] - a
    s, w = _gauss_legendre(_MASS_NODES)
    r = a + width * s * s
    with np.errstate(divide="ignore", invalid="ignore"):
        h = ((1.0 - t) * (1.0 + t))[:, None, None] - r * r
        h /= 2.0 * r * t[:, None, None]
    f = _cap_fraction(h, d) * _cutoff(r, support[:, None, None])
    f *= 2.0 * width * s * w
    return d * unit_ball_volume(d) * np.sum(f, axis=(1, 2))


def _replicated_mean(sample, n_rep, draw, doubling, volume, budget, target,
                     streams=1):
    """Mean over independent replicates of a sampled integral, in rounds.

    sample(rnd, m) returns, per replicate, the sum of the m integrand values
    it draws in round rnd. The first round draws `draw` points per
    replicate; each later round draws as many again or, with `doubling`, as
    many as all earlier rounds together. A point costs `streams` evals (one
    per stratum summed into its value). Replicate means are volume times
    the average; their mean is the estimate and their standard error the
    sigma. Stops when sigma <= target(estimate), or unconverged when the next
    round would take the evals past `budget`. Returns (estimate, sigma,
    evals, converged).
    """
    sums = np.zeros(n_rep)
    count = evals = rnd = 0
    while True:
        sums += sample(rnd, draw)
        count += draw
        evals += n_rep * draw * streams
        means = volume * sums / count
        est = float(np.mean(means))
        sigma = float(np.std(means, ddof=1) / math.sqrt(n_rep))
        if sigma <= target(est):
            return est, sigma, evals, True
        if doubling:
            draw = count
        if evals + n_rep * draw * streams > budget:
            return est, sigma, evals, False
        rnd += 1


def _sobol_directions():
    """Joe-Kuo direction numbers, one row per dimension, as 30-bit integers
    (Bratley and Fox's recurrence, then column j shifted left by 29 - j)."""
    v = np.ones((len(_SOBOL_POLY), _SOBOL_BITS), dtype=np.int64)
    for d in range(1, len(_SOBOL_POLY)):
        poly, init = _SOBOL_POLY[d], _SOBOL_VINIT[d]
        deg = len(init)
        v[d, :deg] = init
        for j in range(deg, _SOBOL_BITS):
            v[d, j] = v[d, j - deg]
            for k in range(deg):
                if poly >> (deg - 1 - k) & 1:
                    v[d, j] ^= v[d, j - k - 1] << (k + 1)
    return (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)


_SOBOL_V = _sobol_directions()


def _scrambled(key, dim):
    """LMS-scrambled direction numbers (dim, 30) and digital shift (dim,)
    from np.random.default_rng(key), drawn in scipy's order: the shift's
    bits, then the lower-triangular matrices with unit diagonal."""
    gen = np.random.default_rng(key)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = (gen.integers(0, 2, size=(dim, _SOBOL_BITS), dtype=np.uint32)
             @ (np.uint32(1) << bits))
    ltm = np.tril(gen.integers(0, 2, size=(dim, _SOBOL_BITS, _SOBOL_BITS),
                               dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # row p of a matrix as a mask, its first column the top bit; bit 29 - p
    # of scrambled column j is the parity of that mask and column j
    msb_first = bits[::-1]
    rows = ltm @ (np.uint32(1) << msb_first)
    parity = np.bitwise_count(rows[:, :, None] & _SOBOL_V[:dim, None, :]) & 1
    return (np.bitwise_or.reduce(parity.astype(np.uint32)
                                 << msb_first[:, None], axis=1), shift)


def _sobol(key, dim, start, m):
    """Points start .. start + m - 1 of the scrambled Sobol sequence of
    `key`, component-major (dim, m), bit-identical to
    scipy.stats.qmc.Sobol(dim, scramble=True, seed=key) drawn that far.

    A draw must be balanced: m a power of two, start a multiple of m and
    the end at most 2^30. Point start + i is then the point at start XOR
    the Gray-code sum of i, tabled by reflection: points s..2s-1 are
    points s-1..0 XOR direction number log2(s).
    """
    if m < 1 or m & (m - 1) or start % m or start + m > 1 << _SOBOL_BITS:
        raise ValueError(f"unbalanced Sobol draw: {m} points from {start}")
    sv, shift = _scrambled(key, dim)
    gray = (start ^ start >> 1) >> np.arange(_SOBOL_BITS) & 1
    table = np.empty((dim, m), dtype=np.uint32)
    table[:, 0] = shift ^ np.bitwise_xor.reduce(sv[:, gray == 1], axis=1)
    s = 1
    while s < m:
        np.bitwise_xor(table[:, s - 1::-1], sv[:, s.bit_length() - 1, None],
                       out=table[:, s:2 * s])
        s *= 2
    return table * 2.0 ** -_SOBOL_BITS


def _ball_points(u):
    """Component-major (d, m) unit-ball points from Sobol points (d, m) in
    [0,1)^d: radius u_0^(1/d) times the direction `_directions` makes of
    the other coordinates.

    The map runs on _MAP_POINTS points at a time, so its temporaries stay in
    a core's cache.
    """
    out = np.empty(u.shape)
    for lo in range(0, u.shape[1], _MAP_POINTS):
        cols = slice(lo, lo + _MAP_POINTS)
        _directions(u[1:, cols], u[0, cols] ** (1.0 / u.shape[0]),
                    out[:, cols])
    return out


def _directions(v, scale, out):
    """Write scale times a point of S^(k-1) into out (k, m), made of v
    (k - 1, m) in [0,1)^(k-1); uniform v gives uniform points.

    Rows 0 and 1 are a circle of radius sqrt(1 - |p|^2) at the angle
    2 pi v[-1], the other rows a point p of B^(k-2) made of the rest of v:
    2 v[0] - 1 for k = 3 (uniform cosine), else radius v[0]^(1/(k-2)) times
    a direction of S^(k-3). The projection of a uniform point of S^(k-1) on
    k - 2 coordinates is uniform in B^(k-2), and about it the point is
    uniform on the circle, so the map preserves measure. For k = 4 these
    are Hopf coordinates.
    """
    k = out.shape[0]
    beta = TWO_PI * v[-1]
    if k == 2:
        np.multiply(scale, np.cos(beta), out=out[0])
        np.multiply(scale, np.sin(beta), out=out[1])
        return
    if k == 3:
        mu = 2.0 * v[0] - 1.0
        p2 = mu * mu
        np.multiply(scale, mu, out=out[2])
    else:
        p2 = v[0] ** (2.0 / (k - 2))
        _directions(v[1:-1], scale * np.sqrt(p2), out[2:])
    rs = scale * np.sqrt(np.maximum(1.0 - p2, 0.0))
    np.multiply(rs, np.cos(beta), out=out[0])
    np.multiply(rs, np.sin(beta), out=out[1])


def _points(seed, d, rep, strata, start, m):
    """Points start .. start + m - 1 of one replicate, component-major:
    (d, m) ball points or, with `strata` (d = 3), (10, m) adding from a 6-D
    sequence a unit-ball point (inner balls), a unit direction and a
    uniform (halo radii)."""
    pts = _ball_points(_sobol(derive_key(seed, "rqmc-bulk", rep), d, start, m))
    if not strata:
        return pts
    u = _sobol(derive_key(seed, "rqmc-stratum", rep), 6, start, m)
    dirs = np.vstack([np.ones(m), u[4], u[5]])
    return np.vstack([pts, _ball_points(u[:3]), _ball_points(dirs), u[3]])


@functools.lru_cache(maxsize=_FIRST_ROUND_SEEDS)
def _first_round(seed, d, strata):
    """Per replicate, read-only views into one block of first-round points
    (`_points` rows, with the stratum rows when `strata`)."""
    # glibc's malloc gives the top of its heap back to the OS whenever more
    # than twice the largest mmap-ed block freed so far lies free there. A
    # d = 3 call churns up to about 7 MB of temporaries, so until some large
    # block is freed every call faults their pages in again (600 faults
    # double a lone pole's call). Dropping one untouched 4 MB array raises
    # that bound and faults no page.
    np.empty(1 << 19)
    block = np.concatenate([_points(seed, d, rep, strata, 0, _RQMC_FIRST)
                            for rep in range(_RQMC_REPS)], axis=1)
    block.flags.writeable = False
    return tuple(block[:, lo:lo + _RQMC_FIRST]
                 for lo in range(0, block.shape[1], _RQMC_FIRST))


def _rqmc_bulk(h, spec, d, budget, target_fn, streams=1):
    """Scrambled-Sobol mean of a ball integrand in B^d, 8 replicates, doubled
    rounds.

    Round 0 runs h once on the `_first_round` block of the spec seed and
    sums each replicate's values as their own slice; a point's value does
    not depend on its chunk, so these are the sums of one call per
    replicate. A later round of m points per replicate draws each
    replicate's points m .. 2m - 1 afresh, so calls share no mutable state.
    With streams > 1, h sees (m, 10) rows with stratum coordinates
    (`_points`) and a row costs `streams` evals. target_fn maps the current
    bulk estimate to the absolute sigma target; returns (estimate, sigma,
    evals, converged).
    """
    seed, strata = int(spec.seed), streams > 1
    block = _first_round(seed, d, strata)[0].base

    def sample(rnd, m):
        if rnd == 0:
            return [np.sum(v) for v in h(block.T).reshape(_RQMC_REPS, m)]
        # doubled rounds: the m points of round rnd >= 1 follow the m drawn
        # before it
        return [np.sum(h(_points(seed, d, rep, strata, m, m).T))
                for rep in range(_RQMC_REPS)]

    return _replicated_mean(sample, _RQMC_REPS, _RQMC_FIRST, True,
                            unit_ball_volume(d), budget, target_fn, streams)


def _clusters(positions, weights):
    """Crowded poles that get strata: arrays (centres, |W_C|, radii a).

    Single-linkage levels are walked up from the closest pair. A cluster
    qualifies when a = _CLUSTER_K times its diameter is below _HALO and at
    most half the distance from its centre (the |w|-weighted mean, inside
    the cluster whatever the signs) to every other pole; each pole joins
    its finest qualifying cluster. None when no cluster qualifies.
    """
    dist = _pairwise_dists(positions)
    taken = np.zeros(len(weights), dtype=bool)
    found = []
    for gap in np.unique(dist[(dist > 0.0) & (dist * _CLUSTER_K < _HALO)]):
        labels = _cluster_labels(positions, np.nextafter(gap, np.inf))
        for members in (labels == lab for lab in np.unique(labels)):
            a = _CLUSTER_K * np.max(dist[np.ix_(members, members)])
            w = np.abs(weights[members])
            centre = np.sum(w[:, None] * positions[members], axis=0) / np.sum(w)
            rest = positions[~members] - centre
            if (0.0 < a < _HALO and not np.any(taken[members])
                    and np.all(np.sum(rest * rest, axis=1) >= 4.0 * a * a)):
                taken |= members
                found.append((centre, abs(np.sum(weights[members])), a))
    return [np.array(v) for v in zip(*found)] if found else None


def _strata_residual(residual, centres, wabs, radii, pts):
    """Residual less the ring surrogates, per (m, 10) row of `_points`: the
    bulk point outside every halo plus, inside the ball and nearest their
    centre, a cluster's inner-ball and halo points times their volume
    elements over the ball's, a^3 and 3 rho^3 ln(_HALO/a)."""

    def value(x, owner):
        # rings are 0 below a/2: the floor only stops 0/0 on a centre
        _, r2 = _offsets(centres, x)
        rho = np.sqrt(r2)
        ring = _cutoff(rho, 0.5) - _cutoff(rho, radii[:, None])
        ring *= wabs[:, None] / np.maximum(r2, 1e-300)
        out = residual(x) - _pole_sum(ring)
        if owner < 0:
            out[np.min(r2, axis=0) < _HALO * _HALO] = 0.0
        else:
            out[(np.argmin(r2, axis=0) != owner)
                | (np.sum(x * x, axis=1) >= 1.0)] = 0.0
        return out

    total = value(pts[:, :3], -1)
    for c, (centre, a) in enumerate(zip(centres, radii)):
        total += a ** 3 * value(centre + a * pts[:, 3:6], c)
        rho = a * (_HALO / a) ** pts[:, 9]
        total += (3.0 * math.log(_HALO / a) * rho ** 3
                  * value(centre + rho[:, None] * pts[:, 6:9], c))
    return total


def _energy_rqmc(config, spec, supports, clusters):
    """Surrogate mass plus the RQMC bulk of the residual in B^d, d >= 3, for
    poles with supports min(0.5, nearest-neighbour distance); `clusters`
    (d = 3 only) adds their rings and strata."""
    d = config.dimension
    positions = config.positions
    weights = config.weights
    t = np.sqrt(np.sum(positions * positions, axis=1))
    mass_of = _surrogate_mass if d == 3 else functools.partial(_cap_mass, d=d)
    mass = float(np.sum(np.abs(weights) * mass_of(t, supports)))

    h = functools.partial(_residual, positions, weights, supports)
    streams = 1
    if clusters is not None:
        # each cluster's ring surrogate |W_C| (c_0.5 - c_a)(rho)/rho^2
        centres, wabs, radii = clusters
        tc = np.sqrt(np.sum(centres * centres, axis=1))
        mass += float(np.sum(wabs * (_surrogate_mass(tc, 0.5)
                                     - _surrogate_mass(tc, radii))))
        h = functools.partial(_strata_residual, h, *clusters)
        streams += 2 * len(radii)

    def target(bulk_est):
        return max(0.75 * spec.rel_tolerance * abs(mass + bulk_est), 1e-14)

    budget = max(spec.max_evals, _RQMC_REPS * _RQMC_FIRST * streams)
    bulk, sigma, evals, converged = _rqmc_bulk(h, spec, d, budget, target,
                                               streams)
    return QuadratureResult(float(mass + bulk), sigma, evals, converged, "rqmc")


# ---------------------------------------------------------------------------
# d >= 4: Monte Carlo with pole importance sampling
# ---------------------------------------------------------------------------

# replicates and points per replicate and round; exactly half of each block
# is uniform in the ball and half at a uniform radius below _MC_RHO around a
# uniformly chosen pole, all from one direction and one radius draw
_MC_REPS = 16
_MC_BLOCK = 4096
_MC_RHO = 0.5


def _importance_ratio(positions, weights, pts):
    """Field magnitude over the sampling density at pts of shape (m, d).

    The density is 1/(2 |B^d|) in the ball plus, per pole within _MC_RHO,
    1/(2n rho |S^{d-1}| r^(d-1)). Per chunk, r from the component-major r^2
    (see fields.py) feeds the on-pole test, the density and the field. A
    point outside the ball or within 1e-13 of a pole gives exactly 0.0, and
    the floating point warnings of such points are silenced.
    """
    n, d = positions.shape
    vd = unit_ball_volume(d)
    out = np.empty(pts.shape[0])
    for sl in _chunks(pts.shape[0], n, _CACHE_PAIRS):
        inside = np.sum(pts[sl] * pts[sl], axis=1) < 1.0
        diff, r2 = _offsets(positions, pts[sl])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.sqrt(r2)
            radial = 1.0 / (_MC_RHO * (d * vd) * r ** (d - 1))
            radial[r >= _MC_RHO] = 0.0
            density = _pole_sum(radial) / (2.0 * n) + 0.5 / vd
            res = _field_mag(diff, r2, weights, d) / density
        res[~inside | np.any(r <= 1e-13, axis=0)] = 0.0
        out[sl] = res
    return out


def _energy_mc(config, spec):
    d = config.dimension
    positions = config.positions
    weights = config.weights

    def draw_sum(b, round_idx, m):
        gen = substream(spec.seed, "mc", round_idx, b)
        # m = _MC_BLOCK is even, so the two halves weigh exactly as the
        # mixture density that _importance_ratio divides by
        half = m // 2
        u = _sphere_points(gen, m, d)
        r = gen.random(m)
        centre = np.zeros((m, d))
        centre[half:] = positions[gen.integers(0, len(weights), m - half)]
        r[:half] **= 1.0 / d
        r[half:] *= _MC_RHO
        pts = centre + u * r[:, None]
        return np.sum(_importance_ratio(positions, weights, pts))

    def sample(round_idx, m):
        return [draw_sum(b, round_idx, m) for b in range(_MC_REPS)]

    def target(est):
        return max(spec.rel_tolerance * abs(est), 1e-14)

    est, sigma, evals, converged = _replicated_mean(
        sample, _MC_REPS, _MC_BLOCK, False, 1.0, spec.max_evals, target)
    return QuadratureResult(est, sigma, evals, converged, "mc")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def chui_energy(config: ChargeConfiguration,
                spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Mean field strength: integral of |field| over the unit ball.

    Coincident poles are merged (weights summed) before integration; the
    functional is defined on the underlying measure, so merging is exact.
    """
    spec = spec or QuadratureSpec()
    config = merge_coincident(config)
    d = config.dimension
    if d == 2:
        return _energy_adaptive_2d(config, spec)
    supports = np.minimum(0.5, _nearest_neighbor_dists(config.positions))
    # no pole gap below _HALO / _CLUSTER_K (< 0.5): no cluster qualifies
    clusters = (_clusters(config.positions, config.weights)
                if np.min(supports) * _CLUSTER_K < _HALO else None)
    # the cluster strata exist in d = 3 only, and the bulk needs d rows of
    # the Sobol table
    if d == 3 or (clusters is None and d <= len(_SOBOL_POLY)):
        return _energy_rqmc(config, spec, supports, clusters)
    return _energy_mc(config, spec)


def l1_defect(length: float,
              spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Disc L1 distance between a boundary pole kernel and its arc average.

        integral over the unit disc of |1/(z - 1) - mean kernel of the arc|

    for the arc (-length/2, length/2) centred on the pole at 1. The disc is
    rotation invariant, so every arc of this length with the pole at its
    midpoint has the same defect. The one-arc case of `_defect_sum`.
    """
    return _defect_sum([length], [1.0], spec or QuadratureSpec())


def _defect_sum(lengths, scale, spec):
    """sum_k scale_k * l1_defect(lengths_k), as one adaptive integral.

    Arc k is (-l_k/2, l_k/2), a disc problem with its one pole at 1; l_k
    must lie in (0, 2 pi]. The sum's error is what converges, against the
    spec's relative tolerance. `max_evals` bounds the whole sum.
    """
    half = 0.5 * np.asarray(lengths, dtype=float)
    a, b = _validate_arc((-half, half))
    scale = np.asarray(scale, dtype=float)
    length = b - a

    def g(z, p):
        # one arc per line of points
        arc = (a[p][:, None], b[p][:, None])
        return scale[p][:, None] * np.abs(1.0 / (z - 1.0)
                                          - averaged_kernel_batch(z, arc))

    # keep each zone clear of its arc's endpoints, where the averaged kernel
    # has its own (logarithmic, rim-bound) singularities
    rho = [min(DEFAULT_POLE_RADIUS,
               max(math.sin(min(l, TWO_PI - 1e-9) / 4.0), 1e-6))
           for l in length]
    pole = np.array([1.0 + 0.0j])
    problems = [(pole, [rho[k]], [a[k], b[k]]) for k in range(a.size)]
    return _integrate_disc(g, problems, spec.rel_tolerance, spec.max_evals)


def two_pole_l1(a: complex, b: complex,
                spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Disc L1 distance between two pole kernels (cancellation integral).

        integral over the unit disc of |1/(z - a) - 1/(z - b)|

    Both poles may sit anywhere in the closed disc; their separation must be
    positive and at most 1. The integral is the energy of the signed pair
    ((a, +1), (b, -1)), computed as `chui_energy` computes it.
    """
    spec = spec or QuadratureSpec()
    a = complex(a)
    b = complex(b)
    if abs(a) > 1.0 + BOUNDARY_SNAP or abs(b) > 1.0 + BOUNDARY_SNAP:
        raise ValueError("poles must lie in the closed unit disc")
    delta = abs(a - b)
    if delta == 0.0:
        raise ValueError("poles must be distinct")
    if delta > 1.0 + 1e-12:
        raise ValueError("pole separation must be at most 1")

    pair = ChargeConfiguration([[a.real, a.imag], [b.real, b.imag]],
                               [1.0, -1.0])
    return _energy_adaptive_2d(pair, spec)
