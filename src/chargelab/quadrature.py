"""Energy and defect integrals over the unit disc and ball.

Every integrand here is a field magnitude with integrable point singularities
at the charge locations. Each dimension handles them its own way:

  * d = 2: a "pole zone" around each charge (a pole-centered disc clipped to
    the unit disc) is integrated in pole-centered polar coordinates, where
    the s Jacobian cancels the ~ w/s blow-up, and the rest of the disc by
    deterministic adaptive cubature on angular-band slices. The zones are
    two cubature region families indexed by pole, one for poles inside (the
    origin included) and one for poles on the circle; the bulk pieces are a
    third.
  * d = 3: a singular surrogate |w_k| c(r)/r^2 per pole is integrated
    exactly, and randomized quasi-Monte Carlo integrates the bounded
    residual (field magnitude minus the surrogate) over the whole ball.
  * d >= 4: plain importance-sampled Monte Carlo (accuracy degraded and
    flagged).

The d = 3 residual is one kernel, `_residual_3d`. It works on chunks of
points in the component-major layout of fields.py: per chunk it builds the
(poles x points) offsets, forms r^2 once, and reads that one array for the
field sum and the surrogate's cutoff. Chunks hold at most 2^15 pole-point
pairs, so their arrays stay in a core's cache.

The d = 3 RQMC bulk and the d >= 4 Monte Carlo differ only in how a
replicate draws its points: both run `_replicated_mean`, which owns the
sums, the estimate, its standard error and the tolerance and budget stops.
The RQMC bulk's first round (8 replicates x 4096 ball points) depends only
on the spec seed and ends most calls, so `_first_round` caches it per seed:
read-only arrays, about 0.8 MB per seed, for at most _FIRST_ROUND_SEEDS
seeds. Later rounds draw from fresh engines fast-forwarded past the first
round, so calls share no mutable state and every result is bit-identical
to drawing each round anew.

Determinism contract: identical inputs (including the seed) give
bit-identical results regardless of machine load or thread count. All
reductions are fixed-order numpy pairwise sums; stochastic paths draw from
counter-based substreams keyed by purpose tags.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from ._cubature import Region, integrate_1d, integrate_regions
from .configurations import (BOUNDARY_SNAP, ChargeConfiguration, _on_sphere,
                             merge_coincident)
from .fields import (_CACHE_PAIRS, _cauchy_abs_batch, _chunks, _field_mag,
                     _field_mag_batch, _offsets, _pole_sum,
                     averaged_kernel_batch)
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

# cap on the d = 2 zone radii when the caller does not override pole_radius
DEFAULT_POLE_RADIUS = 0.1

_METHODS = ("auto", "mc")

# d = 3 RQMC bulk: replicates, first-round points per replicate, and how
# many spec seeds keep their first round cached (3 x 4096 doubles per
# replicate, about 0.8 MB per seed)
_RQMC_REPS = 8
_RQMC_FIRST = 4096
_FIRST_ROUND_SEEDS = 8
# Sobol rows mapped into the ball at a time
_MAP_ROWS = 4096


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration strategy and budget.

    method "auto" resolves by dimension: adaptive (d=2), rqmc (d=3),
    mc (d>=4). "mc" may be forced in any dimension as a slow cross-check.
    QuadratureResult.method names the method that ran. pole_radius caps the
    d = 2 pole zones (energies, defects and two-pole integrals); the other
    dimensions have no zones and ignore it.
    """

    method: str = "auto"
    rel_tolerance: float = 1e-3
    seed: int = 0
    max_evals: int = 10_000_000
    pole_radius: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; use one of {_METHODS}")
        if not (0.0 < self.rel_tolerance < 0.5):
            raise ValueError("rel_tolerance must lie in (0, 0.5)")
        if int(self.max_evals) < 1000:
            raise ValueError("max_evals must be at least 1000")
        if self.pole_radius is not None and not (0.0 < float(self.pole_radius)):
            raise ValueError("pole_radius must be positive")

    def resolved_method(self, dimension: int) -> str:
        if self.method == "mc":
            return "mc"
        if dimension == 2:
            return "adaptive"
        if dimension == 3:
            return "rqmc"
        return "mc"

    def radius_cap(self) -> float:
        return DEFAULT_POLE_RADIUS if self.pole_radius is None else float(self.pole_radius)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with an error figure.

    `error` is a one-sigma-style statistical error for stochastic methods and
    a conservative Kronrod-Gauss discrepancy estimate for the deterministic
    path; the `std_error` / `error_bound` views expose whichever applies.
    """

    value: float
    error: float
    evals: int
    converged: bool
    method: str
    degraded: bool = False

    @property
    def std_error(self):
        return self.error if self.method in ("rqmc", "mc") else None

    @property
    def error_bound(self):
        return self.error if self.method == "adaptive" else None


# ---------------------------------------------------------------------------
# pole spacing
# ---------------------------------------------------------------------------

def _nearest_neighbor_dists(points):
    n = points.shape[0]
    if n == 1:
        return np.full(1, np.inf)
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.sqrt(np.min(d2, axis=1))

def _effective_radii(points, cap):
    # half the nearest-neighbor distance keeps zones pairwise disjoint, so
    # each zone sees exactly one singularity
    return np.minimum(cap, 0.5 * _nearest_neighbor_dists(points))


# ---------------------------------------------------------------------------
# d = 2: deterministic zones + angular-band bulk
# ---------------------------------------------------------------------------

def _zone_regions_2d(poles, on_sphere, t, phi, rho, g):
    """Polar patch around each pole; the s Jacobian cancels the 1/s kernel.

    Interior zones form one family and on-sphere zones another, each with the
    pole index as its row into (poles, t, phi, rho). A pole at the origin
    (t <= 1e-14) is an interior zone without cuts.
    """

    def interior(x, k):
        gamma = -math.pi + TWO_PI * x[:, 0]
        exit_s = -t[k] * np.cos(gamma) + np.sqrt(
            np.maximum(1.0 - (t[k] * np.sin(gamma)) ** 2, 0.0))
        cap = np.minimum(rho[k], exit_s)
        s = cap * x[:, 1]
        z = poles[k] + s * np.exp(1j * (phi[k] + gamma))
        return g(z) * s * cap * TWO_PI

    def rim(x, k):
        # on-sphere pole: only the inward half-plane meets the disc, and the
        # chord exit along direction beta (from the inward normal) is 2 cos b
        beta = -0.5 * math.pi + math.pi * x[:, 0]
        cap = np.minimum(rho[k], 2.0 * np.cos(beta))
        s = cap * x[:, 1]
        psi = phi[k] + math.pi + beta
        z = poles[k] + s * np.exp(1j * psi)
        return g(z) * s * cap * math.pi

    regions = []
    for k in range(len(poles)):
        tk, rk = t[k], rho[k]
        if on_sphere[k]:
            cuts = None
            if rk < 2.0:
                bstar = math.acos(rk / 2.0)
                cuts = [np.array([(-bstar + 0.5 * math.pi) / math.pi,
                                  (bstar + 0.5 * math.pi) / math.pi]), None]
            regions.append(Region(rim, 2, cuts, row=k))
        else:
            cuts = None
            if tk > 1e-14:
                cross = (1.0 - tk * tk - rk * rk) / (2.0 * rk * tk)
                if -1.0 < cross < 1.0:
                    gstar = math.acos(cross)
                    cuts = [np.array([(-gstar + math.pi) / TWO_PI,
                                      (gstar + math.pi) / TWO_PI]), None]
            regions.append(Region(interior, 2, cuts, row=k))
    return regions


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


def _bulk_regions_2d(t, phi, rho, extra_cuts, g):
    """Disc-minus-zones as angular bands sliced radially between zones.

    Band boundaries include every tangency and rim-crossing angle of every
    zone, so within one band the set of zones met by a ray, and the radial
    ordering of their intervals, are constant; each gap between consecutive
    intervals becomes one smooth mapped region. All of them form one family,
    whose row is the piece index into (band start, band span, zone below,
    zone above), with -1 standing for the origin below or the rim above.
    """
    angles = np.array(_bulk_cut_angles(zip(t, phi, rho), extra_cuts))
    ends = np.append(angles[1:], angles[0] + TWO_PI)
    keep = ends - angles > 1e-12
    band_lo = angles[keep]
    band_span = ends[keep] - band_lo

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
    start = band_lo[band[piece]]
    span = band_span[band[piece]]
    below = below[piece]
    above = above[piece]

    def fn(x, k):
        theta = start[k] + span[k] * x[:, 0]
        zb, za = below[k], above[k]
        a = np.where(zb >= 0,
                     _interval_bounds(theta, t[zb], phi[zb], rho[zb])[1], 0.0)
        b = np.where(za >= 0,
                     _interval_bounds(theta, t[za], phi[za], rho[za])[0], 1.0)
        width = np.maximum(b - a, 0.0)
        s = a + width * x[:, 1]
        z = s * np.exp(1j * theta)
        return g(z) * s * width * span[k]

    return [Region(fn, 2, row=k) for k in range(start.size)]


def _integrate_disc(g, poles, on_sphere, radii, extra_cuts, rel_tol,
                    max_evals, abs_floor):
    # scalar math.atan2, not np.arctan2: the two can differ in the last bit,
    # and every cut angle and zone parameter derives from phi. A pole at the
    # origin gets phi = 0 whatever the signs of its zeros
    t = np.array([abs(p) for p in poles])
    phi = np.array([math.atan2(p.imag, p.real) if p else 0.0 for p in poles])
    rho = np.asarray(radii, dtype=float)
    regions = _zone_regions_2d(poles, on_sphere, t, phi, rho, g)
    regions += _bulk_regions_2d(t, phi, rho, extra_cuts, g)
    res = integrate_regions(regions, rel_tol, max_evals, abs_floor=abs_floor)
    return QuadratureResult(float(res.value), float(res.error), res.evals,
                            res.converged, "adaptive")


def _energy_adaptive_2d(config, spec):
    poles = config.complex_positions()
    weights = config.weights
    radii = _effective_radii(config.positions, spec.radius_cap())

    def g(z):
        return _cauchy_abs_batch(poles, weights, z)

    return _integrate_disc(g, poles, config.boundary, radii, (),
                           spec.rel_tolerance, spec.max_evals, abs_floor=1e-14)


# ---------------------------------------------------------------------------
# d = 3: exact surrogate mass + RQMC of the bounded residual
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


def _residual_3d(positions, weights, supports, pts):
    """Field magnitude minus the surrogate sum_k |w_k| c(|x-x_k|)/|x-x_k|^2.

    The surrogate matches each pole's leading blow-up |w_k|/r^2, whatever the
    sign of w_k, so the residual stays bounded. One pass per chunk of points:
    the component-major offsets and r^2 (see fields.py) feed the field sum
    and the surrogate's cutoff. A point exactly on a pole (r^2 == 0) would
    give nan and contributes 0 instead: scrambled Sobol coordinates are
    30-bit values, so the RQMC bulk can land exactly on a pole at the
    origin. The floating point warnings of such points are silenced.
    """
    out = np.empty(pts.shape[0])
    for sl in _chunks(pts.shape[0], positions.shape[0], _CACHE_PAIRS):
        diff, r2 = _offsets(positions, pts[sl])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.sqrt(r2)
            cut = _cutoff(r, supports[:, None])
            cut *= np.abs(weights)[:, None]
            r *= r
            cut /= r
            res = _field_mag(diff, r2, weights, 3)
            res -= _pole_sum(cut)
        res[np.any(r2 == 0.0, axis=0)] = 0.0
        out[sl] = res
    return out


def _inside_solid_angle(t, r):
    """Solid angle of the part of sphere(pole, r) inside the unit ball."""
    if t < 1e-14:
        return 4.0 * math.pi * np.ones_like(r)
    m = (1.0 - t * t - r * r) / (2.0 * t * r)
    return TWO_PI * (1.0 + np.clip(m, -1.0, 1.0))


def _surrogate_mass(t, support):
    """Exact ball integral of one surrogate via its radial profile."""
    def profile(r):
        return _cutoff(r, support) * _inside_solid_angle(t, r)

    cuts = [0.5 * support]
    if 0.0 < 1.0 - t < support:
        cuts.append(1.0 - t)
    res = integrate_1d(profile, 0.0, support, 1e-12, max_evals=300_000,
                       cuts=cuts)
    return float(res.value), res.evals


def _replicated_mean(sample, n_rep, draw, doubling, volume, budget, target):
    """Mean over independent replicates of a sampled integral, in rounds.

    sample(rep, rnd, m) returns the sum of m integrand values that replicate
    rep draws in round rnd. The first round draws `draw` points per
    replicate; each later round draws as many again or, with `doubling`, as
    many as all earlier rounds together. Replicate means are volume times
    the average; their mean is the estimate and their standard error the
    sigma. Stops when sigma <= target(estimate), or unconverged when the next
    round would take the evals past `budget`. Returns (estimate, sigma,
    evals, converged).
    """
    sums = np.zeros(n_rep)
    count = evals = rnd = 0
    while True:
        for rep in range(n_rep):
            sums[rep] += sample(rep, rnd, draw)
        count += draw
        evals += n_rep * draw
        means = volume * sums / count
        est = float(np.mean(means))
        sigma = float(np.std(means, ddof=1) / math.sqrt(n_rep))
        if sigma <= target(est):
            return est, sigma, evals, True
        if doubling:
            draw = count
        if evals + n_rep * draw > budget:
            return est, sigma, evals, False
        rnd += 1


def _sobol(seed, rep):
    """Scrambled Sobol engine of one replicate of the d = 3 RQMC bulk."""
    # scipy.stats costs about a second to import; only this path needs it
    from scipy.stats import qmc

    return qmc.Sobol(d=3, scramble=True,
                     seed=derive_key(seed, "rqmc-bulk", rep))


def _ball_points(u):
    """Component-major (3, m) unit-ball points from Sobol points in [0,1)^3.

    The map (cube-root radius, uniform cosine, uniform azimuth) runs on
    _MAP_ROWS rows at a time, so its temporaries stay in a core's cache.
    """
    out = np.empty((3, u.shape[0]))
    for lo in range(0, u.shape[0], _MAP_ROWS):
        rows = slice(lo, lo + _MAP_ROWS)
        radius = u[rows, 0] ** (1.0 / 3.0)
        mu = 2.0 * u[rows, 1] - 1.0
        beta = TWO_PI * u[rows, 2]
        rs = radius * np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
        np.multiply(rs, np.cos(beta), out=out[0, rows])
        np.multiply(rs, np.sin(beta), out=out[1, rows])
        np.multiply(radius, mu, out=out[2, rows])
    return out


@functools.lru_cache(maxsize=_FIRST_ROUND_SEEDS)
def _first_round(seed):
    """Read-only first-round ball points of every replicate for one seed."""
    points = []
    for rep in range(_RQMC_REPS):
        pts = _ball_points(_sobol(seed, rep).random(_RQMC_FIRST))
        pts.flags.writeable = False
        points.append(pts)
    return tuple(points)


def _rqmc_bulk(h, spec, budget, target_fn):
    """Scrambled-Sobol mean of a ball integrand, 8 replicates, doubled rounds.

    The first round's points depend only on the spec seed and come from the
    `_first_round` cache (read-only, per seed, first round only). A later
    round builds the replicate's engine afresh, fast-forwarded past the
    first round, and keeps it for the rest of the call; engines are never
    shared between calls. Each round's points are drawn and summed whole,
    so results match drawing every round from one engine. target_fn maps the
    current bulk estimate to the absolute sigma target; returns (estimate,
    sigma, evals, converged).
    """
    first = _first_round(int(spec.seed))
    engines = {}

    def sample(rep, rnd, m):
        if rnd == 0:
            return np.sum(h(first[rep].T))
        if rep not in engines:
            engines[rep] = _sobol(spec.seed, rep).fast_forward(_RQMC_FIRST)
        return np.sum(h(_ball_points(engines[rep].random(m)).T))

    return _replicated_mean(sample, _RQMC_REPS, _RQMC_FIRST, True,
                            unit_ball_volume(3), budget, target_fn)


def _energy_rqmc_3d(config, spec):
    positions = config.positions
    weights = config.weights
    supports = np.minimum(0.5, _nearest_neighbor_dists(positions))

    mass = 0.0
    mass_evals = 0
    for k in range(len(weights)):
        t = float(np.sqrt(np.dot(positions[k], positions[k])))
        m, ev = _surrogate_mass(t, float(supports[k]))
        mass += abs(float(weights[k])) * m
        mass_evals += ev

    def residual(pts):
        return _residual_3d(positions, weights, supports, pts)

    def target(bulk_est):
        return max(0.75 * spec.rel_tolerance * abs(mass + bulk_est), 1e-14)

    budget = max(spec.max_evals - mass_evals, 8 * 4096)
    bulk, sigma, bulk_evals, converged = _rqmc_bulk(residual, spec, budget,
                                                    target)
    return QuadratureResult(float(mass + bulk), sigma, mass_evals + bulk_evals,
                            converged, "rqmc")


# ---------------------------------------------------------------------------
# d >= 4 (or forced): plain Monte Carlo with pole importance sampling
# ---------------------------------------------------------------------------

def _energy_mc(config, spec):
    d = config.dimension
    positions = config.positions
    weights = config.weights
    n = len(weights)
    vd = unit_ball_volume(d)
    sphere_area = d * vd
    rho_imp = 0.5

    def sample(b, round_idx, m):
        gen = substream(spec.seed, "mc", round_idx, b)
        # draw both mixture components for every sample; selection by
        # mask keeps the stream layout fixed
        pick_pole = gen.random(m) < 0.5
        gauss = gen.standard_normal((m, d))
        gauss /= np.sqrt(np.sum(gauss * gauss, axis=1))[:, None]
        r_unif = gen.random(m) ** (1.0 / d)
        x_unif = gauss * r_unif[:, None]
        idx = gen.integers(0, n, size=m)
        gauss2 = gen.standard_normal((m, d))
        gauss2 /= np.sqrt(np.sum(gauss2 * gauss2, axis=1))[:, None]
        r_pole = gen.random(m) * rho_imp
        x_pole = positions[idx] + gauss2 * r_pole[:, None]
        pts = np.where(pick_pole[:, None], x_pole, x_unif)

        inside = np.sum(pts * pts, axis=1) < 1.0
        dist = np.sqrt(np.sum(
            (pts[:, None, :] - positions[None, :, :]) ** 2, axis=2))
        ok = inside & (np.min(dist, axis=1) > 1e-13)

        density = np.zeros(m)
        density[inside] += 0.5 / vd
        near = dist < rho_imp
        radial = np.zeros_like(dist)
        radial[near] = 1.0 / (rho_imp * sphere_area
                              * dist[near] ** (d - 1))
        density += np.sum(radial, axis=1) / (2.0 * n)

        vals = np.zeros(m)
        if np.any(ok):
            vals[ok] = (_field_mag_batch(positions, weights, pts[ok], d)
                        / density[ok])
        return np.sum(vals)

    def target(est):
        return max(spec.rel_tolerance * abs(est), 1e-14)

    est, sigma, evals, converged = _replicated_mean(
        sample, 16, 4096, False, 1.0, spec.max_evals, target)
    return QuadratureResult(est, sigma, evals, converged, "mc", degraded=True)


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
    method = spec.resolved_method(config.dimension)
    config = merge_coincident(config)
    if method == "adaptive":
        return _energy_adaptive_2d(config, spec)
    if method == "rqmc":
        return _energy_rqmc_3d(config, spec)
    return _energy_mc(config, spec)


def l1_defect(z0: complex, arc, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Disc L1 distance between a pole kernel and its arc-averaged version.

        integral over the unit disc of |1/(z - z0) - mean kernel of the arc|

    z0 must be the boundary point at the arc midpoint (enforced); the value
    depends only on the arc length, which callers exploit for caching.
    """
    spec = spec or QuadratureSpec()
    a, b = float(arc[0]), float(arc[1])
    if not b > a:
        raise ValueError("arc must satisfy b > a")
    length = b - a
    if length > TWO_PI + 1e-12:
        raise ValueError("arc length cannot exceed 2*pi")
    z0 = complex(z0)
    mid = 0.5 * (a + b)
    anchor = complex(math.cos(mid), math.sin(mid))
    if abs(z0 - anchor) > 1e-9:
        raise ValueError("z0 must be the boundary point at the arc midpoint")
    z0 = anchor

    def g(z):
        return np.abs(1.0 / (z - z0) - averaged_kernel_batch(z, (a, b)))

    # keep the zone clear of the arc endpoints, where the averaged kernel has
    # its own (logarithmic, rim-bound) singularities
    endpoint_gap = math.sin(min(length, TWO_PI - 1e-9) / 4.0)
    rho = min(spec.radius_cap(), max(endpoint_gap, 1e-6))
    extra = [a, b]
    floor = max(1e-14, 0.05 * spec.rel_tolerance * length)
    poles = np.array([z0])
    return _integrate_disc(g, poles, _on_sphere(np.abs(poles)), [rho], extra,
                           spec.rel_tolerance, spec.max_evals, abs_floor=floor)


def two_pole_l1(a: complex, b: complex,
                spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Disc L1 distance between two pole kernels (cancellation integral).

        integral over the unit disc of |1/(z - a) - 1/(z - b)|

    Both poles may sit anywhere in the closed disc; their separation must be
    positive and at most 1.
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

    poles = np.array([a, b])
    signs = np.array([1.0, -1.0])

    def g(z):
        return _cauchy_abs_batch(poles, signs, z)

    radii = np.minimum(spec.radius_cap(), 0.5 * delta) * np.ones(2)
    floor = max(1e-14, 0.05 * spec.rel_tolerance * delta)
    return _integrate_disc(g, poles, _on_sphere(np.abs(poles)), radii, (),
                           spec.rel_tolerance, spec.max_evals, abs_floor=floor)
