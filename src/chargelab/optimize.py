"""Derivative-free search for energy-minimizing charge placements.

The objective is a quadrature estimate, so one fixed integration spec (seed
included) is used for the whole run: the optimizer then sees a deterministic,
slightly biased surrogate instead of a noisy objective, and no stochastic
optimization machinery is needed at this scale.

Rotation invariance makes the raw objective flat along a d(d-1)/2 manifold;
the flat directions are removed by gauge pinning. In the plane the first
charge's angle stays at its initial value; on the 2-sphere the first charge
is fixed entirely and the second keeps its initial azimuth about the first
(it moves on the great semicircle from the first charge to its antipode).

One multistart loop serves d = 2 and d = 3; a per-dimension table gives it
the first start, the coordinate map, the local stage and the restart draw.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np
from scipy import optimize as sp_optimize

from .configurations import (ChargeConfiguration, _sphere_points,
                             cluster_poles, fibonacci_sphere_config,
                             weighted_arc_config)
from .quadrature import QuadratureSpec, chui_energy
from .rng import substream

__all__ = [
    "Iterate",
    "OptimizationTrace",
    "minimize_positions",
    "CertificateReport",
    "local_min_certificate",
]

TWO_PI = 2.0 * math.pi

# poles closer than this chord are treated as collided and merged; on the
# circle the chord 2 sin(gap/2) equals the angle gap to 4e-14 relative here
_COLLISION_GAP = 1e-6


@dataclass(frozen=True)
class Iterate:
    config: ChargeConfiguration
    energy: float
    error: float
    event: str  # "start", "improve" or "merge"; restarts are meta events


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates of one optimization run.

    Accepted energies are non-increasing up to twice the quadrature error
    (merges re-evaluate an equivalent configuration, so they may wobble
    within the error band). `best` is always the minimal-energy iterate.
    """

    iterates: list
    best: ChargeConfiguration
    best_energy: float
    best_error: float
    meta: dict

    def write_jsonl(self, path) -> None:
        """One line per iterate: {iter, angles_or_points, energy, err}."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, it in enumerate(self.iterates):
                if it.config.dimension == 2:
                    coords = [float(a) for a in it.config.angles()]
                else:
                    coords = [[float(v) for v in row] for row in it.config.positions]
                fh.write(json.dumps({
                    "iter": i,
                    "angles_or_points": coords,
                    "energy": it.energy,
                    "err": it.error,
                }) + "\n")


class _BudgetExhausted(Exception):
    pass


class _Run:
    """Shared state of one minimize_positions call: budget, trace, best.

    `iterates` keeps the accepted chain (start, improvements, in-band
    merges) so recorded energies are non-increasing up to error; restarts
    and merges are additionally logged under meta events.
    """

    def __init__(self, spec, budget):
        self.spec = spec
        self.budget = budget
        self.evals = 0
        self.iterates = []
        self.events = []
        self.best = None
        self.best_energy = math.inf
        self.best_error = math.inf

    def energy(self, config):
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1
        res = chui_energy(config, self.spec)
        if res.value < self.best_energy:
            self.best = config
            self.best_energy = res.value
            self.best_error = res.error
            if self.iterates:
                self.iterates.append(Iterate(config, res.value, res.error, "improve"))
        return res


def _angles_to_config(angles, weights) -> ChargeConfiguration:
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    return ChargeConfiguration(pos, weights)


def _nm_stage(run, angles, weights, _start_energy):
    """One Nelder-Mead descent over angles[1:], first angle pinned."""
    pinned = angles[0]

    def objective(free):
        config = _angles_to_config(np.concatenate([[pinned], free]), weights)
        return run.energy(config).value

    res = sp_optimize.minimize(
        objective, angles[1:], method="Nelder-Mead",
        options={"maxfev": run.budget - run.evals, "xatol": 1e-6,
                 "fatol": 1e-12, "adaptive": len(angles) > 5})
    if res.status != 0:
        # stopped on maxfev, not on the simplex tolerances
        raise _BudgetExhausted
    return np.concatenate([[pinned], np.atleast_1d(res.x)])


def _pole_frame(p0):
    """Householder reflection H (symmetric, its own inverse), H p0 = e_z."""
    v = p0 - np.array([0.0, 0.0, 1.0])
    vv = np.dot(v, v)
    if vv == 0.0:
        return np.eye(3)
    return np.eye(3) - (2.0 / vv) * np.outer(v, v)


def _pack_sphere(positions, frame):
    """Spherical coordinates of points 1..n-1 in `frame`, which puts point 0
    at the pole; the azimuth of point 1 (about point 0) is omitted."""
    q = positions @ frame
    polar = np.arccos(np.clip(q[:, 2], -1.0, 1.0))
    azim = np.arctan2(q[:, 1], q[:, 0])
    pairs = np.column_stack([polar, azim])[1:].ravel()
    return np.delete(pairs, 1), azim[1]


def _unpack_sphere(v, frame, azim1):
    """Points from `v`, point 0 at the pole of `frame`, point 1 at azim1."""
    pairs = np.concatenate([[0.0, 0.0], v[:1], [azim1], v[1:]])
    polar, azim = pairs.reshape(-1, 2).T.copy()
    # projection: reflect polar back into [0, pi], wrap azimuth
    polar = np.abs(np.remainder(polar, TWO_PI))
    flip = polar > math.pi
    polar[flip] = TWO_PI - polar[flip]
    s = np.sin(polar)
    q = np.column_stack([s * np.cos(azim), s * np.sin(azim), np.cos(polar)])
    return q @ frame


def _pattern_stage(run, positions, weights, best):
    """Coordinate-wise pattern search in spherical coordinates about point 0.

    Point 1 keeps its azimuth about point 0, so it moves on the great
    semicircle from point 0 through its start to the antipode of point 0.
    """
    frame = _pole_frame(positions[0])
    v, azim1 = _pack_sphere(positions, frame)

    step = 0.4
    while step >= 1e-4:
        improved = False
        for i in range(len(v)):
            for s in (step, -step):
                trial = v.copy()
                trial[i] += s
                val = run.energy(ChargeConfiguration(
                    _unpack_sphere(trial, frame, azim1), weights)).value
                if val < best:
                    best, v = val, trial
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return _unpack_sphere(v, frame, azim1)


# per dimension: the method name, the first start's coordinates (angles or
# unit vectors), coordinates -> configuration, the local stage, the restart
# draw, the restart count, and the stage floor and evals per free coordinate
_SEARCHES = {
    2: ("nelder-mead-angles", lambda w: weighted_arc_config(w)[0].angles(),
        _angles_to_config, _nm_stage,
        lambda gen, n: np.sort(gen.uniform(-math.pi, math.pi, n)), 3, 60, 25),
    3: ("projected-pattern-search",
        lambda w: fibonacci_sphere_config(len(w)).positions,
        ChargeConfiguration, _pattern_stage,
        lambda gen, n: _sphere_points(gen, n, 3), 2, 80, 30),
}


def minimize_positions(weights, d: int, seed: int = 0, budget: int = 1000,
                       spec: QuadratureSpec | None = None) -> OptimizationTrace:
    """Search for charge positions minimizing the energy at fixed weights.

    Multistart local search: the arc-midpoint placement (d = 2) or the
    golden-angle lattice (d = 3) seeds the first descent, then seeded random
    restarts run while the evaluation budget (count of energy evaluations)
    comfortably allows; meta["method"] names the local stage. Colliding poles
    are merged (weights add; the energy extends continuously) and the search
    continues on the reduced configuration with a recorded "merge" event.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1 or np.any(weights <= 0):
        raise ValueError("weights must be a nonempty positive sequence")
    if budget < 100:
        raise ValueError("budget must allow at least 100 energy evaluations")
    if d not in _SEARCHES:
        raise ValueError("position optimization supports d in {2, 3}")
    (method, start, to_config, stage, draw,
     n_restarts, floor, per_free) = _SEARCHES[d]
    spec = spec or QuadratureSpec(rel_tolerance=1e-3, seed=seed)
    run = _Run(spec, budget)
    gen = substream(seed, "optimize-starts", d)
    n = len(weights)
    n_restarts = n_restarts if n > 1 else 0
    # a restart is queued only while a whole stage fits; gauge pinning
    # leaves (d-1) n - d(d-1)/2 free coordinates
    min_stage = max(floor, per_free * ((d - 1) * n - d * (d - 1) // 2))
    starts = [(start(weights), weights)]

    stop = "converged"
    try:
        while starts:
            x, w = starts.pop(0)
            config = to_config(x, w)
            res = run.energy(config)
            if run.iterates:
                run.events.append({"type": "restart", "eval": run.evals})
            else:
                run.iterates.append(Iterate(config, res.value, res.error, "start"))
            # evaluates the start a second time: dropping this duplicate
            # changes every trace and evaluation count (see ROADMAP)
            start_energy = run.energy(config).value
            if len(w) > 1:
                x = stage(run, x, w, start_energy)
            first, merged_w = cluster_poles(to_config(x, w).positions, w,
                                            _COLLISION_GAP)
            if first.size < len(w):
                x, w = x[first], merged_w
                config = to_config(x, w)
                res = run.energy(config)
                run.events.append({"type": "merge", "eval": run.evals,
                                   "n_charges": len(w)})
                last = run.iterates[-1]
                if res.value <= last.energy + 2.0 * (last.error + res.error):
                    run.iterates.append(Iterate(config, res.value, res.error, "merge"))
                starts.insert(0, (x, w))
            elif n_restarts > 0 and run.budget - run.evals >= min_stage:
                n_restarts -= 1
                starts.append((draw(gen, n), weights))
    except _BudgetExhausted:
        stop = "budget"

    return OptimizationTrace(
        iterates=run.iterates, best=run.best, best_energy=run.best_energy,
        best_error=run.best_error,
        meta={"method": method, "seed": seed, "evaluations": run.evals,
              "stop_reason": stop, "events": run.events})


# ---------------------------------------------------------------------------
# finite-difference local-minimality certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    """Finite-difference test of local minimality.

    gradients / second_diffs run over per-charge tangent directions (d-1 per
    charge, geodesic steps of h radians). Verdict "consistent": gradient
    within its error bar of zero and smallest second difference positive
    beyond its bar. "not_minimal": a difference significantly (3x) violates
    minimality. Otherwise "inconclusive" (quadrature error dominates).
    """

    h: float
    gradients: np.ndarray
    second_diffs: np.ndarray
    max_gradient: float
    gradient_error: float
    min_second_diff: float
    second_diff_error: float
    verdict: str


def _tangent_frame(x):
    """d-1 orthonormal tangent vectors at unit vector x."""
    d = len(x)
    e = np.eye(d)[np.argmin(np.abs(x))]
    u = e - np.dot(e, x) * x
    u /= np.linalg.norm(u)
    if d == 2:
        return [u]
    v = np.cross(x, u)
    return [u, v]


def local_min_certificate(config: ChargeConfiguration, h: float = 0.02,
                          spec: QuadratureSpec | None = None) -> CertificateReport:
    """Central-difference gradient and diagonal curvature at `config`.

    Each charge is moved along great circles through its position (the d-1
    tangent directions), a geodesic step of +-h radians, and the energy is
    re-evaluated. Quadrature errors propagate into the reported bars.
    """
    if not (1e-3 <= h <= 1e-1):
        raise ValueError("step h must lie within [1e-3, 1e-1] radians")
    if not config.is_positive:
        raise ValueError("certificate requires positive weights")
    if not config.all_boundary:
        raise ValueError("certificate moves charges along the sphere")
    spec = spec or QuadratureSpec(rel_tolerance=1e-5)

    base = chui_energy(config, spec)
    grads, seconds = [], []
    g_err = s_err = 0.0
    for k in range(config.n_charges):
        x = config.positions[k]
        for t in _tangent_frame(x):
            plus = config.positions.copy()
            minus = config.positions.copy()
            plus[k] = x * math.cos(h) + t * math.sin(h)
            minus[k] = x * math.cos(h) - t * math.sin(h)
            ep = chui_energy(ChargeConfiguration(plus, config.weights), spec)
            em = chui_energy(ChargeConfiguration(minus, config.weights), spec)
            grads.append((ep.value - em.value) / (2.0 * h))
            seconds.append((ep.value - 2.0 * base.value + em.value) / (h * h))
            g_err = max(g_err, (ep.error + em.error) / (2.0 * h))
            s_err = max(s_err, (ep.error + 2.0 * base.error + em.error) / (h * h))

    grads = np.array(grads)
    seconds = np.array(seconds)
    max_g = float(np.max(np.abs(grads)))
    min_s = float(np.min(seconds))
    if max_g > 3.0 * g_err or min_s < -3.0 * s_err:
        verdict = "not_minimal"
    elif max_g <= g_err and min_s > s_err:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return CertificateReport(h=h, gradients=grads, second_diffs=seconds,
                             max_gradient=max_g, gradient_error=g_err,
                             min_second_diff=min_s, second_diff_error=s_err,
                             verdict=verdict)
