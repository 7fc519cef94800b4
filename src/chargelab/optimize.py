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

One multistart loop and one compass search (Kolda, Lewis & Torczon, SIAM
Review 2003) serve d = 2 and d = 3; a per-dimension table gives them the
first start, the chart (free coordinates and the map back to positions)
and the restart draw.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

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

# the local stage's step halves from 0.4 rad = 2**_HALVINGS lattice units
# down to one unit, so every polled point lies on the lattice of _UNIT
_HALVINGS = 11
_UNIT = 0.4 * 2.0 ** -_HALVINGS

# poles closer than this chord are treated as collided and merged; a search
# that pulls two poles together reaches the stage's last step (the chord
# 2 sin(g/2) of an angle gap g is below g)
_COLLISION_GAP = _UNIT


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
    `converged` is True when every energy of the run met its tolerance.
    """

    iterates: list
    best: ChargeConfiguration
    best_energy: float
    best_error: float
    meta: dict
    converged: bool

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
        self.converged = True

    def energy(self, config, event="improve"):
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1
        res = chui_energy(config, self.spec)
        self.converged = self.converged and res.converged
        if res.value < self.best_energy:
            self.best = config
            self.best_energy = res.value
            self.best_error = res.error
            self.iterates.append(Iterate(config, res.value, res.error,
                                         event if self.iterates else "start"))
        return res


def _circle_points(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _circle_chart(positions):
    """Angles of points 1..n-1 and the map back; point 0 keeps its angle."""
    angles = np.arctan2(positions[:, 1], positions[:, 0])
    return angles[1:], lambda v: _circle_points(np.concatenate([angles[:1], v]))


def _sphere_chart(positions):
    """Spherical coordinates of points 1..n-1 about point 0, and the map back.

    The azimuth of point 1 about point 0 is pinned, so point 1 moves on the
    great semicircle from point 0 through its start to its antipode.
    """
    # Householder reflection (symmetric, its own inverse) taking point 0 to e_z
    u = positions[0] - np.array([0.0, 0.0, 1.0])
    uu = np.dot(u, u)
    frame = np.eye(3) - (2.0 / uu) * np.outer(u, u) if uu else np.eye(3)
    q = positions @ frame
    polar = np.arccos(np.clip(q[:, 2], -1.0, 1.0))
    azim = np.arctan2(q[:, 1], q[:, 0])

    def unpack(v):
        pairs = np.concatenate([[0.0, 0.0], v[:1], [azim[1]], v[1:]])
        theta, phi = pairs.reshape(-1, 2).T.copy()
        # projection: reflect polar back into [0, pi], wrap azimuth
        theta = np.abs(np.remainder(theta, TWO_PI))
        flip = theta > math.pi
        theta[flip] = TWO_PI - theta[flip]
        s = np.sin(theta)
        return np.column_stack([s * np.cos(phi), s * np.sin(phi),
                                np.cos(theta)]) @ frame

    return np.delete(np.column_stack([polar, azim])[1:].ravel(), 1), unpack


def _pattern_stage(run, v0, unpack, weights, best):
    """Compass search from chart coordinates v0 (energy `best`) to positions.

    Each coordinate in turn takes the first improving poll at +-step; a sweep
    without one halves the step. Polled points are v0 + _UNIT * k for integer
    k, and no k is evaluated twice: a point already polled cannot beat best.
    """
    k = np.zeros(len(v0), dtype=np.int64)
    seen = {tuple(k)}
    step = 2 ** _HALVINGS
    while step >= 1:
        improved = False
        for i in range(len(k)):
            for s in (step, -step):
                trial = k.copy()
                trial[i] += s
                if tuple(trial) in seen:
                    continue
                seen.add(tuple(trial))
                val = run.energy(ChargeConfiguration(
                    unpack(v0 + _UNIT * trial), weights)).value
                if val < best:
                    best, k = val, trial
                    improved = True
                    break
        if not improved:
            step //= 2
    return unpack(v0 + _UNIT * k)


# per dimension: the first start, the chart and the restart draw
_SEARCHES = {
    2: (lambda w: _circle_points(weighted_arc_config(w)[0].angles()),
        _circle_chart,
        lambda gen, n: _circle_points(
            np.sort(gen.uniform(-math.pi, math.pi, n)))),
    3: (lambda w: fibonacci_sphere_config(len(w)).positions, _sphere_chart,
        lambda gen, n: _sphere_points(gen, n, 3)),
}
# random restarts, queued only while a whole stage fits: max(floor, evals
# per free coordinate * free coordinates)
_RESTARTS, _STAGE_FLOOR, _EVALS_PER_FREE = 3, 60, 25


def minimize_positions(weights, d: int, seed: int = 0, budget: int = 1000,
                       spec: QuadratureSpec | None = None) -> OptimizationTrace:
    """Search for charge positions minimizing the energy at fixed weights.

    Multistart local search: the arc-midpoint placement (d = 2) or the
    golden-angle lattice (d = 3) seeds the first descent, then seeded random
    restarts run while the evaluation budget (count of energy evaluations)
    comfortably allows; each runs the one local stage, a compass search in
    the dimension's chart. Colliding poles are merged (weights add; the energy
    extends continuously) and the search continues on the reduced
    configuration with a recorded "merge" event.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1 or np.any(weights <= 0):
        raise ValueError("weights must be a nonempty positive sequence")
    if budget < 100:
        raise ValueError("budget must allow at least 100 energy evaluations")
    if d not in _SEARCHES:
        raise ValueError("position optimization supports d in {2, 3}")
    start, chart, draw = _SEARCHES[d]
    spec = spec or QuadratureSpec(rel_tolerance=1e-3, seed=seed)
    run = _Run(spec, budget)
    gen = substream(seed, "optimize-starts", d)
    n = len(weights)
    n_restarts = _RESTARTS if n > 1 else 0
    # gauge pinning leaves (d-1) n - d(d-1)/2 free coordinates
    min_stage = max(_STAGE_FLOOR,
                    _EVALS_PER_FREE * ((d - 1) * n - d * (d - 1) // 2))
    # a merged configuration is queued with the energy its merge evaluated
    starts = [(start(weights), weights, None)]

    stop = "converged"
    try:
        while starts:
            x, w, res = starts.pop(0)
            if res is None:
                res = run.energy(ChargeConfiguration(x, w))
                if run.evals > 1:
                    run.events.append({"type": "restart", "eval": run.evals})
            if len(w) > 1:
                x = _pattern_stage(run, *chart(x), w, res.value)
            first, merged_w = cluster_poles(x, w, _COLLISION_GAP)
            if first.size < len(w):
                x, w = x[first], merged_w
                config = ChargeConfiguration(x, w)
                res = run.energy(config, "merge")
                run.events.append({"type": "merge", "eval": run.evals,
                                   "n_charges": len(w)})
                last = run.iterates[-1]
                # an improving merge is already recorded, as "merge"
                if last.config is not config and (
                        res.value <= last.energy + 2.0 * (last.error + res.error)):
                    run.iterates.append(Iterate(config, res.value, res.error, "merge"))
                starts.insert(0, (x, w, res))
            elif n_restarts > 0 and run.budget - run.evals >= min_stage:
                n_restarts -= 1
                starts.append((draw(gen, n), weights, None))
    except _BudgetExhausted:
        stop = "budget"

    return OptimizationTrace(
        iterates=run.iterates, best=run.best, best_energy=run.best_energy,
        best_error=run.best_error,
        meta={"method": "projected-pattern-search", "seed": seed,
              "evaluations": run.evals, "stop_reason": stop,
              "events": run.events},
        converged=run.converged)


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
    `converged` is True when every energy behind the differences met its
    tolerance.
    """

    h: float
    gradients: np.ndarray
    second_diffs: np.ndarray
    max_gradient: float
    gradient_error: float
    min_second_diff: float
    second_diff_error: float
    verdict: str
    converged: bool


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
    converged = base.converged
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
            converged = converged and ep.converged and em.converged
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
                             verdict=verdict, converged=converged)
