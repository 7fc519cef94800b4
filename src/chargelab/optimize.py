"""Derivative-free search for energy-minimizing charge placements.

The objective is a quadrature estimate, so one fixed integration spec (seed
included) is used for the whole run: the optimizer then sees a deterministic,
slightly biased surrogate instead of a noisy objective, and no stochastic
optimization machinery is needed at this scale.

Rotation invariance makes the raw objective flat along a d(d-1)/2 manifold;
the flat directions are removed by gauge pinning. In the plane the first
charge's angle stays at its initial value; on the 2-sphere the first charge
is fixed entirely and the second keeps its initial azimuth.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np
from scipy import optimize as sp_optimize

from .configurations import (ChargeConfiguration, cluster_poles,
                             fibonacci_sphere_config, weighted_arc_config)
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

_METHODS = ("auto", "nelder-mead-angles", "projected-pattern-search")


@dataclass(frozen=True)
class Iterate:
    config: ChargeConfiguration
    energy: float
    error: float
    event: str  # "start", "improve", "merge" or "restart"


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

    def energy(self, config) -> float:
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1
        res = chui_energy(config, self.spec)
        self._last = (config, res)
        if res.value < self.best_energy:
            self.best = config
            self.best_energy = res.value
            self.best_error = res.error
            if self.iterates:
                self.iterates.append(Iterate(config, res.value, res.error, "improve"))
        return res.value

    def mark_start(self) -> None:
        config, res = self._last
        if not self.iterates:
            self.iterates.append(Iterate(config, res.value, res.error, "start"))
        else:
            self.events.append({"type": "restart", "eval": self.evals})

    def mark_merge(self) -> None:
        config, res = self._last
        self.events.append({"type": "merge", "eval": self.evals,
                            "n_charges": config.n_charges})
        last = self.iterates[-1]
        if res.value <= last.energy + 2.0 * (last.error + res.error):
            self.iterates.append(Iterate(config, res.value, res.error, "merge"))


def _angles_to_config(angles, weights) -> ChargeConfiguration:
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    return ChargeConfiguration(pos, weights)


def _nm_stage(run, angles, weights):
    """One Nelder-Mead descent over angles[1:], first angle pinned."""
    n = len(angles)
    run.energy(_angles_to_config(angles, weights))
    pinned = angles[0]

    if n == 1:
        return angles
    def objective(free):
        return run.energy(_angles_to_config(np.concatenate([[pinned], free]), weights))

    remaining = run.budget - run.evals
    if remaining <= 0:
        raise _BudgetExhausted
    res = sp_optimize.minimize(
        objective, angles[1:], method="Nelder-Mead",
        options={"maxfev": remaining, "xatol": 1e-6, "fatol": 1e-12,
                 "adaptive": n > 5})
    if res.status != 0:
        # stopped on maxfev, not on the simplex tolerances
        raise _BudgetExhausted
    return np.concatenate([[pinned], np.atleast_1d(res.x)])


def _minimize_2d(weights, seed, budget, spec) -> OptimizationTrace:
    run = _Run(spec, budget)
    gen = substream(seed, "optimize-starts", 2)
    weights = np.asarray(weights, dtype=float)
    start_cfg, _ = weighted_arc_config(weights)
    starts = [(start_cfg.angles(), weights, "start")]

    stop = "converged"
    n_restarts = 3 if len(weights) > 1 else 0
    try:
        round_idx = 0
        while starts:
            angles, w, _ = starts.pop(0)
            run.energy(_angles_to_config(angles, w))
            run.mark_start()
            angles = _nm_stage(run, angles, w)
            first, merged_w = cluster_poles(
                _angles_to_config(angles, w).positions, w, _COLLISION_GAP)
            if first.size < len(w):
                run.energy(_angles_to_config(angles[first], merged_w))
                run.mark_merge()
                starts.insert(0, (angles[first], merged_w, "restart"))
                continue
            # queue a fresh random start while budget comfortably remains
            min_stage = max(60, 25 * (len(weights) - 1))
            if (round_idx < n_restarts
                    and run.budget - run.evals >= min_stage):
                round_idx += 1
                starts.append((np.sort(gen.uniform(-math.pi, math.pi, len(weights))),
                               weights, "restart"))
    except _BudgetExhausted:
        stop = "budget"

    return _finish(run, "nelder-mead-angles", seed, stop)


def _sph_to_xyz(polar, azim):
    s = np.sin(polar)
    return np.column_stack([s * np.cos(azim), s * np.sin(azim), np.cos(polar)])


def _pack_sphere(positions):
    """Spherical coordinates of points 1..n-1; azimuth of point 1 omitted."""
    polar = np.arccos(np.clip(positions[:, 2], -1.0, 1.0))
    azim = np.arctan2(positions[:, 1], positions[:, 0])
    v = [polar[1]] if len(polar) > 1 else []
    for k in range(2, len(polar)):
        v.extend([polar[k], azim[k]])
    return np.array(v), azim[1] if len(polar) > 1 else 0.0


def _unpack_sphere(v, n, base, azim1):
    polar = np.empty(n)
    azim = np.empty(n)
    polar[0], azim[0] = base
    if n > 1:
        polar[1], azim[1] = v[0], azim1
    for k in range(2, n):
        polar[k] = v[2 * k - 3]
        azim[k] = v[2 * k - 2]
    # projection: reflect polar back into [0, pi], wrap azimuth
    polar = np.abs(np.remainder(polar, TWO_PI))
    flip = polar > math.pi
    polar[flip] = TWO_PI - polar[flip]
    return _sph_to_xyz(polar, azim)


def _pattern_stage(run, positions, weights):
    """Coordinate-wise pattern search in spherical coordinates."""
    n = len(positions)
    best = run.energy(ChargeConfiguration(positions, weights))
    if n == 1:
        return positions
    v, azim1 = _pack_sphere(positions)
    polar0 = math.acos(np.clip(positions[0, 2], -1.0, 1.0))
    azim0 = math.atan2(positions[0, 1], positions[0, 0])
    base = (polar0, azim0)

    step = 0.4
    while step >= 1e-4:
        improved = False
        for i in range(len(v)):
            for s in (step, -step):
                trial = v.copy()
                trial[i] += s
                val = run.energy(ChargeConfiguration(
                    _unpack_sphere(trial, n, base, azim1), weights))
                if val < best:
                    best, v = val, trial
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return _unpack_sphere(v, n, base, azim1)


def _minimize_3d(weights, seed, budget, spec) -> OptimizationTrace:
    run = _Run(spec, budget)
    gen = substream(seed, "optimize-starts", 3)
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    starts = [(fibonacci_sphere_config(n).positions, weights, "start")]

    stop = "converged"
    n_restarts = 2 if n > 1 else 0
    try:
        round_idx = 0
        while starts:
            pos, w, _ = starts.pop(0)
            run.energy(ChargeConfiguration(pos, w))
            run.mark_start()
            pos = _pattern_stage(run, pos, w)
            first, merged_w = cluster_poles(pos, w, _COLLISION_GAP)
            if first.size < len(w):
                run.energy(ChargeConfiguration(pos[first], merged_w))
                run.mark_merge()
                starts.insert(0, (pos[first], merged_w, "restart"))
                continue
            min_stage = max(80, 30 * (2 * n - 3 if n > 1 else 1))
            if round_idx < n_restarts and run.budget - run.evals >= min_stage:
                round_idx += 1
                raw = gen.standard_normal((n, 3))
                raw /= np.sqrt(np.sum(raw * raw, axis=1))[:, None]
                starts.append((raw, weights, "restart"))
    except _BudgetExhausted:
        stop = "budget"

    return _finish(run, "projected-pattern-search", seed, stop)


def _finish(run, method, seed, stop) -> OptimizationTrace:
    return OptimizationTrace(
        iterates=run.iterates,
        best=run.best,
        best_energy=run.best_energy,
        best_error=run.best_error,
        meta={"method": method, "seed": seed, "evaluations": run.evals,
              "stop_reason": stop, "events": run.events},
    )


def minimize_positions(weights, d: int, method: str = "auto", seed: int = 0,
                       budget: int = 1000,
                       spec: QuadratureSpec | None = None) -> OptimizationTrace:
    """Search for charge positions minimizing the energy at fixed weights.

    Multistart local search: the arc-midpoint placement seeds the first
    descent, then seeded random restarts run while the evaluation budget
    (count of energy evaluations) comfortably allows. Colliding poles are
    merged (weights add; the energy extends continuously) and the search
    continues on the reduced configuration with a recorded "merge" event.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1 or np.any(weights <= 0):
        raise ValueError("weights must be a nonempty positive sequence")
    if budget < 100:
        raise ValueError("budget must allow at least 100 energy evaluations")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if method == "nelder-mead-angles" and d != 2:
        raise ValueError("nelder-mead-angles is the planar method")
    if method == "projected-pattern-search" and d != 3:
        raise ValueError("projected-pattern-search is the spherical method")
    if d not in (2, 3):
        raise ValueError("position optimization supports d in {2, 3}")
    spec = spec or QuadratureSpec(rel_tolerance=1e-3, seed=seed)
    if d == 2:
        return _minimize_2d(weights, seed, budget, spec)
    return _minimize_3d(weights, seed, budget, spec)


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
