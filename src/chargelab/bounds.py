"""Lower/upper bound certificates and proof-geometry property checks.

Everything here compares a computed energy against closed-form bound
expressions, or evaluates the pointwise inequalities the bound derivations
rest on. Bound verdicts use a 3-sigma-style rule: an inequality is reported
"violated" only when it fails by more than three times the combined
numerical error, "holds" only when it clears the same margin, and
"inconclusive" when the error bars straddle the line.

Implemented certificate constant
--------------------------------

The weighted lower bound has the shape

    energy >= c_d * sum_k a_k^(1+2/d) / sum_k a_k^(2/d).

The implemented c_d is v_d / 2^(d+5) (v_d = unit-ball volume), which is what
the localizing argument yields: each charge is assigned a ball of radius

    r_k = a_k^(2/d) / (2^(d+2) G),  G = sum_j a_j^(2/d),

tangent internally to the sphere at the charge. On that ball the charge's
own inward field term is at least 2^(d-1) G a_k^(1-2/d) |x_k - x|^(2-d),
and with |x_k - x|^(2-d) evaluated at the ball radius r_k, integrating over
the ball volume v_d r_k^d and summing gives

    sum_k v_d r_k^d * 2^(d-1) G a_k^(1-2/d) * r_k^(2-d)
      = v_d 2^(d-1) / 2^(2d+4) * sum_k a_k^(1+2/d) / G
      = (v_d / 2^(d+5)) * ratio.

For d >= 3 the chain proves only the diameter form v_d / 2^(2d+3), which
is equal at d = 2 (pi/128).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import json
import math

import numpy as np

from .configurations import (ArcPartition, ChargeConfiguration, _ball_samples,
                             _sphere_points)
# l1_defect is unused here; perfbench's tracer patches it by this name
from .quadrature import (  # noqa: F401
    QuadratureResult, QuadratureSpec, _defect_sum, chui_energy, l1_defect,
    unit_ball_volume)
from .rng import substream

__all__ = [
    "NEWMAN_CONSTANT",
    "proof_constant",
    "WeightStats",
    "ProofGeometry",
    "lower_bound_rhs",
    "poisson_gap",
    "tangent_ball_gap",
    "tangent_ball_ratio_margin",
    "DominanceReport",
    "dominance_check",
    "interior_pole_bound",
    "reduction_budget",
    "BoundReport",
    "make_bound_report",
    "run_lemma_suites",
]

TWO_PI = 2.0 * math.pi

# absolute lower bound for unit charges on the circle
NEWMAN_CONSTANT = math.pi / 18.0

# slack for closed-ball membership decisions on sampled points
_MEMBERSHIP_TOL = 1e-12

# rounding slack of the pass rule: a proof-inequality margin fails only
# beyond it
_MARGIN_TOL = 1e-12

# the dominance suite draws configurations of 1 to this many charges
_DOMINANCE_N_MAX = 8


def proof_constant(d: int) -> float:
    """Dimensional constant of the weighted lower-bound certificate: the
    radius-form value v_d / 2^(d+5) (see the module docstring)."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return unit_ball_volume(d) / 2.0 ** (d + 5)


@dataclass(frozen=True)
class WeightStats:
    """Weight aggregates used across the bounds.

    ratio_lower multiplies the lower-bound constant; ratio_upper = B/A is
    the weighted-arc upper-bound scale. For equal weights both equal the
    common weight.
    """

    A: float
    B: float
    G: float
    ratio_lower: float
    ratio_upper: float

    @classmethod
    def from_weights(cls, weights, dimension: int) -> "WeightStats":
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weight statistics require positive weights")
        A = float(np.sum(w))
        B = float(np.sum(w * w))
        G = float(_tangent_radii(w, dimension)[1])
        ratio_lower = float(np.sum(w ** (1.0 + 2.0 / dimension))) / G
        return cls(A=A, B=B, G=G, ratio_lower=ratio_lower, ratio_upper=B / A)


def _tangent_radii(weights, d: int):
    """Tangent radii r_k = a_k^(2/d) / (2^(d+2) G) and G = sum_k a_k^(2/d).

    Batched over leading axes; the charges run along the last one.
    """
    powers = weights ** (2.0 / d)
    G = np.sum(powers, axis=-1)
    return powers / (2.0 ** (d + 2) * G[..., None]), G


def _dot(x, y):
    """<x, y> over the last axis, added component by component in index
    order: the bits of np.sum(x * y, axis=-1), without numpy's slow
    reduction over a short axis."""
    return sum((x[..., c] * y[..., c] for c in range(1, x.shape[-1])),
               x[..., 0] * y[..., 0])


def _tangent_form(x, y, r):
    """|x|^2 - 2(1-r)<x, y> + 1 - 2r for the radius-r ball tangent at unit y.

    Negative iff x lies strictly inside the ball (exact rewrite of
    |x - (1-r) y| < r when |y| = 1). Broadcasts over leading axes.
    """
    return _dot(x, x) - 2.0 * (1.0 - r) * _dot(x, y) + 1.0 - 2.0 * r


class ProofGeometry:
    """Tangent-ball system of the lower-bound proof.

    Ball k has radius r_k = a_k^(2/d)/(2^(d+2) G) and sits tangent to the
    sphere from inside at charge k; radii never exceed 2^-(d+2). Radii and
    membership come from the kernels `_tangent_radii` and `_tangent_form`
    that the lemma suites share.
    """

    def __init__(self, config: ChargeConfiguration):
        if not config.is_positive:
            raise ValueError("tangent-ball geometry requires positive weights")
        if not config.all_boundary:
            raise ValueError("tangent-ball geometry requires boundary charges")
        self.dimension = config.dimension
        self.positions = config.positions
        self.weights = config.weights
        self.radii, self.G = _tangent_radii(config.weights, config.dimension)
        self.centers = (1.0 - self.radii)[:, None] * config.positions

    def membership_form(self, x) -> np.ndarray:
        """Quadratic form |x|^2 - 2(1-r_k)<x, y_k> + 1 - 2 r_k per ball.

        Negative iff x lies strictly inside ball k.
        """
        return _tangent_form(np.asarray(x, dtype=float), self.positions,
                             self.radii)

    def contains(self, x) -> np.ndarray:
        return self.membership_form(x) < _MEMBERSHIP_TOL


def lower_bound_rhs(weights, dimension: int, constant: float) -> float:
    """constant * sum a^(1+2/d) / sum a^(2/d), the generic lower-bound shape."""
    if constant <= 0:
        raise ValueError("constant must be positive")
    stats = WeightStats.from_weights(weights, dimension)
    return constant * stats.ratio_lower


# ---------------------------------------------------------------------------
# pointwise proof inequalities (vectorized; scalar in -> scalar out)
# ---------------------------------------------------------------------------

def _pair_arrays(y, x, d):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if y.shape[1] != d or x.shape[1] != d or y.shape[0] != x.shape[0]:
        raise ValueError("y and x must be matching batches of d-vectors")
    if np.any(np.abs(_dot(y, y) - 1.0) > 1e-9):
        raise ValueError("y must lie on the unit sphere")
    return y, x


def poisson_gap(y, x, d: int):
    """<(y-x)/|y-x|^d, x> + |y-x|^(2-d)/2, nonnegative for x in the ball.

    The inner-product term can dip to -1/2 times the kernel scale but never
    beats the added half kernel; equality is approached as x -> -y radially.
    """
    scalar = np.asarray(x).ndim == 1
    y, x = _pair_arrays(y, x, d)
    if np.any(_dot(x, x) >= 1.0):
        raise ValueError("x must lie strictly inside the unit ball")
    diff = y - x
    dist = np.sqrt(_dot(diff, diff))
    if np.any(dist < 1e-13):
        raise ValueError("x coincides with y")
    inner = _dot(diff, x)
    gap = inner / dist ** d + 0.5 * dist ** (2.0 - d)
    return float(gap[0]) if scalar else gap


def tangent_ball_gap(y, r, x, d: int):
    """poisson_gap minus the sharpened in-ball term (1-r)/(2r) |y-x|^(2-d).

    Nonnegative whenever x lies in the radius-r ball tangent at y; the
    deepest axis point x = (1-2r) y gives exactly zero.
    """
    scalar = np.asarray(x).ndim == 1
    y, x = _pair_arrays(y, x, d)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any((r <= 0) | (r >= 0.5)):
        raise ValueError("tangent radius must lie in (0, 1/2)")
    if np.any(_tangent_form(x, y, r) > _MEMBERSHIP_TOL):
        raise ValueError("x must lie in the tangent ball")
    diff = y - x
    dist = np.sqrt(_dot(diff, diff))
    inner = _dot(diff, x)
    kernel = dist ** (2.0 - d)
    gap = inner / dist ** d + 0.5 * kernel - (1.0 - r) / (2.0 * r) * kernel
    return float(gap[0]) if scalar else gap


def tangent_ball_ratio_margin(y1, r1, y2, r2, x, d: int):
    """|x-y1|/|x-y2| - sqrt((r1/r2)(1-r2)/(1-r1)), nonpositive when x is in
    ball 1 but not in ball 2 (balls tangent at y1, y2)."""
    scalar = np.asarray(x).ndim == 1
    y1, x = _pair_arrays(y1, x, d)
    y2, _ = _pair_arrays(y2, x, d)
    r1 = np.atleast_1d(np.asarray(r1, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2, dtype=float))
    if np.any((r1 <= 0) | (r1 >= 0.5) | (r2 <= 0) | (r2 >= 0.5)):
        raise ValueError("tangent radii must lie in (0, 1/2)")
    if np.any(_tangent_form(x, y1, r1) > _MEMBERSHIP_TOL):
        raise ValueError("x must lie in the first ball")
    if np.any(_tangent_form(x, y2, r2) < -_MEMBERSHIP_TOL):
        raise ValueError("x must lie outside the second ball")
    diff1, diff2 = x - y1, x - y2
    d1 = np.sqrt(_dot(diff1, diff1))
    d2 = np.sqrt(_dot(diff2, diff2))
    bound = np.sqrt((r1 / r2) * (1.0 - r2) / (1.0 - r1))
    margin = d1 / d2 - bound
    return float(margin[0]) if scalar else margin


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the selected-charge dominance inequality at one point."""

    selected: int
    min_margin: float
    sum_margin: float
    holds: bool


def _dominance_margins(positions, weights, radii, G, x, member, d: int):
    """Selection-and-margin kernel of the dominance inequality.

    Batched over leading axes, charges along the last one. Among the member
    balls, selects the charge k minimizing |x_k - x|^2 / r_k (lowest index
    on ties). Returns k, the smallest relative margin of the selected-charge
    inequality over j, and the relative margin of the summed comparison.
    """
    diff = positions - x[..., None, :]
    dist2 = _dot(diff, diff)
    k = np.argmin(np.where(member, dist2 / radii, np.inf), axis=-1)
    expo = 1.0 - 2.0 / d
    dist_pow = dist2 ** (0.5 * (d - 2))
    rhs = weights ** expo / dist_pow
    lhs = 2.0 ** d * np.take_along_axis(rhs, k[..., None], axis=-1)
    min_margin = np.min((lhs - rhs) / np.abs(rhs), axis=-1)
    sum_lhs = np.sum(2.0 ** (d - 1) * G[..., None] * weights ** expo
                     / dist_pow * member, axis=-1)
    sum_rhs = np.sum(weights / (2.0 * dist_pow), axis=-1)
    return k, min_margin, (sum_lhs - sum_rhs) / np.abs(sum_rhs)


def dominance_check(config: ChargeConfiguration, x) -> DominanceReport:
    """Check the key pointwise inequality of the lower-bound proof.

    At a point x of the tangent-ball union, select the member ball whose
    charge minimizes |x_k - x|^2 / r_k (lowest index on ties). The claim:

        2^d a_k^(1-2/d) / |x_k - x|^(d-2)  >=  a_j^(1-2/d) / |x_j - x|^(d-2)

    for every j, which implies the summed comparison that drives the bound.
    Margins are reported relative to the right-hand side's scale. This is
    the one-point case of the batched kernel `_dominance_margins` that
    `run_dominance_suite` runs.
    """
    geo = ProofGeometry(config)
    x = np.asarray(x, dtype=float)
    member = geo.contains(x)
    if not np.any(member):
        raise ValueError("x must lie in the union of tangent balls")
    k, min_margin, sum_margin = _dominance_margins(
        geo.positions, geo.weights, geo.radii, geo.G, x, member, geo.dimension)
    min_margin, sum_margin = float(min_margin), float(sum_margin)
    holds = min_margin >= -_MARGIN_TOL and sum_margin >= -_MARGIN_TOL
    return DominanceReport(selected=int(k), min_margin=min_margin,
                           sum_margin=sum_margin, holds=holds)


def interior_pole_bound(config: ChargeConfiguration):
    """2 pi sum (1 - |z_k|): planar lower bound for unit charges.

    Returns None when some weight differs from 1 (the inequality is only
    established for unit charges, so it is reported not-applicable).
    """
    if config.dimension != 2:
        raise ValueError("interior pole bound is planar only")
    if not config.is_unit_weight:
        return None
    norms = np.sqrt(np.sum(config.positions ** 2, axis=1))
    return float(TWO_PI * np.sum(1.0 - norms))


# ---------------------------------------------------------------------------
# weighted-arc reduction budget
# ---------------------------------------------------------------------------

def reduction_budget(config: ChargeConfiguration, partition: ArcPartition,
                     spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Evaluate the arc-construction upper budget for a weighted-arc config.

    The defect integral depends on the arc only through its length (the
    whole picture is rotation-equivariant), so each distinct length enters
    once, on a centered arc, weighted by (A/2pi) * l * (its count). Lengths
    are told apart by their weight fraction 2 pi w / A: the partition's
    cumulative sums can split equal arcs by an ulp. The weighted defects
    are one integral: its error meets the spec's relative tolerance and
    `spec.max_evals` bounds the whole budget, so a budget whose initial
    cells alone exceed it raises ValueError. Returns that integral's
    QuadratureResult (method "adaptive"), the budget
    (A/2pi) * sum_k l_k * defect(l_k) with its error.
    """
    spec = spec or QuadratureSpec()
    if config.dimension != 2:
        raise ValueError("reduction budget requires a planar configuration")
    stats = WeightStats.from_weights(config.weights, 2)
    lengths = partition.lengths
    expected = TWO_PI * config.weights / stats.A
    if len(lengths) != config.n_charges or np.any(
            np.abs(lengths - expected) > 1e-9 * np.maximum(expected, 1e-30)):
        raise ValueError("partition does not match the configuration weights")
    mids = partition.midpoints
    angles = config.angles()
    if np.any(np.abs(np.angle(np.exp(1j * (mids - angles)))) > 1e-9):
        raise ValueError("charges must sit at the arc midpoints")

    _, first, counts = np.unique(expected, return_index=True,
                                 return_counts=True)
    return _defect_sum(lengths[first],
                       stats.A / TWO_PI * lengths[first] * counts, spec)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def _verdict(margin: float, err: float) -> str:
    if margin < -3.0 * err:
        return "violated"
    if margin > 3.0 * err:
        return "holds"
    return "inconclusive"


@dataclass(frozen=True)
class BoundReport:
    """Energy plus every applicable bound, with per-bound verdicts.

    `bounds` and `verdicts` share their keys, the JSON names of the bounds:
    `lower_theorem11` always; `lower_newman`, `upper_budget` and
    `lemma41_lhs` when they apply. `budget` is the reduction budget behind
    `upper_budget`, or None.
    """

    energy: QuadratureResult
    stats: WeightStats
    bounds: dict
    verdicts: dict
    budget: QuadratureResult | None

    @property
    def converged(self) -> bool:
        """True when the energy and the reduction budget met tolerance."""
        return self.energy.converged and (self.budget is None
                                          or self.budget.converged)

    def to_json_dict(self) -> dict:
        return {"energy": self.energy.value, "err": self.energy.error,
                **asdict(self.stats), **self.bounds,
                "verdicts": dict(self.verdicts)}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def make_bound_report(config: ChargeConfiguration,
                      spec: QuadratureSpec | None = None,
                      partition: ArcPartition | None = None) -> BoundReport:
    """Energy, all applicable bounds, and 3-sigma verdicts for one config."""
    spec = spec or QuadratureSpec()
    if not config.is_positive:
        raise ValueError("bound reports require positive weights")
    energy = chui_energy(config, spec)
    d = config.dimension
    stats = WeightStats.from_weights(config.weights, d)
    bounds = {"lower_theorem11": proof_constant(d) * stats.ratio_lower}
    if d == 2 and config.is_unit_weight and config.all_boundary:
        bounds["lower_newman"] = NEWMAN_CONSTANT
    if d == 2 and (interior := interior_pole_bound(config)) is not None:
        bounds["lemma41_lhs"] = interior
    verdicts = {name: _verdict(energy.value - value, energy.error)
                for name, value in bounds.items()}

    budget = None
    if partition is not None:
        budget = reduction_budget(config, partition, spec)
        bounds["upper_budget"] = budget.value
        # an unconverged budget's error figure does not bound its error
        verdicts["upper_budget"] = (_verdict(budget.value - energy.value,
                                             energy.error + budget.error)
                                    if budget.converged else "inconclusive")

    return BoundReport(energy=energy, stats=stats, bounds=bounds,
                       verdicts=verdicts, budget=budget)


# ---------------------------------------------------------------------------
# randomized property suites (vectorized)
# ---------------------------------------------------------------------------

def run_poisson_suite(trials: int, d: int, seed: int) -> float:
    """Min observed poisson_gap over random (sphere point, ball point) pairs."""
    gen = substream(seed, "suite-poisson", d)
    y = _sphere_points(gen, trials, d)
    x = _ball_samples(gen, trials, d, shrink=1.0 - 1e-9)
    return float(np.min(poisson_gap(y, x, d)))


def run_tangent_suite(trials: int, d: int, seed: int) -> float:
    """Min observed tangent_ball_gap over random in-ball samples."""
    gen = substream(seed, "suite-tangent", d)
    y = _sphere_points(gen, trials, d)
    r = gen.uniform(0.005, 0.499, trials)
    offs = _ball_samples(gen, trials, d, shrink=1.0 - 1e-12)
    x = (1.0 - r)[:, None] * y + r[:, None] * offs
    return float(np.min(tangent_ball_gap(y, r, x, d)))


def run_ratio_suite(trials: int, d: int, seed: int) -> float:
    """Max observed tangent_ball_ratio_margin over admissible tuples.

    Tuples are rejection-sampled: x drawn in ball 1, kept when outside
    ball 2; draws loop until `trials` admissible tuples accumulate.
    """
    gen = substream(seed, "suite-ratio", d)
    worst = -np.inf
    got = 0
    while got < trials:
        m = trials
        y1 = _sphere_points(gen, m, d)
        y2 = _sphere_points(gen, m, d)
        r1 = gen.uniform(0.005, 0.49, m)
        r2 = gen.uniform(0.005, 0.49, m)
        offs = _ball_samples(gen, m, d, shrink=1.0 - 1e-12)
        x = (1.0 - r1)[:, None] * y1 + r1[:, None] * offs
        keep = _tangent_form(x, y2, r2) >= -_MEMBERSHIP_TOL
        if np.any(keep):
            vals = tangent_ball_ratio_margin(
                y1[keep], r1[keep], y2[keep], r2[keep], x[keep], d)
            worst = max(worst, float(np.max(vals)))
            got += int(np.sum(keep))
    return worst


def run_dominance_suite(trials: int, d: int, seed: int) -> tuple[int, float]:
    """(failure count, min margin) of dominance_check over random setups.

    Batched by charge count: for each n up to _DOMINANCE_N_MAX, draws random
    boundary configurations with log-uniform weights and a sample point
    inside a designated tangent ball, then verifies the selected-charge
    inequality and the summed comparison it implies.
    """
    per_n = -(-trials // _DOMINANCE_N_MAX)  # ceil
    failures = 0
    worst = np.inf
    for n in range(1, _DOMINANCE_N_MAX + 1):
        gen = substream(seed, "suite-dominance", d, n)
        pos = _sphere_points(gen, per_n * n, d).reshape(per_n, n, d)
        w = np.exp(gen.uniform(np.log(0.1), np.log(10.0), (per_n, n)))
        radii, G = _tangent_radii(w, d)
        centers = (1.0 - radii)[:, :, None] * pos
        target = gen.integers(0, n, per_n)
        rows = np.arange(per_n)
        offs = _ball_samples(gen, per_n, d, shrink=1.0 - 1e-9)
        x = (centers[rows, target]
             + radii[rows, target][:, None] * offs)

        member = _tangent_form(x[:, None, :], pos, radii) < _MEMBERSHIP_TOL
        member[rows, target] = True  # sampled strictly inside; guard fp edge
        _, margins, sum_margins = _dominance_margins(pos, w, radii, G, x,
                                                     member, d)
        bad = (margins < -_MARGIN_TOL) | (sum_margins < -_MARGIN_TOL)
        failures += int(np.sum(bad))
        worst = min(worst, float(np.min(margins)), float(np.min(sum_margins)))
    return failures, worst


def run_lemma_suites(trials: int = 100_000, seed: int = 0,
                     dims=(2, 3)) -> dict:
    """All four property suites per dimension, keyed "d2", "d3", ...

    Each entry holds the suites' extreme values, the dominance failure
    count and `pass`: no gap below -_MARGIN_TOL, no ratio margin above
    _MARGIN_TOL and no dominance failure. Used by the CLI and the
    acceptance tests.
    """
    out = {}
    for d in dims:
        entry = {"poisson_min_gap": run_poisson_suite(trials, d, seed),
                 "tangent_min_gap": run_tangent_suite(trials, d, seed),
                 "ratio_max_margin": run_ratio_suite(trials, d, seed)}
        entry["dominance_failures"], entry["dominance_min_margin"] = (
            run_dominance_suite(trials, d, seed))
        entry["pass"] = (entry["poisson_min_gap"] >= -_MARGIN_TOL
                         and entry["tangent_min_gap"] >= -_MARGIN_TOL
                         and entry["ratio_max_margin"] <= _MARGIN_TOL
                         and entry["dominance_failures"] == 0)
        out[f"d{d}"] = entry
    return out
