"""Weighted point-charge configurations on the closed unit ball.

A configuration is a list of positions in B^d (d >= 2) with nonzero real
weights. Positions within 1e-12 of the unit sphere are snapped onto it exactly
(renormalized) and flagged as boundary points; positions outside the closed
ball are rejected. Instances are immutable and safe to share across threads.

The circle constructors come with `ArcPartition`: a tiling of [-pi, pi) into
half-open arcs whose lengths are proportional to the weights, one charge at
each arc midpoint. Arcs follow the input weight order starting at -pi; no
canonical reordering is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .rng import substream

__all__ = [
    "BOUNDARY_SNAP",
    "ChargeConfiguration",
    "ArcPartition",
    "uniform_circle_config",
    "weighted_arc_config",
    "fibonacci_sphere_config",
    "random_config",
    "cluster_poles",
    "merge_coincident",
    "merge_configs",
    "config_to_json_dict",
    "config_from_json_dict",
    "load_config",
    "save_config",
]

# Positions with | |x| - 1 | below this are treated as boundary charges.
BOUNDARY_SNAP = 1e-12

# Two poles closer than this are considered coincident and merged.
COINCIDENT_TOL = 1e-13


def _on_sphere(norms):
    """The one boundary rule: | |x| - 1 | <= BOUNDARY_SNAP."""
    return np.abs(np.asarray(norms) - 1.0) <= BOUNDARY_SNAP


@dataclass(frozen=True, eq=False)
class ChargeConfiguration:
    """Immutable weighted point-charge configuration in the closed unit ball.

    Attributes
    ----------
    dimension : int
        Ambient dimension d >= 2.
    positions : ndarray, shape (n, d)
        Charge locations; boundary locations are exactly unit norm.
    weights : ndarray, shape (n,)
        Nonzero finite weights (negative allowed for difference experiments).
    boundary : ndarray of bool, shape (n,)
        True where the position was snapped onto the unit sphere.
    """

    dimension: int
    positions: np.ndarray
    weights: np.ndarray
    boundary: np.ndarray

    def __init__(self, positions, weights, dimension=None):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[None, :]
        if positions.ndim != 2 or positions.shape[0] < 1:
            raise ValueError("positions must be a nonempty (n, d) array")
        n, d = positions.shape
        if dimension is None:
            dimension = d
        if int(dimension) != d:
            raise ValueError(f"dimension {dimension} does not match positions of width {d}")
        if d < 2:
            raise ValueError("dimension must be >= 2")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights == 0.0):
            raise ValueError("weights must be finite and nonzero")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")

        positions = positions.copy()
        norms = np.sqrt(np.sum(positions * positions, axis=1))
        if np.any(norms > 1.0 + BOUNDARY_SNAP):
            worst = float(norms.max())
            raise ValueError(f"position outside the closed unit ball (|x| = {worst!r})")
        on_boundary = _on_sphere(norms)
        # snap: make boundary positions exactly unit norm
        if np.any(on_boundary):
            positions[on_boundary] /= norms[on_boundary, None]

        positions.setflags(write=False)
        weights = weights.copy()
        weights.setflags(write=False)
        on_boundary.setflags(write=False)
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "boundary", on_boundary)

    @property
    def n_charges(self) -> int:
        return self.positions.shape[0]

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.weights > 0.0))

    @property
    def is_unit_weight(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    @property
    def all_boundary(self) -> bool:
        return bool(np.all(self.boundary))

    def complex_positions(self) -> np.ndarray:
        """Positions as complex numbers; d = 2 only."""
        if self.dimension != 2:
            raise ValueError("complex positions only defined for dimension 2")
        return self.positions[:, 0] + 1j * self.positions[:, 1]

    def angles(self) -> np.ndarray:
        """Angular coordinates of the charges; d = 2 only."""
        if self.dimension != 2:
            raise ValueError("angles only defined for dimension 2")
        return np.arctan2(self.positions[:, 1], self.positions[:, 0])

    def __repr__(self):
        return (
            f"ChargeConfiguration(d={self.dimension}, n={self.n_charges}, "
            f"positive={self.is_positive}, boundary={int(self.boundary.sum())}/{self.n_charges})"
        )


@dataclass(frozen=True, eq=False)
class ArcPartition:
    """Half-open arc tiling of [-pi, pi), lengths proportional to weights."""

    starts: np.ndarray     # arc left endpoints, starts[0] == -pi
    ends: np.ndarray       # arc right endpoints, ends[k] == starts[k+1]
    lengths: np.ndarray    # 2*pi*weight_k / sum(weights)
    midpoints: np.ndarray  # charge angles

    def __init__(self, starts, ends):
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.shape != ends.shape or starts.ndim != 1 or starts.size < 1:
            raise ValueError("starts/ends must be matching 1-d arrays")
        if abs(starts[0] + math.pi) > 1e-12:
            raise ValueError("first arc must start at -pi")
        if np.any(ends <= starts):
            raise ValueError("arcs must have positive length")
        if starts.size > 1 and not np.array_equal(ends[:-1], starts[1:]):
            raise ValueError("consecutive arcs must share endpoints exactly")
        if abs(ends[-1] - math.pi) > 1e-9:
            raise ValueError("arcs must tile [-pi, pi)")
        lengths = ends - starts
        mids = 0.5 * (starts + ends)
        for arr in (starts, ends, lengths, mids):
            arr.setflags(write=False)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "midpoints", mids)


def uniform_circle_config(n: int) -> ChargeConfiguration:
    """n unit charges at the n-th roots of unity (angles 2*pi*k/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ang = 2.0 * math.pi * np.arange(n) / n
    pos = np.column_stack([np.cos(ang), np.sin(ang)])
    return ChargeConfiguration(pos, np.ones(n))


def weighted_arc_config(weights) -> tuple:
    """Arc-partition configuration on the circle for positive weights.

    [-pi, pi) is tiled by consecutive arcs of length 2*pi*w_k/sum(w), in input
    order starting at -pi, and charge k sits at its arc midpoint with weight
    w_k. Returns (ChargeConfiguration, ArcPartition).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError("weights must be positive and finite")
    total = weights.sum()
    lengths = 2.0 * math.pi * weights / total
    ends_cum = -math.pi + np.cumsum(lengths)
    starts = np.concatenate([[-math.pi], ends_cum[:-1]])
    partition = ArcPartition(starts, ends_cum)
    mids = partition.midpoints
    pos = np.column_stack([np.cos(mids), np.sin(mids)])
    return ChargeConfiguration(pos, weights), partition


def fibonacci_sphere_config(n: int) -> ChargeConfiguration:
    """n unit charges on S^2 from the golden-angle/equal-area lattice.

    Latitudes are equal-area (z_i = 1 - (2i+1)/n) and azimuths advance by the
    golden angle pi*(3 - sqrt(5)), giving a quasi-uniform point set whose
    minimum pairwise distance scales like 1/sqrt(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    az = golden_angle * i
    pos = np.column_stack([r * np.cos(az), r * np.sin(az), z])
    # lattice points are constructed on the sphere; snap guards fp drift
    norms = np.sqrt(np.sum(pos * pos, axis=1))
    pos /= norms[:, None]
    return ChargeConfiguration(pos, np.ones(n))


def _sphere_points(gen, m, d):
    """m points uniform on S^{d-1}: normalized Gaussian draws from `gen`."""
    v = gen.standard_normal((m, d))
    return v / np.sqrt(np.sum(v * v, axis=1))[:, None]


def _ball_samples(gen, m, d, shrink=1.0):
    """m points uniform in B^d: `_sphere_points` directions times radii
    U^(1/d), scaled by `shrink` (exact at 1.0) to stay off the sphere."""
    u = _sphere_points(gen, m, d)
    radii = gen.random(m) ** (1.0 / d) * shrink
    return u * radii[:, None]


def random_config(n: int, d: int, seed: int, interior: bool = False) -> ChargeConfiguration:
    """n unit-weight charges placed uniformly on S^{d-1} (or in B^d).

    With ``interior=True`` positions are uniform in the open ball (radius
    factor U^(1/d)); otherwise they lie on the sphere. Deterministic in
    (n, d, seed, interior).
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    gen = substream(seed, "random_config", n, d, bool(interior))
    pos = _sphere_points(gen, n, d)
    if interior:
        radii = gen.random(n) ** (1.0 / d)
        # keep interior points strictly off the boundary snap band
        radii = np.minimum(radii, 1.0 - 1e-9)
        pos = pos * radii[:, None]
    return ChargeConfiguration(pos, np.ones(n))


def _pairwise_dists(positions):
    """(n, n) Euclidean distances between the rows of `positions`."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _cluster_labels(positions, tol):
    """Each pole's cluster under `cluster_poles`, labelled by first index."""
    linked = _pairwise_dists(positions) < tol
    labels = np.arange(linked.shape[0])
    while True:
        # every pole takes the smallest label among its links; the fixed
        # point labels each cluster with its first index
        spread = np.min(np.where(linked, labels[None, :], labels.size), axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def cluster_poles(positions, weights, tol: float):
    """Single-linkage clusters of poles: the one rule that decides merging.

    Two poles share a cluster when a chain of gaps, each below `tol`, links
    them, so the partition does not depend on the input order. Returns
    (first, summed): each cluster's first-occurrence index, ascending, and
    its summed weight.
    """
    labels = _cluster_labels(positions, tol)
    first = np.flatnonzero(labels == np.arange(labels.size))
    summed = np.bincount(labels, weights=np.asarray(weights, dtype=float))
    return first, summed[first]


def merge_coincident(config: ChargeConfiguration, tol: float = COINCIDENT_TOL) -> ChargeConfiguration:
    """Merge poles closer than `tol` by summing their weights.

    Poles merge by single linkage (`cluster_poles`): a chain of gaps below
    `tol` joins them, whatever the input order. Each merged pole sits at
    its cluster's first occurrence, in first-occurrence order. A cluster
    whose weight cancels to zero is dropped; an all-cancelling
    configuration is rejected. The optimizer merges colliding poles with
    the same routine at its own collision gap.
    """
    first, summed = cluster_poles(config.positions, config.weights, tol)
    if first.size == config.n_charges:
        return config
    keep = summed != 0.0
    if not np.any(keep):
        raise ValueError("all weights cancelled under coincident-pole merging")
    return ChargeConfiguration(config.positions[first[keep]], summed[keep],
                               config.dimension)


def merge_configs(a: ChargeConfiguration, b: ChargeConfiguration) -> ChargeConfiguration:
    """Concatenate two configurations of equal dimension (no merging)."""
    if a.dimension != b.dimension:
        raise ValueError("dimensions differ")
    return ChargeConfiguration(
        np.vstack([a.positions, b.positions]),
        np.concatenate([a.weights, b.weights]),
        a.dimension,
    )


def config_to_json_dict(config: ChargeConfiguration) -> dict:
    """Serializable form: {"dimension": d, "charges": [{"position", "weight"}]}."""
    return {
        "dimension": config.dimension,
        "charges": [
            {"position": [float(v) for v in config.positions[k]], "weight": float(config.weights[k])}
            for k in range(config.n_charges)
        ],
    }


def config_from_json_dict(data: dict) -> ChargeConfiguration:
    try:
        d = int(data["dimension"])
        charges = data["charges"]
        pos = np.array([c["position"] for c in charges], dtype=float)
        w = np.array([c["weight"] for c in charges], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed configuration object: {exc}") from exc
    if len(charges) == 0:
        raise ValueError("configuration must contain at least one charge")
    return ChargeConfiguration(pos, w, d)


def load_config(path) -> ChargeConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_json_dict(data)


def save_config(config: ChargeConfiguration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
