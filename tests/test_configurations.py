import itertools
import json
import math

from hypothesis import given, strategies as st
import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from chargelab import (ChargeConfiguration, config_from_json_dict,
                       config_to_json_dict, fibonacci_sphere_config,
                       load_config, merge_coincident, merge_configs,
                       random_config, save_config, uniform_circle_config,
                       weighted_arc_config)
from chargelab.configurations import COINCIDENT_TOL

TWO_PI = 2.0 * math.pi


class TestConstruction:
    def test_boundary_snap(self):
        cfg = ChargeConfiguration([[1.0 - 1e-13, 0.0]], [1.0])
        assert cfg.boundary[0]
        assert np.linalg.norm(cfg.positions[0]) == 1.0

    def test_interior_point_not_snapped(self):
        cfg = ChargeConfiguration([[0.5, 0.0]], [1.0])
        assert not cfg.boundary[0]
        assert not cfg.all_boundary

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfiguration([[1.0 + 1e-6, 0.0]], [1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfiguration([[0.5, 0.0]], [0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfiguration([[0.5, 0.0]], [math.nan])
        with pytest.raises(ValueError):
            ChargeConfiguration([[math.inf, 0.0]], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfiguration(np.empty((0, 2)), [])

    def test_dimension_must_match_positions(self):
        with pytest.raises(ValueError):
            ChargeConfiguration([[0.5, 0.0]], [1.0], dimension=3)

    def test_one_dimensional_ambient_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfiguration([[0.5]], [1.0])

    def test_negative_weights_allowed_but_flagged(self):
        cfg = ChargeConfiguration([[0.5, 0.0], [0.0, 0.5]], [1.0, -1.0])
        assert not cfg.is_positive

    def test_positions_immutable(self):
        cfg = uniform_circle_config(3)
        with pytest.raises(ValueError):
            cfg.positions[0, 0] = 0.0


class TestUniformCircle:
    def test_single(self):
        cfg = uniform_circle_config(1)
        assert np.allclose(cfg.positions, [[1.0, 0.0]])

    def test_pair(self):
        cfg = uniform_circle_config(2)
        assert np.allclose(cfg.positions, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-15)

    def test_four_angles(self):
        cfg = uniform_circle_config(4)
        ang = np.mod(cfg.angles(), TWO_PI)
        assert np.allclose(np.sort(ang), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert cfg.all_boundary and cfg.is_unit_weight

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            uniform_circle_config(0)


class TestWeightedArcs:
    def test_equal_pair(self):
        cfg, part = weighted_arc_config([1.0, 1.0])
        assert np.allclose(part.starts, [-math.pi, 0.0])
        assert np.allclose(part.ends, [0.0, math.pi])
        assert np.allclose(np.sort(cfg.angles()), [-math.pi / 2, math.pi / 2])

    def test_one_one_two(self):
        cfg, part = weighted_arc_config([1.0, 1.0, 2.0])
        assert np.allclose(part.lengths, [math.pi / 2, math.pi / 2, math.pi])
        assert np.allclose(part.midpoints,
                           [-3 * math.pi / 4, -math.pi / 4, math.pi / 2])

    def test_equal_weights_rotate_uniform(self):
        # equal arcs give uniform spacing shifted to start at -pi
        n = 6
        cfg, _ = weighted_arc_config(np.ones(n))
        expect = np.sort(np.mod(uniform_circle_config(n).angles()
                                + (-math.pi + math.pi / n), TWO_PI))
        got = np.sort(np.mod(cfg.angles(), TWO_PI))
        assert np.allclose(got, expect, atol=1e-12)

    def test_tiling_exact(self):
        cfg, part = weighted_arc_config([0.3, 1.7, 2.2, 0.01, 5.0])
        assert abs(part.lengths.sum() - TWO_PI) <= 1e-12
        assert np.array_equal(part.ends[:-1], part.starts[1:])
        assert part.starts[0] == -math.pi

    def test_permutation_gives_same_multiset(self):
        w = np.array([0.5, 2.0, 1.25, 0.75])
        _, p1 = weighted_arc_config(w)
        _, p2 = weighted_arc_config(w[::-1])
        pairs1 = sorted(zip(w, p1.lengths))
        pairs2 = sorted(zip(w[::-1], p2.lengths))
        assert np.allclose(pairs1, pairs2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            weighted_arc_config([1.0, 0.0])
        with pytest.raises(ValueError):
            weighted_arc_config([1.0, -2.0])


class TestFibonacciSphere:
    def test_single_is_unit(self):
        cfg = fibonacci_sphere_config(1)
        assert abs(np.linalg.norm(cfg.positions[0]) - 1.0) <= 1e-15

    def test_two_points_distinct_latitudes(self):
        cfg = fibonacci_sphere_config(2)
        assert cfg.positions[0, 2] != cfg.positions[1, 2]
        assert np.allclose(np.linalg.norm(cfg.positions, axis=1), 1.0)

    def test_min_pairwise_distance_n100(self):
        pos = fibonacci_sphere_config(100).positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dist[np.diag_indices(100)] = np.inf
        assert dist.min() >= 0.15


class TestRandomConfig:
    def test_deterministic(self):
        a = random_config(5, 2, seed=7)
        b = random_config(5, 2, seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_large_sample_mean_near_zero(self):
        cfg = random_config(1000, 3, seed=1)
        assert np.linalg.norm(cfg.positions.mean(axis=0)) <= 0.1

    def test_interior_flag(self):
        cfg = random_config(3, 2, seed=3, interior=True)
        assert np.all(np.linalg.norm(cfg.positions, axis=1) < 1.0)
        assert not np.any(cfg.boundary)


class TestMerging:
    def test_coincident_weights_sum(self):
        cfg = ChargeConfiguration([[0.5, 0.0], [0.5, 0.0]], [1.0, 2.5])
        merged = merge_coincident(cfg)
        assert merged.n_charges == 1
        assert merged.weights[0] == 3.5

    def test_cancelling_pair_dropped(self):
        cfg = ChargeConfiguration([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
                                  [1.0, -1.0, 2.0])
        merged = merge_coincident(cfg)
        assert merged.n_charges == 1
        assert merged.weights[0] == 2.0

    def test_all_cancel_rejected(self):
        cfg = ChargeConfiguration([[0.5, 0.0], [0.5, 0.0]], [1.0, -1.0])
        with pytest.raises(ValueError):
            merge_coincident(cfg)

    def test_distinct_poles_untouched(self):
        cfg = uniform_circle_config(4)
        assert merge_coincident(cfg) is cfg

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_chain_merges_in_any_order(self, order):
        # A-B and B-C are 0.6 tol apart, A-C 1.2 tol: single linkage joins
        # all three whichever pole comes first
        step = 0.6 * COINCIDENT_TOL * np.array([0.6, 0.0, 0.8])
        chain = np.array([0.2, 0.3, 0.1]) + np.arange(3)[:, None] * step
        merged = merge_coincident(ChargeConfiguration(chain[list(order)],
                                                      np.ones(3)))
        assert merged.n_charges == 1
        assert merged.weights[0] == 3.0

    def test_merge_configs_dimension_mismatch(self):
        with pytest.raises(ValueError):
            merge_configs(uniform_circle_config(2), fibonacci_sphere_config(2))

    def test_merge_configs_concatenates(self):
        m = merge_configs(uniform_circle_config(2), uniform_circle_config(3))
        assert m.n_charges == 5


_PROPERTY_TOL = 0.05


@st.composite
def _clouds(draw):
    """Small signed-weight clouds with near-duplicates, and a permutation.

    Near-duplicates copy an earlier point (possibly another near-duplicate,
    which builds chains) at an offset up to about the tolerance.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    coord = st.floats(-0.45, 0.45)
    pts = [draw(st.lists(coord, min_size=d, max_size=d))
           for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        src = pts[draw(st.integers(0, len(pts) - 1))]
        offset = draw(st.lists(st.floats(-0.03, 0.03), min_size=d, max_size=d))
        pts.append([a + b for a, b in zip(src, offset)])
    # half-integer weights keep every partial sum exact
    halves = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    weights = [draw(halves) for _ in pts]
    order = draw(st.permutations(range(len(pts))))
    return np.array(pts), np.array(weights), np.array(order)


def _components(positions):
    """Reference clustering: components of the below-tolerance graph."""
    diff = positions[:, None, :] - positions[None, :, :]
    linked = np.sqrt(np.sum(diff * diff, axis=2)) < _PROPERTY_TOL
    return connected_components(linked, directed=False)[1]


def _signature(positions, weights, ids):
    """merge_coincident output as sorted (member ids, weight) pairs."""
    label = _components(positions)
    merged = merge_coincident(ChargeConfiguration(positions, weights),
                              _PROPERTY_TOL)
    out = []
    for p, w in zip(merged.positions, merged.weights):
        i = np.flatnonzero(np.all(positions == p, axis=1))[0]
        out.append((tuple(sorted(ids[label == label[i]])), float(w)))
    return sorted(out), merged.positions


class TestMergingProperties:
    @given(_clouds())
    def test_matches_reference_in_any_order(self, cloud):
        pos, w, order = cloud
        label = _components(pos)
        expected = sorted(
            (tuple(np.flatnonzero(label == c)), float(np.sum(w[label == c])))
            for c in np.unique(label) if np.sum(w[label == c]) != 0.0)
        for ids in (np.arange(len(w)), order):
            if not expected:
                with pytest.raises(ValueError):
                    _signature(pos[ids], w[ids], ids)
            else:
                assert _signature(pos[ids], w[ids], ids)[0] == expected

    @given(_clouds())
    def test_outputs_separated_and_weight_kept(self, cloud):
        pos, w, _ = cloud
        if np.all(np.bincount(_components(pos), weights=w) == 0.0):
            return
        sig, out = _signature(pos, w, np.arange(len(w)))
        gaps = np.sqrt(np.sum((out[:, None] - out[None]) ** 2, axis=2))
        np.fill_diagonal(gaps, np.inf)
        assert np.all(gaps >= _PROPERTY_TOL)
        assert sum(weight for _, weight in sig) == float(np.sum(w))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        cfg = random_config(6, 3, seed=11)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back.dimension == cfg.dimension
        assert np.array_equal(back.positions, cfg.positions)
        assert np.array_equal(back.weights, cfg.weights)

    def test_schema_shape(self):
        doc = config_to_json_dict(uniform_circle_config(2))
        assert set(doc) == {"dimension", "charges"}
        assert set(doc["charges"][0]) == {"position", "weight"}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            config_from_json_dict({"dimension": 2})
        with pytest.raises(ValueError):
            config_from_json_dict({"dimension": 2, "charges": []})
        with pytest.raises(ValueError):
            config_from_json_dict({"dimension": 2,
                                   "charges": [{"position": "oops", "weight": 1}]})
