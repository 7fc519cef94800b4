import itertools
import json
import math

import numpy as np
import pytest

from chargelab import (ChargeConfiguration, QuadratureSpec, chui_energy,
                       local_min_certificate, minimize_positions,
                       uniform_circle_config)
from chargelab import optimize
from chargelab.configurations import cluster_poles
from chargelab.optimize import _COLLISION_GAP, _angles_to_config
from chargelab.quadrature import QuadratureResult

from _oracles import FROZEN_UNIFORM_ENERGY, grid_min_gap_energy

TWO_PI = 2.0 * math.pi


def _sorted_gaps(config):
    ang = np.sort(np.mod(config.angles(), TWO_PI))
    return np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))


class TestMinimize2d:
    def test_pair_finds_antipodal_gap(self):
        trace = minimize_positions(np.ones(2), 2, seed=0, budget=300)
        gap = _sorted_gaps(trace.best)[0]
        assert abs(gap - math.pi) <= 0.05
        assert trace.best_energy <= FROZEN_UNIFORM_ENERGY[2] + 5e-3

    def test_pair_agrees_with_grid_oracle(self):
        # exhaustive search over a gap grid; the center node pi must win
        gaps = math.pi + np.linspace(-0.3, 0.3, 7)
        best_gap, best_val = grid_min_gap_energy(gaps)
        assert best_gap == math.pi

    def test_single_charge_trivial(self):
        trace = minimize_positions(np.ones(1), 2, seed=0, budget=100)
        assert trace.meta["stop_reason"] == "converged"
        assert abs(trace.best_energy - 4.0) <= 5e-3
        assert trace.iterates[0].event == "start"

    def test_triple_reaches_uniform(self):
        trace = minimize_positions(np.ones(3), 2, seed=1, budget=400)
        gaps = _sorted_gaps(trace.best)
        assert np.all(np.abs(gaps - TWO_PI / 3.0) <= 0.02)

    def test_budget_stop(self):
        trace = minimize_positions(np.ones(4), 2, seed=0, budget=100)
        assert trace.meta["stop_reason"] == "budget"
        assert trace.meta["evaluations"] <= 100

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            minimize_positions(np.ones(2), 2, budget=99)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            minimize_positions([1.0, -1.0], 2)
        with pytest.raises(ValueError):
            minimize_positions([], 2)

    def test_method_dimension_pairing(self):
        with pytest.raises(ValueError):
            minimize_positions(np.ones(2), 4)

    def test_bitwise_reproducible(self):
        a = minimize_positions(np.ones(3), 2, seed=7, budget=200)
        b = minimize_positions(np.ones(3), 2, seed=7, budget=200)
        assert a.best_energy == b.best_energy
        assert [i.energy for i in a.iterates] == [i.energy for i in b.iterates]
        assert np.array_equal(a.best.positions, b.best.positions)

    def test_accepted_energies_monotone_within_band(self):
        trace = minimize_positions(np.ones(5), 2, seed=3, budget=400)
        its = trace.iterates
        for prev, cur in zip(its, its[1:]):
            assert cur.energy <= prev.energy + 2.0 * (prev.error + cur.error)

    def test_meta_contents(self):
        trace = minimize_positions(np.ones(2), 2, seed=0, budget=150)
        assert trace.meta["method"] == "nelder-mead-angles"
        assert trace.meta["seed"] == 0
        assert trace.meta["stop_reason"] in ("budget", "converged")
        assert isinstance(trace.meta["events"], list)


class TestMinimize3d:
    def test_four_charges_near_tetrahedron(self):
        trace = minimize_positions(np.ones(4), 3, seed=0, budget=300)
        assert trace.meta["method"] == "projected-pattern-search"
        pos = trace.best.positions
        dots = [np.dot(pos[i], pos[j]) for i in range(4) for j in range(i + 1, 4)]
        assert np.all(np.abs(np.array(dots) + 1.0 / 3.0) <= 0.15)

    def test_reproducible(self):
        a = minimize_positions(np.ones(3), 3, seed=2, budget=150)
        b = minimize_positions(np.ones(3), 3, seed=2, budget=150)
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best.positions, b.best.positions)


def _restart(at):
    return {"type": "restart", "eval": at}


def _merge(at):
    return {"type": "merge", "eval": at, "n_charges": 1}


def _attractive_energy(config, spec):
    """1 + the sum of pairwise chord distances: collisions lower it."""
    p = config.positions
    value = 1.0 + sum(float(np.linalg.norm(p[i] - p[j]))
                      for i in range(len(p)) for j in range(i + 1, len(p)))
    return QuadratureResult(value, 1e-6, 1, True, "adaptive")


class TestOptimizerPins:
    """Exact runs of the multistart loop.

    Any change to the start queue, the stages, the restart draws or the
    merge bookkeeping moves one of these.
    """

    @pytest.mark.parametrize("weights, d, seed, budget, meta, n_improve, best", [
        ([1, 1, 1], 2, 1, 150,
         {"evaluations": 138, "stop_reason": "converged",
          "events": [_restart(42)]}, 0, "0x1.6bcbed45bdee6p+2"),
        ([1, 1, 1, 1], 2, 0, 100,
         {"evaluations": 100, "stop_reason": "budget", "events": []},
         0, "0x1.80fcb438f87b9p+2"),
        ([1, 1], 3, 0, 120,
         {"evaluations": 75, "stop_reason": "converged",
          "events": [_restart(38)]}, 15, "0x1.48c4b12aef382p+3"),
        ([1, 1, 1], 3, 2, 150,
         {"evaluations": 138, "stop_reason": "converged", "events": []},
         17, "0x1.b38cb1feeec74p+3"),
    ], ids=["d2_triple", "d2_budget_stop", "d3_pair", "d3_triple"])
    def test_real_energy_runs(self, weights, d, seed, budget, meta, n_improve,
                              best):
        trace = minimize_positions(weights, d, seed=seed, budget=budget)
        method = "nelder-mead-angles" if d == 2 else "projected-pattern-search"
        assert trace.meta == {"method": method, "seed": seed, **meta}
        assert [it.event for it in trace.iterates] == (
            ["start"] + ["improve"] * n_improve)
        assert trace.best_energy.hex() == best

    def test_merge_run(self, monkeypatch):
        # no real-energy run collides, so an attractive surrogate drives
        # the pair together; each merge restarts the loop on one pole
        monkeypatch.setattr(optimize, "chui_energy", _attractive_energy)
        trace = minimize_positions([1, 2], 2, seed=1, budget=300)
        assert trace.meta == {
            "method": "nelder-mead-angles", "seed": 1, "evaluations": 279,
            "stop_reason": "converged",
            "events": [_merge(97), _restart(98), _restart(100),
                       _merge(186), _restart(187), _restart(189),
                       _merge(277), _restart(278)]}
        assert [it.event for it in trace.iterates] == (
            ["start"] + ["improve"] * 14 + ["merge"] * 3)
        assert trace.best_energy.hex() == "0x1.0000000000000p+0"


def test_sphere_pair_reaches_antipodes():
    # the second charge's pinned azimuth is measured about the first charge,
    # so its free polar angle spans the great semicircle to the antipode
    trace = minimize_positions([1, 1], 3, seed=0, budget=1000)
    p = trace.best.positions
    sep = math.degrees(math.acos(np.clip(np.dot(p[0], p[1]), -1.0, 1.0)))
    assert sep > 178.0
    anti = chui_energy(ChargeConfiguration([p[0], -p[0]], [1.0, 1.0]),
                       QuadratureSpec(rel_tolerance=1e-3, seed=0))
    assert abs(trace.best_energy - anti.value) <= 3.0 * (trace.best_error
                                                         + anti.error)


class TestTraceFile:
    def test_jsonl_schema(self, tmp_path):
        trace = minimize_positions(np.ones(3), 2, seed=0, budget=200)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace.iterates)
        for i, line in enumerate(lines):
            row = json.loads(line)
            assert set(row) == {"iter", "angles_or_points", "energy", "err"}
            assert row["iter"] == i
            assert all(isinstance(a, float) for a in row["angles_or_points"])

    def test_jsonl_3d_rows_are_points(self, tmp_path):
        trace = minimize_positions(np.ones(2), 3, seed=0, budget=120)
        path = tmp_path / "trace3.jsonl"
        trace.write_jsonl(path)
        row = json.loads(path.read_text().splitlines()[0])
        pts = row["angles_or_points"]
        assert len(pts) == 2 and len(pts[0]) == 3


def _merge_angles(angles, weights):
    """The 2-D optimizer's collision merge: clusters of its circle points."""
    first, merged = cluster_poles(_angles_to_config(angles, weights).positions,
                                  weights, _COLLISION_GAP)
    return angles[first], merged


class TestPoleMerging:
    def test_close_angles_merge(self):
        ang, w = _merge_angles(np.array([0.0, 1e-8, 1.0]), np.ones(3))
        assert ang.size == 2
        assert sorted(w) == [1.0, 2.0]

    def test_wraparound_merge(self):
        near_pi = math.pi - 1e-9
        for angles in ([-near_pi - 2e-9 + TWO_PI, near_pi],
                       [-near_pi, near_pi]):
            # the second pair's gap passes through +-pi
            _, w = _merge_angles(np.array(angles), np.array([1.0, 2.0]))
            assert w.tolist() == [3.0]

    def test_distant_angles_untouched(self):
        ang, w = _merge_angles(np.array([0.0, 1.0]), np.ones(2))
        assert ang.tolist() == [0.0, 1.0] and w.tolist() == [1.0, 1.0]

    def test_close_points_merge(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        first, w = cluster_poles(pts, np.array([1.0, 2.0, 4.0]),
                                 _COLLISION_GAP)
        assert pts[first].shape == (2, 3)
        assert sorted(w) == [3.0, 4.0]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_chain_merges_in_any_order(self, order):
        # neighbours 0.6 gap apart, the ends 1.2 gap: one pole of weight 3
        steps = 0.4 + 0.6 * _COLLISION_GAP * np.array(order)
        _, w = _merge_angles(steps, np.ones(3))
        assert w.tolist() == [3.0]
        sphere = np.column_stack([np.sin(steps) * 0.6, np.sin(steps) * 0.8,
                                  np.cos(steps)])
        first, w = cluster_poles(sphere, np.ones(3), _COLLISION_GAP)
        assert first.tolist() == [0] and w.tolist() == [3.0]


class TestCertificates:
    def test_uniform_pair_consistent(self):
        rep = local_min_certificate(uniform_circle_config(2),
                                    spec=QuadratureSpec(rel_tolerance=1e-5))
        assert rep.verdict == "consistent"
        assert rep.gradients.shape == (2,)
        assert rep.max_gradient <= rep.gradient_error
        assert rep.min_second_diff > rep.second_diff_error

    def test_uniform_triple_consistent(self):
        rep = local_min_certificate(uniform_circle_config(3),
                                    spec=QuadratureSpec(rel_tolerance=1e-5))
        assert rep.verdict == "consistent"

    def test_single_charge_flat_direction(self):
        # rotations leave the energy invariant, so nothing is significant
        rep = local_min_certificate(uniform_circle_config(1),
                                    spec=QuadratureSpec(rel_tolerance=1e-4))
        assert rep.verdict == "inconclusive"

    # gap pi/2 is mirror-symmetric, yet its gap gradient must still show
    @pytest.mark.parametrize("gap", [2.4, 0.5 * math.pi],
                             ids=["gap_2.4", "gap_pi_over_2"])
    def test_perturbed_pair_not_minimal(self, gap):
        ang = np.array([0.0, gap])
        pos = np.column_stack([np.cos(ang), np.sin(ang)])
        rep = local_min_certificate(ChargeConfiguration(pos, np.ones(2)),
                                    spec=QuadratureSpec(rel_tolerance=1e-5))
        assert rep.verdict == "not_minimal"

    def test_3d_shapes(self):
        from chargelab import fibonacci_sphere_config
        rep = local_min_certificate(fibonacci_sphere_config(2), h=0.05,
                                    spec=QuadratureSpec(rel_tolerance=1e-3))
        assert rep.gradients.shape == (4,)
        assert rep.h == 0.05

    def test_h_validation(self):
        cfg = uniform_circle_config(2)
        for bad in (1e-4, 0.2):
            with pytest.raises(ValueError):
                local_min_certificate(cfg, h=bad)

    def test_interior_rejected(self):
        cfg = ChargeConfiguration([[0.5, 0.0]], [1.0])
        with pytest.raises(ValueError):
            local_min_certificate(cfg)
