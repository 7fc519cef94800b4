import dataclasses
import math
import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chargelab
from chargelab import (ChargeConfiguration, QuadratureSpec, chui_energy,
                       fibonacci_sphere_config, l1_defect, merge_configs,
                       random_config, reduction_budget, two_pole_l1,
                       uniform_circle_config, unit_ball_volume,
                       weighted_arc_config)
from chargelab import quadrature
from chargelab._cubature import integrate_1d
from chargelab.configurations import _ball_samples, _sphere_points
from chargelab.fields import _CACHE_PAIRS
from chargelab.quadrature import (_FIRST_ROUND_SEEDS, DEFAULT_POLE_RADIUS,
                                  _cap_mass, _cutoff, _first_round,
                                  _importance_ratio, _nearest_neighbor_dists,
                                  _residual, _surrogate_mass, _zone_rows)
from chargelab.rng import derive_key

from _oracles import (FROZEN_COAXIAL_PAIR_3D, FROZEN_SINGLE_2D,
                      FROZEN_SINGLE_3D, FROZEN_SINGLE_4D_BOUNDARY,
                      FROZEN_UNIFORM_ENERGY, ORACLE_TOL, coaxial_pair_energy_3d,
                      mc_energy, single_pole_energy, single_pole_energy_2d,
                      single_pole_energy_3d, uniform_energy)

TWO_PI = 2.0 * math.pi


def _single(t, d):
    pos = np.zeros((1, d))
    pos[0, 0] = t
    return ChargeConfiguration(pos, [1.0])


class TestOracleSelfConsistency:
    """Frozen constants must regenerate from their formulas."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_uniform_energy(self, n):
        assert abs(uniform_energy(n) - FROZEN_UNIFORM_ENERGY[n]) <= ORACLE_TOL

    def test_single_pole_2d(self):
        for t, v in FROZEN_SINGLE_2D.items():
            assert abs(single_pole_energy_2d(t) - v) <= ORACLE_TOL

    def test_single_pole_3d(self):
        for t, v in FROZEN_SINGLE_3D.items():
            assert abs(single_pole_energy_3d(t) - v) <= ORACLE_TOL

    def test_single_pole_any_d(self):
        # the cap-fraction integral against the closed forms of d = 2, 3
        # and the d = 4 boundary value
        for d, closed in ((2, single_pole_energy_2d),
                          (3, single_pole_energy_3d)):
            for t in (FROZEN_SINGLE_2D if d == 2 else FROZEN_SINGLE_3D):
                expect = closed(t)
                assert abs(single_pole_energy(t, d) - expect) <= 1e-12 * expect
        assert (abs(single_pole_energy(1.0, 4) - FROZEN_SINGLE_4D_BOUNDARY)
                <= 1e-12 * FROZEN_SINGLE_4D_BOUNDARY)

    def test_coaxial_pair_3d(self):
        # a zero second weight leaves the single pole at t = 0.5
        assert (abs(coaxial_pair_energy_3d(0.1, 0.0) - FROZEN_SINGLE_3D[0.5])
                <= ORACLE_TOL)
        for (delta, w2), v in FROZEN_COAXIAL_PAIR_3D.items():
            assert abs(coaxial_pair_energy_3d(delta, w2) - v) <= ORACLE_TOL


class TestSpecValidation:
    def test_rel_tolerance_range(self):
        for bad in (0.0, 0.5, 0.7, -1.0):
            with pytest.raises(ValueError):
                QuadratureSpec(rel_tolerance=bad)

    def test_max_evals_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_evals=999)

    def test_dimension_is_the_only_method_choice(self):
        # the spec holds no method: the dimension picks it
        assert tuple(f.name for f in dataclasses.fields(QuadratureSpec)) == (
            "rel_tolerance", "seed", "max_evals")
        with pytest.raises(TypeError):
            QuadratureSpec(method="mc")


class TestVolumes:
    def test_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
        assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)


class TestUniformCircleEnergies:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_frozen_values(self, n):
        res = chui_energy(uniform_circle_config(n),
                          QuadratureSpec(rel_tolerance=1e-4))
        assert res.converged
        assert res.method == "adaptive"
        expect = FROZEN_UNIFORM_ENERGY[n]
        assert abs(res.value - expect) <= 3.0 * res.error + ORACLE_TOL
        assert abs(res.value - expect) <= 5e-4 * expect


class TestSinglePole2d:
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.9, 1.0])
    def test_against_elliptic_form(self, t):
        res = chui_energy(_single(t, 2), QuadratureSpec(rel_tolerance=1e-4))
        expect = FROZEN_SINGLE_2D[t]
        assert res.converged
        assert abs(res.value - expect) <= 3.0 * res.error + ORACLE_TOL
        assert abs(res.value - expect) <= 5e-4 * expect


class TestSinglePole3d:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_against_atanh_form(self, t):
        res = chui_energy(_single(t, 3), QuadratureSpec(rel_tolerance=1e-3))
        expect = FROZEN_SINGLE_3D[t]
        assert res.converged
        assert res.method == "rqmc"
        assert abs(res.value - expect) <= max(4.0 * res.error, 3e-3 * expect)


def _coaxial_pair(delta, w2):
    return ChargeConfiguration([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5 + delta]],
                               [1.0, w2])


# a lone charge's default-spec call stops after its first round
_SINGLE_CHARGE_EVALS = 32768


class TestCoaxialPair3d:
    """Crowded poles, same and opposite signs, at the default spec."""

    @pytest.mark.parametrize("delta,w2", sorted(FROZEN_COAXIAL_PAIR_3D))
    def test_against_nested_quad(self, delta, w2):
        cfg = _coaxial_pair(delta, w2)
        res = chui_energy(cfg, QuadratureSpec())
        expect = FROZEN_COAXIAL_PAIR_3D[(delta, w2)]
        assert res.converged
        assert abs(res.value - expect) <= max(4.0 * res.error, 3e-3 * expect)

    # pairs 1e-2 or closer get cluster strata: within 4 sigma of the
    # oracle, without the relative floor above, and same-sign pairs within
    # five times a lone charge's evals
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("delta,w2", sorted(
        k for k in FROZEN_COAXIAL_PAIR_3D if k[0] <= 1e-2))
    def test_crowded_at_seeds(self, delta, w2, seed):
        res = chui_energy(_coaxial_pair(delta, w2), QuadratureSpec(seed=seed))
        assert res.converged
        assert abs(res.value - FROZEN_COAXIAL_PAIR_3D[(delta, w2)]) <= (
            4.0 * res.error)
        if w2 > 0.0:
            assert res.evals <= 5 * _SINGLE_CHARGE_EVALS

    def test_seed_15_regression(self):
        # all 8 replicates of the plain bulk missed this pair's spike and
        # stopped "converged" 25 sigma low
        res = chui_energy(_coaxial_pair(0.005, 1.0), QuadratureSpec(seed=15))
        expect = FROZEN_COAXIAL_PAIR_3D[(0.005, 1.0)]
        assert not res.converged or abs(res.value - expect) <= 3.0 * res.error

    def test_two_level_clusters(self):
        # two 1e-4 pairs 1e-2 apart are two clusters. The reference merges
        # each pair into a charge of weight 2 and adds back what merging
        # moves for a lone 1e-4 pair (-9.0e-4 each, about half the error
        # bar); the pairs' fields barely overlap where that change arises
        cfg = ChargeConfiguration([[0.0, 0.0, z] for z in
                                   (0.5, 0.5001, 0.51, 0.5101)], np.ones(4))
        res = chui_energy(cfg, QuadratureSpec(seed=4))
        unmerge = (FROZEN_COAXIAL_PAIR_3D[(1e-4, 1.0)]
                   - 2.0 * FROZEN_SINGLE_3D[0.5])
        expect = 2.0 * (FROZEN_COAXIAL_PAIR_3D[(0.01, 1.0)] + unmerge)
        assert res.converged and res.evals == 5 * 8 * 4096
        assert abs(res.value - expect) <= 3.0 * res.error

    @pytest.mark.parametrize("w2", [1.0, 0.5])
    def test_pair_on_sphere(self, w2):
        # half of each stratum lies outside the ball and contributes 0
        half = 0.5e-6
        cfg = ChargeConfiguration([[math.sin(half), 0.0, math.cos(half)],
                                   [-math.sin(half), 0.0, math.cos(half)]],
                                  [1.0, w2])
        assert cfg.all_boundary
        res = chui_energy(cfg, QuadratureSpec(seed=5))
        expect = single_pole_energy_3d(1.0) * (1.0 + w2)
        assert res.converged
        assert abs(res.value - expect) <= 3.0 * res.error


class TestNearSpherePole:
    """1e-11 inside the sphere is interior for the bounds and the d = 2
    zones alike, and converges to the closed form in d = 2 and d = 3."""

    @pytest.mark.parametrize("d,oracle", [(2, single_pole_energy_2d),
                                          (3, single_pole_energy_3d)])
    def test_interior_zone_converges(self, d, oracle):
        t = 1.0 - 1e-11
        cfg = _single(t, d)
        assert not cfg.boundary[0]
        res = chui_energy(cfg, QuadratureSpec())
        assert res.converged
        assert abs(res.value - oracle(t)) <= 3.0 * res.error


class TestHigherDimension:
    def test_boundary_pole_4d(self):
        spec = QuadratureSpec(rel_tolerance=5e-3, seed=3)
        assert chui_energy(_single(1.0, 4), spec).method == "rqmc"
        res = quadrature._energy_mc(_single(1.0, 4), spec)
        assert res.method == "mc"
        diff = abs(res.value - FROZEN_SINGLE_4D_BOUNDARY)
        assert diff <= 4.0 * res.error

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.9, 1.0 - 1e-12, 1.0])
    def test_single_charge_converges(self, d, t):
        tol = 1e-4
        res = chui_energy(_single(t, d), QuadratureSpec(rel_tolerance=tol))
        expect = single_pole_energy(t, d)
        assert res.method == "rqmc" and res.converged
        assert abs(res.value - expect) <= 3.0 * res.error + tol * expect

    # poles at the origin, inside (with a negative weight) and on the sphere,
    # as in the mc4_mixed pin, and random interior systems
    SYSTEMS = {
        "mixed": lambda: ChargeConfiguration(
            [[0.0, 0.0, 0.0, 0.0], [0.5, -0.3, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            [1.0, -0.5, 2.0]),
        "interior6": lambda: random_config(6, 4, seed=1, interior=True),
        "interior8": lambda: random_config(8, 4, seed=2, interior=True),
    }

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_agrees_with_monte_carlo(self, name):
        cfg = self.SYSTEMS[name]()
        spec = QuadratureSpec(rel_tolerance=1e-3, seed=7)
        rqmc = chui_energy(cfg, spec)
        mc = quadrature._energy_mc(cfg, spec)
        assert rqmc.method == "rqmc" and mc.method == "mc"
        assert rqmc.converged and mc.converged
        assert (abs(rqmc.value - mc.value)
                <= 3.0 * math.hypot(rqmc.error, mc.error))

    def test_routing(self, monkeypatch):
        # crowded poles, and dimensions past the Sobol table, stay on Monte
        # Carlo; nothing else in d >= 4 reaches it
        pair = ChargeConfiguration([[0.0, 0.0, 0.0, 0.5],
                                    [0.0, 0.0, 0.0, 0.5001]], [1.0, 1.0])
        spec = QuadratureSpec(rel_tolerance=3e-3, seed=7)
        assert chui_energy(pair, spec).method == "mc"
        past = len(quadrature._SOBOL_POLY) + 1
        assert chui_energy(_single(0.5, past),
                           QuadratureSpec(rel_tolerance=3e-2)).method == "mc"

        def forbidden(*args, **kwargs):
            raise AssertionError("an unclustered d >= 4 energy ran Monte Carlo")

        monkeypatch.setattr(quadrature, "_energy_mc", forbidden)
        systems = [self.SYSTEMS["mixed"]()] + [
            cfg for d in range(4, past)
            for cfg in (_single(1.0, d), random_config(3, d, seed=d),
                        random_config(5, d, seed=d, interior=True))]
        for cfg in systems:
            assert chui_energy(cfg, spec).method == "rqmc"


class TestMonteCarloSampler:
    """The d >= 4 Monte Carlo block: fixed halves of one direction-and-radius
    draw, weighted by the mixture density; and the pooled d >= 4 boundary
    charge, which runs the RQMC path."""

    def test_block_halves(self, monkeypatch):
        # three poles: at the origin, inside and on the sphere
        pos = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.3, 0.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0]])
        ratio, blocks = quadrature._importance_ratio, []

        def recording(positions, weights, pts):
            blocks.append(pts.copy())
            return ratio(positions, weights, pts)

        monkeypatch.setattr(quadrature, "_importance_ratio", recording)
        res = quadrature._energy_mc(ChargeConfiguration(pos, [1.0, -0.5, 2.0]),
                                    QuadratureSpec(rel_tolerance=3e-3, seed=7))
        assert res.method == "mc"
        assert len(blocks) == res.evals // quadrature._MC_BLOCK
        half = quadrature._MC_BLOCK // 2
        # 1e-12 absorbs the rounding of a unit direction times a radius
        for pts in blocks:
            assert pts.shape == (quadrature._MC_BLOCK, 4)
            assert np.all(np.sum(pts[:half] ** 2, axis=1) <= 1.0 + 1e-12)
            gaps = np.sqrt(np.sum((pts[:, None] - pos[None]) ** 2, axis=2))
            assert np.all(gaps[half:].min(axis=1)
                          <= quadrature._MC_RHO + 1e-12)
            # the ball half is not confined to the poles' neighbourhoods
            assert np.any(gaps[:half].min(axis=1) > quadrature._MC_RHO)

    def test_pooled_seeds_unbiased(self):
        # the standard error comes from the spread of the 16 estimates:
        # their own reported errors under-cover
        for d, expect in ((4, FROZEN_SINGLE_4D_BOUNDARY),
                          (5, single_pole_energy(1.0, 5))):
            runs = [chui_energy(_single(1.0, d),
                                QuadratureSpec(rel_tolerance=3e-3, seed=seed))
                    for seed in range(16)]
            assert {res.method for res in runs} == {"rqmc"}
            values = [res.value for res in runs]
            se = np.std(values, ddof=1) / math.sqrt(len(values))
            assert abs(np.mean(values) - expect) <= 3.0 * se, d

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("m", [4096, 100_000])
    def test_sphere_points_bits(self, d, m):
        # below 8 terms numpy's sum runs left to right, like the column loop
        got = _sphere_points(np.random.default_rng(d), m, d)
        v = np.random.default_rng(d).standard_normal((m, d))
        expect = v / np.sqrt(np.sum(v * v, axis=1))[:, None]
        assert np.array_equal(_bits(got), _bits(expect))


class TestMonteCarloAgreement:
    """Structured quadratures against a plain uniform-sampling estimate."""

    @pytest.mark.parametrize("n,seed", [(1, 101), (2, 102), (3, 103)])
    def test_small_planar_configs(self, n, seed):
        cfg = random_config(n, 2, seed=seed)
        res = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-3))
        est, se = mc_energy(cfg.positions, cfg.weights, 2, 10_000_000, seed + 7)
        assert abs(res.value - est) <= 3.0 * (se + res.error)


class TestInvariances:
    def test_bitwise_determinism(self):
        for d in (2, 3, 4):
            cfg = random_config(3, d, seed=d)
            spec = QuadratureSpec(rel_tolerance=5e-3, seed=11)
            a = chui_energy(cfg, spec)
            b = chui_energy(cfg, spec)
            assert a.value == b.value
            assert a.error == b.error
            assert a.evals == b.evals

    def test_weight_homogeneity(self):
        base = random_config(3, 2, seed=20)
        e0 = chui_energy(base, QuadratureSpec(rel_tolerance=1e-4))
        for lam in (0.5, 2.0, 10.0):
            scaled = ChargeConfiguration(base.positions, lam * base.weights)
            e1 = chui_energy(scaled, QuadratureSpec(rel_tolerance=1e-4))
            assert abs(e1.value - lam * e0.value) <= 2.0 * (e1.error + lam * e0.error)

    def test_weight_homogeneity_3d(self):
        base = random_config(3, 3, seed=22)
        spec = QuadratureSpec(rel_tolerance=1e-3, seed=5)
        e0 = chui_energy(base, spec)
        lam = 2.0
        e1 = chui_energy(ChargeConfiguration(base.positions, lam * base.weights), spec)
        assert abs(e1.value - lam * e0.value) <= 2.0 * (e1.error + lam * e0.error)

    def test_subadditivity(self):
        a = random_config(2, 2, seed=30)
        b = random_config(3, 2, seed=31)
        spec = QuadratureSpec(rel_tolerance=1e-4)
        ea = chui_energy(a, spec)
        eb = chui_energy(b, spec)
        eab = chui_energy(merge_configs(a, b), spec)
        assert eab.value <= ea.value + eb.value + 3.0 * (ea.error + eb.error + eab.error)

    def test_pole_radius_insensitive(self, monkeypatch):
        cfg = uniform_circle_config(4)
        r1 = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-4))
        monkeypatch.setattr(quadrature, "DEFAULT_POLE_RADIUS", 0.06)
        r2 = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-4))
        assert abs(r1.value - r2.value) <= r1.error + r2.error

    def test_nonnegative_and_budgeted(self):
        cfg = random_config(4, 2, seed=40)
        spec = QuadratureSpec(rel_tolerance=1e-3, max_evals=200_000)
        res = chui_energy(cfg, spec)
        assert res.value >= 0.0
        assert res.evals <= spec.max_evals

    def test_nonconvergence_flagged(self):
        cfg = uniform_circle_config(6)
        res = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-12,
                                              max_evals=50_000))
        assert not res.converged

    def test_coincident_poles_merged(self):
        pos = np.array([[0.5, 0.0], [0.5, 0.0], [-0.3, 0.1]])
        cfg = ChargeConfiguration(pos, np.array([1.0, 2.0, 1.0]))
        merged = ChargeConfiguration(pos[[0, 2]], np.array([3.0, 1.0]))
        spec = QuadratureSpec(rel_tolerance=1e-4)
        assert chui_energy(cfg, spec).value == chui_energy(merged, spec).value


class TestArcDefect:
    def test_full_circle_value(self):
        # removing the full-circle average costs exactly the single-pole energy
        res = l1_defect(2.0 * math.pi)
        assert res.converged
        assert abs(res.value - 4.0) <= 3.0 * res.error + 1e-9

    def test_quarter_arc_bracketed(self):
        full = l1_defect(2.0 * math.pi)
        quarter = l1_defect(math.pi / 2)
        assert 0.0 < quarter.value < full.value

    def test_arc_validation(self):
        for bad in (0.0, -0.5, 8.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                l1_defect(bad)
        # rounding slack past 2 pi is clipped to the full circle
        assert l1_defect(2.0 * math.pi + 1e-12).converged


class TestTwoPoleCancellation:
    def test_unit_separation(self):
        res = two_pole_l1(1.0, 0.0)
        assert res.converged
        assert math.isfinite(res.value) and res.value > 0.0

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            two_pole_l1(0.5, 0.5)

    def test_separation_above_one_rejected(self):
        with pytest.raises(ValueError):
            two_pole_l1(1.0, -1.0)

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            two_pole_l1(1.5, 0.9)

    def test_shrinking_separation_shrinks_value(self):
        spec = QuadratureSpec(rel_tolerance=1e-3)
        big = two_pole_l1(1.0, complex(math.cos(0.5), math.sin(0.5)), spec)
        small = two_pole_l1(1.0, complex(math.cos(0.1), math.sin(0.1)), spec)
        assert small.value < big.value


    @pytest.mark.parametrize("scale", [1.0, 0.5], ids=["circle", "interior"])
    def test_is_signed_pair_energy(self, scale):
        # over the prop14-sweep grid, on the circle and scaled inside it
        for j in range(2, 11):
            delta = 2.0 ** -j
            a, b = scale, scale * complex(math.cos(delta), math.sin(delta))
            res = two_pole_l1(a, b)
            pair = chui_energy(ChargeConfiguration(
                [[a.real, a.imag], [b.real, b.imag]], [1.0, -1.0]))
            assert res.converged
            assert (res.value.hex(), res.error.hex(), res.evals) == (
                pair.value.hex(), pair.error.hex(), pair.evals)


# the pole-zone cuts as they were when each zone was one region cut along
# axis 0: positions x in [0, 1] with gamma = -pi + 2 pi x for an interior
# pole and gamma = pi/2 + pi x for a pole on the circle
def _old_zone_cuts(on_sphere, t, rho):
    cuts = {}
    for k in range(len(t)):
        tk, rk = t[k], rho[k]
        if on_sphere[k]:
            bstar = math.acos(rk / 2.0)
            cuts[k] = ((-bstar + 0.5 * math.pi) / math.pi,
                       (bstar + 0.5 * math.pi) / math.pi)
        elif tk > 1e-14:
            cross = (1.0 - tk * tk - rk * rk) / (2.0 * rk * tk)
            if -1.0 < cross < 1.0:
                gstar = math.acos(cross)
                cuts[k] = ((-gstar + math.pi) / TWO_PI,
                           (gstar + math.pi) / TWO_PI)
    return cuts


class TestZoneRows:
    # poles at the origin, inside without and with crossings, near and on
    # the circle
    T = np.array([0.0, 0.3, 0.95, 0.5, 1.0 - 1e-6, 1.0, 1.0])
    RHO = np.array([0.1, 0.1, 0.1, 0.02, 0.1, 0.1, 0.003])
    ON = np.array([False] * 5 + [True] * 2)

    def test_spans_cover_the_range(self):
        pole, start, span = _zone_rows(self.ON, self.T, self.RHO)
        assert pole.tolist() == sorted(pole.tolist())
        assert set(pole.tolist()) == set(range(self.T.size))
        for k, on in enumerate(self.ON):
            mine = pole == k
            lo = 0.5 * math.pi if on else -math.pi
            total = math.pi if on else TWO_PI
            assert start[mine][0] == lo
            assert math.fsum(span[mine]) == pytest.approx(total, abs=1e-15)
            # the pieces tile the range in order
            np.testing.assert_allclose(start[mine][1:],
                                       (start + span)[mine][:-1],
                                       rtol=0, atol=1e-15)

    def test_crossings_match_axis0_cuts(self):
        pole, start, _ = _zone_rows(self.ON, self.T, self.RHO)
        old = _old_zone_cuts(self.ON, self.T, self.RHO)
        assert sorted(old) == [2, 4, 5, 6]
        for k, on in enumerate(self.ON):
            crossings = start[pole == k][1:]
            lo, width = (0.5 * math.pi, math.pi) if on else (-math.pi, TWO_PI)
            expect = [lo + width * x for x in old.get(k, ())]
            assert crossings == pytest.approx(expect, rel=0, abs=1e-15)

    def test_slivers_dropped(self):
        # a pole on the circle with a zone of radius 1e-12 meets the circle
        # within pi * 1e-12 of its range's ends: one row, the whole range
        pole, start, span = _zone_rows(np.array([True, True]),
                                       np.ones(2), np.array([1e-12, 1e-11]))
        assert pole.tolist() == [0, 1, 1, 1]
        assert (start[0], span[0]) == (0.5 * math.pi, math.pi)


_ALTERNATING = [[1.0, 0.0], [0.3, 0.4], [-0.6, 0.8], [0.0, 0.0]]


class TestDecompositionPins:
    """Exact eval counts and value and error bits of the planar
    decomposition, so any change to its pieces, their order or their initial
    cuts fails here first."""

    CASES = {
        "uniform_64": (lambda: chui_energy(uniform_circle_config(64),
                                           QuadratureSpec(rel_tolerance=1e-4)),
                       391500, uniform_energy(64),
                       "0x1.ce8cb956ebd85p+2", "0x1.343a998f01530p-11"),
        "boundary_single": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 1.0]], [1.0]),
            QuadratureSpec(rel_tolerance=1e-4)), 4275,
            single_pole_energy_2d(1.0),
            "0x1.fffff71be5ff6p+1", "0x1.23ea5fd95860cp-12"),
        # the references below are the pinned decomposition's own values
        "random_interior_16": (lambda: chui_energy(
            random_config(16, 2, seed=7, interior=True)), 29475,
            41.692036267387465,
            "0x1.4d894a4f8099cp+5", "0x1.1f61bf8f8b684p-6"),
        "defect_0.1": (lambda: l1_defect(0.1), 12375,
                       0.14813440220664634,
                       "0x1.2f6116e71ed5ep-3", "0x1.d316362c90c98p-14"),
        # three arc lengths, their defects refined together as one budget
        "budget_1_2_4": (lambda: reduction_budget(
            *weighted_arc_config([1.0, 2.0, 4.0])), 7425, 16.6082761769456,
            "0x1.09bb7fcceead2p+4", "0x1.02372a2aaa084p-6"),
        "two_pole": (lambda: two_pole_l1(0.5, 0.5 + 0.3j), 3600,
                     4.586880172713139,
                     "0x1.258f71db1e522p+2", "0x1.808055c491680p-10"),
        # a zone at the origin, one inside and one on the circle
        "origin_interior_boundary": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 0.0], [0.4, -0.3], [0.0, 1.0]],
                                [1.0, 0.5, 2.0]),
            QuadratureSpec(rel_tolerance=1e-4)), 5850, 12.870133467162336,
            "0x1.9bd8222413c12p+3", "0x1.c5193a6d42742p-11"),
        # zones alternate between the families out of family order (on the
        # circle, inside, on the circle, at the origin), so the cells of a
        # family are not contiguous. At 1e-6 every zone cell is split in the
        # first round; at 1e-4 some survive, so sorting the zones by family
        # changes the bits there too
        "alternating_families": (lambda: chui_energy(
            ChargeConfiguration(_ALTERNATING, [1.0, 0.7, 1.5, 0.4]),
            QuadratureSpec(rel_tolerance=1e-6)), 50625, 10.552865501055363,
            "0x1.51b112fdc3d27p+3", "0x1.851894ae7c58ap-18"),
        "alternating_families_coarse": (lambda: chui_energy(
            ChargeConfiguration(_ALTERNATING, [1.0, 1.0, 1.0, 1.0]),
            QuadratureSpec(rel_tolerance=1e-4)), 9225, 13.499531305605633,
            "0x1.affc29139cf0ap+3", "0x1.3f210467a4eb2p-10"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_evals_pinned(self, case):
        run, evals, reference, value_hex, error_hex = self.CASES[case]
        res = run()
        assert res.converged
        assert res.evals == evals
        assert abs(res.value - reference) <= res.error
        assert (res.value.hex(), res.error.hex()) == (value_hex, error_hex)


# the d = 3 residual as it was computed before the component-major kernel:
# (points x poles x 3) offsets for the field and one pass per pole for the
# surrogate. The surrogate term carries |w_k|, the current rule; the old code
# had w_k, which is the same for every positive weight
def _old_field(positions, weights, pts, d):
    diff = positions[None, :, :] - pts[:, None, :]
    r2 = np.sum(diff * diff, axis=2)
    scale = weights[None, :] * r2 ** (-0.5 * d)
    vec = np.sum(scale[:, :, None] * diff, axis=1)
    return np.sqrt(np.sum(vec * vec, axis=1))


def _old_cutoff(r, support):
    w = np.ones_like(r)
    ramp = r > 0.5 * support
    xi = (r[ramp] - 0.5 * support) / (0.5 * support)
    w[ramp] = 1.0 - xi * xi * (3.0 - 2.0 * xi)
    w[r >= support] = 0.0
    return w


def _old_residual(positions, weights, supports, pts):
    total = np.zeros(pts.shape[0])
    for k in range(positions.shape[0]):
        diff = pts - positions[k]
        r = np.sqrt(np.sum(diff * diff, axis=1))
        near = r < supports[k]
        if np.any(near):
            rn = r[near]
            total[near] += (abs(weights[k]) * _old_cutoff(rn, supports[k])
                            / (rn * rn))
    return _old_field(positions, weights, pts, 3) - total


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestResidualKernel:
    """The component-major d = 3 residual against the old formula, bit for
    bit, on points chosen to sit on every boundary the kernel tests."""

    @staticmethod
    def _scales(positions):
        """The residual's supports and, as one more probe distance, the
        planar zone radius rule."""
        nn = _nearest_neighbor_dists(positions)
        return np.minimum(0.5, nn), np.minimum(DEFAULT_POLE_RADIUS, 0.5 * nn)

    @staticmethod
    def _probes(positions, supports, radii, gen):
        """Random ball points and, per pole, offsets along the axes by 0,
        1e-9, the radius, half the support and the support (exact for the
        dyadic pair), each also scaled by 1 -+ 1e-15."""
        pts = [gen.standard_normal((5000, 3))]
        pts[0] *= (gen.random(5000) ** (1 / 3)
                   / np.linalg.norm(pts[0], axis=1))[:, None]
        eye = np.vstack([np.eye(3), -np.eye(3)])
        for p, s, rho in zip(positions, supports, radii):
            for r in (0.0, 1e-9, rho, 0.5 * s, s):
                for f in (1.0, 1.0 - 1e-15, 1.0 + 1e-15):
                    pts.append(p + r * f * eye)
        pts = np.vstack(pts)
        return pts[np.sum(pts * pts, axis=1) <= 1.0]

    @staticmethod
    def _signed(pos):
        gen = np.random.default_rng(5)
        return pos, gen.uniform(0.2, 3.0, len(pos)) * gen.choice([-1.0, 1.0],
                                                               len(pos))

    CONFIGS = {
        "origin_single": lambda: ([[0.0, 0.0, 0.0]], [1.0]),
        "sphere_single": lambda: ([[0.0, 0.0, 1.0]], [2.5]),
        "dyadic_pair_signed": lambda: ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.75]],
                                       [1.0, -0.5]),
        "fibonacci_9_signed": lambda: TestResidualKernel._signed(
            fibonacci_sphere_config(9).positions),
        "interior_6_signed": lambda: TestResidualKernel._signed(np.vstack(
            [random_config(5, 3, seed=9, interior=True).positions,
             np.zeros((1, 3))])),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_bitwise_against_old_formula(self, name):
        pos, w = map(np.asarray, self.CONFIGS[name]())
        supports, radii = self._scales(pos)
        pts = self._probes(pos, supports, radii, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _residual(pos, w, supports, pts)
            single = np.concatenate([
                _residual(pos, w, supports, pts[j:j + 1])
                for j in range(0, len(pts), 97)])
            # a point exactly on a pole contributes exactly 0.0
            on = np.min(np.sum((pts[:, None] - pos[None]) ** 2, axis=2),
                        axis=1) == 0
            expect = _old_residual(pos, w, supports, pts[~on])
        assert np.any(on)
        assert np.array_equal(_bits(got[on]), _bits(np.zeros(np.sum(on))))
        assert np.all(np.isfinite(got))
        assert np.array_equal(_bits(got[~on]), _bits(expect))
        assert np.array_equal(_bits(single), _bits(got[::97]))

    def test_cutoff_against_old_form(self):
        support = 0.37
        r = np.concatenate([[0.0, 0.5 * support, support, 2.0 * support],
                            np.nextafter(support, [0.0, 1.0]),
                            np.nextafter(0.5 * support, [0.0, 1.0]),
                            np.linspace(0.0, 1.0, 1001)])
        assert np.array_equal(_bits(_cutoff(r, support)),
                              _bits(_old_cutoff(r, support)))


# the d >= 4 Monte Carlo integrand as it was computed before the
# component-major kernel: a (points x poles x d) distance broadcast for the
# in-ball and on-pole mask and the importance density, and the field of the
# kept points
def _old_mc(positions, weights, pts):
    n, d = positions.shape
    m = pts.shape[0]
    vd = unit_ball_volume(d)
    sphere_area = d * vd
    rho_imp = 0.5
    inside = np.sum(pts * pts, axis=1) < 1.0
    dist = np.sqrt(np.sum(
        (pts[:, None, :] - positions[None, :, :]) ** 2, axis=2))
    ok = inside & (np.min(dist, axis=1) > 1e-13)
    density = np.zeros(m)
    density[inside] += 0.5 / vd
    near = dist < rho_imp
    radial = np.zeros_like(dist)
    radial[near] = 1.0 / (rho_imp * sphere_area * dist[near] ** (d - 1))
    density += np.sum(radial, axis=1) / (2.0 * n)
    vals = np.zeros(m)
    if np.any(ok):
        vals[ok] = _old_field(positions, weights, pts[ok], d) / density[ok]
    return vals


class TestMonteCarloKernel:
    """The component-major importance ratio against the old inline formula
    on the Monte Carlo path's own mixture of ball and near-pole points."""

    @staticmethod
    def _system(n, d, seed):
        # poles crowded within 0.4 of the centre, so that many points see
        # several poles' density terms and their summation order shows
        gen = np.random.default_rng(seed)
        pos = 0.4 * random_config(n, d, seed=seed, interior=True).positions
        w = gen.uniform(0.2, 3.0, n) * gen.choice([-1.0, 1.0], n)
        return pos, w, gen

    @staticmethod
    def _mixture(pos, gen, m):
        """m ball points, m points within 0.5 of a random pole and m // 10
        points outside the ball."""
        n, d = pos.shape
        near = pos[gen.integers(0, n, m)] + (
            _sphere_points(gen, m, d) * (0.5 * gen.random(m))[:, None])
        out = _sphere_points(gen, m // 10, d) * 1.25
        return np.vstack([_ball_samples(gen, m, d), near, out])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 5])
    def test_bitwise_against_old_formula(self, n, d):
        pos, w, gen = self._system(n, d, 60 + d)
        pts = self._mixture(pos, gen, 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _importance_ratio(pos, w, pts)
            single = np.concatenate([_importance_ratio(pos, w, pts[j:j + 1])
                                     for j in range(0, len(pts), 97)])
        expect = _old_mc(pos, w, pts)
        assert np.any(got == 0.0) and np.all(np.isfinite(got))
        assert np.array_equal(_bits(got), _bits(expect))
        assert np.array_equal(_bits(single), _bits(expect[::97]))

    def test_many_poles_across_chunks(self):
        # from 8 poles on, numpy's sum over poles in the old formula runs in
        # pairwise order, the kernel in pole order
        pos, w, gen = self._system(12, 4, 70)
        pts = self._mixture(pos, gen, 4500)
        assert len(pts) > 3 * (_CACHE_PAIRS // 12)
        got = _importance_ratio(pos, w, pts)
        expect = _old_mc(pos, w, pts)
        assert np.array_equal(got == 0.0, expect == 0.0)
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_excluded_points_give_zero(self, d):
        pos, w, _ = self._system(3, d, 80 + d)
        pos[0] = 0.0
        step = np.zeros(d)
        step[0] = 1e-14
        probes = np.vstack([pos, pos + step, pos - step,
                            1.5 * np.eye(d), -np.eye(d)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _importance_ratio(pos, w, probes)
        assert np.array_equal(_bits(got), _bits(np.zeros(len(probes))))


# the tolerance per dimension keeps one energy call near 0.1 s
_PROPERTY_TOL = {2: 1e-3, 3: 3e-3, 4: 2e-2}


@st.composite
def _signed_systems(draw):
    """1-3 poles in B^d (d = 2, 3, 4) at least 0.2 apart, on the sphere or
    inside it, with weights of either sign and magnitude in [0.25, 4]."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3))
    cfg = random_config(n, d, seed=draw(st.integers(0, 2**16)),
                        interior=draw(st.booleans()))
    pos = cfg.positions
    gaps = np.sqrt(np.sum((pos[:, None] - pos[None]) ** 2, axis=2))
    assume(np.all(gaps[np.triu_indices(n, 1)] > 0.2))
    mags = draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    spec = QuadratureSpec(rel_tolerance=_PROPERTY_TOL[d],
                          seed=draw(st.integers(0, 1000)))
    return ChargeConfiguration(pos, np.array(mags) * np.array(signs)), spec


def _agree(a, b, scale_b=1.0):
    """a and scale_b * b agree within three times their summed errors."""
    assert a.converged and b.converged
    err = a.error + abs(scale_b) * b.error
    assert abs(a.value - abs(scale_b) * b.value) <= 3.0 * err


class TestEnergyProperties:
    """Symmetries of the energy over random signed systems in d = 2, 3, 4."""

    @settings(max_examples=25)
    @given(_signed_systems(), st.integers(0, 2**16))
    def test_rotation_invariance(self, system, rot_seed):
        cfg, spec = system
        d = cfg.dimension
        q, r = np.linalg.qr(np.random.default_rng(rot_seed).standard_normal((d, d)))
        rot = q * np.sign(np.diag(r))
        turned = ChargeConfiguration(cfg.positions @ rot.T, cfg.weights)
        _agree(chui_energy(turned, spec), chui_energy(cfg, spec))

    @settings(max_examples=25)
    @given(_signed_systems(),
           st.floats(0.3, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_weight_homogeneity(self, system, lam, sign):
        # |field| is even in the weights, so E(lam a) = |lam| E(a)
        cfg, spec = system
        lam *= sign
        scaled = ChargeConfiguration(cfg.positions, lam * cfg.weights)
        _agree(chui_energy(scaled, spec), chui_energy(cfg, spec), lam)

    @settings(max_examples=25)
    @given(_signed_systems(), st.data())
    def test_merging_coincident_poles(self, system, data):
        # split one pole into two at (nearly) the same point, weights summing
        # to the original, and append the copy anywhere in the list
        cfg, spec = system
        n = len(cfg.weights)
        k = data.draw(st.integers(0, n - 1))
        # the two parts may have opposite signs
        part = data.draw(st.floats(0.1, 0.9) | st.floats(-1.0, -0.1)
                         | st.floats(1.1, 2.0))
        at = data.draw(st.integers(0, n))
        pos = np.insert(cfg.positions, at, cfg.positions[k] * (1.0 - 1e-15),
                        axis=0)
        w = np.insert(cfg.weights, at, part * cfg.weights[k])
        w[k + (at <= k)] *= 1.0 - part
        _agree(chui_energy(ChargeConfiguration(pos, w), spec),
               chui_energy(cfg, spec))


class TestStochasticPins:
    """Exact results of the RQMC path (d = 3 and d = 4) and the d = 4 Monte
    Carlo path at fixed spec seeds: any change to their arithmetic, however
    small, fails here. The d = 4 systems without crowded poles, the
    "mc4_" cases among them, run the RQMC path.

    Recorded with numpy 2.4.6 on x86-64. The values run through numpy's
    pow, sin and cos loops, whose last bits may differ on another numpy
    build; there, re-record the pins from an unchanged checkout first.
    """

    CASES = {
        "single3_0.5": (lambda: chui_energy(_single(0.5, 3),
                                            QuadratureSpec(seed=7)),
                        "0x1.6ed96d72ee680p+3", "0x1.f51443f983420p-10",
                        32768, True),
        "fibonacci_9": (lambda: chui_energy(fibonacci_sphere_config(9),
                                            QuadratureSpec(seed=7)),
                        "0x1.b8ebd453af278p+4", "0x1.409ff3f4dc0a6p-8",
                        32768, True),
        "fibonacci_16": (lambda: chui_energy(fibonacci_sphere_config(16),
                                             QuadratureSpec(seed=7)),
                         "0x1.36640e74d0c83p+5", "0x1.47e41e1c9858dp-7",
                         32768, True),
        "fibonacci_25": (lambda: chui_energy(fibonacci_sphere_config(25),
                                             QuadratureSpec(seed=7)),
                         "0x1.918afbffd1f7fp+5", "0x1.09d20a2a3d923p-7",
                         32768, True),
        "interior3_4": (lambda: chui_energy(
            random_config(4, 3, seed=13, interior=True),
            QuadratureSpec(seed=7)),
            "0x1.8649cf93678dep+4", "0x1.22f6d0c3dc7d4p-8", 32768, True),
        "boundary4": (lambda: chui_energy(
            _single(1.0, 4), QuadratureSpec(rel_tolerance=3e-3, seed=7)),
            "0x1.0c191932de1f7p+3", "0x1.4f935cf627ae0p-9", 32768, True),
        # d = 3 poles at the origin, inside (with a negative weight) and on
        # the sphere in one call
        "zones3_mixed": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 0.0, 0.0], [0.3, -0.2, 0.4],
                                 [0.0, 0.6, 0.8]], [1.0, -0.5, 2.0]),
            QuadratureSpec(seed=7)),
            "0x1.63fb3ce8a48f0p+4", "0x1.d419e2d320ef6p-9", 32768, True),
        # both replicate loops, and the RQMC path in d = 3 and d = 4,
        # stopped by their budget; a crowded d = 4 pair runs Monte Carlo
        "budget4_mc": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5001]],
                                [1.0, 1.0]),
            QuadratureSpec(rel_tolerance=1e-4, max_evals=300_000, seed=7)),
            "0x1.1cbe86870df51p+5", "0x1.2c9e78ec78213p-5", 262144, False),
        "budget4_rqmc": (lambda: chui_energy(
            random_config(5, 4, seed=4, interior=True),
            QuadratureSpec(rel_tolerance=1e-5, max_evals=300_000, seed=7)),
            "0x1.c53cff9363086p+5", "0x1.fe7c48ab7c6c0p-9", 262144, False),
        "budget3_fibonacci_16": (lambda: chui_energy(
            fibonacci_sphere_config(16),
            QuadratureSpec(rel_tolerance=1e-5, max_evals=400_000, seed=7)),
            "0x1.3657f62d57cb2p+5", "0x1.ce69b708df7a8p-11", 262144, False),
        # a crowded pair: one cluster, whose strata end it in round 0
        "budget3_pair": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5001]],
                                [1.0, 1.0]),
            QuadratureSpec(max_evals=400_000, seed=7)),
            "0x1.6eb2b4c74b491p+4", "0x1.068a3a24c5ec9p-10", 98304, True),
        # d = 4 poles at the origin, inside (with a negative weight) and on
        # the sphere in one call, and six interior poles
        "mc4_mixed": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 0.0, 0.0, 0.0], [0.5, -0.3, 0.0, 0.0],
                                 [0.0, 1.0, 0.0, 0.0]], [1.0, -0.5, 2.0]),
            QuadratureSpec(rel_tolerance=3e-3, seed=7)),
            "0x1.1f796cf2eebfdp+5", "0x1.b3b8a814b0c47p-8", 32768, True),
        "mc4_interior6": (lambda: chui_energy(
            random_config(6, 4, seed=1, interior=True),
            QuadratureSpec(rel_tolerance=3e-3, seed=7)),
            "0x1.189ce4aafb132p+6", "0x1.74a937b24f0cfp-6", 32768, True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_pinned(self, case):
        run, value, error, evals, converged = self.CASES[case]
        res = run()
        assert (res.value.hex(), res.error.hex(), res.evals,
                res.converged) == (value, error, evals, converged)

    # every d = 3 case without crowded poles
    LONE_POLES_3D = ("single3_0.5", "fibonacci_9", "fibonacci_16",
                     "fibonacci_25", "interior3_4", "zones3_mixed",
                     "budget3_fibonacci_16")

    def test_lone_poles_skip_strata(self, monkeypatch):
        # without a cluster, no stratum code runs and the bits are those of
        # the bulk alone
        def forbidden(*args, **kwargs):
            raise AssertionError("cluster code ran")

        def bulk_sobol(key, dim, start, m):
            assert dim == 3, "stratum points drawn"
            dims.append(dim)
            return sobol(key, dim, start, m)

        sobol, dims = quadrature._sobol, []
        monkeypatch.setattr(quadrature, "_clusters", forbidden)
        monkeypatch.setattr(quadrature, "_strata_residual", forbidden)
        monkeypatch.setattr(quadrature, "_sobol", bulk_sobol)
        _first_round.cache_clear()
        for case in self.LONE_POLES_3D:
            assert _result_bits(self.CASES[case][0]()) == _pinned(case), case
        assert dims


def _pinned(case):
    run, value, error, evals, converged = TestStochasticPins.CASES[case]
    return (value, error, evals, converged)


def _result_bits(res):
    return (res.value.hex(), res.error.hex(), res.evals, res.converged)


def _single3(seed):
    res = chui_energy(_single(0.5, 3), QuadratureSpec(seed=seed))
    return _result_bits(res)


class TestFirstRoundCache:
    """The cached first RQMC round gives the pinned bits however the cache
    is filled, evicted or shared."""

    def test_same_seed_twice(self):
        _first_round.cache_clear()
        assert _single3(7) == _pinned("single3_0.5")
        assert _first_round.cache_info().hits == 0
        assert _single3(7) == _pinned("single3_0.5")
        assert _first_round.cache_info().hits == 1

    def test_interleaved_seeds(self):
        _first_round.cache_clear()
        cold8 = _single3(8)
        _first_round.cache_clear()
        assert _single3(7) == _pinned("single3_0.5")
        assert _single3(8) == cold8
        assert _single3(7) == _pinned("single3_0.5")
        assert _first_round.cache_info().currsize == 2

    def test_keyed_by_dimension(self):
        # one seed fills one block per dimension, and neither evicts the
        # other's bits
        _first_round.cache_clear()
        assert _single3(7) == _pinned("single3_0.5")
        assert (_result_bits(TestStochasticPins.CASES["boundary4"][0]())
                == _pinned("boundary4"))
        assert _first_round.cache_info().currsize == 2
        assert _single3(7) == _pinned("single3_0.5")
        assert _first_round.cache_info().hits == 1
        assert _first_round(7, 4, False)[0].shape == (4, 4096)

    def test_more_seeds_than_bound(self):
        _first_round.cache_clear()
        assert _single3(7) == _pinned("single3_0.5")
        for seed in range(100, 101 + _FIRST_ROUND_SEEDS):
            _single3(seed)
            assert _first_round.cache_info().currsize <= _FIRST_ROUND_SEEDS
        # seed 7 was evicted, so this call refills it
        misses = _first_round.cache_info().misses
        assert _single3(7) == _pinned("single3_0.5")
        assert _first_round.cache_info().misses == misses + 1
        assert _first_round.cache_info().currsize == _FIRST_ROUND_SEEDS

    def test_points_read_only(self):
        points = _first_round(7, 3, False)
        assert len(points) == 8
        for pts in points:
            assert pts.shape == (3, 4096)
            assert not pts.flags.writeable
            with pytest.raises(ValueError):
                pts[0, 0] = 0.0

    def test_threads_share_seed(self):
        # multi-round and first-round-only calls on one seed, more threads
        # than cores, started together on an empty cache with frequent
        # thread switches
        _first_round.cache_clear()
        cases = ("budget3_fibonacci_16", "single3_0.5", "interior3_4",
                 "zones3_mixed")
        got = {}
        start = threading.Barrier(len(cases))

        def work(case):
            start.wait()
            got[case] = _result_bits(TestStochasticPins.CASES[case][0]())

        threads = [threading.Thread(target=work, args=(c,)) for c in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == {c: _pinned(c) for c in cases}

    def test_later_rounds_keep_sobol_balance(self, monkeypatch):
        # every Sobol draw, of the first round and of the later rounds, of
        # the bulk and of the strata, starts and ends on a multiple of its
        # size, a power of two; an unbalanced draw raises
        def recording_sobol(key, dim, start, m):
            draws.append((dim, start, m))
            return sobol(key, dim, start, m)

        sobol, draws = quadrature._sobol, []
        monkeypatch.setattr(quadrature, "_sobol", recording_sobol)
        _first_round.cache_clear()
        res = TestStochasticPins.CASES["budget3_fibonacci_16"][0]()
        pair = chui_energy(_coaxial_pair(1e-4, -1.0),
                           QuadratureSpec(rel_tolerance=1e-4, seed=7))
        assert _result_bits(res) == _pinned("budget3_fibonacci_16")
        assert pair.evals > 3 * 8 * 4096
        # both sequences drew past the first round
        assert {(dim, start > 0) for dim, start, _ in draws} == {
            (3, False), (3, True), (6, False), (6, True)}
        for dim, start, m in draws:
            assert m & (m - 1) == 0 and start % m == 0 and (start + m) % m == 0
        for start, m in [(0, 3), (0, 0), (2048, 4096), (4096, 8192),
                         (1 << 30, 1), (0, 1 << 31)]:
            with pytest.raises(ValueError, match="unbalanced"):
                sobol(1, 3, start, m)


class TestSobolEngine:
    """The numpy scrambled Sobol engine: scipy's points bit for bit, and
    the net property of every balanced block."""

    KEYS = [(seed, rep) for seed in (0, 1, 7) for rep in (0, 5)]

    @pytest.mark.parametrize("tag", ["rqmc-bulk", "rqmc-stratum"])
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_matches_scipy(self, tag, dim):
        from scipy.stats import qmc

        for seed, rep in self.KEYS:
            key = derive_key(seed, tag, rep)
            engine = qmc.Sobol(d=dim, scramble=True, seed=key)
            # round 0, then doubling rounds after it, up to 2^17 points;
            # uint64 views compare the bits, as float.hex does
            start, m = 0, 4096
            while start + m <= 1 << 17:
                want = engine.random(m).T
                got = quadrature._sobol(key, dim, start, m)
                assert got.shape == (dim, m)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (seed, rep, start)
                start, m = start + m, start + m

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_balanced_blocks_are_nets(self, dim):
        # in every block of 2^k points starting at a multiple of 2^k, each
        # coordinate hits each dyadic interval of width 2^-k once, and
        # coordinates 0 and 1 put one point in every elementary box of
        # area 2^-k: a (0, k, 2)-net
        key = derive_key(3, "rqmc-bulk", 2)
        for start, m in [(0, 4096), (4096, 4096), (8192, 8192)]:
            q = (quadrature._sobol(key, dim, start, m)
                 * 2.0 ** 30).astype(np.int64)
            for k in range(m.bit_length()):
                block = np.arange(m) >> k << k
                for c in range(dim):
                    cells = block + (q[c] >> (30 - k))
                    assert np.all(np.bincount(cells, minlength=m) == 1)
                for i in range(k + 1):
                    cells = (block + (q[0] >> (30 - i) << (k - i))
                             + (q[1] >> (30 - k + i)))
                    assert np.all(np.bincount(cells, minlength=m) == 1), (
                        start, k, i)


def test_import_defers_scipy_stats():
    # the package runs on numpy alone: with scipy unimportable, importing
    # chargelab, a lone-pole and a clustered (strata) d = 3 energy and a
    # d = 4 energy run
    # and load no scipy module, and the bulk's first-round cache fills on
    # the first call, not at import
    src = os.path.dirname(os.path.dirname(chargelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import chargelab\n"
        "cache = chargelab.quadrature._first_round\n"
        "assert cache.cache_info().currsize == 0\n"
        "cfg = chargelab.ChargeConfiguration([[0.0, 0.0, 0.5]], [1.0])\n"
        "res = chargelab.chui_energy(cfg)\n"
        "assert res.method == 'rqmc' and res.converged\n"
        "assert cache.cache_info().currsize == 1\n"
        "pair = chargelab.ChargeConfiguration(\n"
        "    [[0.0, 0.0, 0.5], [0.0, 0.0, 0.51]], [1.0, 1.0])\n"
        "clustered = chargelab.chui_energy(pair)\n"
        "assert clustered.method == 'rqmc' and clustered.converged\n"
        "assert cache.cache_info().currsize == 2\n"
        "b4 = chargelab.ChargeConfiguration([[0.0, 0.0, 0.0, 1.0]], [1.0])\n"
        "b4 = chargelab.chui_energy(b4)\n"
        "assert b4.method == 'rqmc' and b4.converged\n"
        "assert cache.cache_info().currsize == 3\n"
        "assert not [m for m, mod in sys.modules.items()\n"
        "            if m.startswith('scipy') and mod is not None]\n"
        "print(repr(res.value), repr(res.error))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    value, error = map(float, proc.stdout.split())
    assert abs(value - single_pole_energy_3d(0.5)) <= 3.0 * error + 1e-3 * value


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="checks glibc malloc's trim heuristic")
def test_repeated_d3_calls_fault_no_pages():
    # the first-round cache frees a large block, after which glibc keeps the
    # heap pages of a d = 3 call's temporaries for the next call; without
    # it a lone pole faults about 600 pages per call and a crowded pair
    # 3600. scipy is blocked: its import frees such a block too
    src = os.path.dirname(os.path.dirname(chargelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import resource, sys\n"
        "sys.modules['scipy'] = None\n"
        "import chargelab\n"
        "cfgs = [chargelab.ChargeConfiguration([[0.0, 0.0, 0.5]], [1.0]),\n"
        "        chargelab.ChargeConfiguration(\n"
        "            [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5001]], [1.0, 1.0])]\n"
        "for cfg in cfgs:\n"
        "    chargelab.chui_energy(cfg)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(5):\n"
        "        chargelab.chui_energy(cfg)\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    print(after - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = [int(f) for f in proc.stdout.split()]
    assert len(faults) == 2 and max(faults) <= 5 * 50, faults


# the d = 3 surrogate mass as it was computed before the closed form: an
# adaptive 1e-12 quadrature of the taper times the clipped solid angle
def _quadrature_mass(t, support):
    def profile(r):
        if t < 1e-14:
            return _cutoff(r, support) * 4.0 * math.pi
        m = (1.0 - t * t - r * r) / (2.0 * t * r)
        return _cutoff(r, support) * TWO_PI * (1.0 + np.clip(m, -1.0, 1.0))

    cuts = [0.5 * support]
    if 0.0 < 1.0 - t < support:
        cuts.append(1.0 - t)
    return integrate_1d(profile, 0.0, support, 1e-12, max_evals=300_000,
                        cuts=cuts).value


def _mpmath_mass(t, support, d=3):
    """The same profile integral in 30-digit mpmath, split at every kink:
    the taper times the area of sphere(pole, r) inside the ball over
    r^(d-1), |S^(d-1)| times a regularized incomplete beta."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        t, big_r = mp.mpf(t), mp.mpf(support)
        h = big_r / 2
        area = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        a = mp.mpf(d - 1) / 2

        def profile(r):
            s = r / h
            c = 1 if s <= 1 else 2 * s ** 3 - 9 * s ** 2 + 12 * s - 4
            if r <= 1 - t:
                return area * c
            if r < t - 1:
                return mp.mpf(0)
            x = (1 + (1 - t * t - r * r) / (2 * r * t)) / 2
            return area * c * mp.betainc(a, a, 0, x, regularized=True)

        kinks = {mp.mpf(0), h, big_r}
        if abs(1 - t) < big_r:
            kinks.add(abs(1 - t))
        return mp.quad(profile, sorted(kinks))


def _mass(t, support):
    return float(_surrogate_mass(np.array([t]), np.array([support]))[0])


_SUPPORTS = [1e-4, 1e-3, 1e-2, 0.1, 0.37, 0.5]


class TestSurrogateMass:
    """The closed-form mass of one surrogate c(r)/r^2 over the ball."""

    @pytest.mark.parametrize("support", _SUPPORTS)
    def test_interior_pole(self, support):
        # the whole sphere(pole, r) is inside and the taper integrates to
        # 3R/4, so the mass is 4 pi 3R/4
        for t in (0.0, 1e-15, 0.25, 0.5 - support, 1.0 - support):
            assert _mass(max(t, 0.0), support) == 3.0 * math.pi * support

    @pytest.mark.parametrize("support", _SUPPORTS)
    @pytest.mark.parametrize("t", [0.0, 1e-15, 1e-3, 0.3, 0.5, 1.0 - 1e-9,
                                   1.0, "gap_0.3", "gap_0.7"])
    def test_against_quadrature(self, t, support):
        # "gap_f": 1 - t = f R, within the flat part (f < 1/2) or the taper
        if isinstance(t, str):
            t = 1.0 - float(t[4:]) * support
        expect = _quadrature_mass(t, support)
        assert abs(_mass(t, support) - expect) <= 1e-13 * expect

    @pytest.mark.parametrize("support", [1e-6, 1e-4, 1e-2, 0.5])
    @pytest.mark.parametrize("t", [np.nextafter(1.0, 0.0), 1.0,
                                   np.nextafter(1.0, 2.0)])
    def test_against_mpmath_at_sphere(self, t, support):
        # a pole 1 ulp inside the sphere has a fully inside shell thinner
        # than an ulp, which the quadrature misses; 1 ulp outside, the
        # solid angle is 0 up to r = t - 1
        expect = float(_mpmath_mass(float(t), support))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _mass(float(t), support)
        assert abs(got - expect) <= 1e-13 * expect

    def test_vectorized_over_poles(self):
        t = np.array([0.0, 0.3, 0.95, 1.0, np.nextafter(1.0, 2.0)])
        support = np.array([0.5, 0.2, 0.1, 1e-3, 0.3])
        expect = [_mass(a, b) for a, b in zip(t, support)]
        np.testing.assert_allclose(_surrogate_mass(t, support), expect,
                                   rtol=1e-15, atol=0.0)

    # radii in the ball and snapped sphere poles 1 and 4 ulps outside
    _RADII = st.floats(0.0, 1.0) | st.sampled_from(
        [float(np.nextafter(1.0, 2.0)), 1.0 + 4.0 * 2.0 ** -52])

    @settings(max_examples=200)
    @given(st.floats(1e-6, 0.5), _RADII, _RADII)
    def test_decreasing_in_t(self, support, t1, t2):
        lo, hi = sorted((t1, t2))
        m_lo, m_hi = _mass(lo, support), _mass(hi, support)
        for m in (m_lo, m_hi):
            assert 0.0 < m <= 3.0 * math.pi * support
        # up to rounding: adjacent radii can differ by 2 ulps the wrong way
        assert m_hi <= m_lo * (1.0 + 4.0 * np.finfo(float).eps)


class TestCapMass:
    """The d >= 4 surrogate mass: Gauss-Legendre pieces over the cap
    fraction, checked in d = 3 against the closed form and in d = 4 and 5
    against mpmath."""

    # with snapped sphere poles 1 ulp inside and outside
    _T = [0.0, 0.5, 0.9, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0)), 1.0,
          float(np.nextafter(1.0, 2.0))]

    @pytest.mark.parametrize("support", _SUPPORTS)
    def test_closed_form_in_d3(self, support):
        t = np.array([0.0, 0.5, 1.0 - 1e-12, 1.0])
        expect = _surrogate_mass(t, support)
        got = _cap_mass(t, np.full(t.size, support), 3)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("support", [1e-4, 1e-2, 0.37, 0.5])
    def test_against_mpmath(self, d, support):
        expect = [float(_mpmath_mass(t, support, d)) for t in self._T]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cap_mass(np.array(self._T), np.full(len(self._T), support),
                            d)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_interior_pole(self, d):
        # a sphere(pole, r) wholly inside: |S^(d-1)| times the taper's 3R/4
        support = np.array([0.5, 0.1, 1e-3])
        expect = d * unit_ball_volume(d) * 0.75 * support
        np.testing.assert_allclose(_cap_mass(np.array([0.0, 0.5, 0.9]),
                                             support, d),
                                   expect, rtol=1e-15, atol=0.0)


class TestRoundZeroPass:
    """Round 0 of the RQMC bulk is one residual call on the whole first
    round, and its replicate sums equal those of one call per replicate."""

    # the call's chunks hold 32768, 8192, 3640 and 1310 points: the whole
    # round, two replicates each, and chunks straddling replicates
    @pytest.mark.parametrize("n", [1, 4, 9, 25])
    def test_sums_match_per_replicate_calls(self, n, monkeypatch):
        cfg = fibonacci_sphere_config(n)
        pos, w = cfg.positions, cfg.weights
        supports = np.minimum(0.5, _nearest_neighbor_dists(pos))
        first = _first_round(7, 3, False)
        block = first[0].base
        assert block.shape == (3, 8 * 4096) and block.flags.c_contiguous
        assert not block.flags.writeable
        assert all(p.base is block for p in first)

        calls, got = [], []

        def residual(pts):
            calls.append(pts.shape[0])
            return _residual(pos, w, supports, pts)

        def round_zero(sample, n_rep, draw, *args):
            got.append(sample(0, draw))
            return 0.0, 0.0, n_rep * draw, True

        monkeypatch.setattr(quadrature, "_replicated_mean", round_zero)
        quadrature._rqmc_bulk(residual, QuadratureSpec(seed=7), 3, 10**6, None)
        assert calls == [8 * 4096]
        expect = [np.sum(_residual(pos, w, supports, pts.T))
                  for pts in first]
        assert [float(v).hex() for v in got[0]] == [float(v).hex()
                                                    for v in expect]


def test_d3_energy_has_no_fixed_quadrature(monkeypatch):
    # the mass is closed-form: no 1-D or region cubature runs in d = 3
    def forbidden(*args, **kwargs):
        raise AssertionError("d = 3 energy called a cubature routine")

    monkeypatch.setattr(quadrature, "integrate_1d", forbidden)
    monkeypatch.setattr(quadrature, "integrate_regions", forbidden)
    for cfg in (_single(1.0, 3), fibonacci_sphere_config(9),
                random_config(4, 3, seed=13, interior=True)):
        res = chui_energy(cfg, QuadratureSpec(seed=7))
        assert res.method == "rqmc" and res.converged
