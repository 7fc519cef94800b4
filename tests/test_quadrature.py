import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chargelab
from chargelab import (ChargeConfiguration, QuadratureSpec, chui_energy,
                       l1_defect, merge_configs, random_config, two_pole_l1,
                       uniform_circle_config, unit_ball_volume)

from _oracles import (FROZEN_SINGLE_2D, FROZEN_SINGLE_3D,
                      FROZEN_SINGLE_4D_BOUNDARY, FROZEN_UNIFORM_ENERGY,
                      ORACLE_TOL, mc_energy, single_pole_energy_2d,
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


class TestSpecValidation:
    def test_rel_tolerance_range(self):
        for bad in (0.0, 0.5, 0.7, -1.0):
            with pytest.raises(ValueError):
                QuadratureSpec(rel_tolerance=bad)

    def test_max_evals_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_evals=999)

    def test_pole_radius_positive(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                QuadratureSpec(pole_radius=bad)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method="simpson")

    def test_method_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chui_energy(_single(0.0, 3), QuadratureSpec(method="adaptive"))
        with pytest.raises(ValueError):
            chui_energy(_single(0.0, 2), QuadratureSpec(method="rqmc"))

    def test_mc_allowed_anywhere(self):
        res = chui_energy(_single(0.5, 2), QuadratureSpec(method="mc",
                                                          rel_tolerance=0.02))
        assert res.method == "mc"
        assert res.value == pytest.approx(FROZEN_SINGLE_2D[0.5], rel=0.1)


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

    def test_error_views(self):
        res = chui_energy(uniform_circle_config(2), QuadratureSpec())
        assert res.error_bound == res.error
        assert res.std_error is None


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
        assert res.std_error == res.error
        assert abs(res.value - expect) <= max(4.0 * res.error, 3e-3 * expect)


class TestNearSpherePole:
    """1e-11 inside the sphere is interior for the bounds and the zones alike."""

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
        res = chui_energy(_single(1.0, 4), QuadratureSpec(rel_tolerance=5e-3,
                                                          seed=3))
        assert res.method == "mc"
        assert res.degraded
        diff = abs(res.value - FROZEN_SINGLE_4D_BOUNDARY)
        assert diff <= 4.0 * res.error


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

    def test_pole_radius_insensitive(self):
        cfg = uniform_circle_config(4)
        r1 = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-4))
        r2 = chui_energy(cfg, QuadratureSpec(rel_tolerance=1e-4, pole_radius=0.06))
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
        res = l1_defect(1.0, (-math.pi, math.pi))
        assert res.converged
        assert abs(res.value - 4.0) <= 3.0 * res.error + 1e-9

    def test_midpoint_enforced(self):
        with pytest.raises(ValueError):
            l1_defect(1.0, (0.0, 1.0))

    def test_quarter_arc_bracketed(self):
        full = l1_defect(1.0, (-math.pi, math.pi))
        quarter = l1_defect(1.0, (-math.pi / 4, math.pi / 4))
        assert 0.0 < quarter.value < full.value

    def test_arc_validation(self):
        with pytest.raises(ValueError):
            l1_defect(1.0, (1.0, 1.0))
        with pytest.raises(ValueError):
            l1_defect(1.0, (-4.0, 4.0))

    def test_rotation_invariance(self):
        spec = QuadratureSpec(rel_tolerance=1e-3)
        l = 0.8
        a = l1_defect(1.0, (-l / 2, l / 2), spec)
        z0 = complex(math.cos(2.0), math.sin(2.0))
        b = l1_defect(z0, (2.0 - l / 2, 2.0 + l / 2), spec)
        assert abs(a.value - b.value) <= 2.0 * (a.error + b.error) + 1e-9


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


class TestDecompositionPins:
    """Exact eval counts of the planar decomposition, so any change to its
    pieces, their order or their initial cuts fails here first."""

    CASES = {
        "uniform_64": (lambda: chui_energy(uniform_circle_config(64),
                                           QuadratureSpec(rel_tolerance=1e-4)),
                       391500, uniform_energy(64)),
        "boundary_single": (lambda: chui_energy(
            ChargeConfiguration([[0.0, 1.0]], [1.0]),
            QuadratureSpec(rel_tolerance=1e-4)), 4275,
            single_pole_energy_2d(1.0)),
        # the references below are the pinned decomposition's own values
        "random_interior_16": (lambda: chui_energy(
            random_config(16, 2, seed=7, interior=True)), 29475,
            41.692036267387465),
        "defect_0.1": (lambda: l1_defect(1.0, (-0.05, 0.05)), 12375,
                       0.14813440220664695),
        "two_pole": (lambda: two_pole_l1(0.5, 0.5 + 0.3j), 3600,
                     4.586880172713139),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_evals_pinned(self, case):
        run, evals, reference = self.CASES[case]
        res = run()
        assert res.converged
        assert res.evals == evals
        assert abs(res.value - reference) <= res.error


def test_import_defers_scipy_stats():
    # scipy.stats (about a second to import) is only needed by the d=3 RQMC
    # bulk, so importing chargelab must not load it
    src = os.path.dirname(os.path.dirname(chargelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import chargelab\n"
        "assert 'scipy.stats' not in sys.modules\n"
        "cfg = chargelab.ChargeConfiguration([[0.0, 0.0, 0.5]], [1.0])\n"
        "res = chargelab.chui_energy(cfg)\n"
        "assert res.method == 'rqmc' and res.converged\n"
        "print(repr(res.value), repr(res.error))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    value, error = map(float, proc.stdout.split())
    assert abs(value - single_pole_energy_3d(0.5)) <= 3.0 * error + 1e-3 * value
