import math

import numpy as np
import pytest

from chargelab import (BoundReport, ChargeConfiguration, DominanceReport,
                       NEWMAN_CONSTANT, ProofGeometry, QuadratureSpec,
                       WeightStats, dominance_check, interior_pole_bound,
                       lower_bound_rhs, make_bound_report, poisson_gap,
                       proof_constant, random_config, reduction_budget,
                       run_lemma_suites, tangent_ball_gap,
                       tangent_ball_ratio_margin, uniform_circle_config,
                       unit_ball_volume, weighted_arc_config)
from chargelab.bounds import (_verdict, run_dominance_suite,
                              run_poisson_suite, run_ratio_suite,
                              run_tangent_suite)
from chargelab.rng import substream

from _oracles import FROZEN_SINGLE_2D, FROZEN_UNIFORM_ENERGY

TWO_PI = 2.0 * math.pi


class TestConstants:
    def test_newman_constant(self):
        assert NEWMAN_CONSTANT == math.pi / 18.0

    def test_proof_constant_values(self):
        assert proof_constant(2) == pytest.approx(math.pi / 128.0, rel=1e-15)
        assert proof_constant(3) == pytest.approx((4 * math.pi / 3) / 256.0, rel=1e-15)

    def test_conservative_variant(self):
        # d = 2 is the crossover: d+5 == 2d+3 there
        assert proof_constant(2, conservative=True) == proof_constant(2)
        for d in (3, 4, 5):
            assert proof_constant(d, conservative=True) < proof_constant(d)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            proof_constant(1)


class TestWeightStats:
    def test_equal_weights_collapse(self):
        s = WeightStats.from_weights([2.0, 2.0, 2.0], 2)
        assert s.A == 6.0 and s.B == 12.0 and s.G == 6.0
        assert s.ratio_lower == pytest.approx(2.0)
        assert s.ratio_upper == pytest.approx(2.0)

    def test_one_two_planar(self):
        s = WeightStats.from_weights([1.0, 2.0], 2)
        assert s.A == 3.0 and s.B == 5.0 and s.G == 3.0
        assert s.ratio_lower == pytest.approx(5.0 / 3.0)

    def test_planar_g_equals_a(self):
        w = np.array([0.3, 1.1, 4.0])
        s = WeightStats.from_weights(w, 2)
        assert s.G == s.A

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            WeightStats.from_weights([1.0, 0.0], 2)

    def test_lower_bound_rhs_example(self):
        got = lower_bound_rhs([1.0, 2.0], 2, math.pi / 128.0)
        assert got == pytest.approx(5.0 * math.pi / 384.0, rel=1e-14)

    def test_lower_bound_rhs_constant_guard(self):
        with pytest.raises(ValueError):
            lower_bound_rhs([1.0], 2, 0.0)


class TestProofGeometry:
    def test_unit_weight_radii(self):
        geo = ProofGeometry(uniform_circle_config(4))
        assert np.allclose(geo.radii, 1.0 / 64.0)

    def test_radius_cap(self):
        # heaviest admissible skew still keeps every radius below 2^-(d+2)
        cfg = ChargeConfiguration(uniform_circle_config(3).positions,
                                  np.array([1e-6, 1.0, 1e6]))
        geo = ProofGeometry(cfg)
        assert np.all(geo.radii <= 2.0 ** -4 + 1e-18)

    def test_centers_tangent_inside(self):
        geo = ProofGeometry(uniform_circle_config(2))
        assert np.allclose(np.linalg.norm(geo.centers, axis=1) + geo.radii, 1.0)

    def test_membership_form_signs(self):
        geo = ProofGeometry(uniform_circle_config(1))
        r = geo.radii[0]
        assert geo.membership_form(geo.centers[0])[0] < 0.0
        deepest = (1.0 - 2.0 * r) * geo.positions[0]
        assert abs(geo.membership_form(deepest)[0]) <= 1e-12
        assert geo.membership_form(np.zeros(2))[0] > 0.0

    def test_interior_charge_rejected(self):
        with pytest.raises(ValueError):
            ProofGeometry(ChargeConfiguration([[0.5, 0.0]], [1.0]))

    def test_negative_weight_rejected(self):
        cfg = ChargeConfiguration(uniform_circle_config(2).positions,
                                  np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ProofGeometry(cfg)


class TestPoissonGap:
    def test_origin_value(self):
        for d in (2, 3, 4):
            y = np.zeros(d)
            y[0] = 1.0
            assert poisson_gap(y, np.zeros(d), d) == pytest.approx(0.5)

    def test_near_equality_at_antipode(self):
        y = np.array([1.0, 0.0])
        for eps in (1e-3, 1e-6):
            g = poisson_gap(y, -(1.0 - eps) * y, 2)
            assert -1e-12 <= g < 2 * eps

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_gap([0.5, 0.0], [0.0, 0.0], 2)   # y off the sphere
        with pytest.raises(ValueError):
            poisson_gap([1.0, 0.0], [1.0, 0.0], 2)   # x on the boundary
        with pytest.raises(ValueError):
            poisson_gap([1.0, 0.0], [0.1, 0.2, 0.3], 2)

    def test_vectorized_matches_scalar(self):
        gen = substream(0, "test-poisson-vec")
        d = 3
        v = gen.standard_normal((8, d))
        y = v / np.linalg.norm(v, axis=1)[:, None]
        u = gen.standard_normal((8, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        x = 0.8 * u * gen.random((8, 1)) ** (1.0 / d)
        batch = poisson_gap(y, x, d)
        for i in range(8):
            assert batch[i] == poisson_gap(y[i], x[i], d)


class TestTangentBallGap:
    def test_deepest_point_is_equality(self):
        for d in (2, 3):
            y = np.zeros(d)
            y[0] = 1.0
            for r in (0.01, 0.25, 0.49):
                x = (1.0 - 2.0 * r) * y
                assert abs(tangent_ball_gap(y, r, x, d)) <= 1e-9

    def test_interior_points_nonnegative(self):
        gen = substream(0, "test-tangent-pts")
        y = np.array([0.0, 1.0])
        r = 0.2
        center = (1.0 - r) * y
        for _ in range(50):
            x = center + r * 0.999 * gen.random() * _rand_unit(gen, 2)
            assert tangent_ball_gap(y, r, x, 2) >= -1e-12

    def test_outside_ball_rejected(self):
        y = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            tangent_ball_gap(y, 0.1, np.zeros(2), 2)

    def test_radius_range(self):
        y = np.array([1.0, 0.0])
        x = 0.9 * y
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                tangent_ball_gap(y, bad, x, 2)


def _rand_unit(gen, d):
    v = gen.standard_normal(d)
    return v / np.linalg.norm(v)


class TestRatioMargin:
    def test_opposite_balls_nonpositive(self):
        y1 = np.array([1.0, 0.0])
        y2 = np.array([-1.0, 0.0])
        m = tangent_ball_ratio_margin(y1, 0.1, y2, 0.1, np.array([0.85, 0.0]), 2)
        assert m <= 1e-12

    def test_membership_validation(self):
        y1 = np.array([1.0, 0.0])
        y2 = np.array([-1.0, 0.0])
        with pytest.raises(ValueError):
            tangent_ball_ratio_margin(y1, 0.1, y2, 0.1, np.zeros(2), 2)
        with pytest.raises(ValueError):
            # x deep inside ball 2 as well
            tangent_ball_ratio_margin(y1, 0.49, y2, 0.49, np.array([-0.85, 0.0]), 2)


class TestDominance:
    def test_single_charge_margins(self):
        for d in (2, 3):
            pos = np.zeros((1, d))
            pos[0, 0] = 1.0
            cfg = ChargeConfiguration(pos, [1.0])
            geo = ProofGeometry(cfg)
            x = (1.0 - geo.radii[0]) * pos[0]  # ball center
            rep = dominance_check(cfg, x)
            assert rep.selected == 0
            assert rep.holds
            assert rep.min_margin == pytest.approx(2.0 ** d - 1.0, rel=1e-12)

    def test_planar_sum_reduction(self):
        # in dimension 2 the summed comparison reads 2 G m >= A / 2 with
        # G = A, so the relative margin is exactly 4m - 1 for m member balls
        cfg, _ = weighted_arc_config([1.0, 3.0, 0.5])
        geo = ProofGeometry(cfg)
        x = geo.centers[1]
        rep = dominance_check(cfg, x)
        members = int(np.sum(geo.contains(x)))
        assert rep.sum_margin == pytest.approx(4.0 * members - 1.0, rel=1e-9)

    def test_point_outside_union_rejected(self):
        cfg = uniform_circle_config(2)
        with pytest.raises(ValueError):
            dominance_check(cfg, np.zeros(2))

    def test_three_d_holds(self):
        from chargelab import fibonacci_sphere_config
        cfg = fibonacci_sphere_config(5)
        geo = ProofGeometry(cfg)
        x = geo.centers[2] + 0.5 * geo.radii[2] * np.array([1.0, 0.0, 0.0])
        rep = dominance_check(cfg, x)
        assert rep.holds
        assert rep.min_margin >= -1e-12


class TestInteriorPoleBound:
    def test_origin(self):
        cfg = ChargeConfiguration([[0.0, 0.0]], [1.0])
        assert interior_pole_bound(cfg) == pytest.approx(TWO_PI)

    def test_boundary_configs_give_zero(self):
        assert interior_pole_bound(uniform_circle_config(3)) == pytest.approx(0.0)

    def test_non_unit_weights_not_applicable(self):
        cfg = ChargeConfiguration([[0.0, 0.0]], [2.0])
        assert interior_pole_bound(cfg) is None

    def test_planar_only(self):
        from chargelab import fibonacci_sphere_config
        with pytest.raises(ValueError):
            interior_pole_bound(fibonacci_sphere_config(2))


class TestReductionBudget:
    def test_single_charge_equality(self):
        # one arc of length 2 pi: budget collapses to the single-pole energy
        cfg, part = weighted_arc_config([1.0])
        budget = reduction_budget(cfg, part)
        assert abs(budget.value - 4.0) <= 3.0 * budget.error + 1e-6

    def test_budget_dominates_energy(self):
        from chargelab import chui_energy
        cfg, part = weighted_arc_config([1.0, 2.0, 4.0])
        spec = QuadratureSpec(rel_tolerance=1e-3)
        budget = reduction_budget(cfg, part, spec)
        energy = chui_energy(cfg, spec)
        assert budget.converged
        assert energy.value <= budget.value + 3.0 * (energy.error + budget.error)

    def test_unconverged_defect_reaches_verdict(self):
        # at 2e4 evals the energy converges (16,200 evals) but the budget of
        # eight arc lengths (29,700 evals at this tolerance) cannot
        cfg, part = weighted_arc_config(np.arange(1.0, 9.0))
        spec = QuadratureSpec(max_evals=20_000)
        assert not reduction_budget(cfg, part, spec).converged
        report = make_bound_report(cfg, spec, partition=part)
        assert report.energy.converged
        assert not report.converged
        assert report.verdicts["upper_budget"] == "inconclusive"

    def test_max_evals_covers_whole_budget(self):
        # 64 arc lengths: the energy's initial cells fit in 1.5e5 evals, the
        # budget's (704 cells of 225 nodes) do not
        from chargelab import chui_energy
        cfg, part = weighted_arc_config(np.arange(1.0, 65.0))
        spec = QuadratureSpec(max_evals=150_000)
        chui_energy(cfg, spec)
        with pytest.raises(ValueError, match="initial decomposition"):
            reduction_budget(cfg, part, spec)

    def test_length_cache(self):
        from chargelab import l1_defect
        cfg, part = weighted_arc_config(np.ones(6))
        spec = QuadratureSpec(rel_tolerance=1e-3)
        budget = reduction_budget(cfg, part, spec)
        one = l1_defect(complex(math.cos(part.midpoints[0]),
                                math.sin(part.midpoints[0])),
                        part.arc(0), spec)
        # cumsum splits these equal arcs by an ulp; one defect serves all six
        assert np.unique(part.lengths).size > 1
        assert budget.evals == one.evals

    def test_length_identity(self):
        # sum of squared arc lengths is 4 pi^2 B / A^2, exactly
        w = np.array([0.7, 2.1, 0.2, 1.0])
        cfg, part = weighted_arc_config(w)
        s = WeightStats.from_weights(w, 2)
        assert np.sum(part.lengths ** 2) == pytest.approx(
            4.0 * math.pi ** 2 * s.B / s.A ** 2, rel=1e-14)

    def test_partition_mismatch_rejected(self):
        cfg, _ = weighted_arc_config([1.0, 2.0])
        _, other = weighted_arc_config([2.0, 1.0])
        with pytest.raises(ValueError):
            reduction_budget(cfg, other)

    def test_misplaced_charges_rejected(self):
        _, part = weighted_arc_config([1.0, 1.0])
        rotated = uniform_circle_config(2)  # angles 0, pi != midpoints
        with pytest.raises(ValueError):
            reduction_budget(rotated, part)


class TestVerdicts:
    def test_classifier(self):
        assert _verdict(1.0, 0.1) == "holds"
        assert _verdict(-1.0, 0.1) == "violated"
        assert _verdict(0.2, 0.1) == "inconclusive"
        assert _verdict(-0.2, 0.1) == "inconclusive"


class TestBoundReport:
    def test_uniform_pair_report(self):
        rep = make_bound_report(uniform_circle_config(2),
                                QuadratureSpec(rel_tolerance=1e-4))
        doc = rep.to_json_dict()
        assert set(doc) == {"energy", "err", "A", "B", "G", "ratio_lower",
                            "ratio_upper", "lower_theorem11", "verdicts",
                            "lower_newman", "lemma41_lhs"}
        assert doc["lower_newman"] == NEWMAN_CONSTANT
        assert doc["lemma41_lhs"] == 0.0
        assert abs(doc["energy"] - FROZEN_UNIFORM_ENERGY[2]) <= 1e-3
        assert rep.verdicts["lower_newman"] == "holds"
        assert rep.verdicts["lower_theorem11"] == "holds"

    def test_weighted_arc_report(self):
        cfg, part = weighted_arc_config([1.0, 2.0, 4.0])
        rep = make_bound_report(cfg, partition=part)
        doc = rep.to_json_dict()
        assert "upper_budget" in doc
        assert "lower_newman" not in doc
        assert rep.verdicts["upper_budget"] == "holds"

    def test_single_3d_report(self):
        pos = np.zeros((1, 3))
        pos[0, 2] = 1.0
        rep = make_bound_report(ChargeConfiguration(pos, [1.0]))
        doc = rep.to_json_dict()
        assert "lower_newman" not in doc and "upper_budget" not in doc
        assert "lemma41_lhs" not in doc
        assert doc["lower_theorem11"] == pytest.approx(
            unit_ball_volume(3) / 256.0)
        assert rep.verdicts["lower_theorem11"] == "holds"

    def test_negative_weights_rejected(self):
        cfg = ChargeConfiguration([[0.5, 0.0], [0.0, 0.5]], [1.0, -1.0])
        with pytest.raises(ValueError):
            make_bound_report(cfg)

    def test_json_round_trip(self):
        import json
        rep = make_bound_report(uniform_circle_config(1))
        # float repr round-trips exactly, so equality is the right check
        assert json.loads(rep.dumps()) == rep.to_json_dict()


class TestSuites:
    """Smaller-scale smoke runs; the acceptance module runs the full scale."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_poisson_never_negative(self, d):
        assert run_poisson_suite(10_000, d, seed=0) >= -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_tangent_never_negative(self, d):
        assert run_tangent_suite(10_000, d, seed=0) >= -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_ratio_never_positive(self, d):
        assert run_ratio_suite(10_000, d, seed=0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_dominance_no_failures(self, d):
        failures, worst = run_dominance_suite(10_000, d, seed=0)
        assert failures == 0
        assert worst >= -1e-12

    def test_aggregate_shape(self):
        out = run_lemma_suites(trials=2_000, seed=1, dims=(2,))
        assert set(out) == {"d2"}
        d2 = out["d2"]
        assert set(d2) == {"poisson_min_gap", "tangent_min_gap",
                           "ratio_max_margin", "dominance_failures",
                           "dominance_min_margin", "pass"}
        assert d2["poisson_min_gap"] >= -1e-12
        assert d2["tangent_min_gap"] >= -1e-12
        assert d2["ratio_max_margin"] <= 1e-12
        assert d2["dominance_failures"] == 0
        assert d2["pass"] is True

    # the suites' extremes as exact bits, so a change to a kernel's
    # summation order fails here first
    PINNED = {
        "d2": ("0x1.43fb671ad0000p-15", "0x1.78f5345de2000p-14",
               "-0x1.bbc7b43487800p-9", "0x1.7ffffffffffffp+1"),
        "d3": ("0x1.4c616c031a000p-15", "0x1.4ff2307ee0000p-17",
               "-0x1.6a6b73bd0ff80p-7", "0x1.bfffffffffffdp+2"),
    }

    def test_bits_pinned(self):
        out = run_lemma_suites(trials=2_000, seed=1)
        for key, bits in self.PINNED.items():
            entry = out[key]
            got = tuple(entry[k].hex() for k in (
                "poisson_min_gap", "tangent_min_gap", "ratio_max_margin",
                "dominance_min_margin"))
            assert got == bits
            assert entry["dominance_failures"] == 0

    def test_suites_deterministic(self):
        a = run_poisson_suite(5_000, 2, seed=9)
        b = run_poisson_suite(5_000, 2, seed=9)
        assert a == b
