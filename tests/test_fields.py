import math

import numpy as np
import pytest

from chargelab import (ChargeConfiguration, SingularPointError,
                       averaged_kernel, cauchy_transform, field_at,
                       fibonacci_sphere_config, potential_at, random_config,
                       uniform_circle_config)
from chargelab.fields import _field_mag, _offsets, averaged_kernel_batch
from chargelab.rng import substream

from _oracles import averaged_kernel_quad

TWO_PI = 2.0 * math.pi


def _interior_points(gen, n, d, rmax=0.8):
    raw = gen.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    r = rmax * gen.random(n) ** (1.0 / d)
    return raw * r[:, None]


class TestFieldBasics:
    def test_single_pole_at_origin_value(self):
        cfg = ChargeConfiguration([[1.0, 0.0]], [1.0])
        s = field_at(cfg, [0.0, 0.0])
        assert np.allclose(s.field, [1.0, 0.0])
        assert s.magnitude == pytest.approx(1.0, abs=1e-15)

    def test_antipodal_pair_cancels_at_origin(self):
        s = field_at(uniform_circle_config(2), [0.0, 0.0])
        assert s.magnitude <= 1e-15

    def test_magnitude_matches_vector(self):
        gen = substream(0, "test-mag")
        cfg = random_config(4, 3, seed=5)
        for x in _interior_points(gen, 20, 3):
            s = field_at(cfg, x)
            assert s.magnitude == pytest.approx(np.linalg.norm(s.field), rel=1e-14)

    def test_singular_point_rejected(self):
        cfg = ChargeConfiguration([[0.5, 0.0]], [1.0])
        with pytest.raises(SingularPointError):
            field_at(cfg, [0.5, 0.0])

    def test_outside_ball_rejected(self):
        cfg = uniform_circle_config(2)
        with pytest.raises(ValueError):
            field_at(cfg, [1.0, 0.0])
        with pytest.raises(ValueError):
            field_at(cfg, [1.5, 0.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            field_at(uniform_circle_config(2), [0.1, 0.1, 0.1])


class TestCauchyTransform:
    def test_single_pole(self):
        cfg = ChargeConfiguration([[1.0, 0.0]], [1.0])
        assert cauchy_transform(cfg, 0j) == pytest.approx(1.0)

    def test_pair_cancels(self):
        assert cauchy_transform(uniform_circle_config(2), 0j) == pytest.approx(0.0, abs=1e-15)

    def test_magnitude_agrees_with_field(self):
        gen = substream(0, "test-cauchy")
        cfg = ChargeConfiguration(
            random_config(5, 2, seed=9).positions,
            np.array([0.5, 1.0, 2.0, 0.25, 3.0]),
        )
        for x in _interior_points(gen, 100, 2, rmax=0.95):
            z = complex(x[0], x[1])
            c = cauchy_transform(cfg, z)
            s = field_at(cfg, x)
            assert abs(c) == pytest.approx(s.magnitude, rel=1e-12)
            # planar field is the conjugate of the pole sum
            assert complex(s.field[0], s.field[1]) == pytest.approx(np.conj(c), rel=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            cauchy_transform(fibonacci_sphere_config(3), 0j)

    def test_unit_modulus_rejected(self):
        with pytest.raises(ValueError):
            cauchy_transform(uniform_circle_config(2), 1j)


class TestRootsOfUnityIdentity:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_closed_form_magnitude(self, n):
        # closed form: the pole sum at the n-th roots of unity telescopes to
        # n z^(n-1) / (z^n - 1); radius kept off 0 where the field vanishes
        cfg = uniform_circle_config(n)
        gen = substream(0, "test-roots", n)
        r = 0.35 + 0.6 * gen.random(40)
        phi = TWO_PI * gen.random(40)
        for z in r * np.exp(1j * phi):
            expect = abs(n * z ** (n - 1) / (z ** n - 1.0))
            got = field_at(cfg, [z.real, z.imag]).magnitude
            assert got == pytest.approx(expect, rel=1e-10)


class TestPotential:
    def test_d3_single_pole_value(self):
        cfg = ChargeConfiguration([[0.0, 0.0, 1.0]], [1.0])
        assert potential_at(cfg, [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_d2_single_pole_value(self):
        cfg = ChargeConfiguration([[1.0, 0.0]], [1.0])
        assert potential_at(cfg, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_allows_points_outside_ball(self):
        cfg = ChargeConfiguration([[1.0, 0.0]], [1.0])
        assert math.isfinite(potential_at(cfg, [2.0, 0.0]))

    @pytest.mark.parametrize("d,sign", [(2, -1.0), (3, 1.0), (4, 1.0)])
    def test_gradient_reproduces_field(self, d, sign):
        """Central differences of the potential recover sign * field."""
        cfg = ChargeConfiguration(
            random_config(3, d, seed=21).positions,
            np.array([1.0, 0.5, 2.0]),
        )
        gen = substream(0, "test-grad", d)
        h = 1e-5
        checked = 0
        while checked < 50:
            x = _interior_points(gen, 1, d)[0]
            dist = np.linalg.norm(cfg.positions - x, axis=1)
            if dist.min() < 0.2:
                continue
            grad = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                grad[i] = (potential_at(cfg, x + e) - potential_at(cfg, x - e)) / (2 * h)
            f = field_at(cfg, x).field
            assert np.linalg.norm(grad - sign * f) <= 1e-6 * np.linalg.norm(f)
            checked += 1


class TestSymmetries:
    def test_rotation_equivariance_2d(self):
        cfg = ChargeConfiguration(random_config(4, 2, seed=2).positions,
                                  np.array([1.0, 2.0, 0.5, 1.5]))
        t = 0.7318
        q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        rcfg = ChargeConfiguration(cfg.positions @ q.T, cfg.weights)
        gen = substream(0, "test-rot2")
        for x in _interior_points(gen, 10, 2):
            f = field_at(cfg, x).field
            fr = field_at(rcfg, q @ x).field
            assert np.allclose(fr, q @ f, rtol=1e-12, atol=1e-13)

    def test_rotation_equivariance_3d(self):
        cfg = random_config(5, 3, seed=8)
        gen = substream(0, "test-rot3")
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        rcfg = ChargeConfiguration(cfg.positions @ q.T, cfg.weights)
        for x in _interior_points(gen, 10, 3):
            f = field_at(cfg, x).field
            fr = field_at(rcfg, q @ x).field
            assert np.allclose(fr, q @ f, rtol=1e-12, atol=1e-13)

    def test_weight_homogeneity(self):
        base = random_config(4, 2, seed=13)
        gen = substream(0, "test-homog")
        for lam in (0.5, 2.0, 10.0):
            scaled = ChargeConfiguration(base.positions, lam * base.weights)
            for x in _interior_points(gen, 5, 2):
                f0 = field_at(base, x).field
                f1 = field_at(scaled, x).field
                assert np.allclose(f1, lam * f0, rtol=1e-14)

    def test_superposition(self):
        a = random_config(3, 3, seed=4)
        b = ChargeConfiguration(random_config(2, 3, seed=6).positions,
                                np.array([2.0, 0.5]))
        merged = ChargeConfiguration(
            np.vstack([a.positions, b.positions]),
            np.concatenate([a.weights, b.weights]),
        )
        gen = substream(0, "test-super")
        for x in _interior_points(gen, 10, 3):
            fa = field_at(a, x).field
            fb = field_at(b, x).field
            fm = field_at(merged, x).field
            assert np.allclose(fm, fa + fb, rtol=1e-13, atol=1e-14)


def _field_mag_of(positions, weights, pts, d):
    diff, r2 = _offsets(positions, pts)
    return _field_mag(diff, r2, weights, d)


class TestFieldMagBatch:
    """The component-major field kernel (`_offsets` then `_field_mag`) on a
    batch of points, against field_at and against the old (points x poles x
    d) formula."""

    @staticmethod
    def _old(positions, weights, pts, d):
        diff = positions[None, :, :] - pts[:, None, :]
        r2 = np.sum(diff * diff, axis=2)
        scale = weights[None, :] * r2 ** (-0.5 * d)
        vec = np.sum(scale[:, :, None] * diff, axis=1)
        return np.sqrt(np.sum(vec * vec, axis=1))

    @staticmethod
    def _signed(d, n, seed):
        gen = substream(seed, "test-field-batch", d)
        cfg = random_config(n, d, seed=seed, interior=True)
        w = gen.uniform(0.2, 3.0, n) * gen.choice([-1.0, 1.0], n)
        return ChargeConfiguration(cfg.positions, w), gen

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_matches_field_at(self, d):
        cfg, gen = self._signed(d, 6, 40 + d)
        pts = _interior_points(gen, 200, d)
        batch = _field_mag_of(cfg.positions, cfg.weights, pts, d)
        for x, mag in zip(pts, batch):
            assert mag == pytest.approx(field_at(cfg, x).magnitude, rel=1e-12)

    @pytest.mark.parametrize("d,n", [(3, 1), (3, 12), (4, 9), (5, 3)])
    def test_bitwise_against_old_layout(self, d, n):
        cfg, gen = self._signed(d, n, 50 + d)
        # many points at once, and single-point calls, where numpy's own
        # sum over the poles would switch to pairwise order
        pts = _interior_points(gen, 9000, d, rmax=0.99)
        old = self._old(cfg.positions, cfg.weights, pts, d)
        new = _field_mag_of(cfg.positions, cfg.weights, pts, d)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
        for j in range(0, 9000, 500):
            one = _field_mag_of(cfg.positions, cfg.weights, pts[j:j + 1], d)
            assert one[0].hex() == old[j].hex()


class TestAveragedKernel:
    def test_full_circle_vanishes(self):
        for z in (0j, 0.3 + 0.4j, -0.9j):
            assert abs(averaged_kernel(z, (-math.pi, math.pi))) <= 1e-10

    def test_origin_half_circle(self):
        # mean of 1/(0 - e^(i theta)) over [0, pi) is 2i/pi
        got = averaged_kernel(0j, (0.0, math.pi))
        assert got == pytest.approx(2j / math.pi, rel=1e-9)

    def test_short_arc_approaches_pointwise_kernel(self):
        z = 0.2 - 0.3j
        theta0 = 1.1
        l = 1e-4
        got = averaged_kernel(z, (theta0 - l / 2, theta0 + l / 2))
        assert got == pytest.approx(1.0 / (z - np.exp(1j * theta0)), rel=1e-7)

    def test_arc_validation(self):
        with pytest.raises(ValueError):
            averaged_kernel(0j, (1.0, 1.0))
        with pytest.raises(ValueError):
            averaged_kernel(0j, (0.0, 7.0))
        with pytest.raises(ValueError):
            averaged_kernel(1.0 + 0j, (0.0, 1.0))

    def test_batch_matches_adaptive(self):
        """Closed form against the independent quadrature route."""
        gen = substream(0, "test-kernel-batch")
        for _ in range(25):
            a = -math.pi + TWO_PI * gen.random()
            length = 0.01 + (TWO_PI - 0.02) * gen.random()
            r = 0.97 * gen.random()
            z = r * np.exp(1j * TWO_PI * gen.random())
            arc = (a, a + length)
            ref = averaged_kernel_quad(z, arc)
            got = averaged_kernel_batch(np.array([z]), arc)[0]
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_batch_regime_boundary(self):
        # points either side of |z| = 0.5
        arc = (0.3, 2.1)
        zs = np.array([0.499 * np.exp(0.9j), 0.501 * np.exp(0.9j)])
        got = averaged_kernel_batch(zs, arc)
        for z, g in zip(zs, got):
            assert g == pytest.approx(averaged_kernel_quad(z, arc), rel=1e-9)

    def test_batch_wrap_branch(self):
        # z radially aligned with an end of a long arc: 1 + w is far from 1
        arc = (0.5, 0.5 + 6.0)
        zs = np.array([0.8 * np.exp(0.5j), 0.8 * np.exp(1j * (0.5 + 6.0))])
        got = averaged_kernel_batch(zs, arc)
        for z, g in zip(zs, got):
            assert g == pytest.approx(averaged_kernel_quad(z, arc), rel=1e-8)

    def test_batch_near_full_arc_small(self):
        out = averaged_kernel_batch(np.array([0.4 + 0.1j]), (0.0, TWO_PI - 1e-10))
        assert abs(out[0]) <= 1e-9

    def test_batch_full_arc_zero(self):
        out = averaged_kernel_batch(np.array([0.4 + 0.1j]), (0.0, TWO_PI))
        assert out[0] == 0j

    def test_origin_exact(self):
        # z = 0 exactly takes the limit -i (e^(-ib) - e^(-ia)) / l, which
        # the points next to it approach
        for arc in ((0.0, math.pi), (-2.0, 0.5), (1.0, 1.0 + 1e-6),
                    (0.3, 0.3 + TWO_PI - 1e-6)):
            got = averaged_kernel_batch(np.array([0j, 1e-300 + 0j]), arc)
            assert np.all(np.isfinite(got))
            assert got[0] == pytest.approx(got[1], rel=1e-14)
            assert got[0] == pytest.approx(averaged_kernel_quad(0j, arc),
                                           rel=1e-9)

    def test_near_circle(self):
        # |z| = 1 - 1e-9: at the closest-approach angle inside and outside
        # the arc, and at an arc end
        arc = (-0.4, 1.3)
        r = 1.0 - 1e-9
        for angle in (0.2, 2.0, 1.3, -0.4):
            z = r * np.exp(1j * angle)
            got = averaged_kernel_batch(np.array([z]), arc)[0]
            assert np.isfinite(got)
            ref = averaged_kernel_quad(z, arc, rel_tol=1e-8)
            assert got == pytest.approx(ref, rel=1e-6)

    def test_extreme_arc_lengths(self):
        gen = substream(0, "test-kernel-extreme-arcs")
        for length in (1e-6, TWO_PI - 1e-6):
            for _ in range(8):
                a = -math.pi + TWO_PI * gen.random()
                z = 0.95 * gen.random() * np.exp(1j * TWO_PI * gen.random())
                arc = (a, a + length)
                got = averaged_kernel_batch(np.array([z]), arc)[0]
                assert got == pytest.approx(averaged_kernel_quad(z, arc),
                                            rel=1e-9, abs=1e-12)

    def test_per_point_arcs_match_one_arc(self):
        # one arc per point gives each point the bits of its one-arc call
        gen = substream(0, "test-kernel-per-point")
        arcs = [(-0.05, 0.05), (-2.0, 1.0), (0.5, 0.5 + TWO_PI - 1e-3),
                (-math.pi, math.pi)]
        zs = np.sqrt(gen.random(50)) * np.exp(1j * TWO_PI * gen.random(50))
        zs[0] = 0.0
        a = np.repeat([arc[0] for arc in arcs], zs.size)
        b = np.repeat([arc[1] for arc in arcs], zs.size)
        got = averaged_kernel_batch(np.tile(zs, len(arcs)), (a, b))
        for i, arc in enumerate(arcs):
            one = averaged_kernel_batch(zs, arc)
            assert np.array_equal(got[i * zs.size:(i + 1) * zs.size], one)
        assert averaged_kernel(zs[1], arcs[1]) == got[zs.size + 1]
