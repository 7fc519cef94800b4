"""Independent reference values for the test suite.

Everything here is computed through routes that share no code with the
package's evaluation pipeline: 1-D elliptic-integral reductions evaluated by
scipy's QUADPACK wrapper, and a plain uniform Monte Carlo estimator driven by
numpy's default bit generator (the package uses Philox substreams). Frozen
constants produced by these functions live in the test modules; the
`test_oracle_self_consistency` checks guard the frozen numbers against the
generating formulas.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import ellipe, ellipk


def uniform_energy(n: int) -> float:
    """Energy of n equal unit charges at the n-th roots of unity.

    The n-fold symmetric field has magnitude n r^(n-1) / |z^n - 1|;
    substituting u = r^n and integrating the angular factor gives

        E_n = int_0^1 u^(1/n) * 4/(1+u) * K(4u/(1+u)^2) du

    with K the complete elliptic integral of the first kind (parameter
    convention m = k^2). The integrand has a log endpoint singularity at
    u = 1, which QUADPACK handles.
    """
    def f(u):
        m = 4.0 * u / (1.0 + u) ** 2
        return u ** (1.0 / n) * 4.0 / (1.0 + u) * ellipk(min(m, 1.0 - 1e-16))

    val, err = integrate.quad(f, 0.0, 1.0, limit=400)
    assert err < 1e-7
    return val


def single_pole_energy_2d(t: float) -> float:
    """int_D dm(z) / |z - t| = 4 E(t^2), E the second-kind elliptic integral."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return 4.0 * ellipe(t * t)


def single_pole_energy_3d(t: float) -> float:
    """int_{B^3} dm(x) / |x - t e|^2 = 2 pi (1 + (1 - t^2) atanh(t)/t)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return 4.0 * math.pi
    if t == 1.0:
        return 2.0 * math.pi
    return 2.0 * math.pi * (1.0 + (1.0 - t * t) * math.atanh(t) / t)


def coaxial_pair_energy_3d(delta: float, w2: float) -> float:
    """Energy of poles at (0, 0, 0.5) and (0, 0, 0.5 + delta) in B^3, with
    weights 1 and w2.

    The field is axisymmetric about the z axis, so the ball integral is a
    nested 2-D one in spherical coordinates (s, theta) about the pair's
    midpoint c = 0.5 + delta/2 on the axis:

        E = int_0^(1+c) int_theta_min(s)^pi 2 pi s^2 sin(theta) |F| dtheta ds

    where the ball cuts theta_min(s) = acos((1 - c^2 - s^2) / (2 c s)) once
    s > 1 - c. Both poles sit at s = delta/2 (theta = 0 and pi), where the
    inner integral has a log singularity, so s has a breakpoint there and
    another at the kink 1 - c. With w2 = 0 this is single_pole_energy_3d(0.5).
    """
    a = 0.5 * delta
    c = 0.5 + a

    def integrand(theta, s):
        # poles at z = -a (weight 1) and z = a (weight w2), unrolled: the
        # scalar loop dominates the oracle's run time
        sin_t = math.sin(theta)
        rho = s * sin_t
        z = s * math.cos(theta)
        rr = rho * rho
        lo, hi = z + a, z - a
        q_lo = 1.0 / (rr + lo * lo) ** 1.5
        q_hi = w2 / (rr + hi * hi) ** 1.5
        return (2.0 * math.pi * s * s * sin_t
                * math.hypot(rho * (q_lo + q_hi), q_lo * lo + q_hi * hi))

    def inner(s):
        lo = 0.0
        if s > 1.0 - c:
            lo = math.acos(max(-1.0, (1.0 - c * c - s * s) / (2.0 * c * s)))
        return integrate.quad(integrand, lo, math.pi, args=(s,), epsabs=0.0,
                              epsrel=1e-12, limit=400)[0]

    val, err = integrate.quad(inner, 0.0, 1.0 + c, points=[a, 1.0 - c],
                              epsabs=0.0, epsrel=1e-12, limit=400)
    assert err < 1e-9
    return val


def averaged_kernel_quad(z: complex, arc, rel_tol: float = 1e-12) -> complex:
    """Mean of 1/(z - e^(i theta)) over the arc (a, b), by QUADPACK.

    The real and imaginary parts are integrated separately. Breakpoints at
    z's closest-approach angle and at distances 1e-1 ... 1e-11 from it, on
    both sides, wherever they fall inside the arc, grade the subintervals
    toward the kernel's peak, whose width is 1 - |z|. Within about 1e-9
    of the circle, rounding in z - e^(i theta) limits the attainable
    rel_tol to about 1e-8. The independent cross-check of the package's
    closed form.
    """
    a, b = (float(end) for end in arc)
    z = complex(z)
    phase = math.atan2(z.imag, z.real)
    steps = [0.0] + [sign * 10.0 ** -j for j in range(1, 12)
                     for sign in (-1.0, 1.0)]
    points = sorted(phase + shift + step
                    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi)
                    for step in steps if a < phase + shift + step < b)

    def part(take):
        val, err = integrate.quad(
            lambda theta: take(1.0 / (z - complex(math.cos(theta),
                                                  math.sin(theta)))),
            a, b, points=points or None, epsabs=0.1 * rel_tol,
            epsrel=rel_tol, limit=400)
        assert err < 1e3 * rel_tol * max(abs(val), b - a)
        return val

    return complex(part(lambda v: v.real), part(lambda v: v.imag)) / (b - a)


def mc_energy(positions, weights, d: int, n_samples: int, seed: int):
    """Plain uniform-ball Monte Carlo estimate of the energy.

    Returns (estimate, standard_error). Uses numpy's default PCG64 stream,
    a different generator family from the package's.
    """
    positions = np.asarray(positions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    gen = np.random.default_rng(seed)
    v_d = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)

    total = 0.0
    total_sq = 0.0
    kept = 0
    chunk = 1 << 17
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        raw = gen.standard_normal((m, d))
        raw /= np.sqrt(np.sum(raw * raw, axis=1))[:, None]
        pts = raw * (gen.random(m) ** (1.0 / d))[:, None]
        diff = positions[None, :, :] - pts[:, None, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        ok = np.all(dist > 1e-12, axis=1)
        scale = weights[None, :] / dist[ok] ** d
        vec = np.sum(scale[:, :, None] * diff[ok], axis=1)
        mag = np.sqrt(np.sum(vec * vec, axis=1))
        total += float(np.sum(mag))
        total_sq += float(np.sum(mag * mag))
        kept += int(np.sum(ok))
    mean = total / kept
    var = max(total_sq / kept - mean * mean, 0.0)
    return v_d * mean, v_d * math.sqrt(var / kept)


def grid_min_gap_energy(gaps, rel_tol=1e-4):
    """Brute-force oracle for the two-charge planar minimum.

    Evaluates the energy of unit charges at angles +-gap/2 on each grid node
    and returns the gap attaining the minimum. This drives the optimizer
    acceptance check; it intentionally searches by exhaustion, not descent.
    """
    from chargelab import ChargeConfiguration, QuadratureSpec, chui_energy

    spec = QuadratureSpec(rel_tolerance=rel_tol)
    best_gap, best_val = None, math.inf
    for g in gaps:
        pos = np.array([[math.cos(g / 2), math.sin(g / 2)],
                        [math.cos(g / 2), -math.sin(g / 2)]])
        val = chui_energy(ChargeConfiguration(pos, np.ones(2)), spec).value
        if val < best_val:
            best_gap, best_val = g, val
    return best_gap, best_val


# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------

# uniform_energy(n) outputs, frozen 2026-08-15; regeneration must agree to
# ORACLE_TOL (QUADPACK reported error stays below 1e-7 for every n here).
FROZEN_UNIFORM_ENERGY = {
    1: 3.9999999999456675,   # exact value is 4
    2: 5.128919955804142,
    4: 6.015445405446356,
    8: 6.600817260207786,
    16: 6.943485504995642,
    32: 7.129940288419642,
}

# closed elliptic/atanh forms, frozen from the generating functions above
FROZEN_SINGLE_2D = {
    0.0: 2.0 * math.pi,
    0.5: 5.869848837357709,
    0.9: 4.686788211126457,
    1.0: 4.0,
}
FROZEN_SINGLE_3D = {
    0.0: 4.0 * math.pi,
    0.3: 12.182318029732452,
    0.5: 11.460273750014391,
    0.9: 8.236011189979159,
    1.0: 2.0 * math.pi,
}

ORACLE_TOL = 5e-8

# coaxial_pair_energy_3d(delta, w2) outputs, keyed by (delta, w2)
FROZEN_COAXIAL_PAIR_3D = {
    (0.1, 1.0): 21.98817726862197,
    (0.1, -1.0): 5.515467131739428,
    (0.1, 0.5): 16.65268304359343,
    (0.03, 1.0): 22.64864626907506,
    (0.03, -1.0): 2.294611575185134,
    (0.01, 1.0): 22.83061162213761,
    (0.01, 0.5): 17.137885883621514,
    (0.01, -1.0): 0.9566054378314788,
    (0.005, 1.0): 22.875665417780887,
    (0.001, 1.0): 22.911584744684934,
    (0.001, 0.5): 17.185169797602047,
    (0.001, -1.0): 0.13564853099457075,
    (1e-4, 1.0): 22.919651530952006,
    (1e-4, 0.5): 17.18988665803822,
    (1e-4, -1.0): 0.017558923437290187,
    # QUADPACK warns of roundoff at this separation; the +1 value lies 3e-6
    # (1.4e-7 relative) below the trend 2 E_1(0.5) - 8.96 delta of the
    # larger separations, E_1 the single-pole energy
    (1e-6, 1.0): 22.920535380455906,
    (1e-6, 0.5): 17.190402781772118,
    (1e-6, -1.0): 0.0002554607981267337,
}

# boundary pole in dimension 4: nested 2-D spherical reduction (QUADPACK,
# reported error ~9e-10) reproduces 8*pi/3 to 3e-11 relative
FROZEN_SINGLE_4D_BOUNDARY = 8.0 * math.pi / 3.0
