"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test emits exactly one `[criterion NN] PASS/FAIL` line (replayed in the
terminal summary by conftest, since capture hides prints from passing tests)
and then asserts. Tolerances are pinned; time limits are asserted directly.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from chargelab import (ChargeConfiguration, QuadratureSpec, chui_energy,
                       interior_pole_bound, local_min_certificate,
                       lower_bound_rhs, minimize_positions, proof_constant,
                       random_config, reduction_budget, run_lemma_suites,
                       uniform_circle_config, weighted_arc_config)
from chargelab.cli import _defect_rows, _prop14_rows, corpus_configs
from chargelab.rng import substream

import conftest
from _oracles import (FROZEN_SINGLE_2D, FROZEN_SINGLE_3D,
                      FROZEN_UNIFORM_ENERGY, grid_min_gap_energy)

TWO_PI = 2.0 * math.pi
NEWMAN = math.pi / 18.0


def _verdict_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def defect_sweep_rows():
    rows, converged = _defect_rows(10, QuadratureSpec(rel_tolerance=1e-3))
    assert converged
    return rows


def test_criterion_01_single_charge_oracles():
    limit_s = 10.0
    spec = QuadratureSpec(rel_tolerance=1e-3)

    t0 = time.monotonic()
    e2 = chui_energy(ChargeConfiguration([[1.0, 0.0]], [1.0]), spec)
    t2 = time.monotonic() - t0
    t0 = time.monotonic()
    e3 = chui_energy(ChargeConfiguration([[0.0, 0.0, 1.0]], [1.0]), spec)
    t3 = time.monotonic() - t0

    ok = (abs(e2.value - 4.0) <= 1e-2 * 4.0
          and abs(e3.value - TWO_PI) <= 1e-2 * TWO_PI
          and t2 < limit_s and t3 < limit_s)
    _verdict_line(1, "single-charge oracles", ok,
                  f"d2={e2.value:.6f} (ref 4), d3={e3.value:.6f} "
                  f"(ref {TWO_PI:.6f}), times {t2:.2f}s/{t3:.2f}s")


def test_criterion_02_uniform_newman_floor():
    limit_s = 120.0
    spec = QuadratureSpec(rel_tolerance=1e-3)
    t0 = time.monotonic()
    worst_margin = math.inf
    values = {}
    for n in (1, 2, 4, 8, 16, 32):
        res = chui_energy(uniform_circle_config(n), spec)
        values[n] = res.value
        worst_margin = min(worst_margin, res.value - (NEWMAN - 3.0 * res.error))
    elapsed = time.monotonic() - t0
    ok = worst_margin >= 0.0 and elapsed < limit_s
    _verdict_line(2, "uniform charges clear the pi/18 floor", ok,
                  f"min margin {worst_margin:.4f}, n=1 energy {values[1]:.4f}, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_03_random_weighted_lower_bound():
    limit_s = 600.0
    spec = QuadratureSpec(rel_tolerance=1e-3)
    t0 = time.monotonic()
    violations = 0
    worst = math.inf
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        gen = substream(2026, "acceptance-weighted", i)
        n = int(gen.integers(1, 17))
        pos = gen.standard_normal((n, d))
        pos /= np.linalg.norm(pos, axis=1)[:, None]
        w = np.exp(gen.uniform(math.log(0.1), math.log(10.0), n))
        cfg = ChargeConfiguration(pos, w)
        res = chui_energy(cfg, spec)
        rhs = lower_bound_rhs(w, d, proof_constant(d))
        margin = res.value - (rhs - 3.0 * res.error)
        worst = min(worst, margin)
        if margin < 0.0:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < limit_s
    _verdict_line(3, "50 random configs beat the weighted lower bound", ok,
                  f"violations {violations}/50, min margin {worst:.4f}, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_04_weighted_arc_budgets(defect_sweep_rows):
    limit_s = 900.0
    spec = QuadratureSpec(rel_tolerance=1e-3)
    t0 = time.monotonic()
    items = [(row, cfg) for row, cfg in corpus_configs()
             if row["role"] == "weighted_arc"]
    sizes = sorted(row["n"] for row, _ in items)
    assert sizes == [2, 4, 8, 16, 32, 64]

    cap = TWO_PI * max(r["defect_over_l"] for r in defect_sweep_rows)
    budget_ok = True
    ratio_ok = True
    worst_ratio = -math.inf
    for row, cfg in items:
        rebuilt, part = weighted_arc_config(cfg.weights)
        assert np.allclose(rebuilt.positions, cfg.positions, atol=1e-12)
        res = chui_energy(cfg, spec)
        bud = reduction_budget(cfg, part, spec)
        if res.value > bud.value + 3.0 * (res.error + bud.error):
            budget_ok = False
        a_over_b = float(np.sum(cfg.weights) / np.sum(cfg.weights ** 2))
        ratio = res.value * a_over_b
        worst_ratio = max(worst_ratio, ratio)
        if ratio > cap + 3.0 * res.error * a_over_b:
            ratio_ok = False
    elapsed = time.monotonic() - t0
    ok = budget_ok and ratio_ok and elapsed < limit_s
    _verdict_line(4, "arc corpus: budget and normalized-ratio caps", ok,
                  f"max energy*A/B {worst_ratio:.4f} vs cap {cap:.4f}, "
                  f"budgets dominate: {budget_ok}, elapsed {elapsed:.1f}s")


def test_criterion_05_defect_ratio_stability(defect_sweep_rows):
    limit_s = 300.0
    t0 = time.monotonic()
    ratios = [r["defect_over_l"] for r in defect_sweep_rows]
    median = float(np.median(ratios))
    finite = all(np.isfinite(ratios))
    within = ratios[-1] <= 10.0 * median and ratios[-1] >= median / 10.0
    elapsed = time.monotonic() - t0
    ok = finite and within and elapsed < limit_s
    _verdict_line(5, "defect/length stays bounded down to l=2pi/1024", ok,
                  f"j=10 ratio {ratios[-1]:.4f}, median {median:.4f}, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_06_two_pole_normalization():
    limit_s = 300.0
    spec = QuadratureSpec(rel_tolerance=1e-3)
    t0 = time.monotonic()
    rows, converged = _prop14_rows(10, spec)
    normalized = [r["normalized"] for r in rows]
    elapsed = time.monotonic() - t0
    spread = max(normalized) / min(normalized)
    ok = converged and spread <= 10.0 and elapsed < limit_s
    _verdict_line(6, "two-pole integral tracks delta(1 + log(1/delta))", ok,
                  f"normalized spread {spread:.3f} over j=2..10, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_07_interior_poles():
    limit_s = 300.0
    spec = QuadratureSpec(rel_tolerance=1e-3)
    t0 = time.monotonic()
    origin = chui_energy(ChargeConfiguration([[0.0, 0.0]], [1.0]), spec)
    origin_ok = abs(origin.value - TWO_PI) <= 1e-2 * TWO_PI

    violations = 0
    worst = math.inf
    for i in range(20):
        n = 1 + (i % 8)
        cfg = random_config(n, 2, seed=1000 + i, interior=True)
        res = chui_energy(cfg, spec)
        lhs = interior_pole_bound(cfg)
        margin = res.value + 3.0 * res.error - lhs
        worst = min(worst, margin)
        if margin < 0.0:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = origin_ok and violations == 0 and elapsed < limit_s
    _verdict_line(7, "interior poles: origin oracle + depth lower bound", ok,
                  f"origin {origin.value:.5f} (ref {TWO_PI:.5f}), "
                  f"violations {violations}/20, min margin {worst:.4f}, "
                  f"elapsed {elapsed:.1f}s")


def test_criterion_08_lemma_suites_full_scale():
    limit_s = 60.0
    t0 = time.monotonic()
    out = run_lemma_suites(trials=100_000, seed=0, dims=(2, 3))
    elapsed = time.monotonic() - t0
    ok = elapsed < limit_s
    details = []
    for d in (2, 3):
        suite = out[f"d{d}"]
        ok = ok and suite["poisson_min_gap"] >= -1e-12
        ok = ok and suite["tangent_min_gap"] >= -1e-12
        ok = ok and suite["ratio_max_margin"] <= 1e-12
        ok = ok and suite["dominance_failures"] == 0
        details.append(f"d{d} dominance min margin "
                       f"{suite['dominance_min_margin']:.3f}")
    _verdict_line(8, "1e5-trial proof-inequality suites, zero failures", ok,
                  f"{'; '.join(details)}, elapsed {elapsed:.1f}s")


def test_criterion_09_optimizer_and_certificates():
    limit_s = 600.0
    t0 = time.monotonic()

    trace = minimize_positions(np.ones(2), 2, seed=0, budget=300)
    ang = np.sort(np.mod(trace.best.angles(), TWO_PI))
    gap = float(ang[1] - ang[0])
    gap = min(gap, TWO_PI - gap)
    gap_ok = abs(gap - math.pi) <= 0.05

    grid = math.pi + np.linspace(-0.3, 0.3, 13)
    oracle_gap, _ = grid_min_gap_energy(grid)
    oracle_ok = oracle_gap == math.pi

    cert_ok = True
    cert_details = []
    for n in (2, 3, 4):
        cert = local_min_certificate(uniform_circle_config(n),
                                     spec=QuadratureSpec(rel_tolerance=1e-5))
        cert_ok = cert_ok and cert.max_gradient <= cert.gradient_error
        cert_details.append(f"n={n} |g|max {cert.max_gradient:.2e} "
                            f"<= bar {cert.gradient_error:.2e}")
    # negative control: the gradient check must be able to fail, so a pair
    # a quarter turn apart must show a gradient well above its error bar
    ang = np.array([0.0, 0.5 * math.pi])
    pair = ChargeConfiguration(np.column_stack([np.cos(ang), np.sin(ang)]),
                               np.ones(2))
    control = local_min_certificate(pair,
                                    spec=QuadratureSpec(rel_tolerance=1e-5))
    control_ok = control.max_gradient > 3.0 * control.gradient_error
    cert_details.append(f"gap pi/2 |g|max {control.max_gradient:.2e} "
                        f"> 3 x bar {control.gradient_error:.2e}")
    elapsed = time.monotonic() - t0
    ok = gap_ok and oracle_ok and cert_ok and control_ok and elapsed < limit_s
    _verdict_line(9, "optimizer pair gap + flat gradients at uniform spacing, "
                  "steep at gap pi/2",
                  ok, f"gap {gap:.4f} (oracle argmin pi: {oracle_ok}); "
                      f"{'; '.join(cert_details)}; elapsed {elapsed:.1f}s")


def test_criterion_10_reproducible_verification(tmp_path):
    def run(out_name, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = str(threads)
        out = tmp_path / out_name
        proc = subprocess.run(
            [sys.executable, "-m", "chargelab.cli", "verify-all",
             "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = out.read_text().splitlines()
        return "\n".join(l for l in lines if "wallclock_utc" not in l)

    first = run("a.json", threads=8)
    second = run("b.json", threads=8)
    third = run("c.json", threads=1)
    ok = first == second == third
    _verdict_line(10, "verify-all byte-stable across reruns and thread counts",
                  ok, f"rerun identical: {first == second}, "
                      f"single-thread identical: {first == third}")
