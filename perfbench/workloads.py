"""Workload definitions: seeded inputs, the public calls made on them, and
the correctness check applied to each result.

A workload is a fixed list of calls, one *round*. The runner repeats whole
rounds, so every run measures the same mix of calls and the per-round counts
repeat exactly for a given seed. Within a round the light calls run several
passes over, with the heavy calls spread once each between the passes, so
the latency percentiles rest on many samples spread over the whole run.
Inputs that have a closed-form reference are fixed (their quadrature is
deterministic, so the accuracy metrics do not depend on the seed); the seed
draws everything else: weights, random systems, rotations, quadrature and
optimizer seeds.

Every call looks its chargelab function up through the module attribute at
call time (`quadrature.chui_energy`, not a name bound here), so a traced run
sees these calls through the tracer's patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json
import math
import os
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from chargelab import (ChargeConfiguration, QuadratureSpec,
                       fibonacci_sphere_config, random_config,
                       uniform_circle_config, weighted_arc_config)
from chargelab import bounds, optimize, quadrature
from chargelab.cli import EXIT_NONCONVERGED, EXIT_OK

import _oracles

WORKLOADS = ("planar", "ball", "search", "certify")

# failures that are honest reports of an unmet tolerance rather than a wrong
# answer; every other failure makes the run incorrect
SOFT_FAILURES = ("nonconverged",)


@dataclass
class Outcome:
    failure: str | None = None
    rel_dev: float | None = None
    dev_sigma: float | None = None
    evals: int = 0


@dataclass
class Call:
    label: str
    run: Callable[["Context"], object]
    check: Callable[[object, float | None], Outcome]
    reference: Callable[[], float] | None = None


@dataclass
class Context:
    """What a call may need from the runner: the repo root and the tracer."""

    root: Path
    tracer: object = None
    child_rss_kb: int = 0
    state: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _deviation(out, value, error, ref):
    dev = abs(value - ref)
    out.rel_dev = dev / abs(ref)
    out.dev_sigma = dev / error if error > 0 else math.inf
    return dev


def _in_band(dev, error, ref, rel_tol):
    """The tests' three-sigma band, plus the requested relative accuracy."""
    return dev <= 3.0 * error + rel_tol * abs(ref)


def check_energy(rel_tol):
    def check(res, ref):
        out = Outcome(evals=int(res.evals))
        if not (math.isfinite(res.value) and math.isfinite(res.error)):
            out.failure = "not_finite"
            return out
        if ref is not None:
            dev = _deviation(out, res.value, res.error, ref)
            if not _in_band(dev, res.error, ref, rel_tol):
                out.failure = "reference"
                return out
        if not res.converged:
            out.failure = "nonconverged"
        return out

    return check


def check_report(rel_tol):
    energy_check = check_energy(rel_tol)

    def check(report, ref):
        out = energy_check(report.energy, ref)
        if out.failure is None and "violated" in report.verdicts.values():
            out.failure = "violated"
        return out

    return check


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _log_uniform(rng, n, lo=0.1, hi=10.0):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _sub_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotated(config, rot):
    return ChargeConfiguration(config.positions @ rot.T, config.weights)


def _single(t, d):
    pos = np.zeros((1, d))
    pos[0, -1] = t
    return ChargeConfiguration(pos, [1.0])


def _energy_call(label, cfg, spec, ref=None):
    return Call(label, lambda ctx: quadrature.chui_energy(cfg, spec),
                check_energy(spec.rel_tolerance), ref)


def _report_call(label, cfg, spec, partition=None, ref=None):
    return Call(label,
                lambda ctx: bounds.make_bound_report(cfg, spec,
                                                     partition=partition),
                check_report(spec.rel_tolerance), ref)


def _interleave(light, heavy, passes):
    """One round: `light` run `passes` times over, `heavy` once each, spread
    evenly between the passes."""
    chunks = np.array_split(np.arange(len(heavy)), passes)
    out = []
    for chunk in chunks:
        out += light
        out += [heavy[i] for i in chunk]
    return out


# ---------------------------------------------------------------------------
# planar: d = 2 energies and bound reports
# ---------------------------------------------------------------------------

# (n, rel_tolerance) for the uniform circles checked against uniform_energy
_UNIFORM_2D = ((1, 1e-6), (2, 1e-3), (3, 1e-4), (4, 1e-6), (6, 1e-3),
               (8, 1e-4), (12, 1e-6), (16, 1e-3), (24, 1e-4), (32, 1e-6),
               (48, 1e-3), (64, 1e-4))
_SINGLE_2D = (0.0, 0.5, 0.9, 1.0)
_INTERIOR_TOLS_2D = (1e-3, 1e-4)


_PLANAR_PASSES = 4


def _planar(seed):
    rng = np.random.default_rng([seed, 2])
    light, heavy = [], []
    for n, tol in _UNIFORM_2D:
        (heavy if n >= 24 else light).append(_energy_call(
            f"uniform_{n}@{tol:g}", uniform_circle_config(n),
            QuadratureSpec(rel_tolerance=tol),
            lambda n=n: _oracles.uniform_energy(n)))
    for t in _SINGLE_2D:
        light.append(_energy_call(
            f"single2_{t:g}", _single(t, 2), QuadratureSpec(rel_tolerance=1e-4),
            lambda t=t: _oracles.single_pole_energy_2d(t)))
    for n in (5, 16):
        light.append(_report_call(
            f"report_uniform_{n}", uniform_circle_config(n), QuadratureSpec(),
            ref=lambda n=n: _oracles.uniform_energy(n)))
    # weighted arcs: equal weights share one arc length (one defect
    # integral); log-uniform weights give one defect per distinct length
    for n, equal in ((64, True), (16, True), (64, False), (24, False),
                     (8, False)):
        if equal:
            weights = np.full(n, float(_log_uniform(rng, 1)[0]))
        else:
            weights = _log_uniform(rng, n)
        cfg, part = weighted_arc_config(weights)
        kind = "equal" if equal else "loguniform"
        heavy.append(_report_call(f"arc_{kind}_{n}", cfg, QuadratureSpec(),
                                  partition=part))
    for i, n in enumerate((1, 2, 3, 4, 6, 8, 12, 16)):
        cfg = random_config(n, 2, seed=_sub_seed(rng), interior=True)
        tol = _INTERIOR_TOLS_2D[i % 2]
        light.append(_energy_call(f"interior2_{n}", cfg,
                                  QuadratureSpec(rel_tolerance=tol)))
        light.append(_report_call(f"report_interior2_{n}", cfg,
                                  QuadratureSpec(rel_tolerance=tol)))
    # the large circles and the arc reports take most of a round's time
    return _interleave(light, heavy, _PLANAR_PASSES)


# ---------------------------------------------------------------------------
# ball: d = 3 RQMC and d = 4 Monte Carlo energies
# ---------------------------------------------------------------------------

_SINGLE_3D = (0.0, 0.3, 0.5, 0.9, 1.0)
# the d = 4 boundary charge runs at a Monte Carlo tolerance the method meets
# in a fraction of a second (d >= 4 is flagged degraded)
_TOL_4D = 3e-3
_BALL_PASSES = 4


def _ball(seed):
    rng = np.random.default_rng([seed, 3])
    spec = QuadratureSpec(seed=_sub_seed(rng))
    light, heavy = [], []
    for t in _SINGLE_3D:
        light.append(_energy_call(
            f"single3_{t:g}", _single(t, 3), QuadratureSpec(),
            lambda t=t: _oracles.single_pole_energy_3d(t)))
    light.append(_energy_call(
        "boundary4", _single(1.0, 4), QuadratureSpec(rel_tolerance=_TOL_4D),
        lambda: _oracles.FROZEN_SINGLE_4D_BOUNDARY))
    for n in (4, 9, 16, 25):
        cfg = _rotated(fibonacci_sphere_config(n), _rotation(rng, 3))
        (heavy if n > 9 else light).append(
            _energy_call(f"fibonacci_{n}", cfg, spec))
    for n in (2, 4, 6, 8):
        cfg = random_config(n, 3, seed=_sub_seed(rng), interior=True)
        light.append(_energy_call(f"interior3_{n}", cfg, spec))
    # known defect: two charges 1e-4 apart exhaust the default budget
    # without converging; kept at the default spec so the defect shows
    pair = ChargeConfiguration([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5001]],
                               [1.0, 1.0])
    heavy.append(_energy_call("pair_1e-4", pair, QuadratureSpec()))
    return _interleave(light, heavy, _BALL_PASSES)


# ---------------------------------------------------------------------------
# search: optimizer runs and local-minimality certificates
# ---------------------------------------------------------------------------

_BUDGET = 100
_SEARCH_PASSES = 4


def _pair_gap(config):
    ang = np.sort(np.mod(config.angles(), 2.0 * math.pi))
    gap = float(ang[1] - ang[0])
    return min(gap, 2.0 * math.pi - gap)


def check_trace(rel_tol, want_gap=None):
    def check(trace, ref):
        out = Outcome(evals=int(trace.meta["evaluations"]))
        if not (math.isfinite(trace.best_energy)
                and math.isfinite(trace.best_error)):
            out.failure = "not_finite"
        elif ref is not None:
            dev = _deviation(out, trace.best_energy, trace.best_error, ref)
            if not _in_band(dev, trace.best_error, ref, rel_tol):
                out.failure = "reference"
        if (out.failure is None and want_gap is not None
                and abs(_pair_gap(trace.best) - want_gap) > 0.05):
            out.failure = "reference"
        return out

    return check


def check_certificate(want_minimal):
    def check(report, ref):
        out = Outcome()
        if want_minimal and report.verdict == "not_minimal":
            out.failure = "verdict"
        if not want_minimal and report.verdict != "not_minimal":
            out.failure = "verdict"
        return out

    return check


def _optimize_call(label, weights, d, opt_seed, check, ref=None):
    weights = np.asarray(weights, dtype=float)
    return Call(label,
                lambda ctx: optimize.minimize_positions(
                    weights, d, seed=opt_seed, budget=_BUDGET),
                check, ref)


def _certificate_call(label, cfg, want_minimal):
    return Call(label, lambda ctx: optimize.local_min_certificate(cfg),
                check_certificate(want_minimal))


def _planar_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _search(seed):
    rng = np.random.default_rng([seed, 4])
    opt_seed = _sub_seed(rng)
    runs = [
        _optimize_call("min2_equal_2", np.ones(2), 2, opt_seed,
                       check_trace(1e-3, want_gap=math.pi),
                       lambda: _oracles.uniform_energy(2)),
        _optimize_call("min2_equal_3", np.ones(3), 2, opt_seed,
                       check_trace(1e-3), lambda: _oracles.uniform_energy(3)),
    ]
    for n in (4, 5):
        runs.append(_optimize_call(f"min2_weighted_{n}",
                                   _log_uniform(rng, n, 0.5, 2.0), 2,
                                   opt_seed, check_trace(1e-3)))
    certificates = []
    for n in (2, 3, 4, 6):
        rot = _planar_rotation(rng.uniform(-math.pi, math.pi))
        certificates.append(_certificate_call(
            f"certificate_uniform_{n}",
            _rotated(uniform_circle_config(n), rot), want_minimal=True))
    # negative control: unit charges at gap pi/2 are not a local minimum
    half = 0.25 * math.pi
    gap_pair = ChargeConfiguration(
        [[math.cos(half), math.sin(half)], [math.cos(half), -math.sin(half)]],
        [1.0, 1.0])
    rot = _planar_rotation(rng.uniform(-math.pi, math.pi))
    certificates.append(_certificate_call("certificate_gap_pi/2",
                                          _rotated(gap_pair, rot),
                                          want_minimal=False))
    # one d = 3 run (about 5 s) keeps a round near 12 s
    runs.append(_optimize_call("min3_weighted_3",
                               _log_uniform(rng, 3, 0.5, 2.0), 3, opt_seed,
                               check_trace(1e-3)))
    return _interleave(certificates, runs, _SEARCH_PASSES)


# ---------------------------------------------------------------------------
# certify: the verify-all CLI as a subprocess
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120.0

# stderr banner -> per-layer section metric; each section runs until the
# next banner, the last one until the process exits
CLI_SECTIONS = {
    "[verify-all] corpus bound reports": "cli.corpus_s",
    "[verify-all] single-charge oracles": "cli.oracles_s",
    "[verify-all] defect sweep": "cli.defect_sweep_s",
    "[verify-all] two-pole sweep": "cli.two_pole_sweep_s",
    "[verify-all] lemma suites": "cli.lemma_suites_s",
    "[verify-all] optimizer smoke": "cli.optimizer_smoke_s",
}


@dataclass
class CliRun:
    returncode: int
    artifact: str
    sections: dict
    maxrss_kb: int
    identical: bool = True


def run_cli(root, argv, env, artifact_path):
    """Run one CLI child, timestamping its stderr banners as they arrive."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    banners = []
    pending = b""
    fd = proc.stderr.fileno()
    timed_out = False
    try:
        while True:
            left = start + CLI_TIMEOUT_S - perf_counter()
            ready, _, _ = select.select([fd], [], [], max(left, 0.0))
            if not ready:
                timed_out = True
                proc.kill()
                break
            chunk = os.read(fd, 65536)
            now = perf_counter()
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                text = line.decode(errors="replace").strip()
                if text in CLI_SECTIONS:
                    banners.append((text, now))
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    sections = {}
    if banners:
        sections["cli.startup_s"] = banners[0][1] - start
        stamps = banners + [(None, end)]
        for (name, t0), (_, t1) in zip(stamps, stamps[1:]):
            sections[CLI_SECTIONS[name]] = t1 - t0
    artifact = ""
    if Path(artifact_path).exists():
        artifact = Path(artifact_path).read_text(encoding="utf-8")
        os.remove(artifact_path)
    code = -1 if timed_out else proc.returncode
    return CliRun(code, artifact, sections, int(usage.ru_maxrss))


def _stable_text(artifact):
    return "\n".join(line for line in artifact.splitlines()
                     if "wallclock_utc" not in line)


def _certify_check(rel_tol):
    def check(run, ref):
        out = Outcome()
        if run.returncode not in (EXIT_OK, EXIT_NONCONVERGED):
            out.failure = "exit"
            return out
        doc = json.loads(run.artifact)
        # accuracy metrics cover the values reported with an error: the
        # corpus bound reports (the oracle checks carry no error figure and
        # are judged by verify-all's own checks)
        devs = []
        for fname, rep in doc["reports"].items():
            if fname.startswith("uniform_"):
                n = int(fname[len("uniform_"):-len(".json")])
                expect = _oracles.uniform_energy(n)
                dev = abs(rep["energy"] - expect)
                devs.append((dev / expect, dev / rep["err"]))
                if not _in_band(dev, rep["err"], expect, rel_tol):
                    out.failure = "reference"
        out.rel_dev = max(d for d, _ in devs)
        out.dev_sigma = max(s for _, s in devs)
        if doc["violations"] != 0:
            out.failure = "violated"
        elif not run.identical:
            out.failure = "artifact"
        elif out.failure is None and run.returncode == EXIT_NONCONVERGED:
            out.failure = "nonconverged"
        return out

    return check


def _certify(seed):
    rel_tol = 1e-3  # verify-all's default --rel-tol

    def run(ctx):
        index = ctx.state.get("cli_calls", 0)
        ctx.state["cli_calls"] = index + 1
        tmp = ctx.root / ".perfbench_run" / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        artifact = tmp / f"verify-{os.getpid()}-{index}.json"
        spans_path = tmp / f"spans-{os.getpid()}-{index}.jsonl"
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        # determinism probe: alternate the BLAS/OpenMP thread count
        threads = "1" if index % 2 == 0 else "2"
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        tail = ["verify-all", "--seed", str(seed), "--out", str(artifact)]
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "chargelab.cli"] + tail
        else:
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(spans_path)] + tail
        result = run_cli(ctx.root, argv, env, artifact)
        # artifacts of one seed must match byte for byte, wallclock aside
        digest = hashlib.sha256(
            _stable_text(result.artifact).encode()).hexdigest()
        result.identical = ctx.state.setdefault("artifact_sha256",
                                                digest) == digest
        ctx.child_rss_kb = max(ctx.child_rss_kb, result.maxrss_kb)
        ctx.state.setdefault("cli_sections", []).append(
            (ctx.tracer is not None, result.sections))
        if ctx.tracer is not None and spans_path.exists():
            from tracer import read_spans
            ctx.tracer.absorb(read_spans(spans_path))
            os.remove(spans_path)
        return result

    return [Call("verify_all", run, _certify_check(rel_tol))]


def build(name, seed):
    """The round of calls for workload `name` under `seed`."""
    return {"planar": _planar, "ball": _ball, "search": _search,
            "certify": _certify}[name](seed)
