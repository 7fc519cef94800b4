"""chargelab benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload planar --seed 1 --seconds 13 --trace 0

Run from a checkout of the repository (the script finds `src/` and
`tests/` next to its own directory). Workloads are defined in
`workloads.py`: `planar`, `ball`, `search` and `certify`. Each run

  * measures set-up (a fresh interpreter importing chargelab and building
    the workload's inputs) several times and reports the median;
  * repeats whole rounds of the workload's calls, one call at a time, until
    `--seconds` have passed, and checks every result;
  * with `--trace 1`, first runs untraced rounds for half the time and then
    traced rounds for the other half, and reports the per-layer metrics of
    the traced rounds together with the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the run's context (versions, commit, sample counts, exact-count pins).
Exit status 2 means the run could not start (for example, no chargelab
sources next to the script) and no result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
STATE_DIR = ".perfbench_run"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("planar", "ball", "search", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=13.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_paths():
    src, tests = ROOT / "src", ROOT / "tests"
    for need in (src / "chargelab" / "__init__.py", tests / "_oracles.py"):
        if not need.is_file():
            print(f"error: {need} is missing; run from a repository checkout",
                  file=sys.stderr)
            raise SystemExit(2)
    sys.path[:0] = [str(HERE), str(src), str(tests)]


def _setup_probe(args):
    """Child side of the set-up measurement: import, build inputs, stamp."""
    _import_paths()
    import workloads
    workloads.build(args.workload, args.seed)
    print(repr(perf_counter()))


def measure_setup(args):
    """Median over fresh interpreters of start to inputs-built."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Round:
    def __init__(self):
        self.latencies = []
        self.outcomes = []
        self.elapsed = 0.0
        self.spans = (0, 0)


def run_rounds(calls, refs, ctx, seconds):
    """Whole rounds, one call after another, for about `seconds`.

    Another round starts while it is expected to end less than half a round
    past `seconds`, so a run measures `seconds` give or take half a round.
    """
    from workloads import Outcome

    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start
                         + 0.5 * statistics.fmean(r.elapsed for r in rounds)
                         < seconds):
        rnd = Round()
        first_span = len(ctx.tracer.spans) if ctx.tracer else 0
        t_round = perf_counter()
        for i, (call, ref) in enumerate(zip(calls, refs)):
            if ctx.tracer is not None:
                ctx.tracer.call_id = f"{len(rounds)}:{i}"
            t0 = perf_counter()
            try:
                result = call.run(ctx)
                error = None
            except Exception as exc:  # a raising call is a failed call
                error = f"raised {type(exc).__name__}: {exc}"
            rnd.latencies.append(perf_counter() - t0)
            if error is None:
                outcome = call.check(result, ref)
            else:
                outcome = Outcome(failure="raised")
                print(f"# {call.label}: {error}", file=sys.stderr)
            rnd.outcomes.append((call.label, outcome))
        rnd.elapsed = perf_counter() - t_round
        if ctx.tracer is not None:
            rnd.spans = (first_span, len(ctx.tracer.spans))
        rounds.append(rnd)
    return rounds, perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def harrell_davis(values, q):
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    Unlike a single order statistic it moves smoothly when two calls of
    different cost swap places, which keeps percentiles over a round's
    mixed calls steady from seed to seed.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def end_to_end(rounds, wall, setup_s, ctx):
    from workloads import SOFT_FAILURES

    lat = [x for r in rounds for x in r.latencies]
    # the percentiles describe one round's mix of calls: each call of the
    # round enters at its median latency over the run, so the estimate has
    # the same weights however many rounds fit in the run
    repeats = {}
    for r in rounds:
        for (label, _), x in zip(r.outcomes, r.latencies):
            repeats.setdefault(label, []).append(x)
    medians = {label: statistics.median(x) for label, x in repeats.items()}
    mix = [medians[label] for label, _ in rounds[0].outcomes]
    p90 = harrell_davis(mix, 0.9)
    outs = [o for r in rounds for _, o in r.outcomes]
    failed = sum(1 for o in outs if o.failure is not None)
    rel = [o.rel_dev for o in outs if o.rel_dev is not None]
    sig = [o.dev_sigma for o in outs if o.dev_sigma is not None]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_s": (harrell_davis(mix, 0.5), "s"),
        "latency_p90_s": (p90, "s"),
        "ok_frac": ((len(outs) - failed) / len(outs), "ratio"),
        "max_rel_dev": (max(rel), "ratio"),
        "max_dev_sigma": (max(sig), "sigma"),
        # the parent waits while its one child runs, so their peaks add
        "peak_rss_mb": ((self_kb + ctx.child_rss_kb) / 1024.0, "MB"),
    }
    hard = any(o.failure is not None and o.failure not in SOFT_FAILURES
               for o in outs)
    failures = sorted({f"{label}: {o.failure}" for r in rounds
                       for label, o in r.outcomes if o.failure is not None})
    extra = {"latency_samples": len(lat),
             "p90_tail_samples": sum(1 for x in lat if x > p90),
             "round_calls": len(mix),
             "distinct_calls": len(medians),
             "failed_frac": failed / len(outs),
             "failures": failures}
    return metrics, len(outs), failed, not hard, extra


def per_round_counts(rounds):
    """quadrature evals visible in the returned results, per round."""
    return [sum(o.evals for _, o in r.outcomes) for r in rounds]


# ---------------------------------------------------------------------------
# exact-count pins across runs of one program and seed
# ---------------------------------------------------------------------------

def source_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_pins(key, pins):
    """Compare with the pins an earlier run of this program and seed left.

    Returns the names whose values differ; records the pins the first time.
    """
    path = ROOT / STATE_DIR / "pins.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    before = known.get(key, {})
    differ = sorted(k for k, v in pins.items() if k in before and before[k] != v)
    before.update({k: v for k, v in pins.items() if k not in before})
    known[key] = before
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return differ


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_info(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _commit(),
            "src_sha256": source_digest(ROOT / "src" / "chargelab"),
            "bench_sha256": source_digest(HERE)}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    _import_paths()
    setup_s, setup_samples = measure_setup(args)

    import workloads
    from tracer import (CLI_SECTION_METRICS, LAYER_UNITS, Tracer,
                        chargelab_modules, layer_metrics, pinned_counts)

    calls = workloads.build(args.workload, args.seed)
    refs = [c.reference() if c.reference else None for c in calls]
    ctx = workloads.Context(root=ROOT)
    info = run_info(args)
    info["setup_samples_s"] = setup_samples
    pins = {}
    mismatch = []

    def pin_rounds(name, values):
        if len(set(values)) > 1:
            mismatch.append(f"{name} differs between rounds: {values}")
        pins[name] = values[0]

    seconds = args.seconds if not args.trace else 0.5 * args.seconds
    rounds, wall = run_rounds(calls, refs, ctx, seconds)
    e2e, attempted, failed, correct, extra = end_to_end(rounds, wall,
                                                        setup_s, ctx)
    pin_rounds("result_evals", per_round_counts(rounds))
    info.update(extra)
    info["round_s"] = [r.elapsed for r in rounds]

    if args.trace:
        tracer = Tracer()
        ctx.tracer = tracer
        tracer.install(chargelab_modules())
        try:
            t_rounds, t_wall = run_rounds(calls, refs, ctx, seconds)
        finally:
            tracer.uninstall()
        out_dir = ROOT / STATE_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        pin_rounds("result_evals", per_round_counts(rounds + t_rounds))
        per_round = [layer_metrics(tracer.spans[r.spans[0]:r.spans[1]],
                                   offset=r.spans[0])
                     for r in t_rounds]
        for name in pinned_counts(per_round[0]):
            pin_rounds(name, [pinned_counts(m)[name] for m in per_round])
        layers = {k: statistics.fmean(m[k] for m in per_round)
                  for k in LAYER_UNITS}
        # verify-all sections come from the stderr banners of the untraced
        # rounds' children, which run without patches
        sections = [sec for traced, sec in ctx.state.get("cli_sections", [])
                    if not traced]
        for name in CLI_SECTION_METRICS:
            if sections:
                layers[name] = statistics.fmean(sec.get(name, 0.0)
                                                for sec in sections)
        untraced_cps = sum(len(r.latencies) for r in rounds) / wall
        traced_cps = sum(len(r.latencies) for r in t_rounds) / t_wall
        layers["trace.untraced_calls_per_s"] = untraced_cps
        layers["trace.traced_calls_per_s"] = traced_cps
        layers["trace.overhead_frac"] = untraced_cps / traced_cps - 1.0
        _, t_att, t_failed, t_correct, t_extra = end_to_end(t_rounds, t_wall,
                                                            setup_s, ctx)
        info["failures"] = sorted(set(info["failures"] + t_extra["failures"]))
        attempted += t_att
        failed += t_failed
        correct = correct and t_correct
        metrics = {k: {"value": float(layers[k]), "unit": u}
                   for k, u in LAYER_UNITS.items()}
        info["traced_round_s"] = [r.elapsed for r in t_rounds]
    else:
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in e2e.items()}

    if "artifact_sha256" in ctx.state:
        pins["artifact_sha256"] = ctx.state["artifact_sha256"]
    key = ":".join([args.workload, str(args.seed), info["src_sha256"],
                    info["bench_sha256"]])
    mismatch += [f"{name} differs from an earlier run"
                 for name in check_pins(key, pins)]
    info["pins"] = pins
    for line in mismatch:
        print(f"# pin mismatch: {line}", file=sys.stderr)
    correct = correct and not mismatch

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
