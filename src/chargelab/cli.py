"""Command-line experiment runner.

Commands
--------
energy        evaluate the energy of one configuration
bounds        full bound report (JSON keys documented in bounds.py)
defect-sweep  single-fraction defect over arc lengths l = 2pi * 2^-j
prop14-sweep  two-pole cancellation integral over separations 2^-j
lemma-suite   randomized property suites for the proof inequalities
optimize      position search at fixed weights (writes a JSONL trace)
verify-all    bound reports over the bundled corpus + suites + sweeps
              + optimizer smoke checks; nonzero exit on any violation

Exit codes: 0 ok, 1 bound/property violation, 2 input or parse error,
3 quadrature failed to converge within its budget. A violation outranks
nonconvergence: a run with both exits 1.

Every artifact embeds tool version, seed, integration spec, and a
wall-clock stamp; reruns with equal inputs differ only in the stamp.
--format csv is offered where the result is a table; lemma-suite, optimize
and verify-all write JSON only and reject it as a parse error.
CSV columns (fixed order, 17 significant digits):
  energy:        energy,err,evals,converged,method
  bounds:        energy,err,A,B,G,ratio_lower,ratio_upper,lower_newman,
                 lower_theorem11,upper_budget,lemma41_lhs
  defect-sweep:  l,defect,defect_over_l
  prop14-sweep:  delta,value,normalized
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
from datetime import datetime, timezone
from importlib import resources
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import make_bound_report, run_lemma_suites
from .configurations import (ChargeConfiguration, config_from_json_dict,
                             config_to_json_dict, fibonacci_sphere_config,
                             load_config, uniform_circle_config,
                             weighted_arc_config)
from .optimize import local_min_certificate, minimize_positions
from .quadrature import QuadratureSpec, chui_energy, l1_defect, two_pole_l1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_NONCONVERGED = 3

TWO_PI = 2.0 * math.pi


def _exit_code(violated: bool, converged: bool) -> int:
    """The one exit rule: a violation exits 1 even when some integral also
    missed its tolerance, which alone exits 3."""
    if violated:
        return EXIT_VIOLATION
    return EXIT_OK if converged else EXIT_NONCONVERGED


class CliError(Exception):
    def __init__(self, message, code=EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargelab",
        description="experiments on field-strength integrals of point charges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--config", help="path to a configuration JSON file")
    src.add_argument("--uniform", type=int, metavar="N",
                     help="N equally spaced unit charges (circle for --dim 2, "
                          "golden-angle lattice for --dim 3)")
    src.add_argument("--weights", metavar="a,b,c",
                     help="positive weights; charges at arc midpoints (d=2)")
    src.add_argument("--dim", type=int, help="ambient dimension (default 2)")

    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--seed", type=int, default=0)
    quad.add_argument("--rel-tol", type=float, default=1e-3)
    quad.add_argument("--max-evals", type=int, default=10_000_000)

    # JSON-only commands take --out; the tabular ones also take --format
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("json", "csv"), default="json")

    sub.add_parser("energy", parents=[src, quad, table])
    sub.add_parser("bounds", parents=[src, quad, table])

    p = sub.add_parser("defect-sweep", parents=[quad, table])
    p.add_argument("--levels", type=int, default=10,
                   help="halvings: l = 2pi * 2^-j for j = 0..levels")
    p = sub.add_parser("prop14-sweep", parents=[quad, table])
    p.add_argument("--levels", type=int, default=10,
                   help="separations delta = 2^-j for j = 2..levels")

    p = sub.add_parser("lemma-suite", parents=[quad, out])
    p.add_argument("--trials", type=int, default=100_000)

    p = sub.add_parser("optimize", parents=[src, quad, out])
    p.add_argument("--budget", type=int, default=1000,
                   help="energy-evaluation budget (>= 100)")

    sub.add_parser("verify-all", parents=[quad, out])
    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _make_spec(args) -> QuadratureSpec:
    try:
        return QuadratureSpec(rel_tolerance=args.rel_tol, seed=args.seed,
                              max_evals=args.max_evals)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _meta(command: str, args, spec: QuadratureSpec) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "spec": asdict(spec),
        "wallclock_utc": datetime.now(timezone.utc).isoformat(),
    }


def _write_text(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _emit(doc: dict, columns, rows, args) -> None:
    """`doc` as JSON, or under --format csv its metadata and `rows`."""
    if args.format == "json":
        _emit_json(doc, args.out)
        return
    lines = [f"# {k}={doc[k]}" for k in ("version", "command", "seed")]
    spec = doc["spec"]
    lines.append("# spec=" + ",".join(f"{k}:{_fmt(v)}" for k, v in sorted(spec.items())))
    lines.append(f"# wallclock_utc={doc['wallclock_utc']}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text("\n".join(lines) + "\n", args.out)


def _parse_weights(text: str) -> np.ndarray:
    try:
        w = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise CliError(f"bad --weights value: {exc}") from exc
    if w.size == 0:
        raise CliError("--weights needs at least one number")
    return w


def _resolve_config(args):
    """(configuration, arc partition or None) from the source flags."""
    picked = [x is not None for x in (args.config, args.uniform, args.weights)]
    if sum(picked) != 1:
        raise CliError("exactly one of --config / --uniform / --weights is required")
    if args.config is not None:
        try:
            cfg = load_config(args.config)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise CliError(f"cannot load {args.config}: {exc}") from exc
        if args.dim is not None and args.dim != cfg.dimension:
            raise CliError(f"--dim {args.dim} conflicts with configuration "
                           f"dimension {cfg.dimension}")
        return cfg, None
    dim = 2 if args.dim is None else args.dim
    if args.uniform is not None:
        if args.uniform < 1:
            raise CliError("--uniform needs N >= 1")
        if dim == 2:
            return uniform_circle_config(args.uniform), None
        if dim == 3:
            return fibonacci_sphere_config(args.uniform), None
        raise CliError("--uniform supports --dim 2 or --dim 3")
    if dim != 2:
        raise CliError("--weights builds a planar arc configuration (--dim 2)")
    try:
        cfg, part = weighted_arc_config(_parse_weights(args.weights))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return cfg, part


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_energy(args) -> int:
    spec = _make_spec(args)
    cfg, _ = _resolve_config(args)
    res = chui_energy(cfg, spec)
    doc = _meta("energy", args, spec)
    doc["config"] = config_to_json_dict(cfg)
    doc.update({"energy": res.value, "err": res.error, "evals": res.evals,
                "converged": res.converged, "method": res.method})
    _emit(doc, ("energy", "err", "evals", "converged", "method"),
          [(res.value, res.error, res.evals, res.converged, res.method)], args)
    return _exit_code(False, res.converged)


_BOUNDS_COLUMNS = ("energy", "err", "A", "B", "G", "ratio_lower", "ratio_upper",
                   "lower_newman", "lower_theorem11", "upper_budget",
                   "lemma41_lhs")


def _cmd_bounds(args) -> int:
    spec = _make_spec(args)
    cfg, part = _resolve_config(args)
    report = make_bound_report(cfg, spec, partition=part)
    rd = report.to_json_dict()
    doc = _meta("bounds", args, spec)
    doc["config"] = config_to_json_dict(cfg)
    doc["report"] = rd
    _emit(doc, _BOUNDS_COLUMNS, [tuple(rd.get(c) for c in _BOUNDS_COLUMNS)],
          args)
    return _exit_code("violated" in report.verdicts.values(),
                      report.converged)


def _defect_rows(levels: int, spec: QuadratureSpec):
    rows = []
    converged = True
    for j in range(levels + 1):
        l = TWO_PI * 2.0 ** (-j)
        res = l1_defect(l, spec)
        rows.append({"l": l, "defect": res.value, "defect_over_l": res.value / l,
                     "err": res.error})
        converged = converged and res.converged
    return rows, converged


def _prop14_rows(levels: int, spec: QuadratureSpec):
    rows = []
    converged = True
    for j in range(2, levels + 1):
        delta = 2.0 ** (-j)
        res = two_pole_l1(1.0, complex(math.cos(delta), math.sin(delta)), spec)
        norm = delta + delta * math.log(1.0 / delta)
        rows.append({"delta": delta, "value": res.value,
                     "normalized": res.value / norm, "err": res.error})
        converged = converged and res.converged
    return rows, converged


# sweep command -> (row builder, smallest --levels, CSV columns)
_SWEEPS = {
    "defect-sweep": (_defect_rows, 0, ("l", "defect", "defect_over_l")),
    "prop14-sweep": (_prop14_rows, 2, ("delta", "value", "normalized")),
}


def _cmd_sweep(args) -> int:
    build_rows, floor, columns = _SWEEPS[args.command]
    spec = _make_spec(args)
    if args.levels < floor:
        raise CliError(f"--levels must be >= {floor}")
    rows, converged = build_rows(args.levels, spec)
    doc = _meta(args.command, args, spec)
    doc["rows"] = rows
    _emit(doc, columns, [tuple(r[c] for c in columns) for r in rows], args)
    return _exit_code(False, converged)


def _cmd_lemma_suite(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be positive")
    spec = _make_spec(args)  # recorded for provenance; suites are closed-form
    doc = _meta("lemma-suite", args, spec)
    suites = run_lemma_suites(args.trials, args.seed)
    doc["trials"] = args.trials
    doc["suites"] = suites
    _emit_json(doc, args.out)
    return _exit_code(not all(s["pass"] for s in suites.values()), True)


def _cmd_optimize(args) -> int:
    spec = _make_spec(args)
    cfg, _ = _resolve_config(args)
    trace = minimize_positions(cfg.weights, cfg.dimension, seed=args.seed,
                               budget=args.budget, spec=spec)
    doc = _meta("optimize", args, spec)
    doc["weights"] = [float(w) for w in cfg.weights]
    doc["dimension"] = cfg.dimension
    doc["best_config"] = config_to_json_dict(trace.best)
    doc["best_energy"] = trace.best_energy
    doc["best_err"] = trace.best_error
    doc["run"] = trace.meta
    doc["converged"] = trace.converged
    _emit_json(doc, args.out)
    if args.out:
        trace.write_jsonl(Path(args.out).with_suffix(".trace.jsonl"))
    return _exit_code(False, trace.converged)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def corpus_configs():
    """Bundled fixtures as (index row, configuration) pairs."""
    base = resources.files("chargelab") / "corpus"
    index = json.loads((base / "index.json").read_text(encoding="utf-8"))
    out = []
    for row in index:
        data = json.loads((base / row["file"]).read_text(encoding="utf-8"))
        out.append((row, config_from_json_dict(data)))
    return out


def _check(checks, name, ok, detail) -> None:
    checks.append({"name": name, "status": "pass" if ok else "fail",
                   "detail": detail})


def _cmd_verify_all(args) -> int:
    spec = _make_spec(args)
    checks = []
    converged = True
    log = lambda msg: print(msg, file=sys.stderr)

    # corpus bound reports
    reports = {}
    ratios = []
    log("[verify-all] corpus bound reports")
    for row, cfg in corpus_configs():
        part = None
        if row["role"] == "weighted_arc":
            rebuilt, part = weighted_arc_config(cfg.weights)
            if not np.allclose(rebuilt.positions, cfg.positions, atol=1e-12):
                raise CliError(f"corpus item {row['file']} is not an arc-midpoint "
                               "configuration")
        report = make_bound_report(cfg, spec, partition=part)
        rd = report.to_json_dict()
        reports[row["file"]] = rd
        converged = converged and report.converged
        bad = sorted(k for k, v in report.verdicts.items() if v == "violated")
        _check(checks, f"bounds:{row['file']}", not bad,
               {"violated": bad, "energy": rd["energy"]})
        if row["role"] == "weighted_arc":
            ratios.append(rd["energy"] * rd["A"] / rd["B"])

    # single-charge oracles, both dimensions
    log("[verify-all] single-charge oracles")
    for name, position, expected in (("single-d2", [1.0, 0.0], 4.0),
                                     ("single-d3", [0.0, 0.0, 1.0], TWO_PI),
                                     ("interior-origin", [0.0, 0.0], TWO_PI)):
        res = chui_energy(ChargeConfiguration([position], [1.0]), spec)
        converged = converged and res.converged
        _check(checks, f"oracle:{name}",
               abs(res.value - expected) <= expected * 1e-2,
               {"energy": res.value, "expected": expected})

    # defect sweep: finite ratios, no blow-up at small arc lengths
    log("[verify-all] defect sweep")
    drows, conv = _defect_rows(10, spec)
    converged = converged and conv
    dratios = [r["defect_over_l"] for r in drows]
    median = float(np.median(dratios))
    _check(checks, "sweep:defect",
           all(np.isfinite(dratios)) and dratios[-1] <= 10.0 * median,
           {"anchor": dratios[0], "median": median, "last": dratios[-1]})

    # weighted-arc ratio boundedness against the sweep grid
    if ratios:
        cap = TWO_PI * max(dratios)
        worst = max(ratios)
        _check(checks, "bounds:arc-ratio-bounded", worst <= cap + 1e-6,
               {"max_energy_A_over_B": worst, "cap": cap})

    # two-pole cancellation sweep: normalized values stay within one decade
    log("[verify-all] two-pole sweep")
    prows, conv = _prop14_rows(10, spec)
    converged = converged and conv
    normalized = [r["normalized"] for r in prows]
    _check(checks, "sweep:two-pole",
           max(normalized) <= 10.0 * min(normalized),
           {"min": min(normalized), "max": max(normalized)})

    # randomized proof-inequality suites
    log("[verify-all] lemma suites")
    suites = run_lemma_suites(100_000, args.seed)
    _check(checks, "suites:lemmas", all(s["pass"] for s in suites.values()),
           suites)

    # optimizer smoke: antipodal pair + flat gradient at uniform spacing
    log("[verify-all] optimizer smoke")
    trace = minimize_positions([1.0, 1.0], 2, seed=args.seed, budget=150,
                               spec=spec)
    ang = np.sort(trace.best.angles())
    gap = float(ang[1] - ang[0])
    gap = min(gap, TWO_PI - gap)
    _check(checks, "optimize:pair-gap", abs(gap - math.pi) <= 0.05,
           {"gap": gap})
    cert = local_min_certificate(uniform_circle_config(3),
                                 spec=QuadratureSpec(rel_tolerance=1e-5,
                                                     seed=args.seed))
    _check(checks, "optimize:uniform3-certificate",
           cert.max_gradient <= cert.gradient_error,
           {"max_gradient": cert.max_gradient,
            "bar": cert.gradient_error, "verdict": cert.verdict})
    converged = converged and trace.converged and cert.converged

    doc = _meta("verify-all", args, spec)
    doc["checks"] = checks
    doc["reports"] = reports
    doc["defect_sweep"] = drows
    doc["prop14_sweep"] = prows
    # smallest observed energy * A / B over arc fixtures: the measured scale
    # of the squared-weight comparison; reported, never asserted
    doc["tv_ratio_infimum"] = min(ratios) if ratios else None
    doc["violations"] = sum(1 for c in checks if c["status"] == "fail")
    _emit_json(doc, args.out)
    return _exit_code(doc["violations"] > 0, converged)


_DISPATCH = {
    "energy": _cmd_energy,
    "bounds": _cmd_bounds,
    "defect-sweep": _cmd_sweep,
    "prop14-sweep": _cmd_sweep,
    "lemma-suite": _cmd_lemma_suite,
    "optimize": _cmd_optimize,
    "verify-all": _cmd_verify_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
