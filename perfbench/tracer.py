"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the chargelab module attributes that callers look up at
call time (a wrapped `bounds.chui_energy` is what `make_bound_report` calls),
so the package itself is never edited. Each wrapped call records one span:
name, start, end, parent span, benchmark call id, and the counts read from
its return value. Spans stay in memory until the run ends; `layer_metrics`
turns them into the per-layer figures, using self time (a span's duration
minus the time its direct children cover) where a layer must not be charged
for the work of the layers it calls.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "counts")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "call_id": self.call_id,
                "counts": self.counts}


def _quad_counts(args, kwargs, res):
    out = {"evals": int(res.evals), "converged": bool(res.converged),
           "method": res.method}
    if args and hasattr(args[0], "dimension"):
        out["dim"] = int(args[0].dimension)
    return out


def _cubature_counts(args, kwargs, res):
    return {"evals": int(res.evals), "cells": int(res.n_cells)}


def _evals_counts(args, kwargs, res):
    return {"evals": int(res.evals)}


def _points_counts(args, kwargs, res):
    return {"points": int(np.size(args[0]))}


def _optimize_counts(args, kwargs, trace):
    return {"energy_evals": int(trace.meta["evaluations"]),
            "accepted": len(trace.iterates)}


def _certificate_counts(args, kwargs, report):
    return {"verdict": report.verdict}


# (module, attribute, span name, counts reader). Only attributes that some
# caller resolves through the module namespace at call time are listed; the
# benchmark's own direct calls go through the same module attributes.
PATCHES = (
    ("quadrature", "merge_coincident", "configurations.merge_coincident", None),
    ("quadrature", "integrate_regions", "cubature.integrate_regions",
     _cubature_counts),
    ("quadrature", "integrate_1d", "cubature.integrate_1d", _evals_counts),
    ("quadrature", "averaged_kernel_batch", "fields.averaged_kernel_batch",
     _points_counts),
    ("quadrature", "chui_energy", "quadrature.chui_energy", _quad_counts),
    ("quadrature", "l1_defect", "quadrature.l1_defect", _quad_counts),
    ("bounds", "chui_energy", "quadrature.chui_energy", _quad_counts),
    ("bounds", "l1_defect", "quadrature.l1_defect", _quad_counts),
    ("bounds", "reduction_budget", "bounds.reduction_budget", _evals_counts),
    ("bounds", "make_bound_report", "bounds.make_bound_report", None),
    ("optimize", "chui_energy", "quadrature.chui_energy", _quad_counts),
    ("optimize", "minimize_positions", "optimize.minimize_positions",
     _optimize_counts),
    ("optimize", "local_min_certificate", "optimize.local_min_certificate",
     _certificate_counts),
    ("cli", "chui_energy", "quadrature.chui_energy", _quad_counts),
    ("cli", "l1_defect", "quadrature.l1_defect", _quad_counts),
    ("cli", "make_bound_report", "bounds.make_bound_report", None),
    ("cli", "minimize_positions", "optimize.minimize_positions",
     _optimize_counts),
    ("cli", "local_min_certificate", "optimize.local_min_certificate",
     _certificate_counts),
)


class Tracer:
    """Records spans around patched module attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = None
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent, self.call_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, out)
            return out

        return traced

    def install(self, modules):
        """Patch every listed attribute of the modules given by short name."""
        for mod_name, attr, name, counts in PATCHES:
            module = modules.get(mod_name)
            if module is None:
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counts))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def absorb(self, spans):
        """Append spans recorded by a child process, re-basing parents."""
        offset = len(self.spans)
        for span in spans:
            if span.parent is not None:
                span.parent += offset
            span.call_id = self.call_id
            self.spans.append(span)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def chargelab_modules():
    from chargelab import bounds, cli, optimize, quadrature
    return {"quadrature": quadrature, "bounds": bounds,
            "optimize": optimize, "cli": cli}


def read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            s = Span(d["name"], d["start"], d["parent"], d["call_id"])
            s.end = d["end"]
            s.counts = d["counts"]
            spans.append(s)
    return spans


def self_times(spans, parents):
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s, p in zip(spans, parents):
        if p is not None:
            child_time[p] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def _ancestor(spans, parents, i, name):
    p = parents[i]
    while p is not None:
        if spans[p].name == name:
            return p
        p = parents[p]
    return None


# every per-layer metric a traced run reports, with its unit; times and
# counts are totals over one round of the workload's call list
LAYER_UNITS = {
    "configurations.merge_coincident_s": "s",
    "quadrature.d2.geometry_s": "s",
    "quadrature.d2.cubature_s": "s",
    "quadrature.d3.surrogate_mass_s": "s",
    "quadrature.d3.zone_s": "s",
    "quadrature.d3.rqmc_bulk_s": "s",
    "quadrature.mc_s": "s",
    "quadrature.evals": "count",
    "quadrature.nonconverged": "count",
    "cubature.evals": "count",
    "cubature.cells": "count",
    "cubature.evals_per_s": "1/s",
    "fields.averaged_kernel_points": "count",
    "fields.averaged_kernel_s": "s",
    "bounds.report_s": "s",
    "bounds.reduction_budget_s": "s",
    "bounds.defect_calls": "count",
    "optimize.energy_evals": "count",
    "optimize.s_per_energy_eval": "s",
    "optimize.accept_ratio": "ratio",
    "optimize.certificate_s": "s",
    "cli.startup_s": "s",
    "cli.corpus_s": "s",
    "cli.oracles_s": "s",
    "cli.defect_sweep_s": "s",
    "cli.two_pole_sweep_s": "s",
    "cli.lemma_suites_s": "s",
    "cli.optimizer_smoke_s": "s",
    "trace.untraced_calls_per_s": "1/s",
    "trace.traced_calls_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

CLI_SECTION_METRICS = tuple(k for k in LAYER_UNITS if k.startswith("cli."))

# counts that must repeat exactly for one seed and one program
PINNED = ("quadrature.evals", "cubature.cells", "bounds.defect_calls",
          "optimize.energy_evals")


def layer_metrics(spans, offset=0):
    """Per-layer totals over one round's spans.

    `offset` is the index of the round's first span in the full list, which
    the spans' parent indices refer to.
    """
    parents = [None if s.parent is None else s.parent - offset for s in spans]
    selft = self_times(spans, parents)
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    cub_evals = cub_time = 0
    opt_evals = opt_accepted = 0
    opt_eval_time = 0.0
    for i, s in enumerate(spans):
        c = s.counts
        parent = spans[parents[i]] if parents[i] is not None else None
        if s.name == "configurations.merge_coincident":
            m["configurations.merge_coincident_s"] += s.duration
        elif s.name in ("quadrature.chui_energy", "quadrature.l1_defect"):
            m["quadrature.evals"] += c["evals"]
            m["quadrature.nonconverged"] += 0 if c["converged"] else 1
            if s.name == "quadrature.l1_defect":
                m["bounds.defect_calls"] += 1
            elif c["method"] == "mc":
                m["quadrature.mc_s"] += s.duration
            elif c.get("dim") == 2:
                m["quadrature.d2.geometry_s"] += selft[i]
            elif c.get("dim") == 3:
                m["quadrature.d3.rqmc_bulk_s"] += selft[i]
            if (s.name == "quadrature.chui_energy"
                    and _ancestor(spans, parents, i,
                                  "optimize.minimize_positions")
                    is not None):
                opt_eval_time += s.duration
        elif s.name == "cubature.integrate_regions":
            cub_evals += c["evals"]
            cub_time += s.duration
            m["cubature.cells"] += c["cells"]
            if parent is not None and parent.name == "quadrature.chui_energy":
                key = {2: "quadrature.d2.cubature_s",
                       3: "quadrature.d3.zone_s"}.get(parent.counts.get("dim"))
                if key is not None:
                    m[key] += s.duration
        elif s.name == "cubature.integrate_1d":
            if parent is not None and parent.name == "quadrature.chui_energy":
                m["quadrature.d3.surrogate_mass_s"] += s.duration
        elif s.name == "fields.averaged_kernel_batch":
            m["fields.averaged_kernel_points"] += c["points"]
            m["fields.averaged_kernel_s"] += s.duration
        elif s.name == "bounds.make_bound_report":
            m["bounds.report_s"] += s.duration
        elif s.name == "bounds.reduction_budget":
            m["bounds.reduction_budget_s"] += s.duration
        elif s.name == "optimize.minimize_positions":
            opt_evals += c["energy_evals"]
            opt_accepted += c["accepted"]
        elif s.name == "optimize.local_min_certificate":
            m["optimize.certificate_s"] += s.duration
    m["cubature.evals"] = cub_evals
    m["cubature.evals_per_s"] = cub_evals / cub_time if cub_time > 0 else 0.0
    m["optimize.energy_evals"] = opt_evals
    if opt_evals:
        m["optimize.s_per_energy_eval"] = opt_eval_time / opt_evals
        m["optimize.accept_ratio"] = opt_accepted / opt_evals
    return m


def pinned_counts(metrics):
    return {k: int(metrics[k]) for k in PINNED}
