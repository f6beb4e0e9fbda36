"""Outside-in tracing of mehgrisk's layers.

The tracer replaces each public function at every name a caller looks it
up by (a module attribute such as ``cli.published_field`` or
``analysis.real_roots``, or a class attribute such as
``RiskField.evaluate_grid``) with a wrapper that records a span, and
puts the originals back afterwards.  The package's source is untouched.

A span is (id, parent id, op id, name, start, end, counters).  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys
from time import perf_counter


def _flow_counters(args, kwargs, result):
    return {"steps": len(result.samples) - 1, "exit": result.exit_reason}


def _recurrence_counters(args, kwargs, result):
    trajectory = kwargs.get("trajectory", args[0] if args else None)
    n = len(trajectory.samples)
    return {"samples": n, "pairs": n * (n - 1) // 2}


def _level_counters(signature):
    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        field = bound.arguments["field"]
        grid = bound.arguments["grid"]
        levels = tuple(float(x) for x in bound.arguments["levels"])
        key = (field.a, field.b, bound.arguments["domain"] or field.domain, grid)
        return {
            "passes": len(levels),
            "keys": [(key, level) for level in levels],
            "cells": grid * grid * len(levels),
            "vertices": sum(len(line) for cs in result for line in cs.polylines),
            "polylines": sum(len(cs.polylines) for cs in result),
        }

    return count


def _mc_counters(args, kwargs, result):
    return {"samples": result.samples}


def _region_counters(args, kwargs, result):
    return {"method": result.method}


def _grid_counters(args, kwargs, result):
    return {"points": int(result.size)}


def _svg_counters(args, kwargs, result):
    path = kwargs.get("path")
    if path is None:
        path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    return {"bytes": os.path.getsize(path)}


def targets(mg):
    """(span name, owner, attribute, counter) for every traced function.

    ``mg`` is the imported mehgrisk package.  Owners are the modules or
    classes that define the function; the tracer patches every other
    module binding of the same object too.
    """
    level_counters = _level_counters(inspect.signature(mg.analysis.level_curves))
    out = [
        ("cli.cmd_fit", mg.cli, "cmd_fit", None),
        ("cli.cmd_analyze", mg.cli, "cmd_analyze", None),
        ("cli.cmd_geometry", mg.cli, "cmd_geometry", None),
        ("cli.cmd_flow", mg.cli, "cmd_flow", None),
        ("cli.cmd_exposure", mg.cli, "cmd_exposure", None),
        ("fieldfit.build_field", mg.fieldfit, "build_field", None),
        ("fieldfit.published_field", mg.fieldfit, "published_field", None),
        ("fieldfit.evaluate_grid", mg.fieldfit.RiskField, "evaluate_grid", _grid_counters),
        ("polynomial.real_roots", mg.polynomial, "real_roots", None),
        ("analysis.report", mg.analysis, "build_analysis_report", None),
        ("analysis.level_curves", mg.analysis, "level_curves", level_counters),
        ("analysis.montecarlo", mg.analysis, "monte_carlo_region_area", _mc_counters),
        ("analysis.region", mg.analysis, "risk_region_area", _region_counters),
        ("analysis.certify", mg.analysis, "certify_no_critical_points", None),
        ("analysis.mean", mg.analysis, "mean_risk", None),
        ("analysis.mean", mg.analysis, "mean_risk_simpson", None),
        ("dynamics.flow", mg.dynamics, "flow", _flow_counters),
        ("dynamics.recurrence", mg.dynamics, "check_no_recurrence", _recurrence_counters),
        ("dynamics.write_csv", mg.dynamics, "write_trajectory_csv", None),
        ("geometry.report", mg.geometry, "build_geometry_report", None),
    ]
    for name in ("contour_plot_svg", "region_plot_svg", "flow_portrait_svg",
                 "curvature_profile_svg"):
        out.append(("svgplot", mg.svgplot, name, _svg_counters))
    for name, fn in vars(mg.exposure).items():
        if (
            inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == mg.exposure.__name__
        ):
            out.append(("exposure", mg.exposure, name, None))
    return out


class Tracer:
    """Span recorder with install/uninstall of the outside wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: collections.Counter = collections.Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               self.op, name, perf_counter(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mg) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "mehgrisk" or n.startswith("mehgrisk.")]
        for name, owner, attr, counter in targets(mg):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound_name, wrapper)
        # Scalar evaluations are too many and too short for spans; only counted.
        cls = mg.fieldfit.RiskField
        self._set(cls, "evaluate", self._count("fieldfit.evaluate", cls.evaluate))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        selfs = [rec[5] - rec[4] for rec in self.spans]
        for rec in self.spans:
            if rec[1] is not None:
                selfs[rec[1]] -= rec[5] - rec[4]
        return selfs

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, counters in self.spans:
                row = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                if counters:
                    row["counters"] = {k: v for k, v in counters.items() if k != "keys"}
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, list, dict]:
    """Per-operation layer metrics, the self-time ranking and ratio bases.

    Calls and busy time count only the outermost span of a name: entries
    into a layer from outside it, so a layer that calls itself is not
    counted twice.  Self time counts every span.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    names = [rec[3] for rec in spans]
    calls = collections.Counter()
    busy = collections.Counter()
    self_ms = collections.Counter()
    sums = collections.Counter()
    exits = collections.Counter()
    level_keys = collections.defaultdict(set)
    region_methods = collections.Counter()
    for rec, self_s in zip(spans, selfs):
        sid, parent, op, name, start, end, counters = rec
        self_ms[name] += self_s * 1e3
        ancestor = parent
        nested = False
        while ancestor is not None:
            if names[ancestor] == name:
                nested = True
                break
            ancestor = spans[ancestor][1]
        if not nested:
            calls[name] += 1
            busy[name] += (end - start) * 1e3
        if not counters:
            continue
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                sums[name, key] += value
        if name == "dynamics.flow":
            exits[counters["exit"]] += 1
        elif name == "analysis.region":
            region_methods[counters["method"]] += 1
        elif name == "analysis.level_curves":
            level_keys[op].update(counters["keys"])

    def per_op(x):
        return x / ops

    def rate(name, key):
        seconds = busy[name] / 1e3
        return sums[name, key] / seconds if seconds > 0 else 0.0

    region_calls = calls["analysis.region"]
    m = {
        "analysis.level_curves.calls": per_op(calls["analysis.level_curves"]),
        "analysis.level_curves.busy_ms": per_op(busy["analysis.level_curves"]),
        "analysis.level_curves.level_passes": per_op(sums["analysis.level_curves", "passes"]),
        "analysis.level_curves.distinct_level_passes": per_op(
            sum(len(keys) for keys in level_keys.values())),
        "analysis.level_curves.cells_per_s": rate("analysis.level_curves", "cells"),
        "analysis.level_curves.vertices": per_op(sums["analysis.level_curves", "vertices"]),
        "analysis.level_curves.polylines": per_op(sums["analysis.level_curves", "polylines"]),
        "analysis.montecarlo.calls": per_op(calls["analysis.montecarlo"]),
        "analysis.montecarlo.busy_ms": per_op(busy["analysis.montecarlo"]),
        "analysis.montecarlo.samples": per_op(sums["analysis.montecarlo", "samples"]),
        "analysis.montecarlo.samples_per_s": rate("analysis.montecarlo", "samples"),
        "analysis.region.calls": per_op(region_calls),
        "analysis.region.self_ms": per_op(self_ms["analysis.region"]),
        "analysis.region.reduction_ratio": (
            region_methods["reduction"] / region_calls if region_calls else 0.0),
        "analysis.certify.calls": per_op(calls["analysis.certify"]),
        "analysis.certify.busy_ms": per_op(busy["analysis.certify"]),
        "analysis.mean.busy_ms": per_op(busy["analysis.mean"]),
        "polynomial.real_roots.calls": per_op(calls["polynomial.real_roots"]),
        "polynomial.real_roots.busy_ms": per_op(busy["polynomial.real_roots"]),
        "fieldfit.build_field.calls": per_op(calls["fieldfit.build_field"]),
        "fieldfit.build_field.busy_ms": per_op(busy["fieldfit.build_field"]),
        "fieldfit.evaluate_grid.calls": per_op(calls["fieldfit.evaluate_grid"]),
        "fieldfit.evaluate_grid.busy_ms": per_op(busy["fieldfit.evaluate_grid"]),
        "fieldfit.evaluate_grid.points": per_op(sums["fieldfit.evaluate_grid", "points"]),
        "fieldfit.evaluate.calls": per_op(tracer.counts["fieldfit.evaluate"]),
        "fieldfit.published_field.calls": per_op(calls["fieldfit.published_field"]),
        "dynamics.flow.calls": per_op(calls["dynamics.flow"]),
        "dynamics.flow.busy_ms": per_op(busy["dynamics.flow"]),
        "dynamics.flow.steps": per_op(sums["dynamics.flow", "steps"]),
        "dynamics.flow.steps_per_s": rate("dynamics.flow", "steps"),
        "dynamics.flow.exit_left_domain": per_op(exits["left_domain"]),
        "dynamics.flow.exit_max_steps": per_op(exits["max_steps"]),
        "dynamics.recurrence.calls": per_op(calls["dynamics.recurrence"]),
        "dynamics.recurrence.busy_ms": per_op(busy["dynamics.recurrence"]),
        "dynamics.recurrence.samples": per_op(sums["dynamics.recurrence", "samples"]),
        "dynamics.recurrence.pairs": per_op(sums["dynamics.recurrence", "pairs"]),
        "dynamics.recurrence.pairs_per_s": rate("dynamics.recurrence", "pairs"),
        "geometry.report.calls": per_op(calls["geometry.report"]),
        "geometry.report.busy_ms": per_op(busy["geometry.report"]),
        "exposure.calls": per_op(calls["exposure"]),
        "exposure.busy_ms": per_op(busy["exposure"]),
        "svgplot.calls": per_op(calls["svgplot"]),
        "svgplot.busy_ms": per_op(busy["svgplot"]),
        "svgplot.bytes": per_op(sums["svgplot", "bytes"]),
    }
    for cmd in ("cmd_fit", "cmd_analyze", "cmd_geometry", "cmd_flow", "cmd_exposure"):
        m[f"cli.{cmd}.self_ms"] = per_op(self_ms[f"cli.{cmd}"])
    ranking = sorted(((per_op(v), k) for k, v in self_ms.items()), reverse=True)
    bases = {"analysis.region.reduction_ratio": region_calls}
    return m, ranking, bases
