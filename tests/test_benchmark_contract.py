"""What perfbench's tracer needs of the package, checked in tier 1.

The tracer wraps functions and methods by name (``RiskField.evaluate_grid``
among them), binds ``level_curves``' ``domain`` argument by name to
count distinct level passes, and counts a trajectory's samples by len().
A cleanup that drops one of them breaks ``perfbench/run.py --trace 1``;
these tests fail first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import mehgrisk.cli   # the tracer wraps cli's commands too
from mehgrisk.fieldfit import published_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_records_analysis_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    field = published_field()
    ts, cs = np.linspace(1.0, 5.0, 7), np.linspace(0.2, 3.5, 5)
    recorder = tracer.Tracer()
    recorder.install(mehgrisk)
    try:
        recorder.run_op(0, "op", lambda: (
            mehgrisk.analysis.level_curves(
                field, domain=None, levels=(1.0,), grid=16),
            mehgrisk.analysis.risk_region_area(field),
            field.evaluate_grid(ts, cs),
        ))
    finally:
        recorder.uninstall()
    metrics, _, _ = tracer.layer_metrics(recorder, 1)
    # Nothing in the package calls evaluate_grid; the tracer still counts it.
    assert metrics["fieldfit.evaluate_grid.calls"] == 1
    assert metrics["fieldfit.evaluate_grid.points"] == len(ts) * len(cs)
    assert metrics["analysis.level_curves.calls"] == 1
    assert metrics["analysis.level_curves.distinct_level_passes"] == 1
    assert metrics["analysis.region.calls"] == 1
    assert metrics["analysis.region.reduction_ratio"] == 1.0
    assert metrics["polynomial.real_roots.calls"] >= 1
    # Every wrapper is gone again.
    assert mehgrisk.analysis.level_curves.__module__ == "mehgrisk.analysis"
    assert not hasattr(mehgrisk.analysis.level_curves, "__wrapped__")


def test_tracer_counts_flow_steps_and_witness_samples(monkeypatch):
    # The tracer's flow and recurrence counters take len() of the samples,
    # which are one (n, 4) array.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def op():
        traj = mehgrisk.dynamics.flow(
            published_field(), (3.0, 1.0), step=1e-3, max_steps=300)
        return traj, mehgrisk.dynamics.check_no_recurrence(traj, radius=0.05)

    recorder = tracer.Tracer()
    recorder.install(mehgrisk)
    try:
        traj, witness = recorder.run_op(0, "op", op)
    finally:
        recorder.uninstall()
    metrics, _, _ = tracer.layer_metrics(recorder, 1)
    n = len(traj.samples)
    assert witness is True and traj.samples.shape == (n, 4)
    assert metrics["dynamics.flow.calls"] == 1
    assert metrics["dynamics.flow.steps"] == n - 1
    assert metrics["dynamics.recurrence.calls"] == 1
    assert metrics["dynamics.recurrence.samples"] == n
    assert not hasattr(mehgrisk.dynamics.flow, "__wrapped__")
