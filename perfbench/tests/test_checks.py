"""The checks pass the package's real outputs and catch planted faults."""

import dataclasses
import json
import math

import pytest

import mehgrisk
import mehgrisk.cli  # noqa: F401
import oracles
import workloads


def shifted(curve_set, dc):
    lines = tuple(tuple((t, c + dc) for t, c in line) for line in curve_set.polylines)
    return dataclasses.replace(curve_set, polylines=lines)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.FieldSweep(mehgrisk, 11, tmp_path_factory.mktemp("sweep"))
    for k in range(64):
        spec = wl.prepare(k)
        out = wl.op(spec)
        if any(r.method == "reduction" for r in out["regions"]) and out["curves"][0].polylines:
            return wl, spec, out
    pytest.fail("no table with a reduction result and a level curve")


def test_sweep_output_passes(sweep):
    wl, spec, out = sweep
    assert wl.check(spec, out) == []


def test_sweep_catches_shifted_vertices(sweep):
    wl, spec, out = sweep
    bad = dict(out, curves=[shifted(out["curves"][0], 0.05)])
    assert any("vertex residual" in p for p in wl.check(spec, bad))


def test_sweep_catches_area_off_by_1e3(sweep):
    wl, spec, out = sweep
    k = next(i for i, r in enumerate(out["regions"]) if r.method == "reduction")
    regions = list(out["regions"])
    a, b = oracles.fit_field(spec["concentrations"], oracles.STAGE_NODES, spec["values"])
    (oracle, _), = oracles.region_areas(a, b, (workloads.SWEEP_THRESHOLDS[k],))
    # Away from the oracle, so the planted error adds to the package's own.
    off = math.copysign(1e-3, regions[k].area - oracle)
    regions[k] = dataclasses.replace(regions[k], area=regions[k].area + off)
    assert any("vs oracle" in p for p in wl.check(spec, dict(out, regions=regions)))


def test_flow_catches_failed_witness(tmp_path):
    wl = workloads.FlowWitness(mehgrisk, 3, tmp_path)
    spec = wl.prepare(0)
    traj, witness = wl.op(spec)
    assert witness is True and wl.check(spec, (traj, True)) == []
    assert any("witness" in p for p in wl.check(spec, (traj, False)))


def test_region_oracle_is_the_faithful_area():
    (area, method), = oracles.region_areas(oracles.PUBLISHED_A, oracles.PUBLISHED_B, (1.0,))
    assert method == "column_integral"
    assert abs(area - 12.5706) < 1e-4


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    wl = workloads.PaperReport(mehgrisk, 5, tmp_path_factory.mktemp("report"))
    argv = wl.prepare(0)
    assert wl.check(argv, wl.op(argv)) == []
    return wl, argv


def test_report_catches_shifted_vertices(report):
    wl, argv = report
    path = f"{argv[-1]}/analysis.json"
    doc = json.load(open(path))
    doc["levels"][0]["polylines"][0][0][1] += 0.05
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = wl.check(argv, 0)
    assert any("vertex residual" in p for p in problems)
    # The bundle no longer matches the first run of its seed either.
    assert any("differs from its first run" in p for p in problems)


def test_report_catches_area_off_by_1e3(report):
    wl, argv = report
    path = f"{argv[-1]}/analysis.json"
    doc = json.load(open(path))
    doc["region_area"] += 1e-3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert any("region: area" in p for p in wl.check(argv, 0))


def test_report_catches_nonzero_exit(report):
    wl, argv = report
    assert wl.check(argv, 2) == ["exit status 2"]


def test_level_tolerance_bounds_the_paper_residual():
    tol = oracles.level_tolerance(oracles.PUBLISHED_A, oracles.PUBLISHED_B, 256)
    assert 0 < tol < 0.01
