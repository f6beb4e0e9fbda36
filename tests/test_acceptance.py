"""Headline acceptance checks for the published survey dataset.

Each criterion prints exactly one PASS/FAIL line on the live terminal
(bypassing pytest capture) with the measured values, then asserts.  A
red line therefore stays visible in the run log together with the
numbers that produced it.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np
import pytest

from mehgrisk.analysis import (
    certify_no_critical_points,
    mean_risk,
    mean_risk_simpson,
    monte_carlo_region_area,
    risk_region_area,
)
from mehgrisk.cli import main as cli_main
from mehgrisk.dynamics import EXIT_LEFT_DOMAIN, check_no_recurrence, flow
from mehgrisk.exposure import (
    DAYS_PER_MONTH,
    ExposureProfile,
    average_daily_dose,
    consumption_limit_kg_per_day,
    consumption_limit_meals_per_month,
    exposure,
    exposure_factor,
    profile_risk,
    survey_profiles,
    total_dose,
)
from mehgrisk.fieldfit import (
    RiskField,
    RiskTable,
    build_field,
    interpolate,
    published_field,
    regress_linear,
)
from mehgrisk.geometry import (
    certify_hadamard,
    gaussian_curvature,
    mixed_partial_cubic,
    second_partials,
)
from mehgrisk.polynomial import Polynomial, real_roots

# Per-concentration quartic coefficients (ascending) from the survey fit.
COEFF_ROWS = {
    0.27: (-5.25, 8.93, -4.54, 0.92, -0.06),
    2.43: (-47.6, 81.11, -41.39, 8.48, -0.60),
    3.33: (-64.8, 110.28, -56.12, 11.47, -0.82),
}
EXPECTED_LINES = (
    (-19.48, -0.04),
    (33.17, 0.09),
    (-16.89, -0.06),
    (3.45, 0.007),
    (-0.24, 0.006),
)


def _criterion(capsys, num: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    with capsys.disabled():
        print(f"[C{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def paper_analysis(tmp_path_factory):
    out = tmp_path_factory.mktemp("analysis")
    code = cli_main(
        ["analyze", "--paper-dataset", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    with open(out / "analysis.json") as fh:
        return json.load(fh)


def test_c01_mean_risk(paper_analysis, capsys):
    f = published_field()
    t0 = perf_counter()
    closed = mean_risk(f)
    simpson = mean_risk_simpson(f)
    elapsed = perf_counter() - t0
    reported = paper_analysis["mean_risk"]
    gap = abs(closed - simpson)
    _criterion(capsys, 1, [
        (abs(reported - 5.56) <= 0.02,
         f"mean risk {reported:.4f} (target 5.56 +/- 0.02)"),
        (gap <= 1e-8, f"|closed - Simpson| = {gap:.1e} (<= 1e-8)"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s (< 1 s)"),
    ])


def test_c02_risk_probability_and_region_area(paper_analysis, capsys):
    area = paper_analysis["region_area"]
    prob = paper_analysis["probability"]
    f = published_field()
    t0 = perf_counter()
    region = risk_region_area(f)
    oracle = monte_carlo_region_area(f, samples=10**6, seed=42)
    elapsed = perf_counter() - t0
    mc_gap = abs(region.area - oracle.area)
    _criterion(capsys, 2, [
        (abs(prob - 0.97) <= 0.01,
         f"probability {prob:.4f} (target 0.97 +/- 0.01)"),
        (abs(area - 12.92) <= 0.05,
         f"region area {area:.4f} (target 12.92 +/- 0.05)"),
        (mc_gap <= 3 * oracle.std_error,
         f"Monte Carlo {oracle.area:.4f} within 3 sigma"
         f" (gap {mc_gap:.4f}, sigma {oracle.std_error:.4f})"),
        (elapsed < 5.0, f"runtime {elapsed:.3f} s (< 5 s)"),
    ])


def test_c03_no_critical_points(capsys):
    f = published_field()
    cert = certify_no_critical_points(f)
    ts = np.linspace(1.0, 5.0, 100000)
    dense = np.polyval(list(reversed(f.a)), ts)
    dense_min = float(np.min(dense))
    dense_at = float(ts[np.argmin(dense)])
    _criterion(capsys, 3, [
        (not cert.has_critical_points, "no critical points certified"),
        (abs(cert.min_dRdc - 0.01) <= 1e-3 and cert.min_dRdc > 0,
         f"min dR/dc {cert.min_dRdc:.6f} (target 0.01, positive)"),
        (abs(cert.min_dRdc_at - 1.0) <= 1e-3,
         f"attained at t = {cert.min_dRdc_at:.4f} (target 1)"),
        (dense_min > 0 and abs(dense_min - cert.min_dRdc) <= 1e-3
         and abs(dense_at - cert.min_dRdc_at) <= 1e-3,
         "dense 1e5-point scan agrees"),
    ])


def test_c04_critical_ages(capsys):
    report = certify_hadamard(published_field())
    stages = report.zero_stages
    ages = report.critical_ages
    stage_targets = (1.85, 3.28, 5.59)
    age_targets = ((5.0, 2.0), (26.4, 2.0), (105.0, 4.0))
    stage_ok = len(stages) == 3 and all(
        abs(s - t) <= 0.15 for s, t in zip(stages, stage_targets)
    )
    age_ok = all(
        abs(a - t) <= tol for a, (t, tol) in zip(ages, age_targets)
    )
    third = report.zero_loci[2] if len(report.zero_loci) == 3 else None
    printed_cubic = Polynomial((33.17, -33.78, 10.35, -0.96))
    count = len(real_roots(printed_cubic, 1.0, 6.0))
    _criterion(capsys, 4, [
        (stage_ok,
         "stages " + ", ".join(f"{s:.3f}" for s in stages)
         + " (targets 1.85, 3.28, 5.59 +/- 0.15)"),
        (age_ok,
         "ages " + ", ".join(f"{a:.1f}" for a in ages)
         + " y (targets 5 +/- 2, 26.4 +/- 2, 105 +/- 4)"),
        (third is not None and not third.in_domain,
         "third locus outside the stage range"),
        (count == 3, f"bisection oracle root count {count} (= 3)"),
    ])


def test_c05_regression_recovery(capsys):
    concs = tuple(sorted(COEFF_ROWS))
    worst = 0.0
    for k, (slope_want, intercept_want) in enumerate(EXPECTED_LINES):
        ys = tuple(COEFF_ROWS[c][k] for c in concs)
        slope, intercept = regress_linear(concs, ys)
        worst = max(
            worst, abs(slope - slope_want), abs(intercept - intercept_want)
        )
    _criterion(capsys, 5, [
        (worst <= 0.02,
         f"all 5 slope/intercept pairs recovered, worst gap {worst:.4f}"
         " (<= 0.02)"),
    ])


def test_c06_hadamard_curvature(capsys):
    f = published_field()
    q = mixed_partial_cubic(f)
    loci = real_roots(q, 1.0, 5.0)
    rng = np.random.default_rng(61)
    max_k = -math.inf
    sign_ok = True
    strict_ok = True
    for _ in range(10000):
        t = float(rng.uniform(1.0, 5.0))
        c = float(rng.uniform(0.2, 3.5))
        k = gaussian_curvature(f, t, c)
        max_k = max(max_k, k)
        if k > 0.0:
            sign_ok = False
        if min(abs(t - r) for r in loci) > 1e-6 and not k < 0.0:
            strict_ok = False
    rcc_ok = all(
        second_partials(f, t, c)[2] == 0.0
        for t, c in ((1.0, 0.2), (2.3, 1.1), (3.7, 2.9), (5.0, 3.5))
    )
    _criterion(capsys, 6, [
        (sign_ok, f"K <= 0 at 10^4 random points (max K {max_k:.3e})"),
        (strict_ok, "K < 0 strictly beyond 1e-6 of the zero loci"),
        (rcc_ok, "d2R/dc2 exactly zero"),
    ])


def test_c07_gradient_flow(capsys):
    f = published_field()
    rng = np.random.default_rng(71)
    monotone = recurrence_free = exited = 0
    n = 50
    for _ in range(n):
        start = (
            float(rng.uniform(1.02, 4.98)), float(rng.uniform(0.22, 3.48))
        )
        traj = flow(f, start)
        rs = [s[3] for s in traj.samples]
        if all(b > a for a, b in zip(rs, rs[1:])):
            monotone += 1
        if check_no_recurrence(traj, radius=0.05):
            recurrence_free += 1
        if traj.exit_reason == EXIT_LEFT_DOMAIN:
            exited += 1
    ends = []
    for step, steps in ((0.05, 8), (0.025, 16), (0.0125, 32)):
        traj = flow(f, (3.0, 1.0), step=step, max_steps=steps)
        ends.append(traj.endpoint)
    ratio = math.dist(ends[0], ends[1]) / math.dist(ends[1], ends[2])
    _criterion(capsys, 7, [
        (monotone == n, f"risk strictly increases on {monotone}/{n} flows"),
        (recurrence_free == n, f"no recurrence on {recurrence_free}/{n}"),
        (exited == n, f"domain exit within budget on {exited}/{n}"),
        (12.0 < ratio < 20.0,
         f"step-halving error ratio {ratio:.1f} (in [12, 20])"),
    ])


def _exposure_property_cases(n: int) -> tuple[int, int]:
    rng = np.random.default_rng(81)
    passed = 0
    for _ in range(n):
        conc = float(rng.uniform(0.01, 5.0))
        intake = float(rng.uniform(0.01, 1.0))
        days = float(rng.uniform(1.0, 3e4))
        freq = float(rng.uniform(0.01, 3.0))
        bw = float(rng.uniform(5.0, 120.0))
        le = float(rng.uniform(1.0, 100.0))
        rfd = float(rng.uniform(1e-5, 1e-2))
        ms = float(rng.uniform(0.05, 0.5))
        dpw = float(rng.uniform(0.0, 3.5))
        ey = float(rng.uniform(0.5, 80.0))
        ay = float(rng.uniform(0.5, 80.0))
        s = float(rng.uniform(0.1, 10.0))
        ok = True

        td = total_dose(conc, intake, days, freq)
        ok &= math.isclose(total_dose(s * conc, intake, days, freq), s * td,
                           rel_tol=1e-12)
        add = average_daily_dose(td, bw, le)
        ok &= math.isclose(add * bw * le * 365.25, td, rel_tol=1e-12)
        ok &= math.isclose(average_daily_dose(s * td, bw, le), s * add,
                           rel_tol=1e-12)
        cr = consumption_limit_kg_per_day(rfd, bw, conc)
        ok &= math.isclose(consumption_limit_kg_per_day(s * rfd, bw, conc),
                           s * cr, rel_tol=1e-12)
        ok &= math.isclose(consumption_limit_kg_per_day(rfd, bw, s * conc),
                           cr / s, rel_tol=1e-12)
        mm = consumption_limit_meals_per_month(cr, ms)
        ok &= math.isclose(mm * ms / DAYS_PER_MONTH, cr, rel_tol=1e-12)
        fe = exposure_factor(dpw, ey, ay)
        ok &= math.isclose(exposure_factor(2 * dpw, ey, ay), 2 * fe,
                           rel_tol=1e-12)
        ok &= math.isclose(exposure_factor(dpw, s * ey, s * ay), fe,
                           rel_tol=1e-12)
        profile = ExposureProfile(
            concentration=conc, intake_rate=intake, body_weight=bw,
            exposure_days_per_week=dpw, exposure_years=ey,
            averaging_years=ay, reference_dose=rfd,
        )
        scaled = ExposureProfile(
            concentration=s * conc, intake_rate=intake, body_weight=bw,
            exposure_days_per_week=dpw, exposure_years=ey,
            averaging_years=ay, reference_dose=rfd,
        )
        e = exposure(profile)
        ok &= math.isclose(exposure(scaled), s * e, rel_tol=1e-12)
        ok &= math.isclose(
            profile_risk(profile).risk_coefficient, e / rfd, rel_tol=1e-12
        )
        passed += bool(ok)
    return passed, n


def test_c08_exposure_algebra(capsys):
    passed, n = _exposure_property_cases(10000)
    fe_band_ok = all(
        0.996 <= exposure_factor(7.0, y, y) <= 0.998
        for y in (1.0, 5.0, 10.0, 40.0, 78.0)
    )
    targets = {"babies": 0.804, "boys": 0.342, "men": 0.204, "senior": 0.388}
    rcs = {
        rec.group: profile_risk(rec.profile).risk_coefficient
        for rec in survey_profiles((0.27,))
    }
    worst = max(abs(rcs[g] - v) for g, v in targets.items())
    _criterion(capsys, 8, [
        (passed == n, f"linearity/round-trip suite {passed}/{n} cases"),
        (fe_band_ok, "exposure_factor(7, y, y) in [0.996, 0.998]"),
        (worst <= 0.1,
         "risk coefficients at 0.27 mg/kg: "
         + ", ".join(f"{g} {rcs[g]:.3f}" for g in targets)
         + f" (worst gap {worst:.3f} <= 0.1)"),
    ])


def test_c09_interpolation_exactness(capsys):
    rng = np.random.default_rng(91)
    instances = 0
    worst_residual = 0.0
    while instances < 1000:
        nodes = np.sort(rng.uniform(-5.0, 5.0, 5))
        if float(np.min(np.diff(nodes))) < 0.3:
            continue
        values = rng.uniform(-50.0, 50.0, 5)
        p = interpolate(tuple(nodes), tuple(values))
        worst_residual = max(
            worst_residual,
            max(abs(p(float(x)) - float(y)) for x, y in zip(nodes, values)),
        )
        instances += 1
    worst_coeff = 0.0
    for _ in range(20):
        a = tuple(rng.uniform(-3.0, 3.0, 5))
        b = tuple(rng.uniform(-3.0, 3.0, 5))
        src = RiskField(a, b)
        concs = (0.3, 1.5, 3.2)
        nodes = (1.0, 2.0, 3.0, 4.0, 5.0)
        table = RiskTable(
            concentrations=concs,
            nodes=nodes,
            values=tuple(
                tuple(src.evaluate(t, c) for t in nodes) for c in concs
            ),
        )
        rebuilt = build_field(table)
        worst_coeff = max(
            worst_coeff,
            max(abs(x - y) for x, y in zip(rebuilt.a + rebuilt.b, a + b)),
        )
    _criterion(capsys, 9, [
        (worst_residual < 1e-9,
         f"node residuals over 10^3 instances, worst {worst_residual:.1e}"
         " (< 1e-9)"),
        (worst_coeff < 1e-8,
         f"synthetic field round trip, worst coefficient gap"
         f" {worst_coeff:.1e} (< 1e-8)"),
    ])


def test_c10_determinism(tmp_path, capsys):
    args = ["report", "--paper-dataset", "--seed", "42"]
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli_main(args + ["--out", str(one)]) == 0
    assert cli_main(args + ["--out", str(two)]) == 0
    names_one = sorted(p.name for p in one.iterdir())
    names_two = sorted(p.name for p in two.iterdir())
    same_names = names_one == names_two
    json_names = [n for n in names_one if n.endswith(".json")]
    diffs = [
        name for name in names_one
        if (one / name).read_bytes() != (two / name).read_bytes()
    ]
    _criterion(capsys, 10, [
        (same_names and len(json_names) >= 6,
         f"two runs produced the same {len(names_one)} files"),
        (not diffs,
         "all outputs byte-identical" if not diffs
         else f"differing files: {', '.join(diffs)}"),
    ])
