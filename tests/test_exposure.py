"""Exposure algebra: dose, limits, schedule factor, risk verdicts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mehgrisk import exposure as ex


def test_total_dose_cases():
    assert ex.total_dose(1.0, 1.0, 1.0, 1.0) == 1.0
    assert ex.total_dose(0.5, 2.0, 0.0, 1.0) == 0.0
    # Adult male figures: 262.6 g/month over 78 years at 2.6 portions/month.
    td = ex.total_dose(0.27, 0.2626, 28470, 0.0867)
    assert abs(td - 175.0) < 0.5


def test_total_dose_rejects_negative():
    with pytest.raises(ValueError):
        ex.total_dose(-0.1, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_algebra_rejects_nonfinite(bad):
    # nan <= 0 is False, so a sign test alone lets NaN through.
    with pytest.raises(ValueError, match="ingestion must be a finite number"):
        ex.total_dose(1.0, bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="body_weight must be a finite number"):
        ex.average_daily_dose(1.0, bad, 70.0)
    with pytest.raises(ValueError, match="rfd must be a finite number"):
        ex.consumption_limit_kg_per_day(bad, 70, 1)
    with pytest.raises(ValueError, match="portion_mass must be a finite number"):
        ex.consumption_limit_meals_per_month(0.02, bad)
    with pytest.raises(ValueError, match="averaging_years must be a finite number"):
        ex.exposure_factor(3, 1, bad)
    with pytest.raises(ValueError, match="exposure_value must be a finite number"):
        ex.risk_coefficient(bad, 1e-4)
    with pytest.raises(ValueError, match="concentration must be a finite number"):
        _profile(concentration=bad)


def test_average_daily_dose():
    assert abs(ex.average_daily_dose(28.47, 1.0, 78) - 0.001) < 1e-6
    with pytest.raises(ValueError):
        ex.average_daily_dose(1.0, 0.0, 78)


def test_average_daily_dose_adult_male_parameterization():
    # Full chain at 0.27 mg/kg: monthly intake 262.6 g, 2.6 portions a
    # month (0.0867/day) over a 78-year life, body weight 73.44 kg.
    dose = ex.total_dose(0.27, 0.2626, 78 * 365, 2.6 / 30.0)
    add = ex.average_daily_dose(dose, 73.44, 78.0)
    # Pinned formula value; the published rounded figure is 0.0002, which
    # this parameterization approaches but does not reach (see ledger
    # discussion of the survey's unstated schedule inputs).
    assert abs(add - 8.36e-05) < 2e-6
    # Linearity in concentration is exact regardless of parameterization.
    dose_hi = ex.total_dose(3.33, 0.2626, 78 * 365, 2.6 / 30.0)
    add_hi = ex.average_daily_dose(dose_hi, 73.44, 78.0)
    assert math.isclose(add_hi / add, 3.33 / 0.27, rel_tol=1e-12)


def test_published_dose_pair_consistent_with_linearity():
    # The published rounded pair (0.0002, 0.0021) at concentrations
    # (0.27, 3.33) must admit unrounded values in exact ratio 3.33/0.27.
    ratio = 3.33 / 0.27
    lo = 0.00205 / 0.00025
    hi = 0.00215 / 0.00015
    assert lo <= ratio <= hi


def test_consumption_limits():
    cr = ex.consumption_limit_kg_per_day(0.0001, 70, 0.27)
    assert abs(cr - 0.02593) < 1e-5
    assert abs(ex.consumption_limit_kg_per_day(0.0001, 70, 3.33) - 0.00210) < 1e-5
    assert abs(ex.consumption_limit_meals_per_month(0.02593, 0.26) - 3.04) < 0.02
    assert abs(ex.consumption_limit_meals_per_month(0.00210, 0.26) - 0.246) < 0.005
    # Fixed point: portion mass exactly one limit-month of consumption.
    assert math.isclose(
        ex.consumption_limit_meals_per_month(0.5, 0.5 * ex.DAYS_PER_MONTH), 1.0
    )
    # Linearity in body weight.
    assert math.isclose(
        ex.consumption_limit_kg_per_day(0.0001, 140, 0.27), 2 * cr, rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        ex.consumption_limit_kg_per_day(0.0001, 70, 0.0)
    with pytest.raises(ValueError):
        ex.consumption_limit_meals_per_month(0.02593, 0.0)


def test_exposure_factor():
    assert abs(ex.exposure_factor(7, 10, 10) - 0.9973) < 1e-4
    assert ex.exposure_factor(0, 5, 5) == 0.0
    assert abs(ex.exposure_factor(1, 30, 30) - 0.14247) < 1e-5
    with pytest.raises(ValueError):
        ex.exposure_factor(8, 1, 1)
    with pytest.raises(ValueError):
        ex.exposure_factor(3, 1, 0)


def test_exposure_factor_continuous_band():
    for years in (0.5, 1.0, 7.0, 30.0, 78.0):
        fe = ex.exposure_factor(7, years, years)
        assert 0.996 <= fe <= 0.998


def _profile(**overrides):
    base = dict(
        concentration=1.0,
        intake_rate=1.0,
        body_weight=1.0,
        exposure_days_per_week=7.0,
        exposure_years=1.0,
        averaging_years=1.0,
        reference_dose=1.0,
        substitution_fraction=1.0,
    )
    base.update(overrides)
    return ex.ExposureProfile(**base)


def test_exposure_identity_and_linearity():
    p = _profile()
    fe = ex.exposure_factor(7, 1, 1)
    assert math.isclose(ex.exposure(p), fe, rel_tol=1e-12)
    doubled = _profile(concentration=2.0)
    assert math.isclose(ex.exposure(doubled), 2 * ex.exposure(p), rel_tol=1e-12)
    halved = _profile(substitution_fraction=0.5)
    assert math.isclose(ex.exposure(halved), 0.5 * ex.exposure(p), rel_tol=1e-12)


def test_risk_verdict_threshold():
    assert ex.risk_coefficient(0.0001, 0.0001).risk_coefficient == 1.0
    assert not ex.risk_coefficient(0.0001, 0.0001).acceptable
    assert ex.risk_coefficient(0.000099, 0.0001).acceptable
    assert math.isclose(
        ex.risk_coefficient(0.0023, 0.0001).risk_coefficient, 23.0
    )
    with pytest.raises(ValueError):
        ex.risk_coefficient(0.1, 0.0)


def test_verdict_flips_exactly_at_rfd():
    rng = np.random.default_rng(19)
    for _ in range(500):
        rfd = float(rng.uniform(1e-5, 1e-2))
        below = ex.risk_coefficient(rfd * (1 - 1e-9), rfd)
        at = ex.risk_coefficient(rfd, rfd)
        assert below.acceptable and not at.acceptable


def test_all_operations_linear_in_each_factor():
    rng = np.random.default_rng(101)
    for _ in range(10000):
        c, i, d, f = rng.uniform(0.01, 10.0, 4)
        lam = float(rng.uniform(0.1, 5.0))
        assert math.isclose(
            ex.total_dose(lam * c, i, d, f),
            lam * ex.total_dose(c, i, d, f),
            rel_tol=1e-12,
        )
        bw, le = rng.uniform(1.0, 100.0, 2)
        assert math.isclose(
            ex.average_daily_dose(lam * c, bw, le),
            lam * ex.average_daily_dose(c, bw, le),
            rel_tol=1e-12,
        )
        assert math.isclose(
            ex.consumption_limit_kg_per_day(c * 1e-4, lam * bw, i),
            lam * ex.consumption_limit_kg_per_day(c * 1e-4, bw, i),
            rel_tol=1e-12,
        )
        assert math.isclose(
            ex.consumption_limit_meals_per_month(lam * c, i),
            lam * ex.consumption_limit_meals_per_month(c, i),
            rel_tol=1e-12,
        )
        dpw = float(rng.uniform(0.0, 7.0))
        yrs = float(rng.uniform(0.5, 80.0))
        if dpw * lam <= 7.0:
            assert math.isclose(
                ex.exposure_factor(lam * dpw, yrs, yrs),
                lam * ex.exposure_factor(dpw, yrs, yrs),
                rel_tol=1e-12, abs_tol=1e-15,
            )
        assert math.isclose(
            ex.risk_coefficient(lam * c, 0.31).risk_coefficient,
            lam * ex.risk_coefficient(c, 0.31).risk_coefficient,
            rel_tol=1e-12,
        )


def test_dose_round_trip_identity():
    rng = np.random.default_rng(55)
    for _ in range(2000):
        c, i, d, f = rng.uniform(0.01, 10.0, 4)
        bw = float(rng.uniform(1.0, 100.0))
        le = float(rng.uniform(1.0, 100.0))
        add = ex.average_daily_dose(ex.total_dose(c, i, d, f), bw, le)
        direct = c * i * d * f / (bw * 365.25 * le)
        assert math.isclose(add, direct, rel_tol=1e-12)


def test_survey_profiles_reproduce_published_quotients():
    targets = {
        "babies": 0.804,
        "boys": 0.342,
        "men": 0.204,
        "senior": 0.388,
    }
    for rec in ex.survey_profiles((0.27,)):
        rc = ex.profile_risk(rec.profile).risk_coefficient
        # Documented best-fit parameterization; the survey's schedule
        # inputs are not published, so the band is deliberately wide.
        assert abs(rc - targets[rec.group]) < 0.1
    babies = next(r for r in ex.survey_profiles((0.27,)) if r.group == "babies")
    assert abs(ex.profile_risk(babies.profile).risk_coefficient - 0.804) < 0.05
    men = next(r for r in ex.survey_profiles((0.27,)) if r.group == "men")
    assert abs(ex.profile_risk(men.profile).risk_coefficient - 0.204) < 0.05


def test_survey_substitution_scaling():
    rec = ex.survey_profiles((0.27,))[0]
    p = rec.profile
    no_sub = ex.ExposureProfile(
        concentration=p.concentration,
        intake_rate=p.intake_rate,
        body_weight=p.body_weight,
        exposure_days_per_week=p.exposure_days_per_week,
        exposure_years=p.exposure_years,
        averaging_years=p.averaging_years,
        reference_dose=p.reference_dose,
        substitution_fraction=1.0,
    )
    assert math.isclose(
        ex.exposure(p),
        ex.SHARK_SUBSTITUTION * ex.exposure(no_sub),
        rel_tol=1e-12,
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        _profile(body_weight=0.0)
    with pytest.raises(ValueError, match="body_weight must be a finite number"):
        _profile(body_weight=math.nan)
    with pytest.raises(ValueError, match="reference_dose must be a finite number"):
        _profile(reference_dose=math.inf)
    with pytest.raises(ValueError):
        _profile(substitution_fraction=1.5)
    with pytest.raises(ValueError):
        _profile(exposure_days_per_week=9.0)
    with pytest.raises(ValueError):
        _profile(reference_dose=0.0)


def _write_profile_csv(path, rows):
    header = ",".join(ex.PROFILE_COLUMNS)
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "profiles.csv"
    _write_profile_csv(
        path,
        ["men,12,60,73.44,262.6,2.6,0.27,0.0003,0.6037"],
    )
    records = ex.load_profiles_csv(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.group == "men"
    rc = ex.profile_risk(rec.profile).risk_coefficient
    builtin = next(
        r for r in ex.survey_profiles((0.27,)) if r.group == "men"
    )
    assert math.isclose(
        rc, ex.profile_risk(builtin.profile).risk_coefficient, rel_tol=1e-9
    )


def test_csv_error_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    _write_profile_csv(
        path,
        [
            "men,12,60,73.44,262.6,2.6,0.27,0.0003,0.6037",
            "boys,6,12,potato,188.17,1.3,0.27,0.0001,0.6037",
        ],
    )
    with pytest.raises(ValueError) as err:
        ex.load_profiles_csv(path)
    assert "row 3" in str(err.value)
    assert "body_weight_kg" in str(err.value)


def test_csv_rejects_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,age_min,age_max,bogus\na,1,2,3\n")
    with pytest.raises(ValueError) as err:
        ex.load_profiles_csv(path)
    assert "bogus" in str(err.value)


def test_csv_rejects_a_row_longer_than_the_header(tmp_path):
    # The extra cell was dropped and the row accepted.
    path = tmp_path / "long.csv"
    _write_profile_csv(
        path,
        [
            "men,12,60,73.44,262.6,2.6,0.27,0.0003,0.6037",
            "men,12,60,73.44,262.6,2.6,0.27,0.0003,0.6037,99",
        ],
    )
    with pytest.raises(ValueError) as err:
        ex.load_profiles_csv(path)
    assert str(err.value) == f"{path}, row 3: expected 9 cells, got 10"


def test_csv_rejects_a_repeated_column(tmp_path):
    # The later cell won: this men row was read as boys.
    path = tmp_path / "twice.csv"
    path.write_text(
        ",".join(ex.PROFILE_COLUMNS) + ",group\n"
        "men,12,60,73.44,262.6,2.6,0.27,0.0003,0.6037,boys\n"
    )
    with pytest.raises(ValueError) as err:
        ex.load_profiles_csv(path)
    assert str(err.value) == f"{path}, row 1: column 'group' is repeated"


def test_json_profiles(tmp_path):
    path = tmp_path / "profiles.json"
    row = dict(zip(
        ex.PROFILE_COLUMNS,
        ["senior", 60, 90, 68.85, 193.38, 2.1, 3.33, 0.0001, 0.6037],
    ))
    path.write_text(json.dumps([row]))
    records = ex.load_profiles_json(path)
    assert records[0].group == "senior"
    assert records[0].profile.concentration == 3.33
