"""Dose, consumption-limit, exposure and risk-coefficient algebra.

Implements the standard screening equations for dietary intake of a
contaminant (here methylmercury in shark meat), in the usual exposure
units: masses in kg, doses in mg, rates per day.

    total dose      TD     = C * I * d * f          (mg)
    daily dose      ADD    = TD / (BW * LE * 365.25)
    limit, kg/day   CRlim  = RfD * BW / Cm
    limit, meals    CRmm   = CRlim * 30.44 / MS
    exposure factor FE     = (dpw * 52 * EY) / (AY * 365)
    exposure        E      = C * TI * FE / BW
    risk quotient   RC     = E / RfD, acceptable iff RC < 1

Two year lengths appear on purpose: the daily-dose denominator uses the
astronomical 365.25 d/y (consistent with the 30.44 d/month meal-limit
period), while the exposure factor uses the conventional 365 d/y. Both
follow the published definitions of the respective equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .fieldfit import SURVEY_CONCENTRATIONS, read_csv, read_json
from .fieldfit import (   # the checks
    _arg, _csv_number, _finite, _nonnegative, _object, _positive, _string,
    _within,
)

# Reference doses, mg/kg/day.  The lower value applies to sensitive
# groups (children, seniors), the higher one to adult men.
RFD_SENSITIVE = 0.0001
RFD_ADULT = 0.0003

# Fraction of "fish" meat that is actually shark in the surveyed market.
SHARK_SUBSTITUTION = 0.6037

DAYS_PER_YEAR = 365.25
DAYS_PER_MONTH = DAYS_PER_YEAR / 12.0      # 30.44 used by the meal limit
WEEKS_PER_YEAR = 52.0
FE_DAYS_PER_YEAR = 365.0


def total_dose(
    concentration: float, ingestion: float, duration: float, frequency: float
) -> float:
    """Total ingested dose in mg.

    Parameters
    ----------
    concentration : contaminant concentration in tissue, mg/kg
    ingestion     : mass ingested per event, kg
    duration      : exposure duration, days
    frequency     : events per day
    """
    _arg("concentration", _nonnegative, concentration)
    _arg("ingestion", _nonnegative, ingestion)
    _arg("duration", _nonnegative, duration)
    _arg("frequency", _nonnegative, frequency)
    return concentration * ingestion * duration * frequency


def average_daily_dose(
    dose: float, body_weight: float, life_expectancy: float
) -> float:
    """Lifetime average daily dose, mg/kg/day.

    Normalizes a total dose (mg) by body weight (kg) and life expectancy
    (years, converted at 365.25 days/year).
    """
    _arg("body_weight", _positive, body_weight)
    _arg("life_expectancy", _positive, life_expectancy)
    _arg("dose", _nonnegative, dose)
    return dose / (body_weight * life_expectancy * DAYS_PER_YEAR)


def consumption_limit_kg_per_day(
    rfd: float, body_weight: float, concentration: float
) -> float:
    """Maximum safe consumption rate in kg/day: RfD * BW / Cm."""
    _arg("concentration", _positive, concentration)
    _arg("body_weight", _positive, body_weight)
    _arg("rfd", _nonnegative, rfd)
    return rfd * body_weight / concentration


def consumption_limit_meals_per_month(
    cr_lim: float, portion_mass: float
) -> float:
    """Maximum safe meal count per month: CRlim * 30.44 / MS."""
    _arg("portion_mass", _positive, portion_mass)
    _arg("cr_lim", _nonnegative, cr_lim)
    return cr_lim * DAYS_PER_MONTH / portion_mass


def exposure_factor(
    days_per_week: float, exposure_years: float, averaging_years: float
) -> float:
    """Dimensionless schedule factor (dpw * 52 * EY) / (AY * 365)."""
    _arg("days_per_week", _within(0, 7), days_per_week)
    _arg("exposure_years", _positive, exposure_years)
    _arg("averaging_years", _positive, averaging_years)
    return (days_per_week * WEEKS_PER_YEAR * exposure_years) / (
        averaging_years * FE_DAYS_PER_YEAR
    )


@dataclass(frozen=True)
class ExposureProfile:
    """Inputs for one consumer group at one tissue concentration.

    intake_rate is kg per event before shark substitution; the
    substitution fraction is applied inside exposure().
    """

    concentration: float
    intake_rate: float
    body_weight: float
    exposure_days_per_week: float
    exposure_years: float
    averaging_years: float
    reference_dose: float
    substitution_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name, check in (
            ("body_weight", _positive), ("exposure_years", _positive),
            ("averaging_years", _positive), ("reference_dose", _positive),
            ("concentration", _nonnegative), ("intake_rate", _nonnegative),
            ("substitution_fraction", _within(0, 1)),
            ("exposure_days_per_week", _within(0, 7)),
        ):
            object.__setattr__(self, name, _arg(name, check, getattr(self, name)))


@dataclass(frozen=True)
class RiskVerdict:
    """Hazard quotient with the exposure it divides and its threshold
    classification."""

    risk_coefficient: float
    exposure: float

    @property
    def acceptable(self) -> bool:
        # The boundary RC = 1 is classified as unacceptable: only RC < 1
        # is an acceptable risk.
        return self.risk_coefficient < 1.0


def exposure(profile: ExposureProfile) -> float:
    """Exposure E = C * TI * FE / BW in mg/kg/day.

    TI is the substitution-scaled intake rate; FE comes from the
    profile's consumption schedule.
    """
    fe = exposure_factor(
        profile.exposure_days_per_week,
        profile.exposure_years,
        profile.averaging_years,
    )
    intake = profile.intake_rate * profile.substitution_fraction
    return profile.concentration * intake * fe / profile.body_weight


def risk_coefficient(exposure_value: float, rfd: float) -> RiskVerdict:
    """Hazard quotient RC = E / RfD."""
    _arg("rfd", _positive, rfd)
    _arg("exposure_value", _nonnegative, exposure_value)
    return RiskVerdict(exposure_value / rfd, exposure_value)


def profile_risk(profile: ExposureProfile) -> RiskVerdict:
    return risk_coefficient(exposure(profile), profile.reference_dose)


# ---------------------------------------------------------------------------
# Survey ingestion

PROFILE_COLUMNS = (
    "group",
    "age_min",
    "age_max",
    "body_weight_kg",
    "intake_g_per_month",
    "portions_per_month",
    "concentration_mg_per_kg",
    "rfd",
    "substitution_fraction",
)


@dataclass(frozen=True)
class ProfileRecord:
    """One survey row: a labelled age group plus its exposure profile."""

    group: str
    age_min: float
    age_max: float
    profile: ExposureProfile


def profile_from_survey(
    body_weight_kg: float,
    intake_g_per_month: float,
    portions_per_month: float,
    concentration_mg_per_kg: float,
    rfd: float,
    substitution_fraction: float,
    span_years: float,
) -> ExposureProfile:
    """Convert survey units (g/month, portions/month) to an ExposureProfile.

    The monthly intake becomes the per-event intake in kg; the portion
    count converts to consumption days per week at 12 months / 52 weeks.
    Exposure and averaging time both equal the group's age span, so the
    schedule factor reduces to dpw * 52 / 365.
    """
    days_per_week = portions_per_month * 12.0 / WEEKS_PER_YEAR
    return ExposureProfile(
        concentration=concentration_mg_per_kg,
        intake_rate=intake_g_per_month / 1000.0,
        body_weight=body_weight_kg,
        exposure_days_per_week=days_per_week,
        exposure_years=span_years,
        averaging_years=span_years,
        reference_dose=rfd,
        substitution_fraction=substitution_fraction,
    )


def _record_from_mapping(row, where: str) -> ProfileRecord:
    """The record of a profile JSON entry or CSV row, an object with the
    PROFILE_COLUMNS keys; an error is prefixed with where."""
    try:
        values = _object(
            {"group": _string} | dict.fromkeys(PROFILE_COLUMNS[1:], _finite)
        )(row)
        if values["age_max"] <= values["age_min"]:
            raise ValueError("age_max: must exceed age_min")
        profile = profile_from_survey(
            *(values[col] for col in PROFILE_COLUMNS[3:]),
            span_years=values["age_max"] - values["age_min"],
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return ProfileRecord(
        values["group"], values["age_min"], values["age_max"], profile
    )


def load_profiles_csv(path: str | Path) -> list[ProfileRecord]:
    """Read survey profiles from CSV; errors carry row and column.  The
    cells of group and of an unknown column, which is refused, are text."""
    (first, header), *rows = read_csv(path)
    twice = [name for name in header if header.count(name) > 1]
    if twice:
        raise ValueError(f"{path}, row {first}: column {twice[0]!r} is repeated")
    if not rows:
        raise ValueError(f"{path}: no profile rows")
    numeric = PROFILE_COLUMNS[1:]
    return [
        _record_from_mapping({
            col: _csv_number(cell, f"{path}, row {i}, column {col!r}")
            if col in numeric else cell
            for col, cell in zip(header, row)
        }, f"{path}, row {i}")
        for i, row in rows
    ]


def load_profiles_json(path: str | Path) -> list[ProfileRecord]:
    """Read survey profiles from a JSON array of row objects."""
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON array of rows")
    return [
        _record_from_mapping(row, f"{path}, entry {i}")
        for i, row in enumerate(data)
    ]


# ---------------------------------------------------------------------------
# Built-in survey dataset
#
# Group parameters from the consumption survey: body weight (kg), shark
# intake (g/month) and portions/month.  Children's intake figures are
# shared by the two youngest groups; the babies' body weight is the mean
# for Mexican children aged 1 to 6, back-solved so the published hazard
# quotients are reproduced (the survey reports a single "children" row).
# Sensitive groups use the protective reference dose.

_SURVEY_GROUPS = (
    # group, age_min, age_max, body weight, intake g/mo, portions/mo, rfd
    ("babies", 1.0, 6.0, 16.3, 188.17, 1.3, RFD_SENSITIVE),
    ("boys", 6.0, 12.0, 34.94, 188.17, 1.3, RFD_SENSITIVE),
    ("men", 12.0, 60.0, 73.44, 262.60, 2.6, RFD_ADULT),
    ("senior", 60.0, 90.0, 68.85, 193.38, 2.1, RFD_SENSITIVE),
)


def survey_profiles(
    concentrations: tuple[float, ...] = SURVEY_CONCENTRATIONS,
) -> list[ProfileRecord]:
    """Built-in survey dataset: every age group at every concentration."""
    records = []
    for conc in concentrations:
        for group, lo, hi, bw, intake, portions, rfd in _SURVEY_GROUPS:
            records.append(
                ProfileRecord(
                    group=group,
                    age_min=lo,
                    age_max=hi,
                    profile=profile_from_survey(
                        bw, intake, portions, conc, rfd,
                        SHARK_SUBSTITUTION, span_years=hi - lo,
                    ),
                )
            )
    return records
