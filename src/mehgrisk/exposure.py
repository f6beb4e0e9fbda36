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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .fieldfit import SURVEY_CONCENTRATIONS, read_json

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


def _require_nonnegative(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0 <= value < math.inf:   # False for NaN too
            raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite number > 0, got {value}")


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
    _require_nonnegative(
        concentration=concentration,
        ingestion=ingestion,
        duration=duration,
        frequency=frequency,
    )
    return concentration * ingestion * duration * frequency


def average_daily_dose(
    dose: float, body_weight: float, life_expectancy: float
) -> float:
    """Lifetime average daily dose, mg/kg/day.

    Normalizes a total dose (mg) by body weight (kg) and life expectancy
    (years, converted at 365.25 days/year).
    """
    _require_positive(body_weight=body_weight, life_expectancy=life_expectancy)
    _require_nonnegative(dose=dose)
    return dose / (body_weight * life_expectancy * DAYS_PER_YEAR)


def consumption_limit_kg_per_day(
    rfd: float, body_weight: float, concentration: float
) -> float:
    """Maximum safe consumption rate in kg/day: RfD * BW / Cm."""
    _require_positive(concentration=concentration, body_weight=body_weight)
    _require_nonnegative(rfd=rfd)
    return rfd * body_weight / concentration


def consumption_limit_meals_per_month(
    cr_lim: float, portion_mass: float
) -> float:
    """Maximum safe meal count per month: CRlim * 30.44 / MS."""
    _require_positive(portion_mass=portion_mass)
    _require_nonnegative(cr_lim=cr_lim)
    return cr_lim * DAYS_PER_MONTH / portion_mass


def exposure_factor(
    days_per_week: float, exposure_years: float, averaging_years: float
) -> float:
    """Dimensionless schedule factor (dpw * 52 * EY) / (AY * 365)."""
    if not 0 <= days_per_week <= 7:
        raise ValueError(
            f"days_per_week must lie in [0, 7], got {days_per_week}"
        )
    _require_positive(
        exposure_years=exposure_years, averaging_years=averaging_years
    )
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
        _require_positive(
            body_weight=self.body_weight,
            exposure_years=self.exposure_years,
            averaging_years=self.averaging_years,
            reference_dose=self.reference_dose,
        )
        _require_nonnegative(
            concentration=self.concentration,
            intake_rate=self.intake_rate,
        )
        if not 0 <= self.substitution_fraction <= 1:
            raise ValueError(
                "substitution_fraction must lie in [0, 1], got "
                f"{self.substitution_fraction}"
            )
        if not 0 <= self.exposure_days_per_week <= 7:
            raise ValueError(
                "exposure_days_per_week must lie in [0, 7], got "
                f"{self.exposure_days_per_week}"
            )


@dataclass(frozen=True)
class RiskVerdict:
    """Hazard quotient with its threshold classification."""

    risk_coefficient: float

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
    _require_positive(rfd=rfd)
    _require_nonnegative(exposure_value=exposure_value)
    return RiskVerdict(exposure_value / rfd)


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


def _record_from_mapping(row: dict, where: str) -> ProfileRecord:
    if not isinstance(row, dict):
        raise ValueError(f"{where}: expected a JSON object, got {row!r}")
    missing = [c for c in PROFILE_COLUMNS if c not in row or row[c] in ("", None)]
    if missing:
        raise ValueError(f"{where}: missing column {missing[0]!r}")
    values = {}
    for col in PROFILE_COLUMNS[1:]:
        try:
            values[col] = float(row[col])
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}, column {col!r}: not a number: {row[col]!r}"
            ) from None
        if not math.isfinite(values[col]):
            raise ValueError(f"{where}, column {col!r}: not a finite number")
    if values["age_max"] <= values["age_min"]:
        raise ValueError(f"{where}, column 'age_max': must exceed age_min")
    try:
        profile = profile_from_survey(
            values["body_weight_kg"],
            values["intake_g_per_month"],
            values["portions_per_month"],
            values["concentration_mg_per_kg"],
            values["rfd"],
            values["substitution_fraction"],
            span_years=values["age_max"] - values["age_min"],
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return ProfileRecord(
        group=str(row["group"]),
        age_min=values["age_min"],
        age_max=values["age_max"],
        profile=profile,
    )


def load_profiles_csv(path: str | Path) -> list[ProfileRecord]:
    """Read survey profiles from CSV; errors carry row and column."""
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise ValueError(f"{path}: empty profile file")
            unknown = sorted(set(header) - set(PROFILE_COLUMNS))
            if unknown:
                raise ValueError(f"{path}: unknown column {unknown[0]!r}")
            twice = [name for name in header if header.count(name) > 1]
            if twice:
                raise ValueError(f"{path}, row 1: column {twice[0]!r} is repeated")
            for i, row in enumerate(reader, start=2):
                if None in row:   # DictReader keys the cells past the header by None
                    raise ValueError(f"{path}, row {i}: expected {len(header)} "
                                     f"cells, got {len(header) + len(row[None])}")
                records.append(_record_from_mapping(row, f"{path}, row {i}"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no profile rows")
    return records


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
