"""Methylmercury dietary risk toolkit.

Reconstructs a smooth bivariate risk field from surveyed hazard
quotients, certifies its qualitative structure (no critical points,
escaping gradient flow, nonpositive surface curvature) and computes the
headline quantities: mean risk, critical-risk region and probability,
and the zero-curvature critical ages.  A separate layer implements the
upstream dose, consumption-limit and exposure equations.
"""

from .analysis import (
    CriticalPointCertificate,
    LevelCurveSet,
    RegionArea,
    certify_no_critical_points,
    level_curves,
    mean_risk,
    mean_risk_simpson,
    monte_carlo_region_area,
    risk_region_area,
)
from .dynamics import FlowTrajectory, check_no_recurrence, flow
from .exposure import (
    ExposureProfile,
    ProfileRecord,
    RiskVerdict,
    average_daily_dose,
    consumption_limit_kg_per_day,
    consumption_limit_meals_per_month,
    exposure_factor,
    profile_risk,
    risk_coefficient,
    total_dose,
)
from .fieldfit import (
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    interpolate,
    published_field,
    regress_linear,
    survey_risk_table,
)
from .geometry import (
    CurvatureReport,
    ZeroLocus,
    certify_hadamard,
    gaussian_curvature,
)
from .polynomial import Polynomial

__version__ = "0.1.0"

__all__ = [
    "CriticalPointCertificate",
    "CurvatureReport",
    "ExposureProfile",
    "FlowTrajectory",
    "LevelCurveSet",
    "Polynomial",
    "ProfileRecord",
    "Rectangle",
    "RegionArea",
    "RiskField",
    "RiskTable",
    "RiskVerdict",
    "ZeroLocus",
    "average_daily_dose",
    "build_field",
    "certify_hadamard",
    "certify_no_critical_points",
    "check_no_recurrence",
    "consumption_limit_kg_per_day",
    "consumption_limit_meals_per_month",
    "exposure_factor",
    "flow",
    "gaussian_curvature",
    "interpolate",
    "level_curves",
    "mean_risk",
    "mean_risk_simpson",
    "monte_carlo_region_area",
    "profile_risk",
    "published_field",
    "regress_linear",
    "risk_coefficient",
    "risk_region_area",
    "survey_risk_table",
    "total_dose",
]
