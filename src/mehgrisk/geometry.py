"""Curvature of the risk surface and the zero-curvature critical ages.

The risk surface is the graph (t, c, R(t, c)).  Its Gaussian curvature is

    K = (R_tt R_cc - R_tc^2) / (1 + R_t^2 + R_c^2)^2.

Because the field is affine in concentration, R_cc is exactly zero and
the numerator collapses to -(q(t))^2 with q the cubic derivative of the
concentration slope g.  Nonpositive curvature is therefore structural,
and K vanishes precisely on the vertical lines t = root of q.  Those
stages, pushed through the stage-to-age map, are the critical ages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fieldfit import RiskField
from .polynomial import ROOT_TOL, Polynomial, real_roots
from .stagemap import DEFAULT_STAGE_MAP

# Search interval for zero-curvature stages: wider than the field domain
# on the right because the oldest critical age sits just past stage 5.
DEFAULT_SEARCH = (1.0, 6.0)


def second_partials(
    field: RiskField, t: float, c: float
) -> tuple[float, float, float]:
    """(R_tt, R_tc, R_cc); the last is exactly 0 for affine-in-c fields."""
    r_tt = c * field.g_prime.derivative()(t) + field.h_prime.derivative()(t)
    return r_tt, field.g_prime(t), 0.0


def mixed_partial_cubic(field: RiskField) -> Polynomial:
    """q(t) = d2R/dtdc, the cubic whose roots carry all zero curvature."""
    return field.g_prime


def gaussian_curvature(field: RiskField, t: float, c: float) -> float:
    """Signed Gaussian curvature of the graph surface at (t, c)."""
    r_tt, r_tc, r_cc = second_partials(field, t, c)
    r_t = field.partial_t(t, c)
    r_c = field.partial_c(t)
    denom = (1.0 + r_t * r_t + r_c * r_c) ** 2
    return (r_tt * r_cc - r_tc * r_tc) / denom


@dataclass(frozen=True)
class ZeroLocus:
    """One vanishing-curvature stage with its biological age."""

    stage: float
    age_years: float
    in_domain: bool       # within the field's stage range
    extrapolated: bool    # age obtained beyond the stage map's knots


@dataclass(frozen=True)
class CurvatureReport:
    max_curvature_on_domain: float
    zero_loci: tuple[ZeroLocus, ...]
    is_hadamard: bool
    curvature_identically_zero: bool = False

    @property
    def critical_ages(self) -> tuple[float, ...]:
        return tuple(locus.age_years for locus in self.zero_loci)

    @property
    def zero_stages(self) -> tuple[float, ...]:
        return tuple(locus.stage for locus in self.zero_loci)


def _loci(
    field: RiskField, search: tuple[float, float]
) -> tuple[ZeroLocus, ...]:
    q = mixed_partial_cubic(field)
    roots = real_roots(q, search[0], search[1], ROOT_TOL)
    dom = field.domain
    loci = []
    for t in roots:
        loci.append(
            ZeroLocus(
                stage=t,
                age_years=DEFAULT_STAGE_MAP.age(t),
                in_domain=dom.t_min <= t <= dom.t_max,
                extrapolated=DEFAULT_STAGE_MAP.is_extrapolated(t),
            )
        )
    return tuple(loci)


def _max_curvature_affine(field: RiskField) -> float:
    """Supremum of K over the rectangle for an affine-in-c field.

    For fixed t, K = -q^2 / (1 + R_t^2 + g^2)^2 is largest where R_t^2
    is, and R_t = h' + c q is linear in c, so at an end of the
    c-interval.  A dense stage grid then resolves the 1-D problem.
    """
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, 4097)
    q, hp, g = field.g_prime(ts), field.h_prime(ts), field.g(ts)
    r_t = np.maximum(np.abs(hp + dom.c_min * q), np.abs(hp + dom.c_max * q))
    return float(np.max(-(q * q) / (1.0 + r_t * r_t + g * g) ** 2))


def certify_hadamard(
    field: RiskField, search: tuple[float, float] = DEFAULT_SEARCH
) -> CurvatureReport:
    """Certificate that the surface has nonpositive curvature everywhere.

    The sign is structural: the curvature numerator is -(q(t))^2.  The
    report still carries the supremum of K over the field's domain, which
    is 0 exactly when a root of q falls inside the stage range.
    """
    dom = field.domain
    loci = _loci(field, search)
    q = field.g_prime.trimmed()
    if q.degree < 0:
        return CurvatureReport(
            max_curvature_on_domain=0.0,
            zero_loci=(),
            is_hadamard=True,
            curvature_identically_zero=True,
        )
    if any(dom.t_min <= locus.stage <= dom.t_max for locus in loci):
        max_k = 0.0
    else:
        max_k = _max_curvature_affine(field)
    return CurvatureReport(
        max_curvature_on_domain=max_k,
        zero_loci=loci,
        is_hadamard=max_k <= 0.0,
    )


def critical_ages(
    field: RiskField, search: tuple[float, float] = DEFAULT_SEARCH
) -> CurvatureReport:
    """Zero-curvature stages in the search interval, with mapped ages."""
    return certify_hadamard(field, search=search)


def build_geometry_report(
    field: RiskField, search: tuple[float, float] = DEFAULT_SEARCH
) -> dict:
    """Curvature certificate and critical ages in plain-JSON form."""
    report = certify_hadamard(field, search=search)
    q = mixed_partial_cubic(field)
    loci = []
    for locus in report.zero_loci:
        label = f"{locus.age_years:.1f} y"
        if locus.extrapolated:
            label += " (extrapolated)"
        loci.append(
            {
                "stage": locus.stage,
                "stage_rounded": round(locus.stage, 2),
                "age_years": locus.age_years,
                "age_rounded": round(locus.age_years, 1),
                "in_domain": locus.in_domain,
                "extrapolated": locus.extrapolated,
                "label": label,
            }
        )
    return {
        "is_hadamard": report.is_hadamard,
        "max_curvature_on_domain": report.max_curvature_on_domain,
        "curvature_identically_zero": report.curvature_identically_zero,
        "numerator_cubic": list(q.coefficients),
        "numerator_cubic_descending": q.format_descending("t"),
        "search_interval": list(search),
        "zero_loci": loci,
    }
