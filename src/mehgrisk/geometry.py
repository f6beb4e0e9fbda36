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

from . import stagemap
from .fieldfit import RiskField


def gaussian_curvature(field: RiskField, t, c):
    """Signed Gaussian curvature -q(t)^2 / (1 + R_t^2 + g(t)^2)^2 of the
    graph surface at (t, c); t and c are floats or broadcastable arrays.
    On the field's search range x its c range, where RiskField keeps q, R_t
    and g within 2^250, no square here overflows and K is finite."""
    q, r_t, g = field.g_prime(t), field.partial_t(t, c), field.g(t)
    return -(q * q) / (1.0 + r_t * r_t + g * g) ** 2


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


def _loci(field: RiskField) -> tuple[ZeroLocus, ...]:
    """The roots of q on the field's search range, with mapped ages."""
    dom = field.domain
    return tuple(
        ZeroLocus(
            stage=t,
            age_years=stagemap.age(t),
            in_domain=dom.t_min <= t <= dom.t_max,
            extrapolated=stagemap.is_extrapolated(t),
        )
        for t in field.g_prime_roots
    )


def _max_curvature_affine(field: RiskField) -> float:
    """Largest K over the rectangle on a 4097-point stage grid, for an
    affine-in-c field: a lower estimate of the supremum, not a bound.

    For fixed t, K = -q^2 / (1 + R_t^2 + g^2)^2 is largest where R_t^2
    is, and R_t = h' + c q is linear in c, so at an end of the
    c-interval; the grid samples the remaining 1-D problem.
    """
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, 4097)
    edges = np.array([[dom.c_min], [dom.c_max]])
    return float(np.max(gaussian_curvature(field, ts, edges)))


def certify_hadamard(field: RiskField) -> CurvatureReport:
    """Certificate that the surface has nonpositive curvature everywhere,
    with the zero-curvature stages on the field's search range.

    The sign is structural: the curvature numerator is -(q(t))^2.  The
    report still carries the largest K over the field's domain: 0 exactly
    when a root of q falls inside the stage range, otherwise the largest
    value on a dense stage grid.
    """
    dom = field.domain
    loci = _loci(field)
    if field.g_prime.is_zero():
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


def build_geometry_report(field: RiskField) -> dict:
    """Curvature certificate and critical ages in plain-JSON form."""
    report = certify_hadamard(field)
    q = field.g_prime
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
        "numerator_cubic_descending": q.format_descending(),
        "search_interval": list(field.search_range),
        "zero_loci": loci,
    }
