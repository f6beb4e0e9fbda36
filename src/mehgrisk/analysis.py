"""Analysis of the risk field: critical points, integrals, level curves.

Everything here leans on the field's structure R(t, c) = g(t) c + h(t):
critical-point certification reduces to root isolation of the quartic g,
the mean risk has a closed form from polynomial antiderivatives, and each
level set is the graph c*(t) = (L - h(t))/g(t), under which the threshold
region collapses to a 1-D integral whenever g keeps one sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldfit import Rectangle, RiskField
from .polynomial import Polynomial, real_roots

ROOT_TOL = 1e-10
# Level-curve bisection in t resolves 2^-REFINE_ROUNDS of a t cell.
REFINE_ROUNDS = 20
# Draws per Monte Carlo chunk: 2^15 timed best of 2^13..2^16 (2 vCPUs).
MC_CHUNK = 2**15


def _subdomain(field: RiskField, domain: Rectangle | None) -> Rectangle:
    if domain is None:
        return field.domain
    fd = field.domain
    pad = 1e-9
    if (
        domain.t_min < fd.t_min - pad
        or domain.t_max > fd.t_max + pad
        or domain.c_min < fd.c_min - pad
        or domain.c_max > fd.c_max + pad
    ):
        raise ValueError("analysis domain exceeds the field domain")
    return domain


@dataclass(frozen=True)
class CriticalPointCertificate:
    """Root-isolation evidence about solutions of grad R = 0.

    slope_roots are the sign changes of dR/dc on the stage range;
    critical_points are isolated in-domain solutions of the full system;
    critical_stages mark degenerate vertical lines of critical points.
    """

    has_critical_points: bool
    min_dRdc: float
    min_dRdc_at: float
    slope_roots: tuple[float, ...]
    critical_points: tuple[tuple[float, float], ...]
    critical_stages: tuple[float, ...]
    method: str

    def as_json_dict(self) -> dict:
        return {
            "has_critical_points": self.has_critical_points,
            "min_dRdc": self.min_dRdc,
            "min_dRdc_at": self.min_dRdc_at,
            "slope_roots": list(self.slope_roots),
            "critical_points": [list(p) for p in self.critical_points],
            "critical_stages": list(self.critical_stages),
            "method": self.method,
        }


def certify_no_critical_points(field: RiskField) -> CriticalPointCertificate:
    """Decide whether grad R vanishes anywhere in the field domain.

    dR/dc depends on t alone, so the system can only vanish where the
    quartic g does; each such stage is then checked against the remaining
    equation dR/dt = h'(t) + c g'(t) = 0 for an in-range concentration.
    """
    dom = field.domain
    g = field.g.trimmed()
    hp = field.h_prime.trimmed()
    gp = field.g_prime.trimmed()
    scale = max(g.scale(), hp.scale(), 1.0)
    tiny = 1e-12 * scale

    if g.degree < 0 or (g.degree == 0 and abs(g.coefficients[0]) < tiny):
        # dR/dc vanishes identically; criticality is down to h'.
        if hp.degree < 0 or (hp.degree == 0 and abs(hp.coefficients[0]) < tiny):
            return CriticalPointCertificate(
                has_critical_points=True,
                min_dRdc=0.0,
                min_dRdc_at=dom.t_min,
                slope_roots=(),
                critical_points=(),
                critical_stages=(dom.t_min, dom.t_max),
                method="dR/dc and dR/dt vanish identically; "
                "every point of the domain is critical",
            )
        stages = real_roots(hp, dom.t_min, dom.t_max, ROOT_TOL)
        return CriticalPointCertificate(
            has_critical_points=bool(stages),
            min_dRdc=0.0,
            min_dRdc_at=dom.t_min,
            slope_roots=(),
            critical_points=(),
            critical_stages=stages,
            method="dR/dc vanishes identically; critical stages are the "
            "isolated roots of dR/dt in the stage range",
        )

    roots = real_roots(g, dom.t_min, dom.t_max, ROOT_TOL)

    # Minimum of g over the closed range: endpoints plus interior
    # stationary points of g.
    candidates = [dom.t_min, dom.t_max]
    candidates.extend(real_roots(gp, dom.t_min, dom.t_max, ROOT_TOL))
    candidates.sort()
    min_val = None
    min_at = dom.t_min
    for t in candidates:
        v = g(t)
        if min_val is None or v < min_val:
            min_val, min_at = v, t

    points: list[tuple[float, float]] = []
    stages: list[float] = []
    for t_star in roots:
        gp_val = gp(t_star)
        hp_val = hp(t_star)
        if abs(gp_val) > tiny:
            c_star = -hp_val / gp_val
            if dom.c_min - 1e-12 <= c_star <= dom.c_max + 1e-12:
                points.append((t_star, min(max(c_star, dom.c_min), dom.c_max)))
        elif abs(hp_val) <= tiny:
            stages.append(t_star)

    if roots:
        method = (
            f"dR/dc has {len(roots)} root(s) in "
            f"[{dom.t_min:g}, {dom.t_max:g}] by Sturm isolation; each was "
            "checked against dR/dt = 0 for an in-range concentration"
        )
    else:
        method = (
            "Sturm isolation: dR/dc has no real root in "
            f"[{dom.t_min:g}, {dom.t_max:g}]; its minimum over endpoint and "
            "stationary candidates is "
            f"{min_val:.6g} at t = {min_at:g}, so grad R never vanishes"
        )
    return CriticalPointCertificate(
        has_critical_points=bool(points or stages),
        min_dRdc=min_val,
        min_dRdc_at=min_at,
        slope_roots=roots,
        critical_points=tuple(points),
        critical_stages=tuple(stages),
        method=method,
    )


def mean_risk(field: RiskField, domain: Rectangle | None = None) -> float:
    """Average of R over the rectangle, from the closed-form integral.

    iint R = (integral of c dc)(integral of g dt) + (c-width)(integral of h dt).
    """
    dom = _subdomain(field, domain)
    g_int = field.g.integrate(dom.t_min, dom.t_max)
    h_int = field.h.integrate(dom.t_min, dom.t_max)
    c_moment = 0.5 * (dom.c_max**2 - dom.c_min**2)
    total = c_moment * g_int + (dom.c_max - dom.c_min) * h_int
    return total / dom.area


def mean_risk_simpson(
    field: RiskField, domain: Rectangle | None = None, cells: int = 400
) -> float:
    """Composite 2-D Simpson quadrature of the mean; numeric crosscheck."""
    if cells % 2 != 0:
        raise ValueError("Simpson rule needs an even cell count")
    dom = _subdomain(field, domain)
    ts = np.linspace(dom.t_min, dom.t_max, cells + 1)
    cs = np.linspace(dom.c_min, dom.c_max, cells + 1)
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    values = field.evaluate_grid(ts, cs)
    ht = (dom.t_max - dom.t_min) / cells
    hc = (dom.c_max - dom.c_min) / cells
    total = float(np.einsum("i,ij,j->", w, values, w)) * ht * hc / 9.0
    return total / dom.area


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-6) -> float:
    """Recursive adaptive Simpson quadrature with Richardson correction."""

    def simpson(lo, flo, hi, fhi):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        return mid, fmid, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, whole, mid, fmid, eps, depth):
        lmid, flmid, left = simpson(lo, flo, mid, fmid)
        rmid, frmid, right = simpson(mid, fmid, hi, fhi)
        delta = left + right - whole
        if depth >= 50 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(
            lo, flo, mid, fmid, left, lmid, flmid, eps / 2.0, depth + 1
        ) + recurse(
            mid, fmid, hi, fhi, right, rmid, frmid, eps / 2.0, depth + 1
        )

    fa, fb = f(a), f(b)
    mid, fmid, whole = simpson(a, fa, b, fb)
    return recurse(a, fa, b, fb, whole, mid, fmid, tol, 0)


@dataclass(frozen=True)
class RegionArea:
    """Area of the super-level region with the method that produced it."""

    area: float
    method: str                      # "reduction" or "monte_carlo"
    std_error: float | None = None
    samples: int | None = None
    seed: int | None = None

    def as_json_dict(self) -> dict:
        return {
            "area": self.area,
            "method": self.method,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def _uniform_into(rng, low: float, high: float, out: np.ndarray) -> None:
    """Fill out with rng.uniform(low, high, len(out)), bit for bit.

    uniform computes low + (high - low) * u from the same doubles u that
    random draws; a span that overflows raises OverflowError as there.
    """
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    rng.random(out=out)
    out *= span
    out += low


def monte_carlo_region_area(
    field: RiskField,
    domain: Rectangle | None = None,
    threshold: float = 1.0,
    samples: int = 10**6,
    seed: int = 0,
) -> RegionArea:
    """Seeded uniform-sampling estimate of the super-level area.

    The sample is the first `samples` draws of t from ``default_rng(seed)``
    paired with the next `samples` draws of c, as if all the t were drawn
    before all the c.  Each draw takes one output of the PCG64 stream, so
    a second generator jumped ahead by `samples` reads the c alongside
    the t, and the count streams in chunks of `MC_CHUNK` through five
    buffers allocated once: memory stays fixed whatever `samples` is.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    dom = _subdomain(field, domain)
    t_rng = np.random.default_rng(seed)
    c_rng = np.random.default_rng(seed)
    c_rng.bit_generator.advance(int(samples))
    n = min(samples, MC_CHUNK)
    ts, cs, g, h = (np.empty(n) for _ in range(4))
    hit = np.empty(n, dtype=bool)
    hits = 0
    for lo in range(0, samples, MC_CHUNK):
        m = min(MC_CHUNK, samples - lo)
        if m < n:
            ts, cs, g, h, hit = ts[:m], cs[:m], g[:m], h[:m], hit[:m]
        _uniform_into(t_rng, dom.t_min, dom.t_max, ts)
        _uniform_into(c_rng, dom.c_min, dom.c_max, cs)
        field.slope_and_intercept(ts, out=(g, h))
        g *= cs
        g += h
        np.greater_equal(g, threshold, out=hit)
        hits += int(np.count_nonzero(hit))
    hit_fraction = hits / samples
    area = hit_fraction * dom.area
    std_error = dom.area * float(
        np.sqrt(hit_fraction * (1.0 - hit_fraction) / samples)
    )
    return RegionArea(area, "monte_carlo", std_error, samples, seed)


def _cuts(
    field: RiskField, dom: Rectangle, level: float, slope_roots: tuple
) -> dict[float, float | None]:
    """Where c*(t) = (level - h(t))/g(t) may enter or leave D, increasing:
    each cut maps to the c edge c* crosses there, or to None at the ends of
    the stage range and at slope_roots, the roots of g there."""
    g = field.g.trimmed()
    cuts = dict.fromkeys((dom.t_min, dom.t_max))
    for c_edge in (dom.c_min, dom.c_max):
        crossing = Polynomial.constant(level) - field.h - c_edge * g
        cuts.update(dict.fromkeys(
            real_roots(crossing, dom.t_min, dom.t_max, ROOT_TOL), c_edge
        ))
    cuts.update(dict.fromkeys(slope_roots))   # a root of g wins a tie
    return dict(sorted(cuts.items()))


def risk_region_area(
    field: RiskField,
    domain: Rectangle | None = None,
    threshold: float = 1.0,
    tol: float = 1e-6,
    seed: int = 0,
) -> RegionArea:
    """Area of {(t, c) in D : R(t, c) >= threshold}.

    With dR/dc of one sign on the stage range the region is bounded by the
    graph of c*(t) = (threshold - h(t))/g(t), and the area reduces to a 1-D
    integral of the clamped column length.  The integrand is piecewise
    smooth; adaptive Simpson runs between the cuts of `_cuts`.  If g
    changes sign inside the range the reduction is invalid and a seeded
    Monte Carlo estimate is returned instead.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    dom = _subdomain(field, domain)
    g = field.g.trimmed()
    h = field.h

    roots = real_roots(g, dom.t_min, dom.t_max, ROOT_TOL) if g.degree >= 0 else ()
    if g.degree < 0 or roots:
        return monte_carlo_region_area(field, dom, threshold, seed=seed)
    positive = g(0.5 * (dom.t_min + dom.t_max)) > 0.0

    def column_length(t: float) -> float:
        c_star = (threshold - h(t)) / g(t)
        clamped = min(max(c_star, dom.c_min), dom.c_max)
        return dom.c_max - clamped if positive else clamped - dom.c_min

    pieces = list(_cuts(field, dom, threshold, roots))
    piece_tol = tol / max(1, len(pieces) - 1)
    area = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        if hi - lo > 1e-12:
            area += adaptive_simpson(column_length, lo, hi, piece_tol)
    area = min(max(area, 0.0), dom.area)
    return RegionArea(area, "reduction")


@dataclass(frozen=True)
class LevelCurveSet:
    """Iso-level polylines; each polyline is a vertex chain in (t, c)."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]

    def as_json_dict(self) -> dict:
        return {
            "level": self.level,
            "polylines": [
                [[round(t, 9), round(c, 9)] for t, c in line]
                for line in self.polylines
            ],
        }


def _level_polylines(field, dom, level, roots, ts, dc) -> tuple:
    """The polylines of {R = level} in dom; see level_curves."""
    g, h, gp, hp = field.g, field.h, field.g_prime, field.h_prime
    if g.is_zero():   # R = h(t): R = level on the lines t = t0 where h(t0) = level
        saddles, cuts = real_roots(level - h, dom.t_min, dom.t_max, ROOT_TOL), {}
    else:   # roots of g where h is as near the level as R moves over ROOT_TOL
        saddles = tuple(t0 for t0 in roots if abs(h(t0) - level) <= ROOT_TOL * (
            1.0 + abs(hp(t0)) + abs(gp(t0)) * max(-dom.c_min, dom.c_max)))
        cuts = _cuts(field, dom, level, roots)

    def end(t: float) -> float:
        # The edge c* crosses at the cut, or at a root of g its limit
        # -h'/g'; R is near the level all along t = t0 if the piece ends there.
        if cuts[t] is not None:
            return cuts[t]
        if t in roots or g(t) == 0.0:
            return -hp(t) / gp(t) if gp(t) != 0.0 else dom.c_min
        return (level - h(t)) / g(t)

    def graph(t: np.ndarray) -> np.ndarray:   # c* where g has no root
        g_t, h_t = field.slope_and_intercept(t)
        return np.clip((level - h_t) / g_t, dom.c_min, dom.c_max)

    lines = []
    stages = list(cuts)
    for lo, hi in zip(stages, stages[1:]):
        mid = 0.5 * (lo + hi)
        if not (g(mid) and dom.c_min <= (level - h(mid)) / g(mid) <= dom.c_max):
            continue
        inner = ts[(ts > lo + ROOT_TOL) & (ts < hi - ROOT_TOL)]   # g != 0 there
        t = np.concatenate(([lo], inner, [hi]))
        c = np.clip(np.r_[end(lo), graph(inner), end(hi)], dom.c_min, dom.c_max)
        for _ in range(REFINE_ROUNDS):
            steep = np.flatnonzero(np.abs(np.diff(c)) > dc) + 1
            if not len(steep):
                break
            t_mid = 0.5 * (t[steep - 1] + t[steep])
            t, c = np.insert(t, steep, t_mid), np.insert(c, steep, graph(t_mid))
        lines.append((t, c))
    lines.extend(((t0, t0), (dom.c_min, dom.c_max)) for t0 in saddles)
    return tuple(
        tuple(zip(np.round(t, 9).tolist(), np.round(c, 9).tolist()))
        for t, c in lines
    )


def level_curves(
    field: RiskField,
    domain: Rectangle | None = None,
    levels: tuple[float, ...] = (1.0,),
    grid: int = 256,
) -> list[LevelCurveSet]:
    """Level sets {R = L} in D as polylines, from the boundary graph.

    R is affine in c, so the level set is the graph c*(t) = (L - h(t))/g(t)
    wherever that lies in D.  Each piece between consecutive cuts whose
    midpoint does is one polyline, t increasing, with vertices at its ends
    and at the grid's t nodes, bisected in t where c moves more than one
    of the grid's c cells.  At a saddle level, where h(t0) = L at a root
    t0 of g, the line t = t0 is one more polyline.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16 cells per axis")
    if not all(math.isfinite(level) for level in levels):
        raise ValueError("levels must be finite")
    dom = _subdomain(field, domain)
    roots = real_roots(field.g, dom.t_min, dom.t_max, ROOT_TOL)
    ts = np.linspace(dom.t_min, dom.t_max, grid + 1)
    dc = (dom.c_max - dom.c_min) / grid
    return [
        LevelCurveSet(level, _level_polylines(field, dom, level, roots, ts, dc))
        for level in map(float, levels)
    ]


def build_analysis_report(
    field: RiskField,
    curves: list[LevelCurveSet],
    domain: Rectangle | None = None,
    threshold: float = 1.0,
    seed: int = 0,
    mc_samples: int = 10**6,
) -> dict:
    """Full analysis bundle in plain-JSON form, with curves as its level sets."""
    dom = _subdomain(field, domain)
    certificate = certify_no_critical_points(field.with_domain(dom))
    region = risk_region_area(field, dom, threshold, seed=seed)
    # A fallback with the cross-check's samples is the cross-check itself.
    if region.method == "monte_carlo" and region.samples == mc_samples:
        crosscheck = region
    else:
        crosscheck = monte_carlo_region_area(
            field, dom, threshold, samples=mc_samples, seed=seed
        )
    return {
        "field": field.as_json_dict(),
        "domain": dom.as_json_dict(),
        "threshold": threshold,
        "certificate": certificate.as_json_dict(),
        "mean_risk": mean_risk(field, dom),
        "mean_risk_simpson": mean_risk_simpson(field, dom),
        "region_area": region.area,
        "region_area_method": region.method,
        "region_area_std_error": region.std_error,
        "region_area_monte_carlo": crosscheck.as_json_dict(),
        "probability": region.area / dom.area,
        "levels": [cset.as_json_dict() for cset in curves],
    }
