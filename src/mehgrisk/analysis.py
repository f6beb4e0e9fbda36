"""Analysis of the risk field: critical points, integrals, level curves.

Everything here leans on the field's structure R(t, c) = g(t) c + h(t):
critical-point certification reduces to root isolation of the quartic g,
the mean risk has a closed form from polynomial antiderivatives, and the
threshold region collapses to a one-dimensional integral whenever g keeps
one sign on the stage range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldfit import Rectangle, RiskField
from .polynomial import Polynomial, real_roots

ROOT_TOL = 1e-10
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


def gradient(field: RiskField, t: float, c: float) -> tuple[float, float]:
    """Analytic gradient (dR/dt, dR/dc) of the field."""
    return field.partial_t(t, c), field.partial_c(t)


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
    smooth; adaptive Simpson runs between clamp crossings located by root
    isolation.  If g changes sign inside the range the reduction is
    invalid and a seeded Monte Carlo estimate is returned instead.
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

    # Split the integral where the boundary curve crosses a clamp level;
    # each crossing is a root of the quartic threshold - h - c_edge * g.
    cuts = {dom.t_min, dom.t_max}
    for c_edge in (dom.c_min, dom.c_max):
        crossing = Polynomial.constant(threshold) - h - c_edge * g
        cuts.update(real_roots(crossing, dom.t_min, dom.t_max, ROOT_TOL))
    pieces = sorted(cuts)
    piece_tol = tol / max(1, len(pieces) - 1)
    area = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        if hi - lo > 1e-12:
            area += adaptive_simpson(column_length, lo, hi, piece_tol)
    area = min(max(area, 0.0), dom.area)
    return RegionArea(area, "reduction")


def risk_probability(
    field: RiskField,
    domain: Rectangle | None = None,
    threshold: float = 1.0,
    seed: int = 0,
) -> float:
    """Fraction of the domain where R >= threshold."""
    dom = _subdomain(field, domain)
    return risk_region_area(field, dom, threshold, seed=seed).area / dom.area


# ---------------------------------------------------------------------------
# Level curves (marching squares)

# Cell edges: 0 bottom, 1 right, 2 top, 3 left.  Corner bits: 1 bottom
# left, 2 bottom right, 4 top right, 8 top left.  The two saddle cases
# (5, 10) are resolved by the sign at the cell center; cases 16 and 17
# are the two ways a resolved saddle joins its edges.
_SEGMENT_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    0: (), 15: (),
    1: ((0, 3),), 14: ((0, 3),),
    2: ((0, 1),), 13: ((0, 1),),
    3: ((1, 3),), 12: ((1, 3),),
    4: ((1, 2),), 11: ((1, 2),),
    6: ((0, 2),), 9: ((0, 2),),
    7: ((2, 3),), 8: ((2, 3),),
    16: ((0, 1), (2, 3)),
    17: ((0, 3), (1, 2)),
}


def _segment_arrays() -> tuple[np.ndarray, np.ndarray]:
    # The table as arrays: segment count per case, and edge pairs padded to 2.
    count = np.zeros(18, dtype=np.intp)
    edges = np.zeros((18, 2, 2), dtype=np.intp)
    for case, pairs in _SEGMENT_TABLE.items():
        count[case] = len(pairs)
        for k, pair in enumerate(pairs):
            edges[case, k] = pair
    return count, edges


_SEGMENT_COUNT, _SEGMENT_EDGES = _segment_arrays()


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


def _stitch(starts: list[int], ends: list[int], points: list) -> tuple:
    """Join segments that share a vertex into maximal polylines.

    Segment k runs from vertex starts[k] to vertex ends[k].  A vertex is
    the crossing on one grid edge, so at most two segments meet there.
    Open curves come first, walked from their loose ends in coordinate
    order; whatever remains is loops, each started at its first segment.
    """
    adjacency: list[list[int]] = [[] for _ in points]
    for k, (p, q) in enumerate(zip(starts, ends)):
        adjacency[p].append(k)
        adjacency[q].append(k)
    used = [False] * len(starts)

    def walk(chain: list[int]) -> list[int]:
        vertex = chain[-1]
        while True:
            nxt = next((k for k in adjacency[vertex] if not used[k]), None)
            if nxt is None:
                return chain
            used[nxt] = True
            vertex = ends[nxt] if starts[nxt] == vertex else starts[nxt]
            chain.append(vertex)

    loose = sorted(
        (v for v, ids in enumerate(adjacency) if len(ids) == 1),
        key=points.__getitem__,
    )
    chains = [walk([v]) for v in loose if not used[adjacency[v][0]]]
    for k, (p, q) in enumerate(zip(starts, ends)):
        if not used[k]:
            used[k] = True
            chains.append(walk([p, q]))
    return tuple(tuple(points[v] for v in chain) for chain in chains)


def _level_curve_set(field, ts, cs, values, scale, level) -> LevelCurveSet:
    """Marching squares at one level over the node values of a grid."""
    n = len(ts) - 1
    vv = values - level
    # Nudge exact hits off zero so every crossing is a clean sign change.
    vv = np.where(vv == 0.0, 1e-15 * scale, vv)
    above = (vv > 0.0).view(np.uint8)
    case = (
        above[:-1, :-1]
        | above[:-1, 1:] << 1
        | above[1:, 1:] << 2
        | above[1:, :-1] << 3
    ).ravel()
    cells = np.flatnonzero((case != 0) & (case != 15))
    case = case[cells].astype(np.intp)
    rows, cols = np.divmod(cells, n)

    saddle = np.flatnonzero((case == 5) | (case == 10))
    if len(saddle):
        si, sj = cols[saddle], rows[saddle]
        center = field.evaluate(
            0.5 * (ts[si] + ts[si + 1]), 0.5 * (cs[sj] + cs[sj + 1])
        ) - level
        case[saddle] = np.where((center > 0.0) == (case[saddle] == 5), 16, 17)

    # Edge ids: horizontal edge (j, i) runs from node (j, i) to (j, i + 1)
    # and is j*n + i; vertical edge (j, i) runs from node (j, i) to
    # (j + 1, i) and is n_horizontal + j*(n + 1) + i.
    n_horizontal = (n + 1) * n
    bottom = rows * n + cols
    left = n_horizontal + rows * (n + 1) + cols
    cell_edges = np.stack((bottom, left + 1, bottom + n, left))

    # Segments in row-major cell order, pairs in table order.
    count = _SEGMENT_COUNT[case]
    seg_cell = np.repeat(np.arange(len(cells)), count)
    seg_pair = np.arange(len(seg_cell)) - np.repeat(np.cumsum(count) - count, count)
    seg_edges = _SEGMENT_EDGES[case[seg_cell], seg_pair]
    ends = cell_edges[seg_edges, seg_cell[:, None]]
    edge_ids, vertex = np.unique(ends.T.ravel(), return_inverse=True)

    # Linear interpolation of the zero crossing along each used edge.
    vertical = edge_ids >= n_horizontal
    j, i = np.divmod(edge_ids, n)
    j[vertical], i[vertical] = np.divmod(edge_ids[vertical] - n_horizontal, n + 1)
    v0 = vv[j, i]
    v1 = vv[j + vertical, i + ~vertical]
    s = v0 / (v0 - v1)
    t = np.where(vertical, ts[i], ts[i] + s * (ts[i + ~vertical] - ts[i]))
    c = np.where(vertical, cs[j] + s * (cs[j + vertical] - cs[j]), cs[j])
    points = [(round(x, 9), round(y, 9)) for x, y in zip(t.tolist(), c.tolist())]

    m = len(seg_cell)
    vertex = vertex.tolist()
    return LevelCurveSet(float(level), _stitch(vertex[:m], vertex[m:], points))


def level_curves(
    field: RiskField,
    domain: Rectangle | None = None,
    levels: tuple[float, ...] = (1.0,),
    grid: int = 256,
) -> list[LevelCurveSet]:
    """Marching-squares iso-curves of the field at the given levels."""
    if grid < 16:
        raise ValueError("grid must be at least 16 cells per axis")
    if not all(math.isfinite(level) for level in levels):
        raise ValueError("levels must be finite")
    dom = _subdomain(field, domain)
    ts = np.linspace(dom.t_min, dom.t_max, grid + 1)
    cs = np.linspace(dom.c_min, dom.c_max, grid + 1)
    values = field.evaluate_grid(ts, cs)
    scale = float(np.max(np.abs(values))) + 1.0
    return [
        _level_curve_set(field, ts, cs, values, scale, level) for level in levels
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
