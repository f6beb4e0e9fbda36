"""Independent oracles for the benchmark's correctness checks.

Nothing here imports mehgrisk: every reference value is recomputed with
numpy from the field's coefficients, so a defect in the package cannot
also hide in the number it is checked against.  A field is a pair of
coefficient vectors (a, b) in ascending powers of t, with
R(t, c) = g(t) c + h(t), g = sum a_k t^k and h = sum b_k t^k.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

# The published field and the report defaults, as stated in the paper.
PUBLISHED_A = (-19.48, 33.17, -16.89, 3.45, -0.24)
PUBLISHED_B = (-0.04, 0.09, -0.06, 0.007, 0.006)
DOMAIN = (1.0, 5.0, 0.2, 3.5)
REPORT_LEVELS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
STAGE_NODES = (1.0, 2.0, 3.0, 4.0, 5.0)
# Stage -> age anchors of the survey groups; the last segment extends.
STAGE_AGE_KNOTS = ((1.0, 1.0), (2.0, 6.0), (3.0, 12.0), (4.0, 60.0), (5.0, 90.0))

# Accepted distance between a Monte Carlo area and the oracle, in sigmas.
MC_SIGMAS = 5.0
# Reduction areas on the published field must match the oracle to ten
# times the package's adaptive-Simpson tolerance (1e-6); the package's
# own test holds it to 1e-4.
PAPER_REDUCTION_TOL = 1e-5
# On random fields adaptive Simpson sometimes stops early (a program
# defect; NOTES.md).  Over the 439,200 reduction calls in the table pools
# of seeds 1-400, 82 were off by more than 1e-4, and 7 seeds hold a table
# off by more than 1e-3 (seed 356 by 0.92).  The gate is 1e-3 all the same,
# so those tables fail their operation and the defect shows;
# region_area_err reports the largest error.
SWEEP_REDUCTION_TOL = 1e-3
# Dense-grid resolution used when dR/dc changes sign.
COUNT_GRID = 1024


def evaluate(a, b, t, c):
    """R(t, c) for scalars or broadcastable arrays."""
    return P.polyval(t, a) * c + P.polyval(t, b)


def real_roots_in(coeffs, lo: float, hi: float, imag_tol: float = 1e-7):
    """Real roots of an ascending-coefficient polynomial inside [lo, hi].

    Roots with a small imaginary part are kept, so a near-double root is
    never lost; callers only use roots as cut points or candidates.
    """
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if coeffs.size <= 1:
        return np.empty(0)
    roots = P.polyroots(coeffs)
    scale = 1.0 + np.abs(roots)
    real = roots[np.abs(roots.imag) <= imag_tol * scale].real
    return np.sort(real[(real >= lo) & (real <= hi)])


def fit_field(concentrations, nodes, values):
    """Interpolate each row through the nodes, then regress each power on c."""
    vander = np.vander(np.asarray(nodes, dtype=float), len(nodes), increasing=True)
    rows = np.linalg.solve(vander, np.asarray(values, dtype=float).T).T
    slopes, intercepts = np.polyfit(np.asarray(concentrations, dtype=float), rows, 1)
    return tuple(slopes), tuple(intercepts)


def slope_changes_sign(a, t0: float, t1: float) -> bool:
    """True when g = dR/dc has a root in the stage range."""
    return real_roots_in(a, t0, t1).size > 0 or bool(
        np.any(np.diff(np.sign(P.polyval(np.linspace(t0, t1, 4001), a))) != 0)
    )


def min_slope(a, t0: float, t1: float) -> tuple[float, float]:
    """Minimum of g over [t0, t1] and where it is attained."""
    cands = np.concatenate(([t0, t1], real_roots_in(P.polyder(a), t0, t1)))
    vals = P.polyval(cands, a)
    k = int(np.argmin(vals))
    return float(vals[k]), float(cands[k])


def has_critical_point(a, b, domain=DOMAIN) -> bool:
    """grad R = 0 somewhere in the domain (g = 0 and dR/dt = 0)."""
    t0, t1, c0, c1 = domain
    ga, hb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for t in real_roots_in(ga, t0, t1, imag_tol=1e-9):
        gp = P.polyval(t, P.polyder(ga))
        hp = P.polyval(t, P.polyder(hb))
        if gp != 0.0 and c0 - 1e-12 <= -hp / gp <= c1 + 1e-12:
            return True
    return False


def mean_risk(a, b, domain=DOMAIN) -> float:
    """Closed-form average of R over the rectangle."""
    t0, t1, c0, c1 = domain
    g_int = P.polyval(t1, P.polyint(a)) - P.polyval(t0, P.polyint(a))
    h_int = P.polyval(t1, P.polyint(b)) - P.polyval(t0, P.polyint(b))
    total = 0.5 * (c1 * c1 - c0 * c0) * g_int + (c1 - c0) * h_int
    return float(total / ((t1 - t0) * (c1 - c0)))


def simpson_mean_bound(a, b, domain=DOMAIN, cells: int = 400) -> float:
    """Error bound of composite Simpson on the mean: h^4/180 max|R_tttt|.

    R is affine in c, so Simpson is exact along c; along t the fourth
    derivative is 24 (a4 c + b4), largest at a c endpoint.
    """
    t0, t1, c0, c1 = domain
    h = (t1 - t0) / cells
    r4 = 24.0 * max(abs(a[4] * c0 + b[4]), abs(a[4] * c1 + b[4]))
    return h**4 / 180.0 * r4


def _gauss_legendre(f, lo: float, hi: float, parts: int = 16, order: int = 24):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, parts + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    ts = mid + half * x[None, :]
    return float(np.sum(half * w[None, :] * f(ts)))


def region_areas(a, b, thresholds, domain=DOMAIN) -> list[tuple[float, str]]:
    """Area of {R >= threshold} per threshold, with the oracle's method.

    When g keeps one sign the region is bounded by c*(t) =
    (threshold - h)/g, and the area is the integral of the clamped column
    length, split at every clamp crossing and integrated by composite
    Gauss-Legendre.  Otherwise the area is a dense midpoint-grid count.
    """
    t0, t1, c0, c1 = domain
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if slope_changes_sign(a, t0, t1):
        return [(area, "grid_count") for area in _grid_counts(a, b, thresholds, domain)]
    positive = P.polyval(0.5 * (t0 + t1), a) > 0.0
    out = []
    for threshold in thresholds:

        def column(ts):
            c_star = (threshold - P.polyval(ts, b)) / P.polyval(ts, a)
            clamped = np.clip(c_star, c0, c1)
            return c1 - clamped if positive else clamped - c0

        cuts = {t0, t1}
        for edge in (c0, c1):
            crossing = -b - edge * a
            crossing[0] += threshold
            cuts.update(real_roots_in(crossing, t0, t1).tolist())
        pieces = sorted(cuts)
        area = sum(
            _gauss_legendre(column, lo, hi)
            for lo, hi in zip(pieces, pieces[1:])
            if hi - lo > 1e-14
        )
        out.append((min(max(area, 0.0), (t1 - t0) * (c1 - c0)), "column_integral"))
    return out


def _grid_counts(a, b, thresholds, domain, n: int = COUNT_GRID) -> list[float]:
    t0, t1, c0, c1 = domain
    dt, dc = (t1 - t0) / n, (c1 - c0) / n
    ts = t0 + (np.arange(n) + 0.5) * dt
    g, h = P.polyval(ts, a), P.polyval(ts, b)
    hits = np.zeros(len(thresholds), dtype=np.int64)
    # Row blocks keep the oracle's memory small next to the program's.
    for start in range(0, n, 128):
        cs = c0 + (np.arange(start, min(start + 128, n)) + 0.5) * dc
        values = cs[:, None] * g[None, :] + h[None, :]
        for i, threshold in enumerate(thresholds):
            hits[i] += np.count_nonzero(values >= threshold)
    return [int(x) * dt * dc for x in hits]


def mc_z(area: float, oracle_area: float, samples: int, domain=DOMAIN) -> float:
    """Distance of a Monte Carlo area from the oracle, in binomial sigmas."""
    t0, t1, c0, c1 = domain
    dom_area = (t1 - t0) * (c1 - c0)
    p = min(max(oracle_area / dom_area, 0.0), 1.0)
    sigma = max(dom_area * math.sqrt(p * (1.0 - p) / samples), dom_area / samples)
    return abs(area - oracle_area) / sigma


def level_residual(a, b, vertices, level: float) -> float:
    """Largest |R(v) - level| over an (n, 2) array of (t, c) vertices."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if v.size == 0:
        return 0.0
    return float(np.max(np.abs(evaluate(a, b, v[:, 0], v[:, 1]) - level)))


def level_tolerance(a, b, grid: int, domain=DOMAIN) -> float:
    """Bound on the marching-squares vertex residual at this grid.

    A vertex on a t-edge is the root of the linear interpolant of
    R(., c_j), so |R - level| <= h_t^2 / 8 max|R_tt|; along c the field is
    affine and the interpolation is exact.  The slack covers the nine
    decimals vertices are rounded to when written as JSON.
    """
    t0, t1, c0, c1 = domain
    ts = np.linspace(t0, t1, 4001)
    gpp = P.polyval(ts, P.polyder(a, 2))
    hpp = P.polyval(ts, P.polyder(b, 2))
    r_tt = max(np.max(np.abs(gpp * c0 + hpp)), np.max(np.abs(gpp * c1 + hpp)))
    h_t = (t1 - t0) / grid
    return 1.01 * h_t * h_t / 8.0 * float(r_tt) + 1e-7


def level_crosses_grid(a, b, level: float, grid: int, domain=DOMAIN) -> bool:
    """Whether the grid node values straddle the level (curves must exist)."""
    t0, t1, c0, c1 = domain
    ts = np.linspace(t0, t1, grid + 1)
    cs = np.linspace(c0, c1, grid + 1)
    vals = evaluate(a, b, ts[None, :], cs[:, None])
    return bool(vals.min() < level < vals.max())


def zero_curvature_stages(a, search=(1.0, 6.0)):
    """Roots of q = dg/dt in the search interval: the zero-curvature stages."""
    return real_roots_in(P.polyder(np.asarray(a, dtype=float)), *search, imag_tol=1e-9)


def stage_to_age(stage: float) -> float:
    """Piecewise-linear stage -> age map; the outer segments extend."""
    knots = STAGE_AGE_KNOTS
    for (s0, a0), (s1, a1) in zip(knots, knots[1:]):
        if stage <= s1:
            break
    return a0 + (stage - s0) * (a1 - a0) / (s1 - s0)
