"""Analysis of the risk field: critical points, integrals, level curves.

Everything here leans on the field's structure R(t, c) = g(t) c + h(t):
critical-point certification reduces to root isolation of the quartic g,
the mean risk is mean(c) mean(g) + mean(h), from antiderivatives or from
Simpson sums over the stages alone, and each level set is the graph
c*(t) = (L - h(t))/g(t), under which the threshold region collapses to
one vectorized Gauss-Kronrod integral over t whenever g keeps one sign.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .fieldfit import Rectangle, RiskField
from .fieldfit import _arg, _count, _finite, _list   # the checks
from .polynomial import ROOT_TOL, _horner, common_roots, real_roots

# Level-curve chords are checked against c* at CHORD_CHECKS evenly spaced
# interior points each, and one that fails is halved, for at most
# REFINE_ROUNDS rounds and REFINE_ROOM new vertices a grid sample; when
# not all fit, the worst that do.  A graph beside a pole just off the
# domain (tests/test_analysis.py's example at grid 121) needs 18: 16 left
# a chord 1.24 eps from c*.
CHORD_CHECKS = 15
REFINE_ROUNDS = 20
REFINE_ROOM = 18
# Draws per Monte Carlo chunk.  A chunk takes 18 numpy calls, and two
# threads contend for the GIL between them, so larger chunks run faster.
# Medians of 10^6 samples (2-vCPU Xeon): two slices 10.3, 11.1, 9.0 and
# 7.8 ms at 2^14, 5 * 2^12, 3 * 2^13 and 2^15; one slice, which counts at
# most MC_SPLIT samples where two CPUs are free, ran as fast at 3 * 2^13
# as at 2^15.  A slice holds 25 B a draw, so two stay within 1.25 MiB.
MC_CHUNK = 3 * 2**13
# Samples above which a second thread counts half of them.  It takes about
# 0.12 ms to start and join: two slices were 33% slower than one at
# 5 * 10^4 samples and 12-28% faster from 10^5 to 5 * 10^5, but moving
# 10^5 onto two threads raised the field sweep's median operation time.
MC_SPLIT = 2**18
# The region fallback's sample size.  Its sample is drawn once per field
# and seed and held as one uint16 code of R a sample, CODE_TOP the top code.
MC_SAMPLES = 10**6
CODE_TOP = 65535
# Integrand evaluations a region integral may spend after its first pass,
# and the absolute error it aims for.
QUAD_BUDGET = 15 * 2048
QUAD_TOL = 1e-10
# G7K15 on [-1, 1] (QUADPACK qk15): the Kronrod nodes x >= 0, their
# weights, and the 7-point Gauss weights, 0 where a node is Kronrod's only.
_XK = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
       0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
       0.207784955007898468, 0.0)
_WK = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
       0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
       0.204432940075298892, 0.209482141084727828)
_WG = (0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
       0.0, 0.381830050505118945, 0.0, 0.417959183673469388)
# All 15 nodes, and rows of Kronrod and of Kronrod minus Gauss weights, as
# plain floats: a numpy call at import adds 128 KB to every process's RSS.
_GK_NODES = tuple(-x for x in _XK[:-1]) + _XK[::-1]
_GK_WEIGHTS = tuple(w[:-1] + w[::-1] for w in (
    _WK, tuple(k - g for k, g in zip(_WK, _WG))))


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
    g, hp, gp = field.g, field.h_prime, field.g_prime

    if g.is_zero():
        # dR/dc vanishes identically; criticality is down to h'.
        if hp.is_zero():
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
        stages = real_roots(hp, dom.t_min, dom.t_max)
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

    roots = field.slope_roots

    # Minimum of g over the closed range: endpoints plus interior
    # stationary points of g.
    candidates = sorted([dom.t_min, dom.t_max, *(
        t for t in field.g_prime_roots if dom.t_min <= t <= dom.t_max)])
    values = g(np.array(candidates))
    first_min = int(np.argmin(values))
    min_val, min_at = float(values[first_min]), candidates[first_min]

    # grad R vanishes all along t = t0 where g, g' and h' share the root
    # t0: decided exactly, by their integer gcd, built only when g has a
    # root in range, then matched to the nearest root of g.  Elsewhere
    # g' != 0 and c* = -h'/g' is one point.
    shared = common_roots([g, gp, hp], dom.t_min, dom.t_max) if roots else ()
    lines = {min(roots, key=lambda t: abs(t - s)) for s in shared}
    stages = [t_star for t_star in roots if t_star in lines]
    points: list[tuple[float, float]] = []
    for t_star in roots:
        gp_val = gp(t_star)
        if t_star not in lines and gp_val != 0.0:
            c_star = -hp(t_star) / gp_val
            if dom.c_min - 1e-12 <= c_star <= dom.c_max + 1e-12:
                points.append((t_star, min(max(c_star, dom.c_min), dom.c_max)))

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


def mean_risk(field: RiskField) -> float:
    """Average of R over the field's domain, from the closed-form integral:
    mean(c) mean(g) + mean(h), finite on every field RiskField accepts."""
    dom = field.domain
    g_int = field.g.integrate(dom.t_min, dom.t_max)
    h_int = field.h.integrate(dom.t_min, dom.t_max)
    c_mean = 0.5 * dom.c_min + 0.5 * dom.c_max
    return (c_mean * g_int + h_int) / (dom.t_max - dom.t_min)


def mean_risk_simpson(field: RiskField, cells: int = 400) -> float:
    """Composite 2-D Simpson quadrature of the mean; numeric crosscheck.

    With weights w on both axes, the grid sum of w_i w_j R(t_j, c_i) is
    (w.g)(w.c) + (w.h)(sum w): no grid, only g and h at cells + 1 stages.
    Weights scaled by 1/sum w = 1/(3 cells) make each sum a finite mean.
    """
    if _arg("cells", _count(2), cells) % 2:
        raise ValueError(f"cells: expected an even integer >= 2, got {cells!r}")
    dom = field.domain
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    t = np.linspace(dom.t_min, dom.t_max, cells + 1)
    c = np.linspace(dom.c_min, dom.c_max, cells + 1)
    g_mean, h_mean, c_mean = np.sum(
        (field.g(t), field.h(t), c) * (w / (3.0 * cells)), axis=1)
    return float(g_mean * c_mean + h_mean)


@dataclass(frozen=True)
class RegionArea:
    """Area of the super-level region with the method that produced it."""

    area: float
    method: str                      # "reduction" or "monte_carlo"
    std_error: float | None = None
    samples: int | None = None
    seed: int | None = None
    error_estimate: float | None = None   # reduction: sum of |K15 - G7|
    evaluations: int | None = None        # reduction: integrand evaluations

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
    random draws; Rectangle refuses a side whose span overflows.
    """
    rng.random(out=out)
    out *= high - low
    out += low


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _risk_into(columns, dom: Rectangle, t_rng, c_rng, x: np.ndarray,
               gh: np.ndarray) -> np.ndarray:
    """R at the next len(x) draws of t_rng and c_rng, in gh[0]: g and h as
    one Horner chain over the rows of gh, from the (2, 1) columns of their
    coefficients (half the numpy calls, and so half the GIL hand-offs, of
    two chains), then the c draws over the spent t draws and g c + h."""
    _uniform_into(t_rng, dom.t_min, dom.t_max, x)
    r, h = _horner(columns, x, out=gh)
    _uniform_into(c_rng, dom.c_min, dom.c_max, x)
    r *= x
    r += h
    return r


def _columns(field: RiskField) -> np.ndarray:
    return np.array((field.g.coefficients, field.h.coefficients)).T[..., None]


def _stream(field: RiskField, seed: int, samples: int, lo: int, hi: int):
    """Yield (start, R) for each chunk of the sample indices [lo, hi): t
    draws lo.. of ``default_rng(seed)`` with c draws samples + lo.., from
    two generators jumped ahead to them, in chunks of `MC_CHUNK` through
    one draw buffer and one (2, MC_CHUNK) buffer for g and h, each
    allocated once; R is a view of the latter, overwritten by the next."""
    t_rng, c_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    t_rng.bit_generator.advance(lo)
    c_rng.bit_generator.advance(samples + lo)
    columns = _columns(field)
    n = min(hi - lo, MC_CHUNK)
    x, gh = np.empty(n), np.empty((2, n))
    for start in range(lo, hi, n):
        m = min(n, hi - start)
        if m < n:
            x, gh = x[:m], gh[:, :m]
        yield start, _risk_into(columns, field.domain, t_rng, c_rng, x, gh)


def _slice_hits(field: RiskField, threshold: float, seed: int, samples: int,
                lo: int, hi: int) -> int:
    """The hits among the sample indices [lo, hi), streamed with one bool
    buffer besides _stream's."""
    hit, hits = np.empty(min(hi - lo, MC_CHUNK), dtype=bool), 0
    for _, r in _stream(field, seed, samples, lo, hi):
        out = hit[:len(r)]
        np.greater_equal(r, threshold, out=out)
        hits += int(np.count_nonzero(out))
    return hits


def _in_slices(work, samples: int) -> list:
    """[work(0, samples)], or with two CPUs and more than `MC_SPLIT`
    samples [work(0, half), work(half, samples)], the upper half run by a
    second thread while the caller runs the lower half."""
    if samples <= MC_SPLIT or _cpus() < 2:
        return [work(0, samples)]
    # numpy's errstate is a context variable, which a new thread does not
    # inherit; the worker's exception is raised here.
    half, box = samples // 2, []
    context = contextvars.copy_context()

    def upper_half():
        try:
            box.append(context.run(work, half, samples))
        except BaseException as exc:
            box.append(exc)

    worker = threading.Thread(target=upper_half)
    worker.start()
    try:
        lower = work(0, half)
    finally:
        worker.join()
    if isinstance(box[0], BaseException):
        raise box[0]
    return [lower, box[0]]


def _estimate(field: RiskField, hits: int, samples: int, seed: int) -> RegionArea:
    hit_fraction = hits / samples
    dom = field.domain
    area = hit_fraction * dom.area
    std_error = dom.area * float(
        np.sqrt(hit_fraction * (1.0 - hit_fraction) / samples)
    )
    return RegionArea(area, "monte_carlo", std_error, samples, seed)


def monte_carlo_region_area(
    field: RiskField,
    threshold: float = 1.0,
    samples: int = MC_SAMPLES,
    seed: int = 0,
) -> RegionArea:
    """Seeded uniform-sampling estimate of the super-level area in the
    field's domain.

    The sample is the first `samples` draws of t from ``default_rng(seed)``
    paired with the next `samples` draws of c, as if all the t were drawn
    before all the c.  Each draw takes one output of the PCG64 stream, and
    a generator jumps ahead to any output in O(log n), so the sample splits
    into slices of contiguous indices that count their hits apart.  With
    two CPUs and more than `MC_SPLIT` samples, a second thread counts the
    upper half while the caller counts the lower half; else one slice
    counts them all.  Each slice streams chunks of `MC_CHUNK`.  Hits are
    whole numbers, so the result is the same whatever the split, and memory
    stays fixed whatever `samples` is.
    """
    samples = _arg("samples", _count(1), samples)
    threshold = _arg("threshold", _finite, threshold)
    seed = _arg("seed", _count(0), seed)
    count = functools.partial(_slice_hits, field, threshold, seed, samples)
    return _estimate(field, sum(_in_slices(count, samples)), samples, seed)


class _Draws:
    """The draws of ``default_rng(seed)`` at increasing indices, in the
    place of the generator _uniform_into takes: random(out=) puts draw
    indices[j] in out[j], one jump ahead, O(log n), per index."""

    def __init__(self, seed: int, indices: np.ndarray):
        self.seed, self.indices = seed, indices

    def random(self, out: np.ndarray) -> None:
        rng, at = np.random.default_rng(self.seed), 0
        for j, i in enumerate(self.indices.tolist()):
            rng.bit_generator.advance(i - at)
            out[j] = rng.random()
            at = i + 1


def _code(r: np.ndarray, low: float, scale: float) -> np.ndarray:
    """phi(r) = clip((r - low) scale, 0, CODE_TOP) in place, each step
    monotone in r; the cast to uint16 truncates it."""
    r -= low
    r *= scale
    return np.clip(r, 0.0, CODE_TOP, out=r)


def _draw_codes(field: RiskField, seed: int, codes: np.ndarray) -> tuple:
    """Write phi(R) of the MC_SAMPLES points of the fallback sample of
    (field, seed) into codes, streamed as monte_carlo_region_area streams
    them, and return phi's (low, scale).  R is affine in c, so its range on
    the domain is that of R on the two c edges, here over 1025 stages,
    padded against what falls between them; values past it take the end
    codes."""
    dom = field.domain
    edges = field.evaluate(np.linspace(dom.t_min, dom.t_max, 1025),
                           np.array(((dom.c_min,), (dom.c_max,))))
    low, high = float(edges.min()), float(edges.max())
    # The absolute part keeps the scale finite on a constant field.
    pad = (high - low) / 64 + 2.0**-40 * (1.0 + abs(low) + abs(high))
    low -= pad
    scale = CODE_TOP / (high + pad - low)

    def write(lo, hi):
        for start, r in _stream(field, seed, MC_SAMPLES, lo, hi):
            codes[start:start + len(r)] = _code(r, low, scale)   # truncates

    _in_slices(write, MC_SAMPLES)
    return low, scale


# The held fallback sample, ((field, seed), codes, low, scale) or None.  A
# caller holds _held_lock while it draws or reads the codes.  Another field
# or seed is drawn into the same codes: a fresh 2 MB buffer per sample
# costs 512 page faults, and freeing one raises glibc's mmap threshold to
# 2 MB, which moves the process's later large arrays onto the heap.
_held = None
_held_lock = threading.Lock()


def _fallback_area(field: RiskField, threshold: float, seed: int) -> RegionArea:
    """monte_carlo_region_area(field, threshold, MC_SAMPLES, seed), bit for
    bit, from the held sample, drawn first if it is another field's or
    seed's: phi is monotone, so a code above phi(L) is a hit and one below
    is a miss.  The samples whose code ties phi(L) are drawn again by jumps
    to their indices and evaluated as the stream evaluates them; more ties
    than one chunk are left to the stream."""
    global _held
    with _held_lock:
        if _held is None or _held[0] != (field, seed):
            codes = np.empty(MC_SAMPLES, np.uint16) if _held is None else _held[1]
            _held = None   # until the codes are whole again
            _held = ((field, seed), codes, *_draw_codes(field, seed, codes))
        _, codes, low, scale = _held
        level = _code(np.array([threshold]), low, scale).astype(np.uint16)[0]
        ties = np.flatnonzero(codes == level)
        above = np.count_nonzero(codes > level)
    if len(ties) > MC_CHUNK:
        return monte_carlo_region_area(field, threshold, seed=seed)
    r = _risk_into(_columns(field), field.domain, _Draws(seed, ties),
                   _Draws(seed, MC_SAMPLES + ties),
                   np.empty(len(ties)), np.empty((2, len(ties))))
    hits = above + np.count_nonzero(r >= threshold)
    return _estimate(field, int(hits), MC_SAMPLES, seed)


def _gauss_kronrod(f, lo, hi, tol: float, budget: int):
    """Globally adaptive G7K15 quadrature of f over the intervals [lo, hi].

    f maps an array of points to its values.  Each round takes every open
    interval at once; while the summed |K15 - G7| exceeds tol, those over
    their width's share of it are bisected, the largest first, until the
    first round's evaluations and budget more are spent.  Returns the
    integral, its error estimate and the evaluations."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nodes, weights = np.array(_GK_NODES), np.array(_GK_WEIGHTS)
    share = tol / float(np.sum(hi - lo))
    limit, total, error, evaluations = budget + 15 * lo.size, 0.0, 0.0, 0
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = f(mid[:, None] + half[:, None] * nodes)
        evaluations += values.size
        kronrod, err = np.einsum("ij,kj->ki", values, weights) * half
        err = np.abs(err)
        rough = (err > share * (hi - lo)) & (error + err.sum() > tol)
        room = (limit - evaluations) // 30   # a bisection costs 2 x 15
        if np.count_nonzero(rough) > room:   # the largest errors that fit
            rough[np.argsort(err)[: err.size - room]] = False
        total += kronrod[~rough].sum()
        error += err[~rough].sum()
        lo, mid, hi = lo[rough], mid[rough], hi[rough]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return float(total), float(error), evaluations


def risk_region_area(
    field: RiskField, threshold: float = 1.0, seed: int = 0
) -> RegionArea:
    """Area of {(t, c) in D : R(t, c) >= threshold}, D the field's domain.

    With dR/dc of one sign on the stage range the region is bounded by the
    graph of c*(t) = (threshold - h(t))/g(t), and the area reduces to a 1-D
    integral of the clamped column length.  The integrand is analytic
    between the field's cuts, so a globally adaptive Gauss-Kronrod rule
    takes all the pieces at once, to the absolute error target QUAD_TOL or
    until QUAD_BUDGET evaluations are spent.  If g changes sign inside the
    range the reduction is invalid, and the area is the seeded Monte Carlo
    estimate of monte_carlo_region_area with MC_SAMPLES samples, bit for
    bit.  Its sample is drawn once per field and seed and held, 2 B a
    sample, as 16-bit codes of R, monotone in R: each threshold counts the
    codes above its own and evaluates again, exactly, only the samples
    whose code ties it (see _fallback_area).  One sample is held at a
    time, and the next field or seed is drawn into its buffer.
    """
    threshold = _arg("threshold", _finite, threshold)
    seed = _arg("seed", _count(0), seed)
    dom = field.domain
    g = field.g
    if g.is_zero() or field.slope_roots:
        return _fallback_area(field, threshold, seed)
    positive = g(0.5 * (dom.t_min + dom.t_max)) > 0.0

    def column_length(t: np.ndarray) -> np.ndarray:
        c_star = _c_star(field, threshold, t)
        return dom.c_max - c_star if positive else c_star - dom.c_min

    cuts = list(field.cuts(threshold))
    area, error, evaluations = _gauss_kronrod(
        column_length, cuts[:-1], cuts[1:], QUAD_TOL, QUAD_BUDGET)
    return RegionArea(min(max(area, 0.0), dom.area), "reduction",
                      error_estimate=error, evaluations=evaluations)


@dataclass(frozen=True)
class LevelCurveSet:
    """Iso-level polylines, each a vertex chain in (t, c), and for
    {R >= level} the c edge on each polyline's side of it (None for a line
    t = t0) and the full (t_lo, t_hi) pieces, whose whole column is in it;
    the polylines' chords keep within `tolerance` of the curve in c."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]
    sides: tuple[float | None, ...] = ()
    full: tuple[tuple[float, float], ...] = ()
    tolerance: float | None = None

    def as_json_dict(self) -> dict:
        return {
            "level": self.level,
            # level_curves already rounded every vertex to 9 decimals.
            "polylines": [list(map(list, line)) for line in self.polylines],
        }


def _c_star(field: RiskField, level: float, t: np.ndarray) -> np.ndarray:
    """c*(t) = (level - h(t))/g(t) at an array of stages, clipped to the c
    range, with level a float or an array of t's shape; at a root of g
    (field.slope_roots) or where g(t) is 0.0, c*'s limit -h'/g' there, or
    c_min where g' is 0.0 too."""
    dom, roots = field.domain, field.slope_roots
    g_t, h_t = field.g(t), field.h(t)
    at_zero = g_t == 0.0
    for root in roots:
        at_zero |= t == root
    with np.errstate(over="ignore"):   # a c* past the float range is inf, and clips
        c = (level - h_t) / np.where(at_zero, 1.0, g_t)
    if at_zero.any():
        gp, hp = field.g_prime, field.h_prime
        c[at_zero] = [-hp(x) / gp(x) if gp(x) != 0.0 else dom.c_min
                      for x in t[at_zero].tolist()]
    return np.clip(c, dom.c_min, dom.c_max)


def _level_pieces(field, level, ts) -> tuple:
    """The pieces of {R = level} in the field's domain: the graphs of c*,
    each as its level, its stage samples (its ends and the grid nodes
    between) and the c edges its ends are on (None: not an edge), their
    sides, the saddle stages and the full pieces; see level_curves and
    LevelCurveSet."""
    dom, roots = field.domain, field.slope_roots
    g, h, gp, hp = field.g, field.h, field.g_prime, field.h_prime
    if g.is_zero():   # R = h(t): R = level on the lines t = t0 where h(t0) = level
        saddles = real_roots(level - h, dom.t_min, dom.t_max)
        cuts = dict.fromkeys((dom.t_min, *saddles, dom.t_max))
    else:   # roots of g where h is as near the level as R moves over ROOT_TOL
        saddles = tuple(t0 for t0 in roots if abs(h(t0) - level) <= ROOT_TOL * (
            1.0 + abs(hp(t0)) + abs(gp(t0)) * max(-dom.c_min, dom.c_max)))
        cuts = field.cuts(level)
    poles = set(roots).difference(saddles)   # c* is unbounded beside these

    graphs, sides, full = [], [], []
    stages = list(cuts)
    for lo, hi in zip(stages, stages[1:]):
        mid = 0.5 * (lo + hi)
        if lo in poles or hi in poles or not (   # even if c*(mid) rounds into D
                g(mid) and dom.c_min <= (level - h(mid)) / g(mid) <= dom.c_max):
            # c* stays off D, so the column is on one side of the level.
            if field.evaluate(mid, 0.5 * (dom.c_min + dom.c_max)) >= level:
                full.append((lo, hi))
            continue
        inner = ts[(ts > lo + ROOT_TOL) & (ts < hi - ROOT_TOL)]   # g != 0 there
        # Without a grid node, the midpoint: both ends may be on one c edge.
        t = np.concatenate(([lo], inner if len(inner) else [mid], [hi]))
        graphs.append((level, t, (cuts[lo], cuts[hi])))
        sides.append(dom.c_max if g(mid) > 0.0 else dom.c_min)
    return graphs, sides, saddles, full


def _trace(field, graphs, eps) -> list[tuple[tuple[float, float], ...]]:
    """The vertices of each graph of _level_pieces, all levels at once:
    points of c*, rounded to 9 decimals, whose chords keep within eps of
    c* in c at CHORD_CHECKS evenly spaced interior points each.

    c* is evaluated once at the samples and at 15 points between each two,
    evenly spaced, or closer toward the ends of a graph, where c* bends
    fastest as it comes in from a pole off the domain.  Second divided
    differences there give |c''|.  The candidate vertices are the samples
    and, between two whose chord de Boor's bound h^2/8 max|c''| puts
    beyond eps, the points between.  A graph keeps its ends and, from each
    kept candidate, the farthest one within eps by that bound.  Then every
    chord is checked, and those that fail are halved and checked again, a
    round at a time.
    """
    if not graphs:
        return []
    sizes = [len(t) for _, t, _ in graphs]
    n = CHORD_CHECKS + 1
    t = np.concatenate([t for _, t, _ in graphs]).round(9)
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    share, dt = np.arange(n) / n, np.diff(t)[:, None]
    points = t[:-1, None] + dt * share
    points[first] = t[first, None] + dt[first] * share ** 2
    points[last - 1] = t[last - 1, None] + dt[last - 1] * (1.0 - (1.0 - share) ** 2)
    points = np.append(points, t[-1])
    # Rows t, c, level and graph index of the points.
    owner = np.append(np.repeat(np.arange(len(t) - 1), n), len(t) - 1)
    rows = np.array((points, points, np.repeat([lv for lv, _, _ in graphs], sizes)[owner],
                     np.repeat(np.arange(len(graphs)), sizes)[owner]))
    rows[1] = _c_star(field, rows[2], points)
    for i, j, (_, _, edges) in zip(first * n, last * n, graphs):   # ends at cuts
        for k, edge in zip((i, j), edges):
            if edge is not None:
                rows[1, k] = edge

    # |c''| on each step between points: the larger second divided
    # difference at its ends, none at the ends of a graph.
    step = np.diff(points)
    step[step == 0.0] = np.inf
    d2 = np.zeros_like(points)
    d2[1:-1] = np.abs(np.diff(np.diff(rows[1]) / step)) * 2.0 / (step[1:] + step[:-1])
    d2[first * n] = d2[last * n] = 0.0
    bend = np.maximum(d2[1:], d2[:-1])
    limit = 8.0 * eps
    candidate = np.zeros_like(points, dtype=bool)
    candidate[::n] = True
    dt[last[:-1]] = 0.0   # no step between graphs
    steep = bend.reshape(-1, n).max(axis=1) * dt[:, 0] ** 2 > limit
    candidate[:-1].reshape(-1, n)[steep] = True
    candidate = np.flatnonzero(candidate)
    bend = np.maximum.reduceat(bend, candidate[:-1]).tolist()
    ts, kept = points[candidate].tolist(), []
    for i, j in zip(np.searchsorted(candidate, first * n).tolist(),
                    np.searchsorted(candidate, last * n).tolist()):
        start, most = ts[i], 0.0
        kept.append(i)
        for k, (end, b) in enumerate(zip(ts[i + 1:j + 1], bend[i:j]), i):
            if b > most:
                most = b
            if (end - start) ** 2 * most > limit and kept[-1] != k:
                kept.append(k)
                start, most = ts[k], b
        kept.append(j)
    vertices = rows[:, candidate[kept]]
    vertices[:2] = vertices[:2].round(9)

    joined = np.flatnonzero(np.diff(vertices[3]) == 0.0)
    ends = np.array((joined, joined + 1))   # the chords, by their vertices
    room = REFINE_ROOM * len(t) + len(kept)
    checks, mid = share[1:], CHORD_CHECKS // 2
    for _ in range(REFINE_ROUNDS):
        (t0, c0, lv), (t1, c1) = vertices[:3, ends[0], None], vertices[:2, ends[1], None]
        at = t0 + (t1 - t0) * checks
        on = _c_star(field, lv, at)
        gap = np.abs(c0 + (c1 - c0) * checks - on).max(axis=1)
        bad = gap > eps
        fits = room - vertices.shape[1]
        if np.count_nonzero(bad) > fits:   # the worst chords that fit
            bad[np.argsort(gap, kind="stable")[: gap.size - fits]] = False
        made = np.count_nonzero(bad)
        if not made:
            break
        # Halve each chord that fails at its middle check point.
        halves = vertices.shape[1] + np.arange(made)
        vertices = np.concatenate((vertices, np.concatenate((
            np.array((at[bad, mid], on[bad, mid])).round(9),
            vertices[2:, ends[0, bad]]))), axis=1)
        ends = np.concatenate((ends[:, bad], ends[:, bad]), axis=1)
        ends[1, :made] = ends[0, made:] = halves
    if vertices.shape[1] > len(kept):   # new vertices go to their places
        vertices = vertices[:, np.lexsort(vertices[[0, 3]])]
    bounds = np.flatnonzero(np.diff(vertices[3])) + 1
    return [tuple(zip(t.tolist(), c.tolist()))
            for t, c in zip(*(np.split(row, bounds) for row in vertices[:2]))]


def level_curves(
    field: RiskField,
    domain: Rectangle | None = None,
    levels: tuple[float, ...] = (1.0,),
    grid: int = 256,
) -> list[LevelCurveSet]:
    """Level sets {R = L} in D as polylines, from the boundary graph.

    D is the field's domain, or `domain` when one is given.

    R is affine in c, so the level set is the graph c*(t) = (L - h(t))/g(t)
    wherever that lies in D.  Each piece between consecutive cuts whose
    midpoint does, and that ends at no root of g but a saddle's, is one
    polyline, t increasing.  Its vertices lie on c*, rounded to 9
    decimals: its ends and as few of the grid's t nodes as keep every
    chord within the grid's chord tolerance eps = 4 (c_max - c_min)/grid^2
    of c* in c, with more points of c* where the nodes are too far apart
    (see _trace).  At a saddle level, where h(t0) = L at a root t0 of g,
    the line t = t0 is one more polyline.  A graph's side is c_max where
    g = dR/dc > 0 over it, else c_min.  On any other piece c* is off D:
    its column is full if R >= L at its middle.
    """
    grid = _arg("grid", _count(16), grid)
    levels = _arg("levels", _list(_finite), levels)
    if domain is not None:
        field = field.with_domain(domain)
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, grid + 1)
    eps = 4.0 * (dom.c_max - dom.c_min) / (grid * grid)   # a c cell over grid/4
    pieces = [_level_pieces(field, level, ts) for level in levels]
    chains = iter(_trace(field, [graph for p in pieces for graph in p[0]], eps))
    sets = []
    for level, (graphs, sides, saddles, full) in zip(levels, pieces):
        lines = [next(chains) for _ in graphs]
        if saddles:
            lo, hi = np.array((dom.c_min, dom.c_max)).round(9).tolist()
            lines += [((t0, lo), (t0, hi))
                      for t0 in np.array(saddles).round(9).tolist()]
        sets.append(LevelCurveSet(level, tuple(lines),
                                  tuple(sides) + (None,) * len(saddles),
                                  tuple(full), eps))
    return sets


def build_analysis_report(
    field: RiskField,
    curves: list[LevelCurveSet],
    threshold: float = 1.0,
    seed: int = 0,
    mc_samples: int = MC_SAMPLES,
) -> dict:
    """Full analysis bundle in plain-JSON form, with curves as its level
    sets and the largest of their chord tolerances."""
    dom = field.domain
    certificate = certify_no_critical_points(field)
    region = risk_region_area(field, threshold, seed=seed)
    # A fallback with the cross-check's samples is the cross-check itself.
    if region.method == "monte_carlo" and region.samples == mc_samples:
        crosscheck = region
    else:
        crosscheck = monte_carlo_region_area(
            field, threshold, samples=mc_samples, seed=seed
        )
    return {
        "field": field.as_json_dict(),
        "domain": dom.as_json_dict(),
        "threshold": threshold,
        "certificate": certificate.as_json_dict(),
        "mean_risk": mean_risk(field),
        "mean_risk_simpson": mean_risk_simpson(field),
        "region_area": region.area,
        "region_area_method": region.method,
        "region_area_std_error": region.std_error,
        "region_area_monte_carlo": crosscheck.as_json_dict(),
        "probability": region.area / dom.area,
        "levels": [cset.as_json_dict() for cset in curves],
        "level_chord_tolerance": max(
            (cset.tolerance for cset in curves), default=None),
    }
