"""Gradient-flow integration over the risk field.

The flow is dx/dtau = grad R(x) for x = (t, c).  Along its trajectories
the risk satisfies dR/dtau = |grad R|^2, so on a field certified free of
critical points every trajectory climbs strictly and must leave the
rectangle; the integrator and the recurrence witness below make both of
those claims checkable on computed samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fieldfit import RiskField
from .fieldfit import (   # the checks
    _arg, _count, _expected, _finite, _list, _number, _positive,
)

EXIT_LEFT_DOMAIN = "left_domain"
EXIT_MAX_STEPS = "max_steps"
EXIT_STEP_UNDERFLOW = "step_underflow"
EXIT_REASONS = (EXIT_LEFT_DOMAIN, EXIT_MAX_STEPS, EXIT_STEP_UNDERFLOW)

# Below this gradient magnitude the flow is considered stalled.
_SPEED_FLOOR = 1e-12


def _samples(value) -> np.ndarray:
    """A read-only float64 (n, 4) array, from an array of numbers or from
    rows of four numbers."""
    if not isinstance(value, np.ndarray):
        value = _list(_list(_number, 4))(value) or np.empty((0, 4))
    elif value.dtype.kind not in "fiu" or value.ndim != 2 or value.shape[1] != 4:
        raise _expected("an (n, 4) array of numbers", value)
    rows = np.array(value, dtype=float)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Sampled integral curve: a read-only float64 array of rows
    (tau, t, c, R), one per sample, plus the exit reason.

    Samples are given as an (n, 4) array or as rows of four numbers;
    NaN and inf are kept, as a flow whose gradient overflows leaves them.
    Two trajectories are equal when their samples have the same bytes and
    their exit reasons match.
    """

    samples: np.ndarray
    exit_reason: str

    def __post_init__(self) -> None:
        rows = _arg("samples", _samples, self.samples)
        object.__setattr__(self, "samples", rows)
        reason = self.exit_reason
        if not (isinstance(reason, str) and reason in EXIT_REASONS):
            raise ValueError(
                f"exit_reason: expected one of {EXIT_REASONS}, got {reason!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowTrajectory):
            return NotImplemented
        return (self.exit_reason == other.exit_reason
                and self.samples.tobytes() == other.samples.tobytes())

    def __hash__(self) -> int:
        return hash((self.samples.tobytes(), self.exit_reason))


def flow(
    field: RiskField,
    start: tuple[float, float],
    step: float = 1e-3,
    max_steps: int = 20000,
) -> FlowTrajectory:
    """Integrate the gradient flow from a start point with fixed-step RK4.

    Integration halts when the next step would leave the field domain
    (the final sample is clipped onto the boundary by bisecting the step
    segment), when the step budget runs out, or when the gradient
    magnitude falls below an equilibrium floor.

    Each of the four RK4 stages is written out in the step, as Horner's
    rule for g, g' and h' in the field's one evaluation order.  The loop
    keeps t and c in two lists; after it, the tau column is summed in one
    cumsum, R is evaluated in one array call, and the four columns become
    the samples array in one column_stack.  tests/test_flow_oracle.py
    holds every sample to a looped integrator, bit for bit.
    """
    step = _arg("step", _positive, step)
    max_steps = _arg("max_steps", _count(1), max_steps)
    t0, c0 = _arg("start", _list(_finite, 2), start)
    dom = field.domain
    if not dom.contains(t0, c0):
        raise ValueError(f"start point {start!r} lies outside the domain")

    # Stage k at (u, v) is k_t = v * g'(u) + h'(u) and k_c = g(u), each
    # chain Horner's rule from the top coefficient, as Polynomial.__call__
    # runs it.
    a0, a1, a2, a3, a4 = field.a
    ga1, ga2, ga3, ga4 = field.g_prime.coefficients
    hb1, hb2, hb3, hb4 = field.h_prime.coefficients
    # 0.5 * h * k and h / 6.0 * s round as (0.5 * h) * k and (h / 6.0) * s.
    half, sixth = 0.5 * step, step / 6.0
    floor2 = _SPEED_FLOOR * _SPEED_FLOOR
    t_lo, t_hi, c_lo, c_hi = dom.t_min, dom.t_max, dom.c_min, dom.c_max
    ts, cs = [t0], [c0]
    t, c = t0, c0
    exit_reason = EXIT_MAX_STEPS
    for _ in range(max_steps):
        k1t = (c * (((ga4 * t + ga3) * t + ga2) * t + ga1)
               + (((hb4 * t + hb3) * t + hb2) * t + hb1))
        k1c = (((a4 * t + a3) * t + a2) * t + a1) * t + a0
        if k1t * k1t + k1c * k1c < floor2:
            exit_reason = EXIT_STEP_UNDERFLOW
            break
        u, v = t + half * k1t, c + half * k1c
        k2t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k2c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        u, v = t + half * k2t, c + half * k2c
        k3t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k3c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        u, v = t + step * k3t, c + step * k3c
        k4t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k4c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        t_next = t + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        c_next = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (t_lo <= t_next <= t_hi and c_lo <= c_next <= c_hi):
            # Clip onto the boundary: bisect along the step segment.
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                tm = t + mid * (t_next - t)
                cm = c + mid * (c_next - c)
                if t_lo <= tm <= t_hi and c_lo <= cm <= c_hi:
                    lo = mid
                else:
                    hi = mid
            ts.append(min(max(t + lo * (t_next - t), t_lo), t_hi))
            cs.append(min(max(c + lo * (c_next - c), c_lo), c_hi))
            exit_reason = EXIT_LEFT_DOMAIN
            break
        t, c = t_next, c_next
        ts.append(t)
        cs.append(c)
    # tau is the running sum tau + step over the whole steps, and a
    # clipped last sample sits at tau + lo * step; cumsum adds in order.
    steps = np.full(len(ts), step)
    steps[0] = 0.0
    if exit_reason == EXIT_LEFT_DOMAIN:
        steps[-1] = lo * step
    # One array call: each element rounds as the scalar R(t, c) does.  No
    # element overflows, as RiskField keeps |R| within 2^250 on its
    # domain; a nan sample, left by an overflowing gradient, stays quiet.
    ts, cs = np.array(ts), np.array(cs)
    return FlowTrajectory(
        np.column_stack((np.cumsum(steps), ts, cs, field.evaluate(ts, cs))),
        exit_reason,
    )


def _settled_from(pts: np.ndarray, r: float) -> int:
    """The first row i0 of the settled tail of check_no_recurrence, for
    the samples' (2, n) coordinates and r = sqrt(radius**2)."""
    dt, dc = pts[:, 1:] - pts[:, :-1]
    # The unwrapped directions of the nonzero segments, NaN where one is
    # not finite or too short, and their span over each suffix, from the
    # last segment back.
    nz = np.flatnonzero((dt != 0.0) | (dc != 0.0))
    theta = np.arctan2(dc[nz], dt[nz])
    turns = np.cumsum(np.rint(np.diff(theta, prepend=theta[:1]) / math.tau))
    size = np.hypot(dt[nz], dc[nz])
    fit = (size > 2.0**-23 * r + 2.0**-535) & (size < math.inf)
    phi = np.where(fit, theta - math.tau * turns, math.nan)[::-1]
    span = np.maximum.accumulate(phi) - np.minimum.accumulate(phi)
    first = len(nz) - np.count_nonzero(span < math.pi / 2 - 2.0**-30 * pts.shape[1])
    return int(nz[first - 1]) + 1 if first else 0


def check_no_recurrence(
    trajectory: FlowTrajectory, radius: float
) -> bool:
    """Discrete witness that the trajectory never leaves a ball about a
    sample and then comes back into it.

    With d2 = (t_j - t_i)**2 + (c_j - c_i)**2 computed for samples
    i < j and r2 = radius**2, it returns False when, for some i, a
    sample with d2 > r2 comes before a later one with d2 < r2: the
    samples left the ball of radius `radius` about sample i and came back
    strictly inside it.  A tie d2 == r2 neither leaves nor comes back.
    The answer is that of comparing every pair of samples; it says
    nothing about the path between samples.

    First, one pass settles the rows along which the path turns by less
    than a right angle, without reading a distance.  Let p_k = (t_k, c_k)
    and d_k = p_(k+1) - p_k, and let the directions of the nonzero d_k,
    k >= i, lie within an arc of at most pi/2.  Then any two of them have
    a nonnegative dot product, so the exact D_j**2 = |p_j - p_i|**2 obeys
    D_(j+1)**2 = D_j**2 + 2 (p_j - p_i).d_j + |d_j|**2 >= D_j**2 + |d_j|**2:
    it never falls, and it grows by at least |d_j|**2 at every nonzero
    segment.  A zero segment repeats a sample and its d2, bit for bit.

    The rounding argument.  With u = 2**-53, the computed d2 is
    D**2 (1 + e) + f with |e| <= 5u and |f| <= 2**-1073: two differences,
    two squares that may underflow and a sum, each rounded once.  As
    rounding is monotone, d2 > r2 gives D**2 > (r2 - 2**-1073) / (1 + 5u),
    also when d2 overflows, and D**2 >= (r2 + 2**-1073) / (1 - 5u) gives
    d2 >= r2.  The two bounds lie less than W = 11u r2 + 2**-1071 apart.
    So if every nonzero |d_k|**2 is at least W, no d2 > r2 of row i is
    followed by a d2 < r2, and the row retires.  The lengths are tested as
    computed: hypot(d_k) finite and above 2**-23 r + 2**-535, with
    r = sqrt(r2), gives |d_k|**2 > (2**-46 r2 + 2**-1070)(1 - 12u) > W, as
    hypot and sqrt err by less than an ulp and each difference by at most
    u.  The directions are atan2 of the computed d_k, within a few ulps of
    pi of the exact ones, and are unwrapped by whole turns m counted in
    integers; a direction minus 2 pi m, |m| < n, errs by at most about
    3.5e-15 + 1.7e-15 |m|.  So a row is settled when the unwrapped
    directions of its nonzero segments span less than pi/2 - 2**-30 n.
    The span over k >= i is a suffix maximum minus a suffix minimum and
    only grows as i falls, so the settled rows form a tail [i0, n - 2).
    A segment that is not finite, or too short, has the direction NaN,
    which ends the tail there.

    Each row below i0 gallops along the path instead of reading every
    later sample.  Let s_k be the prefix sums of the computed segment
    lengths.  A row reads d2 at its sample m > i, with D = sqrt(d2), and
    moves on to the first k > m with s_k >= s_m + reach, where reach is
    r - D - slack while the row has not left the ball and D - r - slack
    once it has.  By the triangle inequality every later sample k lies
    within the path length s_k - s_m of distance D from sample i.  So no
    skipped sample leaves the ball while the row is inside it, and none
    comes back once the row is out.  The slack,
    4(n + 8)u (s_(n-1) + r + D) + 2**-530, covers the rounding between
    the computed and the exact quantities: the prefix sums err by at most
    about 2(n + 4)u s_(n-1), D and r by a few u of themselves, and an
    underflowing d2 by at most the smallest subnormal, which moves D by
    at most 2**-537.  A non-finite reach, from an overflowing d2, r2 or
    path length, moves the row by one sample.

    The first pass reads each segment a fixed number of times.  Every
    gallop pass moves each row by at least one sample and a row retires
    past the last sample, so there are at most n - 1 passes, over a few
    arrays of at most i0 rows.  A path
    that moves on or stalls takes a few passes; one that circles within
    the radius moves its rows a few samples per pass, and costs up to
    O(n^2) distances.
    """
    radius = _arg("radius", _positive, radius)
    pts = trajectory.samples[:, 1:3].T
    if not np.isfinite(pts).all():
        raise ValueError("trajectory samples must be finite")
    n = pts.shape[1]
    if n < 3:
        return True
    ts, cs = pts
    r2 = radius * radius
    r = math.sqrt(r2)
    with np.errstate(over="ignore", invalid="ignore"):
        i0 = _settled_from(pts, r)
        if not i0:
            return True
        seg = np.hypot(np.diff(ts), np.diff(cs))
        s = np.concatenate(([0.0], np.cumsum(seg)))
        tol = 4.0 * (n + 8) * 2.0**-53
        base = tol * (s[-1] + r) + 2.0**-530
        row = np.arange(min(i0, n - 2))
        m = row + 1
        out = np.zeros(len(row), dtype=bool)
        while len(row):
            d2 = (ts[m] - ts[row]) ** 2 + (cs[m] - cs[row]) ** 2
            if np.any(out & (d2 < r2)):
                return False
            out |= d2 > r2
            dist = np.sqrt(d2)
            reach = np.where(out, dist - r, r - dist) - (base + tol * dist)
            jump = np.searchsorted(s, s[m] + reach)
            m = np.where(np.isfinite(reach), np.maximum(m + 1, jump), m + 1)
            live = m < n
            row, m, out = row[live], m[live], out[live]
    return True


def write_trajectory_csv(
    trajectory: FlowTrajectory, path: str | Path
) -> None:
    """Write the samples as CSV with the header tau,t,c,R.

    The text is what csv.writer writes: its numbers hold no comma, quote
    or line break, so no field is quoted, and rows end in CR LF.
    """
    flat = tuple(trajectory.samples.ravel().tolist())
    rows = "%.9g,%.9g,%.9g,%.9g\r\n" * (len(flat) // 4) % flat
    with open(path, "w", newline="") as fh:
        fh.write("tau,t,c,R\r\n" + rows)
