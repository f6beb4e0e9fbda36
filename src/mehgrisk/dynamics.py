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
# The default RK4 step of flow: at 5e-3 the report's nine exits on the
# published field lie within 1e-7 of those of a step eight times smaller.
FLOW_STEP = 5e-3
# A step moves x by at most this fraction of the domain's shorter side.
_CAP_FRACTION = 0.125


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

    flow's rows are its RK4 steps, tau their running sum; a left_domain
    trajectory ends on the domain's boundary, at the Hermite dense
    output of its last step.  Samples are given as an (n, 4) array or as
    rows of four numbers; NaN and inf are kept as given.  Two
    trajectories are equal when their samples have the same bytes and
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
    step: float = FLOW_STEP,
    max_steps: int = 20000,
) -> FlowTrajectory:
    """Integrate the gradient flow from a start point with fixed-step RK4.

    Integration halts when the next step would leave the field domain,
    when the step budget runs out, or when the gradient magnitude falls
    below an equilibrium floor.  A step h with h |k1| above an eighth of
    the domain's shorter side is cut to that length, so that a steep
    field's stages stay near the domain; the tau column takes the step
    used.

    The step that leaves the domain ends at RK4's classic dense output,
    the cubic Hermite interpolant p(theta) through x_n and x_(n+1) with
    slopes h f(x_n) and h f(x_(n+1)) (one more gradient evaluation).
    theta in [0, 1] is bisected for the edge crossing, and the outer end
    of the last bracket, p(theta) clamped onto the boundary, is the last
    sample, at tau_n + theta h.  That exit errs by O(h^4), where a clip
    along the chord errs by O(h^2).  Where x_n lies on an edge that
    grad R crosses outward, no theta > 0 is inside: x_n is the last
    sample, so a start there is the whole trajectory.  The default step,
    FLOW_STEP, puts the exits of the report's nine starts on the
    published field within 1e-7 in (t, c) of those of a step eight times
    smaller (5.1e-8).

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
    t_lo, t_hi, c_lo, c_hi = dom.t_min, dom.t_max, dom.c_min, dom.c_max
    # A step is taken as it is while floor^2 <= |k1|^2 <= cap2, that is,
    # while step |k1| <= reach; a faster one is cut to reach / |k1|.
    reach = _CAP_FRACTION * min(t_hi - t_lo, c_hi - c_lo)
    floor2 = _SPEED_FLOOR * _SPEED_FLOOR
    cap2 = (reach / step) ** 2
    # 0.5 * h * k and h / 6.0 * s round as (0.5 * h) * k and (h / 6.0) * s.
    half_step, sixth_step = 0.5 * step, step / 6.0
    ts, cs = [t0], [c0]
    odd_steps = {}   # sample index: the step to it, where not `step`
    t, c = t0, c0
    exit_reason = EXIT_MAX_STEPS
    for _ in range(max_steps):
        k1t = (c * (((ga4 * t + ga3) * t + ga2) * t + ga1)
               + (((hb4 * t + hb3) * t + hb2) * t + hb1))
        k1c = (((a4 * t + a3) * t + a2) * t + a1) * t + a0
        s2 = k1t * k1t + k1c * k1c
        if floor2 <= s2 <= cap2:
            h, half, sixth = step, half_step, sixth_step
        elif s2 < floor2:
            exit_reason = EXIT_STEP_UNDERFLOW
            break
        else:
            h = reach / math.sqrt(s2)
            half, sixth = 0.5 * h, h / 6.0
            odd_steps[len(ts)] = h
        u, v = t + half * k1t, c + half * k1c
        k2t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k2c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        u, v = t + half * k2t, c + half * k2c
        k3t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k3c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        u, v = t + h * k3t, c + h * k3c
        k4t = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
               + (((hb4 * u + hb3) * u + hb2) * u + hb1))
        k4c = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
        t_next = t + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        c_next = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (t_lo <= t_next <= t_hi and c_lo <= c_next <= c_hi):
            exit_reason = EXIT_LEFT_DOMAIN
            if (t == t_lo and k1t < 0.0 or t == t_hi and k1t > 0.0
                    or c == c_lo and k1c < 0.0 or c == c_hi and k1c > 0.0):
                # x_n lies on an edge that grad R crosses outward, so no
                # theta > 0 is inside D: the trajectory ends at x_n.
                odd_steps.pop(len(ts), None)
                break
            # The Hermite cubic x_n + theta (A + theta (B + theta C)) per
            # coordinate, from the slopes h k1 and h f(x_(n+1)).
            u, v = t_next, c_next
            ft = (v * (((ga4 * u + ga3) * u + ga2) * u + ga1)
                  + (((hb4 * u + hb3) * u + hb2) * u + hb1))
            fc = (((a4 * u + a3) * u + a2) * u + a1) * u + a0
            at, ac = h * k1t, h * k1c
            dt, dc = t_next - t, c_next - c
            bt = 3.0 * dt - 2.0 * at - h * ft
            bc = 3.0 * dc - 2.0 * ac - h * fc
            ct, cc = at + h * ft - 2.0 * dt, ac + h * fc - 2.0 * dc
            lo, hi = 0.0, 1.0
            tm, cm = t_next, c_next
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                tx = t + mid * (at + mid * (bt + mid * ct))
                cx = c + mid * (ac + mid * (bc + mid * cc))
                if t_lo <= tx <= t_hi and c_lo <= cx <= c_hi:
                    lo = mid
                else:
                    hi, tm, cm = mid, tx, cx
            ts.append(min(max(tm, t_lo), t_hi))
            cs.append(min(max(cm, c_lo), c_hi))
            odd_steps[len(ts) - 1] = hi * h
            break
        t, c = t_next, c_next
        ts.append(t)
        cs.append(c)
    # tau is the running sum of the steps: step, or the cut step where
    # one was taken, and hi * h to the exit sample; cumsum adds in order.
    steps = np.full(len(ts), step)
    steps[0] = 0.0
    for i, h in odd_steps.items():
        steps[i] = h
    # One array call: each element rounds as the scalar R(t, c) does.  No
    # element overflows, as RiskField keeps |R| within 2^250 on its
    # domain; a nan sample, left by a gradient that overflows, stays quiet.
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

    Each row below i0 is decided by the definition above, from its d2 to
    every later sample: it costs O(n) distances in O(n) memory, so a path
    that turns by more than a right angle near its start costs up to
    O(n^2).
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
        for i in range(min(i0, n - 2)):
            d2 = (ts[i + 1:] - ts[i]) ** 2 + (cs[i + 1:] - cs[i]) ** 2
            out = d2 > r2
            first = out.argmax()
            if out[first] and (d2[first + 1:] < r2).any():
                return False
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
