"""Gradient-flow integration over the risk field.

The flow is dx/dtau = grad R(x) for x = (t, c).  Along its trajectories
the risk satisfies dR/dtau = |grad R|^2, so on a field certified free of
critical points every trajectory climbs strictly and must leave the
rectangle; the integrator and the recurrence witness below make both of
those claims checkable on computed samples.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fieldfit import RiskField

EXIT_LEFT_DOMAIN = "left_domain"
EXIT_MAX_STEPS = "max_steps"
EXIT_STEP_UNDERFLOW = "step_underflow"

# Below this gradient magnitude the flow is considered stalled.
_SPEED_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled integral curve: rows of (tau, t, c, R) plus exit reason."""

    samples: tuple[tuple[float, float, float, float], ...]
    exit_reason: str


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
    rule for g, g' and h' in the field's one evaluation order, and the tau
    column is summed after the loop; tests/test_flow_oracle.py holds every
    sample to a looped integrator, bit for bit.
    """
    if isinstance(step, bool) or not isinstance(step, numbers.Real):
        raise ValueError(f"step must be a real number, got {step!r}")
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if (isinstance(max_steps, bool)
            or not isinstance(max_steps, (int, np.integer)) or max_steps < 1):
        raise ValueError(
            f"max_steps must be an integer >= 1, got {max_steps!r}")
    dom = field.domain
    t0, c0 = float(start[0]), float(start[1])
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
    # clipped last sample sits at tau + lo * step.
    clipped = exit_reason == EXIT_LEFT_DOMAIN
    taus = list(itertools.accumulate(
        itertools.repeat(step, len(ts) - 1 - clipped), initial=0.0))
    if clipped:
        taus.append(taus[-1] + lo * step)
    # One array call: each element rounds as the scalar R(t, c) does.  No
    # element overflows, as the field's bound on |R| over its domain is
    # finite; a nan sample, left by an overflowing gradient, stays quiet.
    rs = field.evaluate(np.array(ts), np.array(cs)).tolist()
    return FlowTrajectory(tuple(zip(taus, ts, cs, rs)), exit_reason)


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

    Each row i gallops along the path instead of reading every later
    sample.  Let s_k be the prefix sums of the computed segment lengths
    and r = sqrt(r2).  A row reads d2 at its sample m > i, with
    D = sqrt(d2), and moves on to the first k > m with s_k >= s_m + reach,
    where reach is r - D - slack while the row has not left the ball and
    D - r - slack once it has.  By the triangle inequality every later
    sample k lies within the path length s_k - s_m of distance D from
    sample i.  So no skipped sample leaves the ball while the row is
    inside it, and none comes back once the row is out.  The slack,
    4(n + 8)u (s_(n-1) + r + D) + 2**-530 with u = 2**-53, covers the
    rounding between the computed and the exact quantities: the prefix
    sums err by at most about 2(n + 4)u s_(n-1), D and r by a few u of
    themselves, and an underflowing d2 by at most the smallest subnormal,
    which moves D by at most 2**-537.  A non-finite reach, from an
    overflowing d2, r2 or path length, moves the row by one sample.

    Every pass moves each row by at least one sample and a row retires
    past the last sample, so there are at most n - 1 passes, over a few
    arrays of length n.  A path that moves on or stalls takes a few
    passes; one that circles within the radius moves its rows a few
    samples per pass, and costs up to O(n^2) distances.
    """
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real):
        raise ValueError(f"radius must be a real number, got {radius!r}")
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    # One column per coordinate: zip(*) transposes the rows in C.
    pts = np.array(list(zip(*trajectory.samples))[1:3], dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("trajectory samples must be finite")
    n = pts.shape[-1]
    if n < 3:
        return True
    ts, cs = pts
    r2 = radius * radius
    r = math.sqrt(r2)
    with np.errstate(over="ignore", invalid="ignore"):
        seg = np.hypot(np.diff(ts), np.diff(cs))
        s = np.concatenate(([0.0], np.cumsum(seg)))
        tol = 4.0 * (n + 8) * 2.0**-53
        base = tol * (s[-1] + r) + 2.0**-530
        row = np.arange(n - 2)
        m = row + 1
        out = np.zeros(n - 2, dtype=bool)
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
    rows = "".join(
        ["%.9g,%.9g,%.9g,%.9g\r\n" % row for row in trajectory.samples]
    )
    with open(path, "w", newline="") as fh:
        fh.write("tau,t,c,R\r\n" + rows)
