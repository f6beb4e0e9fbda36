"""Gradient-flow integration over the risk field.

The flow is dx/dtau = grad R(x) for x = (t, c).  Along its trajectories
the risk satisfies dR/dtau = |grad R|^2, so on a field certified free of
critical points every trajectory climbs strictly and must leave the
rectangle; the integrator and the recurrence witness below make both of
those claims checkable on computed samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fieldfit import RiskField

EXIT_LEFT_DOMAIN = "left_domain"
EXIT_MAX_STEPS = "max_steps"
EXIT_STEP_UNDERFLOW = "step_underflow"

# Below this gradient magnitude the flow is considered stalled.
_SPEED_FLOOR = 1e-12

# Distance entries per comparison block of the recurrence witness, which
# bounds its working memory whatever the trajectory looks like.
_BLOCK_ENTRIES = 1 << 14
# Cells per axis at most: a cell index then carries a rounding error far
# below the margin by which cells are wider than the radius.
_MAX_CELLS = 1 << 16


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled integral curve: rows of (tau, t, c, R) plus exit reason."""

    samples: tuple[tuple[float, float, float, float], ...]
    exit_reason: str

    @property
    def endpoint(self) -> tuple[float, float]:
        last = self.samples[-1]
        return last[1], last[2]


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
    """
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    dom = field.domain
    t0, c0 = float(start[0]), float(start[1])
    if not dom.contains(t0, c0):
        raise ValueError(f"start point {start!r} lies outside the domain")

    a = field.a
    b = field.b
    gp = tuple(k * ak for k, ak in enumerate(a) if k > 0)
    hp = tuple(k * bk for k, bk in enumerate(b) if k > 0)

    def value(t: float, c: float) -> float:
        acc = 0.0
        for ak, bk in zip(reversed(a), reversed(b)):
            acc = acc * t + (ak * c + bk)
        return acc

    def grad(t: float, c: float) -> tuple[float, float]:
        gp_t = 0.0
        hp_t = 0.0
        g_t = 0.0
        for coef in reversed(gp):
            gp_t = gp_t * t + coef
        for coef in reversed(hp):
            hp_t = hp_t * t + coef
        for coef in reversed(a):
            g_t = g_t * t + coef
        return c * gp_t + hp_t, g_t

    def rk4(
        t: float, c: float, h: float, k1: tuple[float, float]
    ) -> tuple[float, float]:
        k2 = grad(t + 0.5 * h * k1[0], c + 0.5 * h * k1[1])
        k3 = grad(t + 0.5 * h * k2[0], c + 0.5 * h * k2[1])
        k4 = grad(t + h * k3[0], c + h * k3[1])
        return (
            t + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            c + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )

    samples = [(0.0, t0, c0, value(t0, c0))]
    t, c, tau = t0, c0, 0.0
    exit_reason = EXIT_MAX_STEPS
    for _ in range(max_steps):
        k1 = grad(t, c)
        if k1[0] * k1[0] + k1[1] * k1[1] < _SPEED_FLOOR * _SPEED_FLOOR:
            exit_reason = EXIT_STEP_UNDERFLOW
            break
        t_next, c_next = rk4(t, c, step, k1)
        tau_next = tau + step
        if not dom.contains(t_next, c_next):
            # Clip onto the boundary: bisect along the step segment.
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                tm = t + mid * (t_next - t)
                cm = c + mid * (c_next - c)
                if dom.contains(tm, cm):
                    lo = mid
                else:
                    hi = mid
            t_clip = min(max(t + lo * (t_next - t), dom.t_min), dom.t_max)
            c_clip = min(max(c + lo * (c_next - c), dom.c_min), dom.c_max)
            samples.append(
                (tau + lo * step, t_clip, c_clip, value(t_clip, c_clip))
            )
            exit_reason = EXIT_LEFT_DOMAIN
            break
        t, c, tau = t_next, c_next, tau_next
        samples.append((tau, t, c, value(t, c)))
    return FlowTrajectory(tuple(samples), exit_reason)


def check_no_recurrence(
    trajectory: FlowTrajectory, radius: float
) -> bool:
    """Discrete witness that the trajectory never closes a loop.

    Returns False when some later sample comes back within `radius` of an
    earlier one after having first escaped that neighborhood, which is
    what a closed orbit sampled at finite resolution looks like.  For a
    strict gradient flow this always returns True.

    With d2 the squared distance between samples i < j, the witness fails
    at i when some sample with d2 > radius**2 precedes the last one with
    d2 < radius**2.  Only pairs that can be that close are compared: the
    samples are hashed into square cells slightly wider than the radius
    (fixed-radius near neighbours, Bentley, Stanat & Williams 1977), so
    every such pair lies in the same or adjacent cells, and each cell is
    compared with its 3x3 neighbourhood in blocks of at most
    `_BLOCK_ENTRIES` distances.  A pair in no common neighbourhood is
    farther apart than the radius, so the answer equals that of comparing
    every pair, and the cost is near-linear in the number of samples
    while the trajectory moves on.  A stalled trajectory whose samples
    share one cell costs O(n^2) time, in bounded memory.
    """
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = np.array([(s[1], s[2]) for s in trajectory.samples], dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("trajectory samples must be finite")
    n = len(pts)
    if n < 3:
        return True
    r2 = radius * radius
    ts, cs = pts[:, 0], pts[:, 1]
    for own, near in _cell_neighbourhoods(pts, r2):
        per_block = max(1, _BLOCK_ENTRIES // len(near))
        for s in range(0, len(own), per_block):
            if _returns_after_leaving(ts, cs, own[s:s + per_block], near, r2):
                return False
    return True


def _cell_neighbourhoods(pts: np.ndarray, r2: float):
    """Yield (own, near) sample indices per occupied cell, both ascending.

    `near` holds the samples of the 3x3 cells around the cell of `own`.
    Every pair with computed squared distance <= r2 shares some such
    neighbourhood; all other pairs are farther apart.
    """
    # A pair with computed d2 <= r2 is at most sqrt(r2) apart on each
    # axis, up to one rounding or, for a subnormal r2, 2**-537 more; the
    # margin also covers the rounding of the cell indices below.
    reach = (math.sqrt(r2) + 2.0**-537) * (1.0 + 1e-9)
    low = pts.min(axis=0)
    width = max(reach, float(np.max(pts.max(axis=0) - low)) / _MAX_CELLS)
    if math.isfinite(width):
        cell = np.floor((pts - low) / width).astype(np.int64)
    else:
        cell = np.zeros(pts.shape, dtype=np.int64)
    # Row-major cell keys with an empty column on each side of a row, so
    # that key +- 1 never reaches into the next row.
    ncol = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * ncol + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    ends = np.append(starts[1:], len(key))
    cells = sorted_key[starts]
    # The 3x3 neighbourhood of a cell is three runs of the sorted order.
    runs = [
        (
            np.searchsorted(sorted_key, cells + shift - 1, side="left"),
            np.searchsorted(sorted_key, cells + shift + 1, side="right"),
        )
        for shift in (-ncol, 0, ncol)
    ]
    for k in range(len(cells)):
        near = np.concatenate([order[lo[k]:hi[k]] for lo, hi in runs])
        yield order[starts[k]:ends[k]], np.sort(near)


def _returns_after_leaving(
    ts: np.ndarray, cs: np.ndarray, rows: np.ndarray, near: np.ndarray,
    r2: float,
) -> bool:
    """Whether the witness fails at some sample i in `rows`.

    `near` must hold every sample within the radius of each i; the
    samples it leaves out count as beyond the radius.
    """
    i = rows[:, None]
    j = near[np.searchsorted(near, rows[0], side="right"):]
    # Same operations as (pts[j] - pts[i]) ** 2 summed over the two axes,
    # so ties at d2 == r2 resolve alike.
    d2 = (ts[j] - ts[i]) ** 2 + (cs[j] - cs[i]) ** 2
    later = j > i
    # J(i): the last later sample strictly inside the radius, or -1.
    last_in = np.where(later & (d2 < r2), j, -1).max(axis=1, initial=-1)
    # Every sample strictly between i and J(i) must be within the radius.
    held = (later & (j < last_in[:, None]) & (d2 <= r2)).sum(axis=1)
    return bool(np.any(held < last_in - rows - 1))


def write_trajectory_csv(
    trajectory: FlowTrajectory, path: str | Path
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "t", "c", "R"])
        for tau, t, c, r in trajectory.samples:
            writer.writerow([f"{tau:.9g}", f"{t:.9g}", f"{c:.9g}", f"{r:.9g}"])
