"""Grid-hashed recurrence witness against the all-pairs reference.

The reference below is the original row-by-row witness: for each sample
it computes the squared distance to every later sample, finds the first
one beyond the radius and fails if any sample after that comes back
strictly inside it.  The package's check_no_recurrence must return the
same boolean on every trajectory.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mehgrisk import dynamics
from mehgrisk.dynamics import (
    EXIT_MAX_STEPS,
    FlowTrajectory,
    check_no_recurrence,
    flow,
)
from mehgrisk.fieldfit import published_field


def reference_no_recurrence(trajectory: FlowTrajectory, radius: float) -> bool:
    pts = np.array([(s[1], s[2]) for s in trajectory.samples])
    n = len(pts)
    if n < 3:
        return True
    r2 = radius * radius
    for i in range(n - 2):
        d2 = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
        outside = np.nonzero(d2 > r2)[0]
        if outside.size == 0:
            continue
        first_out = outside[0]
        if np.any(d2[first_out + 1:] < r2):
            return False
    return True


def _trajectory(points) -> FlowTrajectory:
    samples = tuple(
        (float(k), float(t), float(c), 0.0)
        for k, (t, c) in enumerate(np.asarray(points, dtype=float))
    )
    return FlowTrajectory(samples=samples, exit_reason=EXIT_MAX_STEPS)


def _agree(points, radius: float) -> bool:
    traj = _trajectory(points)
    want = reference_no_recurrence(traj, radius)
    assert check_no_recurrence(traj, radius) == want
    return want


@st.composite
def paths(draw):
    """Random walks, walks with a planted return, and lattice walks.

    Lattice walks move in whole multiples of the radius from a dyadic
    origin, so exact ties d2 == r2 occur, and the samples sit within a
    relative 1e-9 of the cell borders of the hash.
    """
    radius = draw(st.sampled_from([0.05, 0.25, 0.5, 2.0]))
    origin = draw(st.sampled_from([0.0, 3.0, -7.5, -1024.0, 2.0**20]))
    n = draw(st.integers(3, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "planted", "lattice"]))
    if kind == "lattice":
        pts = origin + radius * np.cumsum(rng.integers(-1, 2, (n, 2)), axis=0)
    else:
        scale = radius * draw(st.sampled_from([0.05, 0.3, 1.0, 2.5]))
        pts = origin + np.cumsum(rng.normal(scale=scale, size=(n, 2)), axis=0)
        if kind == "planted":
            back = pts[draw(st.integers(0, n - 1))]
            back = back + rng.uniform(-0.7, 0.7, 2) * radius
            pts = np.vstack([pts, back])
    return pts, radius


@settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(paths())
def test_matches_reference_on_random_paths(case):
    _agree(*case)


def test_ties_at_the_radius():
    # Out to exactly 2r, then back to exactly r: a tie is not a return.
    assert _agree([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)], 0.5)
    # A tie does not leave either, so a later return is no recurrence.
    assert _agree([(0.0, 0.0), (0.5, 0.0), (0.1, 0.0)], 0.5)
    # Leaving strictly, then coming back strictly inside, is.
    assert not _agree([(0.0, 0.0), (0.0, 0.75), (0.0, 0.25)], 0.5)
    # A tie that straddles a cell border: cells are counted from 0 and
    # are a relative 1e-9 wider than the radius, so the pair at exactly
    # r lies in adjacent cells, not two apart.
    x = 0.5 - 2.0**-30
    assert _agree([(0.0, 0.0), (x, 0.0), (x + 0.5, 0.0), (x + 0.1, 0.0)], 0.5)


def test_return_across_a_cell_border():
    # Cells are counted from the lowest coordinates, here 0: the return
    # lands in the cell after the left sample's, along an axis or across
    # a corner.
    for left, out, back in (
        ((1.04, 0.0), (3.0, 0.0), (1.06, 0.0)),
        ((0.0, 1.04), (0.0, 3.0), (0.0, 1.06)),
        ((1.04, 1.04), (3.0, 3.0), (1.06, 1.06)),
    ):
        assert not _agree([(0.0, 0.0), left, out, back], 0.05)


@pytest.mark.parametrize("origin", [-1e6, -3.25, 1e9, 1e12])
def test_negative_and_large_coordinates(origin):
    ring = [
        (origin + math.cos(a), origin + math.sin(a))
        for a in np.linspace(0.0, 2.0 * math.pi, 400)
    ]
    assert not _agree(ring, 0.05)
    assert _agree(ring[:300], 0.05)
    line = [(origin - 0.01 * k, origin + 0.02 * k) for k in range(500)]
    assert _agree(line, 0.05)


@pytest.mark.parametrize(
    "points, radius",
    [
        # r2 subnormal and underflowing to zero.
        ([(0.0, 0.0), (3e-160, 0.0), (1e-160, 0.0)], 1.5e-160),
        # Subnormal r2 rounds coarsely: this pair counts as within the
        # radius although it is 5.5e-5 farther apart than sqrt(r2).
        ([(0.0, 0.0), (1.4999915018646e-160, 0.0),
          (3.000065494700939e-160, 0.0), (1.6499915018646002e-160, 0.0)],
         1.5e-160),
        ([(0.0, 0.0), (3e-170, 0.0), (1e-170, 0.0)], 1.5e-170),
        # r2 overflowing to inf, and differences overflowing to inf.
        ([(0.0, 0.0), (1e200, 0.0), (1.0, 0.0)], 1e160),
        ([(-1e308, 0.0), (1e308, 0.0), (-1e308, 0.0)], 1.0),
        # Spans of far more cells per axis than the hash uses, the last
        # beyond the range of int64 cell indices.
        ([(0.0, 0.0), (1e3, 0.0), (3e-4, 0.0), (2e-3, 0.0), (1e-4, 0.0)],
         1e-3),
        ([(0.0, 0.0), (1e10, 1e10), (5e-11, 0.0)], 1e-10),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_extreme_scales(points, radius):
    _agree(points, radius)


@pytest.mark.parametrize("block_entries", [dynamics._BLOCK_ENTRIES, 16])
def test_stalled_samples_in_one_cell(block_entries, monkeypatch):
    # Every sample shares one cell, so each block holds a slice of its
    # rows; with a cap below the cell size, one row at a time.
    monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", block_entries)
    still = [(3.0, 1.0)] * 2500
    assert _agree(still, 0.05)
    assert not _agree(still + [(3.2, 1.0), (3.01, 1.0)], 0.05)
    assert not _agree(still[:40] + [(3.2, 1.0)] + still[:40], 0.05)


@pytest.mark.parametrize("step", [1e-3, 3e-4, 1e-4])
def test_published_field_flows(step):
    f = published_field()
    for start in ((3.0, 1.0), (1.5, 0.5)):
        traj = flow(f, start, step=step, max_steps=4000)
        want = reference_no_recurrence(traj, 0.05)
        assert check_no_recurrence(traj, radius=0.05) == want
        assert want
