"""Path-length galloping recurrence witness against the all-pairs reference.

The reference below is the original row-by-row witness: for each sample
it computes the squared distance to every later sample, finds the first
one beyond the radius and fails if any sample after that comes back
strictly inside it.  The package's check_no_recurrence skips samples by
path length, and must return the same boolean on every trajectory.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    origin, so exact ties d2 == r2 occur, and path lengths equal the
    distances the witness skips by.
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
    # A tie at exactly r after a step just short of r.
    x = 0.5 - 2.0**-30
    assert _agree([(0.0, 0.0), (x, 0.0), (x + 0.5, 0.0), (x + 0.1, 0.0)], 0.5)


def test_slack_covers_rounding():
    # Out along a line to just past the radius, then back inside.  The
    # exit is within rounding of the path length the witness may skip
    # by: at unit scale through the prefix sums and D, and with a
    # subnormal r2 through the rounding of d2 itself.
    unit = [
        (0.0, 0.0),
        (0.3467297731050402, 0.018833051919809614),
        (0.9985281299128328, 0.05423627727619972),
        (0.4992640649564164, 0.02711813863809986),
    ]
    assert not _agree(unit, 0.9999999999999999)
    subnormal = [
        (0.0, 0.0),
        (-7.768491096457034e-161, 8.618580532633236e-161),
        (-1.0043168344005999e-160, 1.1142170867014934e-160),
        (-5.0214368561890035e-161, 5.570921997237683e-161),
    ]
    assert not _agree(subnormal, 1.5e-160)


def test_return_across_a_cell_border():
    # The return lands 0.02 past the left sample, along an axis or
    # across a diagonal.
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
        # Spans of a million and 1e20 radii.
        ([(0.0, 0.0), (1e3, 0.0), (3e-4, 0.0), (2e-3, 0.0), (1e-4, 0.0)],
         1e-3),
        ([(0.0, 0.0), (1e10, 1e10), (5e-11, 0.0)], 1e-10),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_extreme_scales(points, radius):
    _agree(points, radius)


def test_stalled_samples():
    # Samples that never move have path length zero between them, so
    # each row reaches past the whole stall in one step.
    still = [(3.0, 1.0)] * 2500
    assert _agree(still, 0.05)
    assert not _agree(still + [(3.2, 1.0), (3.01, 1.0)], 0.05)
    assert not _agree(still[:40] + [(3.2, 1.0)] + still[:40], 0.05)
    # Too long for the all-pairs reference in a test run; the answers
    # follow from the construction.
    long_still = _trajectory([(3.0, 1.0)] * 20000)
    assert check_no_recurrence(long_still, 0.05)
    back = _trajectory([(3.0, 1.0)] * 20000 + [(3.2, 1.0), (3.01, 1.0)])
    assert not check_no_recurrence(back, 0.05)


def _curves():
    """Arcs, outward spirals, U-turns and repeated circles, radius 1."""

    def arc(radius, sweep, n):
        a = np.linspace(0.0, sweep, n)
        return np.column_stack([radius * np.cos(a), radius * np.sin(a)])

    for radius in (0.4, 0.6, 1.0, 3.0):
        for sweep in (0.5 * math.pi, math.pi, 1.9 * math.pi, 2.1 * math.pi):
            yield arc(radius, sweep, 200)
    for pitch in (0.02, 0.1, 0.3):
        a = np.linspace(0.0, 6.0 * math.pi, 400)
        yield pitch * a[:, None] * np.column_stack([np.cos(a), np.sin(a)])
    for gap in (0.5, 0.99, 1.0, 1.01, 1.5):
        x = np.linspace(0.0, 3.0, 60)
        yield np.vstack([np.column_stack([x, np.zeros_like(x)]),
                         np.column_stack([x[::-1], np.full_like(x, gap)])])
    # Circles of diameter 0.9 and 1 traced five times: rows stay inside
    # and creep a few samples per pass.
    for diameter in (0.9, 1.0):
        yield arc(0.5 * diameter, 10.0 * math.pi, 500)


@pytest.mark.parametrize(
    "scale",
    # Unit scale, r2 subnormal (coarsely so at 1e-160), d2 overflowing
    # beyond 1.34e154 at 1e154, and r2 overflowing as well at 1e155.
    [1.0, 2.0**-520, 1e-160, 1e154, 1e155],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_curves_and_scaled_copies(scale):
    answers = [_agree(pts * scale, scale) for pts in _curves()]
    if scale == 1.0:
        assert 0 < sum(answers) < len(answers)


@pytest.mark.parametrize("step", [1e-3, 3e-4, 1e-4])
def test_published_field_flows(step):
    f = published_field()
    for start in ((3.0, 1.0), (1.5, 0.5), (2.0, 2.0), (1.1, 3.4)):
        traj = flow(f, start, step=step, max_steps=4000)
        want = reference_no_recurrence(traj, 0.05)
        assert check_no_recurrence(traj, radius=0.05) == want
        assert want
