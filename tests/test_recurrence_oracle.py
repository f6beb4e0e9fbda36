"""Recurrence witness against the all-pairs reference.

The reference below is the original row-by-row witness: for each sample
it computes the squared distance to every later sample, finds the first
one beyond the radius and fails if any sample after that comes back
strictly inside it.  The package's check_no_recurrence first settles the
tail of rows after which the path turns by less than a right angle, with
no distance read, then checks each row before that tail as the
reference does.  It must return the reference's boolean on every
trajectory, so the tests here hold the settled tail to the definition.
A row before the settled tail is read in full: its squared distance to
every later sample, as the reference computes it.  The tests of the
settled tail read its first row from
dynamics._settled_from, so they also fail if the tail stops covering
the rows it should: every row of a flow on the published field, and
the rows after the last turn of more than a right angle.
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
    _settled_from,
    check_no_recurrence,
    flow,
)
from mehgrisk.fieldfit import published_field


def reference_no_recurrence(trajectory: FlowTrajectory, radius: float) -> bool:
    pts = trajectory.samples[:, 1:3]
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
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    samples = np.column_stack((np.arange(n), pts, np.zeros(n)))
    return FlowTrajectory(samples=samples, exit_reason=EXIT_MAX_STEPS)


def _settled(points, radius: float) -> int:
    """The first row of the settled tail, as check_no_recurrence finds it."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        return _settled_from(pts, math.sqrt(radius * radius))


def _agree(points, radius: float) -> bool:
    traj = _trajectory(points)
    want = reference_no_recurrence(traj, radius)
    assert check_no_recurrence(traj, radius) == want
    return want


@st.composite
def paths(draw):
    """Random walks, walks with a planted return, and lattice walks.

    Lattice walks move in whole multiples of the radius from a dyadic
    origin, so exact ties d2 == r2 occur, and a sample's distance to a
    later one can equal the path length between them.
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
    # Out along a line to just past the radius, then back inside, with
    # the exit within rounding of the radius: at unit scale, and with a
    # subnormal r2, where the rounding of d2 itself decides.  Each row is
    # read in full, so the return is found as the reference finds it.
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
    # Samples that never move are within the radius of each other, so a
    # stall fails only if the path leaves it and comes back inside.
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


def _path(directions, length: float, origin=(0.0, 0.0)) -> np.ndarray:
    """Samples from origin along segments of one length and the given
    directions, one segment per direction."""
    a = np.asarray(directions, dtype=float)
    steps = length * np.column_stack((np.cos(a), np.sin(a)))
    return np.vstack([origin, origin + np.cumsum(steps, axis=0)])


@st.composite
def arcs(draw):
    """Smooth arcs: segment directions turning evenly by `turn` in total,
    on both sides of a right angle, up to more than a full circle."""
    turn = draw(
        st.floats(0.0, 2.5 * math.pi)
        | st.sampled_from([0.0, 0.45 * math.pi, 0.55 * math.pi, math.pi])
    )
    n = draw(st.integers(3, 300))
    start = draw(st.floats(-math.pi, math.pi))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    length = draw(st.sampled_from([0.01, 0.05, 0.2]))
    origin = draw(st.sampled_from([(0.0, 0.0), (3.0, -7.5), (-1024.0, 2.0)]))
    radius = draw(st.sampled_from([0.05, 0.3, 1.0, 4.0]))
    directions = start + sign * np.linspace(0.0, turn, n - 1)
    return _path(directions, length, origin), radius, turn


@settings(max_examples=200, deadline=None)
@given(arcs())
def test_smooth_arcs_settle_below_a_right_angle(case):
    pts, radius, turn = case
    bend = turn / max(1, len(pts) - 2)
    _agree(pts, radius)
    if turn < 0.49 * math.pi:
        assert _settled(pts, radius) == 0
    elif turn > 0.51 * math.pi and bend <= 0.25 * math.pi:
        # Directions in steps of at most 45 degrees over more than a right
        # angle fit in no arc of a right angle: row 0 is read in full.
        assert _settled(pts, radius) > 0


@pytest.mark.parametrize("corner", [30.0, 89.0, 91.0, 120.0, 180.0])
@pytest.mark.parametrize("radius", [0.05, 0.5, 2.0])
def test_straight_run_then_a_turn(corner, radius):
    # 40 segments east, then 25 at `corner` degrees: past a right angle,
    # the rows before the corner are read in full and the rows after it
    # settle.
    turn = math.radians(corner)
    pts = _path([0.0] * 40 + [turn] * 25, 0.1, (1.5, -2.0))
    want = _agree(pts, radius)
    assert _settled(pts, radius) == (40 if corner > 90.0 else 0)
    if corner == 180.0:
        assert not want


def test_zero_segments_inside_a_settled_stretch():
    # Repeated samples at the start, in the middle and at the end of a
    # run that turns from 40 to 100 degrees: the repeats add no direction
    # (atan2 would give them 0) and do not stop the tail, and their rows
    # read the same d2 as the sample before.
    run = _path(np.radians(np.linspace(40.0, 100.0, 30)), 0.05)
    pts = np.vstack([run[:1]] * 3 + [run[:15], run[14:15], run[14:15],
                                      run[15:], run[-1:], run[-1:]])
    assert _agree(pts, 0.3)
    assert _settled(pts, 0.3) == 0
    # A U-turn after the repeats, back onto an earlier sample: the tail
    # starts at the repeats, whose segments are followed only by the
    # reversed ones.
    v = np.array([math.cos(math.radians(100.0)), math.sin(math.radians(100.0))])
    back = np.vstack([pts, pts[-1] - 0.02 * v, run[20]])
    assert not _agree(back, 0.25)
    assert _settled(back, 0.25) == len(pts) - 3
    # All samples repeated: every row settles.
    assert _agree([(2.0, 1.0)] * 50, 0.05)
    assert _settled([(2.0, 1.0)] * 50, 0.05) == 0


@pytest.mark.parametrize("radius", [1.0, 1.5e-160])
@pytest.mark.parametrize("factor, settles", [(1.0 + 2.0**-20, True),
                                              (1.0 - 2.0**-20, False)])
def test_segments_at_the_rounding_bound(radius, factor, settles):
    # Segments just above and just below the shortest that settles,
    # 2**-23 r + 2**-535, stepping across the radius along a diagonal; at
    # radius 1.5e-160, r2 is subnormal and 2**-535 dominates the bound.
    r = math.sqrt(radius * radius)
    step = factor * (2.0**-23 * r + 2.0**-535)
    a = 0.3
    v = np.array([math.cos(a), math.sin(a)])
    dist = r + step * np.arange(-3, 4)
    pts = np.vstack([(0.0, 0.0), dist[:, None] * v])
    assert _agree(pts, radius)
    # Short segments stop the tail at the last one: every row is read in
    # full.
    assert _settled(pts, radius) == (0 if settles else len(pts) - 1)
    # The same steps turned back, one step out and one back in.
    back = np.vstack([pts, pts[-3:-1][::-1]])
    _agree(back, radius)
    assert _settled(back, radius) == (len(back) - 3 if settles else len(back) - 1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_segments_end_the_tail():
    # A segment whose differences overflow has no trusted direction or
    # length: the tail starts after it.
    pts = [(-1e308, 0.0), (1e308, 0.0), (1.5e308, 0.0), (1.7e308, 1e307)]
    assert _agree(pts, 1.0)
    assert _settled(pts, 1.0) == 1
    assert _settled([(0.0, -1e308), (0.0, 1e308), (0.0, 1.5e308)], 1.0) == 1


@pytest.mark.parametrize(
    "points, radius, want, tail",
    [
        # Straight out and one step straight back inside the ball of the
        # middle sample, onto it, or short of it.
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.5, 0.0)], 0.6, False, 2),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.0)], 0.6, False, 2),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.7, 0.0)], 0.6, True, 2),
        # A U-turn at the first step, and one with a sideways offset.
        ([(0.0, 0.0), (1.0, 0.0), (0.2, 0.0), (-3.0, 0.0)], 0.5, False, 1),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.7)], 0.6, True, 2),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5)], 0.6, False, 2),
        # A zigzag that reverses at every step.
        ([(0.1 * (k % 2), 0.0) for k in range(12)], 0.05, False, 10),
        ([(0.1 * (k % 2), 0.0) for k in range(12)], 0.2, True, 10),
    ],
)
def test_one_step_u_turns(points, radius, want, tail):
    assert _agree(points, radius) == want
    # The tail starts at the segment that makes the last reversal.
    assert _settled(points, radius) == tail


@pytest.mark.parametrize("step", [1e-3, 3e-4, 1e-4])
def test_published_field_flows_settle_every_row(step):
    # The fast path covers the published field's flows: every row
    # settles, so the witness reads no distance.
    f = published_field()
    d = f.domain
    for ft in (0.05, 0.3, 0.55, 0.8, 0.95):
        for fc in (0.05, 0.3, 0.55, 0.8, 0.95):
            start = (d.t_min + ft * (d.t_max - d.t_min),
                     d.c_min + fc * (d.c_max - d.c_min))
            traj = flow(f, start, step=step, max_steps=4000)
            assert _settled(traj.samples[:, 1:3], 0.05) == 0, start
            assert check_no_recurrence(traj, 0.05)
