"""Gradient-flow integration and recurrence checks."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehgrisk.dynamics import (
    EXIT_LEFT_DOMAIN,
    EXIT_MAX_STEPS,
    EXIT_STEP_UNDERFLOW,
    FLOW_STEP,
    FlowTrajectory,
    check_no_recurrence,
    flow,
    write_trajectory_csv,
)
from mehgrisk.fieldfit import Rectangle, RiskField, published_field


def test_risk_increases_along_flow():
    f = published_field()
    traj = flow(f, (3.0, 1.0))
    rs = [s[3] for s in traj.samples]
    assert len(rs) > 100
    assert all(b > a for a, b in zip(rs, rs[1:]))
    assert traj.exit_reason == EXIT_LEFT_DOMAIN


def test_flow_endpoint_on_boundary():
    f = published_field()
    traj = flow(f, (3.0, 1.0))
    t_end, c_end = traj.samples[-1][1:3]
    d = f.domain
    edge_gap = min(
        abs(t_end - d.t_min), abs(t_end - d.t_max),
        abs(c_end - d.c_min), abs(c_end - d.c_max),
    )
    assert edge_gap < 1e-9
    assert d.contains(t_end, c_end)


@pytest.mark.parametrize("start", [(3.0, 3.5), (5.0, 3.5), (5.0, 2.0)])
def test_start_on_an_edge_the_flow_leaves_is_the_whole_trajectory(start):
    # grad R points out of D across the top edge at (3, 3.5), across both
    # edges at the corner (5, 3.5) and across the right edge at (5, 2).
    # Each start used to take a second sample a rounding away, on which R
    # did not rise: 6.420000000000039 -> 6.420000000000027 from (3, 3.5),
    # and 22.33 twice from (5, 3.5).
    f = published_field()
    traj = flow(f, start)
    assert traj.exit_reason == EXIT_LEFT_DOMAIN
    assert traj.samples.tolist() == [[0.0, *start, f.evaluate(*start)]]
    assert check_no_recurrence(traj, 0.05)
    # Just inside the edge the flow still steps to the boundary.
    t, c = start
    inside = (t - 1e-6 if t == 5.0 else t, c - 1e-6 if c == 3.5 else c)
    rs = flow(f, inside).samples[:, 3]
    assert len(rs) == 2 and rs[1] > rs[0]


def _report_starts(field):
    d, fracs = field.domain, (0.25, 0.5, 0.75)
    return [(d.t_min + ft * (d.t_max - d.t_min), d.c_min + fc * (d.c_max - d.c_min))
            for ft in fracs for fc in fracs]


@pytest.mark.parametrize("start", _report_starts(published_field()))
def test_report_exits_within_the_stated_tolerance(start):
    # The Hermite exit at the default step lands on the boundary within
    # 1e-7 of a run at a step eight times smaller (5.1e-8 at worst over
    # the nine starts; a clip along the chord missed by up to 9.2e-5).
    f = published_field()
    d = f.domain
    traj = flow(f, start)
    fine = flow(f, start, step=FLOW_STEP / 8, max_steps=10**6)
    assert traj.exit_reason == fine.exit_reason == EXIT_LEFT_DOMAIN
    t_end, c_end = traj.samples[-1, 1:3]
    assert d.contains(t_end, c_end)
    assert t_end in (d.t_min, d.t_max) or c_end in (d.c_min, d.c_max)
    assert math.dist((t_end, c_end), fine.samples[-1, 1:3]) < 1e-7


STEEP = RiskField((1e70,) * 5, (0.0,) * 5)


def _scaled(field, k):
    return RiskField(tuple(2.0**k * x for x in field.a),
                     tuple(2.0**k * x for x in field.b), field.domain)


@pytest.mark.parametrize(
    "field, start, step, cut, k",
    [
        (published_field(), (3.0, 1.0), FLOW_STEP, False, -3),
        (published_field(), (3.0, 1.0), FLOW_STEP, False, 5),
        (published_field(), (1.2, 0.3), 0.25, True, -3),
        (published_field(), (1.2, 0.3), 0.25, True, 5),
        # 2^5 times STEEP passes the supported range.
        (STEEP, (2.0, 1.025), FLOW_STEP, True, -3),
    ],
)
def test_flow_of_scaled_field_at_scaled_step(field, start, step, cut, k):
    # The flow of 2^k R at step h / 2^k is that of R at step h, bit for
    # bit, with tau divided and R multiplied by 2^k: (h / 2^k)(2^k k_i)
    # rounds as h k_i, and so does a step cut to reach / |k1|.
    want = flow(field, start, step=step)
    got = flow(_scaled(field, k), start, step=step / 2.0**k)
    assert got.exit_reason == want.exit_reason == EXIT_LEFT_DOMAIN
    scale = np.array([2.0**-k, 1.0, 1.0, 2.0**k])
    assert got.samples.tobytes() == (want.samples * scale).tobytes()
    # Every step but the last (to the exit) was cut, or none was.
    taus = want.samples[:-1, 0]
    assert (np.diff(taus) < 0.99 * step).all() == cut
    uncut = np.cumsum(np.r_[0.0, np.full(len(taus) - 1, step)])
    assert (taus == uncut).all() != cut


def test_flow_energy_identity():
    # Along the flow dR/dtau equals the squared gradient norm.
    f = published_field()
    traj = flow(f, (3.0, 1.0))
    s = traj.samples
    checked = 0
    for i in range(10, len(s) - 10, 10):
        tau0, _, _, r0 = s[i - 1]
        tau1, t, c, _ = s[i]
        tau2, _, _, r2 = s[i + 1]
        rate = (r2 - r0) / (tau2 - tau0)
        gt, gc = f.partial_t(t, c), f.g(t)
        speed_sq = gt * gt + gc * gc
        assert math.isclose(rate, speed_sq, rel_tol=0.1)
        checked += 1
    assert checked >= 10


def test_flow_fourth_order_convergence():
    # Richardson ratio between h, h/2, h/4 endpoints should sit near 2^4.
    f = published_field()
    ends = []
    for step, steps in ((0.05, 8), (0.025, 16), (0.0125, 32)):
        traj = flow(f, (3.0, 1.0), step=step, max_steps=steps)
        assert traj.exit_reason == EXIT_MAX_STEPS
        tau = traj.samples[-1][0]
        assert math.isclose(tau, 0.4, rel_tol=1e-12)
        ends.append(traj.samples[-1][1:3])
    err_coarse = math.dist(ends[0], ends[1])
    err_fine = math.dist(ends[1], ends[2])
    assert err_fine > 0
    assert 12.0 < err_coarse / err_fine < 20.0


def test_flow_zero_field_underflows():
    f = RiskField((0.0,) * 5, (0.0,) * 5)
    traj = flow(f, (3.0, 1.0), max_steps=50)
    assert traj.exit_reason == EXIT_STEP_UNDERFLOW
    assert len(traj.samples) == 1


def test_flow_evaluates_risk_once_per_trajectory(monkeypatch):
    calls = []
    evaluate = RiskField.evaluate

    def counted(self, t, c):
        calls.append(np.shape(t))
        return evaluate(self, t, c)

    monkeypatch.setattr(RiskField, "evaluate", counted)
    f = published_field()
    exits = set()
    for start, max_steps in (((3.0, 1.0), 20000), ((3.0, 1.0), 50)):
        traj = flow(f, start, max_steps=max_steps)
        exits.add(traj.exit_reason)
        # One array call covering every sample, the clipped one included.
        assert calls == [(len(traj.samples),)]
        calls.clear()
    traj = flow(RiskField((0.0,) * 5, (0.0,) * 5), (3.0, 1.0))
    assert calls == [(1,)]
    assert exits == {EXIT_LEFT_DOMAIN, EXIT_MAX_STEPS}


def _assert_risk_is_scalar_evaluate(field, traj):
    # The array call rounds every element as the scalar call does: same
    # repr, so same bits and same signed zeros.
    for _, t, c, r in traj.samples:
        assert repr(r) == repr(field.evaluate(t, c))


coefficient = (
    st.floats(-3.0, 3.0)
    | st.sampled_from((0.0, -0.0, 1e-14, -1e-14))
)


# c spans 0, so samples at c = -0.0 and +0.0 both occur.
SPANS_ZERO = Rectangle(1.0, 5.0, -1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(coefficient, min_size=5, max_size=5),
    b=st.lists(coefficient, min_size=5, max_size=5),
    start=st.tuples(st.floats(1.0, 5.0), st.floats(-1.0, 1.0)),
    step=st.sampled_from((1e-3, 0.05, 0.25)),
    max_steps=st.integers(1, 200),
)
def test_flow_risk_matches_scalar_evaluate(a, b, start, step, max_steps):
    field = RiskField(tuple(a), tuple(b), SPANS_ZERO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = flow(field, start, step=step, max_steps=max_steps)
    _assert_risk_is_scalar_evaluate(field, traj)


@pytest.mark.parametrize(
    "field, start",
    [
        (published_field(), (3.0, 1.0)),           # ends on a clipped sample
        (RiskField((-0.0,) * 5, (-0.0,) * 5, SPANS_ZERO), (2.0, -0.0)),
        (RiskField((-0.0,) * 5, (0.0, 1.0, -0.0, -0.0, -0.0), SPANS_ZERO),
         (1.5, -0.0)),
        # Steep fields in range: every step is cut to an eighth of the c
        # side, so R reaches about 1e73 and no stage overflows.
        (RiskField((1e70,) * 5, (0.0,) * 5), (5.0, 3.5)),
        (RiskField((1e70,) * 5, (-1e70,) * 5), (3.0, 1.0)),
        # The field's bound on the search range is within 1% of 2^250, the
        # most RiskField accepts.
        (RiskField((0.0,) * 4 + (7.9e70,), (0.0,) * 5), (5.0, 3.5)),
    ],
)
def test_flow_risk_matches_scalar_evaluate_edge_cases(field, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = flow(field, start, step=0.01, max_steps=2000)
    _assert_risk_is_scalar_evaluate(field, traj)


def test_flow_rejects_outside_start():
    f = published_field()
    with pytest.raises(ValueError):
        flow(f, (0.5, 1.0))
    with pytest.raises(ValueError):
        flow(f, (3.0, 4.0))


def test_flow_step_validation():
    f = published_field()
    with pytest.raises(ValueError):
        flow(f, (3.0, 1.0), step=0.0)
    with pytest.raises(ValueError):
        flow(f, (3.0, 1.0), max_steps=0)
    for steps in (1e3, 10.5, "1000", True):
        with pytest.raises(ValueError, match="max_steps: expected an integer >= 1, got "):
            flow(f, (3.0, 1.0), max_steps=steps)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="step: expected a finite number > 0, got "):
            flow(f, (3.0, 1.0), step=step)
    for step in ("0.01", None, 1e-3j, True):
        with pytest.raises(ValueError, match=re.escape(f"step: expected a number, got {step!r}")):
            flow(f, (3.0, 1.0), step=step)
    # A one-item start raised IndexError, and a start of strings ran.
    with pytest.raises(ValueError, match=re.escape("start: expected a list of 2, got (3.0,)")):
        flow(f, (3.0,))
    with pytest.raises(ValueError, match=r"start\[0\]: expected a number, got '3'"):
        flow(f, ("3", "1"))


def test_flow_and_witness_take_numpy_scalars_and_list_starts():
    f = published_field()
    traj = flow(f, (3.0, 1.0), step=1e-3, max_steps=200)
    # Equality compares the samples' bytes and the exit reasons.
    assert flow(f, [3.0, 1.0], step=np.float64(1e-3), max_steps=np.int64(200)) == traj
    assert check_no_recurrence(traj, radius=np.float32(0.05))


def test_trajectory_samples_are_one_read_only_array():
    traj = flow(published_field(), (3.0, 1.0), step=1e-3, max_steps=50)
    s = traj.samples
    assert isinstance(s, np.ndarray) and s.dtype == np.float64
    assert s.shape == (51, 4)
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = 1.0
    # Rows of four numbers, numpy ones and ints too, give the same array;
    # the trajectory keeps its own copy of an array it is given.
    rows = tuple(map(tuple, s.tolist()))
    assert FlowTrajectory(rows, traj.exit_reason) == traj
    assert FlowTrajectory(list(map(list, rows)), traj.exit_reason) == traj
    given_array = s.copy()
    assert FlowTrajectory(given_array, traj.exit_reason) == traj
    assert given_array.flags.writeable
    ints = FlowTrajectory(((0, np.int64(3), 1, np.float32(2.5)),), EXIT_MAX_STEPS)
    assert ints.samples.tolist() == [[0.0, 3.0, 1.0, 2.5]]


def test_trajectory_equality_is_by_bytes_and_exit_reason():
    row = (0.0, 3.0, 1.0, 2.0)
    base = FlowTrajectory((row,), EXIT_MAX_STEPS)
    assert base == FlowTrajectory(np.array([row]), EXIT_MAX_STEPS)
    assert hash(base) == hash(FlowTrajectory((row,), EXIT_MAX_STEPS))
    assert base != FlowTrajectory((row,), EXIT_LEFT_DOMAIN)
    assert base != FlowTrajectory((row, row), EXIT_MAX_STEPS)
    # A signed zero differs, and a NaN sample equals itself.
    assert base != FlowTrajectory(((-0.0, 3.0, 1.0, 2.0),), EXIT_MAX_STEPS)
    nan = FlowTrajectory(((0.0, 3.0, 1.0, math.nan),), EXIT_STEP_UNDERFLOW)
    assert nan == FlowTrajectory(((0.0, 3.0, 1.0, math.nan),), EXIT_STEP_UNDERFLOW)
    assert base != row


@pytest.mark.parametrize(
    "samples, message",
    [
        ((0.0, 3.0, 1.0, 2.0), "samples[0]: expected a list of 4, got 0.0"),
        (((0.0, 3.0, 1.0),), "samples[0]: expected a list of 4, got (0.0, 3.0, 1.0)"),
        (((0.0, 3.0, 1.0, "2"),), "samples[0][3]: expected a number, got '2'"),
        (((0.0, True, 1.0, 2.0),), "samples[0][1]: expected a number, got True"),
        ("0.0", "samples: expected a list, got '0.0'"),
        (np.zeros((3, 5)), "samples: expected an (n, 4) array of numbers, got array("),
        (np.zeros(4), "samples: expected an (n, 4) array of numbers, got array("),
        (np.zeros((2, 4), dtype=bool),
         "samples: expected an (n, 4) array of numbers, got array("),
        (np.array([["0", "1", "2", "3"]]),
         "samples: expected an (n, 4) array of numbers, got array("),
    ],
)
def test_trajectory_refuses_wrong_samples(samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FlowTrajectory(samples, EXIT_MAX_STEPS)


@pytest.mark.parametrize("reason", ["stalled", "", None, 3])
def test_trajectory_refuses_unknown_exit_reason(reason):
    message = (f"exit_reason: expected one of ('left_domain', 'max_steps', "
               f"'step_underflow'), got {reason!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        FlowTrajectory(((0.0, 3.0, 1.0, 2.0),), reason)


def test_trajectory_keeps_nan_and_inf_rows():
    # Rows are kept as given, NaN and inf included.
    rows = ((0.0, 3.0, 1.0, math.nan), (0.1, math.inf, -math.inf, math.nan))
    traj = FlowTrajectory(rows, EXIT_MAX_STEPS)
    assert np.isnan(traj.samples[:, 3]).all()
    assert traj.samples[1, 1:3].tolist() == [math.inf, -math.inf]


def test_all_grid_starts_leave_domain():
    f = published_field()
    d = f.domain
    for ft in np.linspace(0.05, 0.95, 10):
        for fc in np.linspace(0.05, 0.95, 10):
            start = (
                d.t_min + ft * (d.t_max - d.t_min),
                d.c_min + fc * (d.c_max - d.c_min),
            )
            traj = flow(f, start, step=5e-3, max_steps=20000)
            assert traj.exit_reason == EXIT_LEFT_DOMAIN, start


def test_no_recurrence_on_published_flow():
    f = published_field()
    traj = flow(f, (3.0, 1.0))
    assert check_no_recurrence(traj, radius=0.05)


def test_recurrence_detected_on_synthetic_loop():
    # Walk out past the radius and come back: that is a recurrence.
    samples = (
        (0.0, 3.0, 1.0, 0.0),
        (0.1, 3.3, 1.0, 0.1),
        (0.2, 3.01, 1.0, 0.2),
    )
    traj = FlowTrajectory(samples=samples, exit_reason=EXIT_MAX_STEPS)
    assert not check_no_recurrence(traj, radius=0.05)
    # A circle that never closes back within the radius is fine.
    ring = tuple(
        (0.01 * k, 3.0 + 0.001 * k, 1.0, float(k)) for k in range(100)
    )
    assert check_no_recurrence(
        FlowTrajectory(samples=ring, exit_reason=EXIT_MAX_STEPS), radius=0.05
    )


def test_recurrence_trivial_cases():
    one = FlowTrajectory(samples=((0.0, 3.0, 1.0, 2.0),),
                         exit_reason=EXIT_STEP_UNDERFLOW)
    assert check_no_recurrence(one, radius=0.05)
    with pytest.raises(ValueError):
        check_no_recurrence(one, radius=0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_recurrence_rejects_nonfinite_radius(radius):
    traj = flow(published_field(), (3.0, 1.0), step=0.01, max_steps=5)
    with pytest.raises(ValueError, match="radius: expected a finite number > 0, got "):
        check_no_recurrence(traj, radius=radius)


@pytest.mark.parametrize("radius", [True, "0.05", None])
def test_recurrence_rejects_a_radius_that_is_no_number(radius):
    traj = flow(published_field(), (3.0, 1.0), step=0.01, max_steps=5)
    with pytest.raises(ValueError, match="radius: expected a number, got "):
        check_no_recurrence(traj, radius=radius)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_recurrence_rejects_nonfinite_samples(bad):
    samples = ((0.0, 3.0, 1.0, 0.0), (0.1, 3.3, bad, 0.1), (0.2, 3.6, 1.0, 0.2))
    traj = FlowTrajectory(samples=samples, exit_reason=EXIT_MAX_STEPS)
    with pytest.raises(ValueError, match="samples must be finite"):
        check_no_recurrence(traj, radius=0.05)


def test_trajectory_csv_round_trip(tmp_path):
    f = published_field()
    traj = flow(f, (3.0, 1.0), step=0.01, max_steps=40)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "tau,t,c,R"
    assert len(rows) == len(traj.samples) + 1
    for line, sample in zip(rows[1:], traj.samples):
        got = tuple(float(x) for x in line.split(","))
        for g, want in zip(got, sample):
            assert math.isclose(g, want, rel_tol=1e-6, abs_tol=1e-9)
