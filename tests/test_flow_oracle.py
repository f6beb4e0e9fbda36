"""Unrolled RK4 flow against the looped integrator it replaces.

The reference below is the package's flow before its Horner chains were
unrolled: value, grad and rk4 loop over the coefficients with
acc = acc * t + coef from acc = 0.0.  dynamics.flow must give the same
samples, bit for bit, and the same exit reason.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mehgrisk.dynamics import (
    EXIT_LEFT_DOMAIN,
    EXIT_MAX_STEPS,
    EXIT_STEP_UNDERFLOW,
    FlowTrajectory,
    flow,
)
from mehgrisk.fieldfit import Rectangle, RiskField, published_field

_SPEED_FLOOR = 1e-12


def _reference_flow(field, start, step=1e-3, max_steps=20000):
    dom = field.domain
    t0, c0 = float(start[0]), float(start[1])
    a = field.a
    b = field.b
    gp = tuple(k * ak for k, ak in enumerate(a) if k > 0)
    hp = tuple(k * bk for k, bk in enumerate(b) if k > 0)

    def value(t, c):
        acc = 0.0
        for ak, bk in zip(reversed(a), reversed(b)):
            acc = acc * t + (ak * c + bk)
        return acc

    def grad(t, c):
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

    def rk4(t, c, h, k1):
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


def _bits(traj: FlowTrajectory) -> bytes:
    return b"".join(struct.pack("<4d", *s) for s in traj.samples)


def _assert_same(field, start, step, max_steps) -> str:
    got = flow(field, start, step=step, max_steps=max_steps)
    want = _reference_flow(field, start, step=step, max_steps=max_steps)
    assert got.exit_reason == want.exit_reason
    # Same bits, signed zeros included, not merely equal floats.
    assert _bits(got) == _bits(want)
    return got.exit_reason


coefficient = (
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    | st.sampled_from((0.0, -0.0, 1e-14, -1e-14))
)


@st.composite
def flows(draw):
    """A field, a start in its domain, a step and a step budget."""
    a = tuple(draw(st.lists(coefficient, min_size=5, max_size=5)))
    b = tuple(draw(st.lists(coefficient, min_size=5, max_size=5)))
    if draw(st.booleans()):
        domain = Rectangle(1.0, 5.0, 0.2, 3.5)
    else:
        t = draw(st.lists(st.floats(-4.0, 6.0), min_size=2, max_size=2,
                          unique=True))
        c = draw(st.lists(st.floats(-4.0, 6.0), min_size=2, max_size=2,
                          unique=True))
        try:
            domain = Rectangle(min(t), max(t), min(c), max(c))
        except ValueError:   # a side too narrow to resolve
            reject()
    start = (
        draw(st.floats(domain.t_min, domain.t_max)),
        draw(st.floats(domain.c_min, domain.c_max)),
    )
    step = draw(
        st.sampled_from((1e-3, 5e-3, 0.05, 0.25)) | st.floats(1e-4, 1.0)
    )
    max_steps = draw(st.integers(1, 300))
    return RiskField(a, b, domain), start, step, max_steps


@settings(max_examples=300, deadline=None)
@given(case=flows())
def test_flow_bitwise_equal_to_looped_rk4(case):
    field, start, step, max_steps = case
    _assert_same(field, start, step, max_steps)


# R = -(t - 3)^2: the flow settles on t = 3 and its speed decays below
# the floor after about 280 steps of 0.05.
SETTLING = RiskField((0.0,) * 5, (-9.0, 6.0, -1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "field, start, step, max_steps, exit_reason",
    [
        (published_field(), (3.0, 1.0), 1e-3, 20000, EXIT_LEFT_DOMAIN),
        (published_field(), (1.0, 0.2), 0.25, 20000, EXIT_LEFT_DOMAIN),
        (published_field(), (3.0, 1.0), 1e-3, 50, EXIT_MAX_STEPS),
        (SETTLING, (4.0, 1.0), 0.05, 2000, EXIT_STEP_UNDERFLOW),
        (RiskField((-0.0,) * 5, (1.0, -0.0, 0.0, -0.0, -0.0)), (2.0, 1.0),
         1e-3, 10, EXIT_STEP_UNDERFLOW),
        # All -0.0 slope terms and a constant climb in t: the c component
        # of every gradient is a signed zero.
        (RiskField((-0.0,) * 5, (0.0, 1.0, -0.0, -0.0, -0.0)), (1.5, 2.0),
         0.01, 1000, EXIT_LEFT_DOMAIN),
        (RiskField((-0.0, 0.0, -0.0, 0.0, -0.0), (0.0, -0.5, 0.0, 0.0, 0.0)),
         (4.0, 1.0), 0.5, 3, EXIT_MAX_STEPS),
    ],
)
def test_flow_exits_match_looped_rk4(field, start, step, max_steps, exit_reason):
    assert _assert_same(field, start, step, max_steps) == exit_reason


def test_signed_zeros_round_as_the_loop():
    # The loop starts each chain from 0.0 * t, so with every term -0.0 it
    # gives R = +0.0 and dR/dc = +0.0 at t > 0, where a chain started from
    # the leading term alone gives -0.0.
    zero = RiskField((-0.0,) * 5, (-0.0,) * 5)
    traj = flow(zero, (2.0, 1.0), step=0.01, max_steps=5)
    assert traj.exit_reason == EXIT_STEP_UNDERFLOW
    assert math.copysign(1.0, traj.samples[0][3]) == 1.0
    # A climb in t alone from c = -0.0: each step adds h/6 times a sum of
    # dR/dc zeros to c, which turns -0.0 into +0.0 only if they are +0.0.
    climb = RiskField(
        (-0.0,) * 5, (0.0, 1.0, -0.0, -0.0, -0.0), Rectangle(1.0, 5.0, -1.0, 1.0)
    )
    traj = flow(climb, (1.5, -0.0), step=0.01, max_steps=5)
    assert [math.copysign(1.0, s[2]) for s in traj.samples] == [-1.0] + [1.0] * 5
    _assert_same(zero, (2.0, 1.0), 0.01, 5)
    _assert_same(climb, (1.5, -0.0), 0.01, 5)
