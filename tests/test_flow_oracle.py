"""Written-out RK4 flow against a looped integrator.

The reference below loops where dynamics.flow writes each stage out in
its step and sums the tau column after its loop: grad runs Horner's
rule over the coefficients from the top one, acc = acc * t + coef, as
Polynomial.__call__ does, and value is R = g(t) c + h(t) from those
chains.  Each step is cut so that h |k1| stays within an eighth of the
domain's shorter side, and the step that leaves the domain ends on its
cubic Hermite interpolant, bisected in theta and clamped onto the
boundary.  dynamics.flow must give the same samples, bit for bit, and
the same exit reason.
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
    FLOW_STEP,
    FlowTrajectory,
    flow,
)
from mehgrisk.fieldfit import Rectangle, RiskField, published_field

_SPEED_FLOOR = 1e-12


def _reference_flow(field, start, step=FLOW_STEP, max_steps=20000):
    dom = field.domain
    t0, c0 = float(start[0]), float(start[1])
    a = field.a
    b = field.b
    gp = tuple(k * ak for k, ak in enumerate(a) if k > 0)
    hp = tuple(k * bk for k, bk in enumerate(b) if k > 0)
    reach = 0.125 * min(dom.t_max - dom.t_min, dom.c_max - dom.c_min)

    def horner(coefs, t):
        acc = coefs[-1]
        for coef in reversed(coefs[:-1]):
            acc = acc * t + coef
        return acc

    def value(t, c):
        return horner(a, t) * c + horner(b, t)

    def grad(t, c):
        return c * horner(gp, t) + horner(hp, t), horner(a, t)

    def rk4(t, c, h, k1):
        k2 = grad(t + 0.5 * h * k1[0], c + 0.5 * h * k1[1])
        k3 = grad(t + 0.5 * h * k2[0], c + 0.5 * h * k2[1])
        k4 = grad(t + h * k3[0], c + h * k3[1])
        return (
            t + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            c + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )

    def hermite(x0, x1, f0, f1, h):
        # p(theta) = x0 + theta (A + theta (B + theta C)), p(1) = x1,
        # p'(0) = h f0 and p'(1) = h f1.
        a_, d = h * f0, x1 - x0
        b_ = 3.0 * d - 2.0 * a_ - h * f1
        c_ = a_ + h * f1 - 2.0 * d
        return lambda theta: x0 + theta * (a_ + theta * (b_ + theta * c_))

    samples = [(0.0, t0, c0, value(t0, c0))]
    t, c, tau = t0, c0, 0.0
    exit_reason = EXIT_MAX_STEPS
    for _ in range(max_steps):
        k1 = grad(t, c)
        speed2 = k1[0] * k1[0] + k1[1] * k1[1]
        if speed2 < _SPEED_FLOOR * _SPEED_FLOOR:
            exit_reason = EXIT_STEP_UNDERFLOW
            break
        h = step if speed2 <= (reach / step) ** 2 else reach / math.sqrt(speed2)
        t_next, c_next = rk4(t, c, h, k1)
        if not dom.contains(t_next, c_next):
            f1 = grad(t_next, c_next)
            pt = hermite(t, t_next, k1[0], f1[0], h)
            pc = hermite(c, c_next, k1[1], f1[1], h)
            lo, hi = 0.0, 1.0
            out = (t_next, c_next)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if dom.contains(pt(mid), pc(mid)):
                    lo = mid
                else:
                    hi, out = mid, (pt(mid), pc(mid))
            t_clip = min(max(out[0], dom.t_min), dom.t_max)
            c_clip = min(max(out[1], dom.c_min), dom.c_max)
            samples.append(
                (tau + hi * h, t_clip, c_clip, value(t_clip, c_clip))
            )
            exit_reason = EXIT_LEFT_DOMAIN
            break
        t, c, tau = t_next, c_next, tau + h
        samples.append((tau, t, c, value(t, c)))
    return FlowTrajectory(tuple(samples), exit_reason)


def _bits(traj: FlowTrajectory) -> bytes:
    return b"".join(struct.pack("<4d", *s) for s in traj.samples)


def _assert_same(field, start, step, max_steps) -> FlowTrajectory:
    got = flow(field, start, step=step, max_steps=max_steps)
    want = _reference_flow(field, start, step=step, max_steps=max_steps)
    assert got.exit_reason == want.exit_reason
    # Same bits, signed zeros included, not merely equal floats.
    assert _bits(got) == _bits(want)
    return got


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
    assert _assert_same(field, start, step, max_steps).exit_reason == exit_reason


# The benchmark's sizes: the published field at its three steps with a
# budget of 4000.  Thousands of steps lock the tau column, summed after
# the loop, to the looped running sum tau + step.
@pytest.mark.parametrize(
    "start, step, exit_reason, length",
    [
        ((1.2, 0.3), 1e-3, EXIT_LEFT_DOMAIN, 1090),
        ((1.2, 0.3), 3e-4, EXIT_LEFT_DOMAIN, 3631),
        ((1.2, 0.3), 1e-4, EXIT_MAX_STEPS, 4001),
        ((4.0, 0.5), 1e-4, EXIT_LEFT_DOMAIN, 2184),
        ((2.5, 1.5), 3e-4, EXIT_LEFT_DOMAIN, 2230),
    ],
)
def test_long_flows_match_looped_rk4(start, step, exit_reason, length):
    got = _assert_same(published_field(), start, step, 4000)
    assert got.exit_reason == exit_reason
    assert len(got.samples) == length
