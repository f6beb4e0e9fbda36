"""The field's one evaluation order.

R = g(t) c + h(t), with g and h by Horner's rule from the top coefficient
as Polynomial.__call__ runs it.  Every way the package evaluates the
field must give those bits: the polynomials themselves on floats and
on arrays, evaluate on scalars and on arrays, and the R column of a flow's samples.  The value itself is checked
against the exact rational value, and against numpy's polyval, within
Horner's error bound (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 5.1).  The bound scales with
sum (|a_k c| + |b_k|) |t|^k, not sum |a_k c + b_k| |t|^k: g and h are
rounded apart, so a cancelling a_k c + b_k does not shrink their errors.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from mehgrisk.dynamics import flow
from mehgrisk.fieldfit import DEFAULT_DOMAIN, RiskField
from mehgrisk.polynomial import Polynomial

coefficient = st.floats(-1e3, 1e3) | st.sampled_from(
    (0.0, -0.0, 1e-14, -1e-14, 1.0, -1.0)
)
quintuple = st.tuples(*[coefficient] * 5)
value = st.floats(-10.0, 10.0) | st.sampled_from((0.0, -0.0, 1.0, -1.0))
points = st.lists(st.tuples(value, value), min_size=1, max_size=20)

U = 2.0**-53
TINY = 2.0**-1074   # the spacing of the subnormals


def bits(values) -> bytes:
    return b"".join(struct.pack("<d", x) for x in values)


def reference(a, b, t: float, c: float) -> float:
    return Polynomial(a)(t) * c + Polynomial(b)(t)


@settings(max_examples=300, deadline=None)
@given(a=quintuple, b=quintuple, pts=points)
@example(a=(0.0, 1e-14, 0.0, 0.0, 0.0), b=(0.0,) * 5,
         pts=[(1.1125369292536007e-308, 2.0)])
def test_every_evaluation_rounds_as_the_polynomials(a, b, pts):
    field = RiskField(a, b)
    ts = np.array([t for t, _ in pts])
    cs = np.array([c for _, c in pts])
    want = [reference(a, b, t, c) for t, c in pts]

    assert bits(field.evaluate(t, c) for t, c in pts) == bits(want)
    assert bits(field.evaluate(ts, cs).tolist()) == bits(want)
    g, h = field.g(ts), field.h(ts)
    assert bits(g.tolist()) == bits(Polynomial(a)(t) for t, _ in pts)
    assert bits(h.tolist()) == bits(Polynomial(b)(t) for t, _ in pts)
    assert bits((g * cs + h).tolist()) == bits(want)

    # gamma_8 = 8u / (1 - 8u) for g and h, |c| times the first, and two
    # roundings more for g c + h: gamma_10 < 12u of the scale.  A product
    # that underflows errs by an absolute eta instead, |eta| <= TINY / 2,
    # half the subnormal spacing (Higham, section 2.1: fl(x op y) =
    # (x op y)(1 + delta) + eta); a sum that underflows is exact.  Horner's
    # rule for g multiplies by t four times, and the eta of the k-th
    # product is multiplied by t in the 4 - k products after it, so g
    # carries at most TINY / 2 (1 + |t| + |t|^2 + |t|^3), and h as much.
    # g c takes g's times |c| and adds one product's eta.  The bound
    # doubles these terms, TINY for TINY / 2 (which is no float), to cover
    # the roundings each eta meets later, (1 + u)^10, and the bound's own.
    for t, c, r in zip(ts.tolist(), cs.tolist(), want):
        scale = Polynomial(tuple(
            abs(ak) * abs(c) + abs(bk) for ak, bk in zip(a, b)
        ))(abs(t))
        powers = 1 + abs(t) + abs(t) ** 2 + abs(t) ** 3
        bound = 12 * U * scale + TINY * ((abs(c) + 1) * powers + 1)
        exact = sum(
            (Fraction(ak) * Fraction(c) + Fraction(bk)) * Fraction(t) ** k
            for k, (ak, bk) in enumerate(zip(a, b))
        )
        assert abs(float(Fraction(r) - exact)) <= bound
        independent = npoly.polyval(t, a) * c + npoly.polyval(t, b)
        assert abs(r - independent) <= 2 * bound


@settings(max_examples=100, deadline=None)
@given(
    a=quintuple,
    b=quintuple,
    start=st.tuples(st.floats(1.0, 5.0), st.floats(0.2, 3.5)),
    step=st.sampled_from((1e-3, 0.05)) | st.floats(1e-4, 0.5),
)
def test_flow_samples_round_as_the_polynomials(a, b, start, step):
    d = DEFAULT_DOMAIN
    # Coefficients up to 1e3 keep every gradient finite on the domain.
    traj = flow(RiskField(a, b, d), start, step=step, max_steps=40)
    rs = [s[3] for s in traj.samples]
    assert bits(rs) == bits(reference(a, b, s[1], s[2]) for s in traj.samples)
