"""The field kernel against the per-call rebuilds it replaced.

Before RiskField cached g, h, g' and h', every layer rebuilt them from
the coefficients on each call: Polynomial(a), Polynomial(b) and their
derivatives.  The references below are those expressions, kept verbatim;
the cached polynomials and the partials must equal them bit for bit,
signed zeros included.
The regression loop that build_field used to run is kept the same way.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from mehgrisk.fieldfit import (
    DEFAULT_NODES,
    RiskField,
    RiskTable,
    build_field,
    interpolate,
    regress_linear,
)
from mehgrisk.polynomial import Polynomial

SIGNED_ZEROS = (0.0, -0.0)

coefficient = st.floats(-1e6, 1e6) | st.sampled_from(
    SIGNED_ZEROS + (5e-324, -5e-324, 1e-300, 1.0, -1.0)
)
point = st.floats(-1e3, 1e3) | st.sampled_from(SIGNED_ZEROS + (1.0, 5.0))
quintuple = st.tuples(*[coefficient] * 5)


def bits(*values: float) -> list[bytes]:
    return [struct.pack("<d", x) for x in values]


def same(p: Polynomial, q: Polynomial) -> bool:
    return bits(*p.coefficients) == bits(*q.coefficients)


@settings(max_examples=400, deadline=None)
@given(a=quintuple, b=quintuple, t=point, c=point)
def test_cached_polynomials_and_partials_match_rebuilds(a, b, t, c):
    field = RiskField(a, b)
    g, h = Polynomial(field.a), Polynomial(field.b)

    assert same(field.g, g)
    assert same(field.h, h)
    assert same(field.g_prime, g.derivative())
    assert same(field.h_prime, h.derivative())
    # The slope's zero top terms change nothing but the length of g'.
    top = Polynomial(g.coefficients[: g.degree + 1] or (0.0,))
    n = field.g_prime.degree + 1
    assert bits(*field.g_prime.coefficients[:n]) == bits(
        *top.derivative().coefficients[:n]
    )

    r_t = c * g.derivative()(t) + h.derivative()(t)
    r_c = g(t)
    assert bits(field.partial_t(t, c)) == bits(r_t)
    assert bits(field.g(t)) == bits(r_c)


def _reference_build_field(table: RiskTable) -> RiskField:
    interpolants = [interpolate(table.nodes, row) for row in table.values]
    a = []
    b = []
    for k in range(5):
        ys = tuple(p.coefficients[k] for p in interpolants)
        slope, intercept = regress_linear(table.concentrations, ys)
        a.append(slope)
        b.append(intercept)
    return RiskField(tuple(a), tuple(b))


@settings(max_examples=200, deadline=None)
@given(
    concentrations=st.lists(
        st.integers(0, 1000).map(lambda k: k / 100), min_size=2, max_size=6,
        unique=True,
    ),
    data=st.data(),
)
def test_build_field_matches_reference_regression(concentrations, data):
    value = st.floats(-50.0, 50.0) | st.sampled_from(SIGNED_ZEROS)
    values = data.draw(
        st.lists(
            st.tuples(*[value] * 5),
            min_size=len(concentrations), max_size=len(concentrations),
        )
    )
    table = RiskTable(tuple(concentrations), DEFAULT_NODES, tuple(values))
    got = build_field(table)
    want = _reference_build_field(table)
    assert bits(*got.a, *got.b) == bits(*want.a, *want.b)
