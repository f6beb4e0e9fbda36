"""Root refinement and level cuts against the plain exact-sign searches.

bisect_root places a midpoint outside its certified bracket with no
exact sign, and RiskField.cuts reads each level's crossings from one
table of monotone pieces per c edge.  Both must return the floats of the
searches they replace, bit for bit: _reference_bisect below is the loop
that reads the exact sign at every midpoint, and real_roots, held to it
here, is the per-level Sturm search that cuts made for each c edge.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mehgrisk import polynomial
from mehgrisk.fieldfit import Rectangle, RiskField, published_field
from mehgrisk.polynomial import (
    ROOT_TOL,
    Polynomial,
    _sturm,
    bisect_root,
    isolate_roots,
    real_roots,
    sign_at,
)


def _reference_bisect(p, lo, hi):
    """bisect_root with an exact sign at every midpoint."""
    shi = sign_at(p, hi)
    if shi == 0:
        return hi
    if sign_at(p, lo) == shi:
        raise ValueError("bracket does not straddle a sign change")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        s = sign_at(p, mid)
        if s == 0:
            return mid
        if s == shi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def _planted(draw):
    """An integer polynomial, ascending, with roots m / 2^k: on the
    midpoints of the halvings of (-8, 8] for small k, at 8, or in pairs
    2^-40 apart, far closer than ROOT_TOL; or random integer coefficients."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(-2**60, 2**60), min_size=2,
                                   max_size=6)))
    p = (draw(st.sampled_from((1, -1, 3))),)
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("midpoint", "end", "pair", "any")))
        if kind == "midpoint":
            k = draw(st.integers(0, 12))
            m = draw(st.integers(-8 * 2**k, 8 * 2**k))
        elif kind == "end":
            k, m = 0, 8
        elif kind == "pair":
            k = 40
            m = draw(st.integers(-8 * 2**40, 8 * 2**40 - 1))
            p = _times(p, (-m - 1, 2**k))
        else:
            k = draw(st.integers(0, 60))
            m = draw(st.integers(-8 * 2**k, 8 * 2**k))
        p = _times(p, (-m, 2**k))
    return p


@settings(max_examples=400, deadline=None)
@given(p=_planted())
@example(p=_times((-1, 1), (-(2**40) - 1, 2**40)))   # 1 and 1 + 2^-40
@example(p=_times((-8, 1), (0, 1)))                   # roots at 0 and at b
def test_bisect_root_returns_the_exact_sign_loops_float(p):
    chain = _sturm(polynomial._primitive(list(p)))
    for lo, hi in isolate_roots(chain, -8.0, 8.0):
        try:
            want = _reference_bisect(chain[0], lo, hi)
        except ValueError:   # several roots a float apart
            with pytest.raises(ValueError):
                bisect_root(chain[0], lo, hi)
            continue
        assert bisect_root(chain[0], lo, hi) == want


def _reference_cuts(field, level):
    """RiskField.cuts as it searched each c edge with real_roots."""
    d = field.domain
    cuts = dict.fromkeys((d.t_min, d.t_max))
    for c_edge in (d.c_min, d.c_max):
        crossing = Polynomial.constant(level) - field.h - c_edge * field.g
        cuts.update(dict.fromkeys(real_roots(crossing, d.t_min, d.t_max), c_edge))
    cuts.update(dict.fromkeys(field.slope_roots))
    return list(sorted(cuts.items()))


coefficient = st.floats(-40.0, 40.0) | st.integers(-8, 8).map(lambda k: k / 4)
domains = st.builds(
    lambda t0, dt, c0, dc: Rectangle(t0, t0 + dt, c0, c0 + dc),
    st.floats(-2.0, 5.0) | st.integers(-2, 4).map(float),
    st.floats(0.01, 4.0) | st.sampled_from((0.5, 1.0, 4.0)),
    st.floats(-1.0, 2.0) | st.sampled_from((0.0, 0.2, 0.5)),
    st.floats(0.01, 3.5) | st.sampled_from((0.5, 3.3)),
)


def _edge_levels(field):
    """R at each c edge's stationary points and corners, and a float to
    either side: the levels at which a crossing meets a stationary point
    or an end of the stage range."""
    d = field.domain
    levels = []
    for c_edge in (d.c_min, d.c_max):
        edge = field.h + c_edge * field.g
        stages = (d.t_min, d.t_max, *real_roots(edge.derivative(), d.t_min, d.t_max))
        for t in stages:
            level = float(field.evaluate(t, c_edge))
            levels += [level, math.nextafter(level, -math.inf),
                       math.nextafter(level, math.inf)]
    return levels


@settings(max_examples=150, deadline=None)
@given(a=st.tuples(*[coefficient] * 5), b=st.tuples(*[coefficient] * 5),
       dom=domains, extra=st.lists(st.floats(-100.0, 100.0), max_size=3))
def test_cuts_equal_the_per_level_sturm_searches(a, b, dom, extra):
    field = RiskField(a, b, dom)
    for level in _edge_levels(field) + extra:
        assert list(field.cuts(level).items()) == _reference_cuts(field, level)


def test_published_cuts_take_no_sturm_search(monkeypatch):
    calls = []
    search = polynomial.real_roots
    monkeypatch.setattr(polynomial, "real_roots",
                        lambda *args: calls.append(args) or search(*args))
    field = published_field()
    for level in (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0):
        assert list(field.cuts(level).items()) == _reference_cuts(field, level)
    assert calls == []


# One field, c edge and level for each way the table hands a level to
# real_roots; R = g c + h on [1, 2] x [0.5, 1], the edge c = 0.5.
SQUARE = ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0))   # R = c + t^2


@pytest.mark.parametrize("a, b, level", [
    # R(., 0.5) = t + 0.5 has degree 1.
    ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0), 2.0),
    # 4.5 - t^2 - 0.5 is 0 at the end point t = 2.
    (*SQUARE, 4.5),
    # -(t - 1.5)^2 touches 0 at the stationary point 1.5: a double root.
    ((1.0, 0.0, 0.0, 0.0, 0.0), (2.25, -3.0, 1.0, 0.0, 0.0), 0.5),
    # 1 - t^2 is 0 at t = 1: the root's cell holds the range's left end.
    (*SQUARE, 1.5),
], ids=["degree-1", "zero-at-end", "stationary-root", "root-at-left-end"])
def test_each_fallback_gives_the_sturm_roots(monkeypatch, a, b, level):
    field = RiskField(a, b, Rectangle(1.0, 2.0, 0.5, 1.0))
    field.edge_pieces   # built before real_roots is watched
    calls = []
    search = polynomial.real_roots
    monkeypatch.setattr(polynomial, "real_roots",
                        lambda *args: calls.append(args) or search(*args))
    got = list(field.cuts(level).items())
    crossing = Polynomial.constant(level) - field.h - 0.5 * field.g
    assert crossing in [p for p, *_ in calls]   # the c = 0.5 edge fell back
    monkeypatch.undo()
    assert got == _reference_cuts(field, level)


def test_table_of_another_polynomial_falls_back():
    pieces = published_field().edge_pieces[0.2]
    other = Polynomial((1.0, -3.0, 0.5, 0.25, 0.0))
    assert pieces._level_roots(other) is None
    assert pieces.roots(other) == real_roots(other, 1.0, 5.0)
