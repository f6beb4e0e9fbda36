"""Vectorized marching squares against the scalar reference, byte for byte.

The reference below is the original cell-by-cell implementation: a
Python double loop over the cells of each level and a stitcher keyed on
vertex coordinates rounded to 9 digits.  The package's level_curves must
reproduce its JSON output exactly.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mehgrisk.analysis import LevelCurveSet, level_curves
from mehgrisk.fieldfit import RiskField, published_field

_SEGMENT_TABLE = {
    0: (), 15: (),
    1: ((0, 3),), 14: ((0, 3),),
    2: ((0, 1),), 13: ((0, 1),),
    3: ((1, 3),), 12: ((1, 3),),
    4: ((1, 2),), 11: ((1, 2),),
    6: ((0, 2),), 9: ((0, 2),),
    7: ((2, 3),), 8: ((2, 3),),
}


def _edge_id(edge, i, j):
    # Grid edge behind a cell edge: ("h", j, i) runs from node (j, i) to
    # (j, i + 1), ("v", j, i) from node (j, i) to (j + 1, i).
    return (("h", j, i), ("v", j, i + 1), ("h", j + 1, i), ("v", j, i))[edge]


def _edge_point(edge, i, j, ts, cs, vv):
    if edge == 0:
        v0, v1 = vv[j, i], vv[j, i + 1]
        s = v0 / (v0 - v1)
        return float(ts[i] + s * (ts[i + 1] - ts[i])), float(cs[j])
    if edge == 1:
        v0, v1 = vv[j, i + 1], vv[j + 1, i + 1]
        s = v0 / (v0 - v1)
        return float(ts[i + 1]), float(cs[j] + s * (cs[j + 1] - cs[j]))
    if edge == 2:
        v0, v1 = vv[j + 1, i], vv[j + 1, i + 1]
        s = v0 / (v0 - v1)
        return float(ts[i] + s * (ts[i + 1] - ts[i])), float(cs[j + 1])
    v0, v1 = vv[j, i], vv[j + 1, i]
    s = v0 / (v0 - v1)
    return float(ts[i]), float(cs[j] + s * (cs[j + 1] - cs[j]))


def _key(point):
    return (round(point[0], 9), round(point[1], 9))


def _stitch(segments):
    adjacency = {}
    for idx, (p, q) in enumerate(segments):
        adjacency.setdefault(_key(p), []).append(idx)
        adjacency.setdefault(_key(q), []).append(idx)
    used = [False] * len(segments)
    polylines = []

    def walk(start_key):
        chain = [start_key]
        key = start_key
        while True:
            nxt = None
            for idx in adjacency[key]:
                if not used[idx]:
                    nxt = idx
                    break
            if nxt is None:
                break
            used[nxt] = True
            p, q = segments[nxt]
            key = _key(q) if _key(p) == key else _key(p)
            chain.append(key)
        return chain

    loose = sorted(k for k, ids in adjacency.items() if len(ids) % 2 == 1)
    for key in loose:
        if any(not used[i] for i in adjacency[key]):
            polylines.append(walk(key))
    for idx in range(len(segments)):
        if not used[idx]:
            used[idx] = True
            p, q = segments[idx]
            chain = walk(_key(q))
            chain.insert(0, _key(p))
            polylines.append(chain)
    return tuple(tuple(chain) for chain in polylines)


def reference_level_curves(field, levels, grid):
    """Scalar marching squares over the field's own domain.

    Returns the curve sets and, per level, whether rounding to 9 digits
    gave two distinct grid-edge crossings the same stitching key.
    """
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, grid + 1)
    cs = np.linspace(dom.c_min, dom.c_max, grid + 1)
    values = field.evaluate_grid(ts, cs)
    scale = float(np.max(np.abs(values))) + 1.0
    out = []
    merged = []
    for level in levels:
        vv = values - level
        vv = np.where(vv == 0.0, 1e-15 * scale, vv)
        above = vv > 0.0
        segments = []
        keys = {}
        for j in range(grid):
            for i in range(grid):
                idx = (
                    int(above[j, i])
                    | int(above[j, i + 1]) << 1
                    | int(above[j + 1, i + 1]) << 2
                    | int(above[j + 1, i]) << 3
                )
                if idx in (0, 15):
                    continue
                if idx in (5, 10):
                    center = field.evaluate(
                        0.5 * (ts[i] + ts[i + 1]), 0.5 * (cs[j] + cs[j + 1])
                    ) - level
                    if (center > 0.0) == (idx == 5):
                        pairs = ((0, 1), (2, 3))
                    else:
                        pairs = ((0, 3), (1, 2))
                else:
                    pairs = _SEGMENT_TABLE[idx]
                for e0, e1 in pairs:
                    p = _edge_point(e0, i, j, ts, cs, vv)
                    q = _edge_point(e1, i, j, ts, cs, vv)
                    keys[_edge_id(e0, i, j)] = _key(p)
                    keys[_edge_id(e1, i, j)] = _key(q)
                    segments.append((p, q))
        out.append(LevelCurveSet(float(level), _stitch(segments)))
        merged.append(len(set(keys.values())) < len(keys))
    return out, merged


def _json_bytes(sets) -> bytes:
    return json.dumps([s.as_json_dict() for s in sets], sort_keys=True).encode()


def _two_saddle_field(t1, t2, c1, c2, k, b0, b3, b4):
    """A field with saddle points at (t1, c1) and (t2, c2), and their levels.

    dR/dc = g(t) = k (t - t1)(t - t2) vanishes at both stages; b1 and b2
    are solved for so that dR/dt = h'(t) + c g'(t) vanishes there too.
    Every critical point of a field affine in c is a saddle.
    """
    a = (k * t1 * t2, -k * (t1 + t2), k, 0.0, 0.0)
    rhs = [-k * (2.0 * t - t1 - t2) * c - 3.0 * b3 * t**2 - 4.0 * b4 * t**3
           for t, c in ((t1, c1), (t2, c2))]
    b2 = (rhs[1] - rhs[0]) / (2.0 * (t2 - t1))
    b1 = rhs[0] - 2.0 * b2 * t1
    field = RiskField(a, (b0, b1, b2, b3, b4))
    return field, (field.evaluate(t1, c1), field.evaluate(t2, c2))


coefficient = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
random_fields = st.builds(
    lambda a, b: (RiskField(tuple(a), tuple(b)), ()),
    st.lists(coefficient, min_size=5, max_size=5),
    st.lists(coefficient, min_size=5, max_size=5),
)
saddle_fields = st.builds(
    _two_saddle_field,
    st.floats(1.2, 2.9),
    st.floats(3.1, 4.8),
    st.floats(0.4, 3.3),
    st.floats(0.4, 3.3),
    st.floats(0.2, 3.0) | st.floats(-3.0, -0.2),
    coefficient,
    st.floats(-0.3, 0.3),
    st.floats(-0.05, 0.05),
)


@st.composite
def cases(draw, fields):
    """(field, levels, grid): levels from the grid's node values, between
    them, and the field's saddle levels if it has any."""
    field, saddle_levels = draw(fields)
    grid = draw(st.integers(16, 128))
    dom = field.domain
    values = field.evaluate_grid(
        np.linspace(dom.t_min, dom.t_max, grid + 1),
        np.linspace(dom.c_min, dom.c_max, grid + 1),
    )
    assume(np.ptp(values) > 1e-6)
    flat = values.ravel()
    # Node values run the nudge path; quantiles fall between nodes.
    node_levels = st.integers(0, flat.size - 1).map(lambda k: float(flat[k]))
    between = st.floats(0.0, 1.0).map(lambda q: float(np.quantile(flat, q)))
    levels = draw(st.lists(st.one_of(node_levels, between), min_size=1, max_size=3))
    return field, tuple(levels) + saddle_levels, grid


def _segments(cset: LevelCurveSet) -> list:
    """The polylines' consecutive vertex pairs as a sorted multiset."""
    return sorted(
        tuple(sorted(pair)) for line in cset.polylines for pair in zip(line, line[1:])
    )


def _assert_matches_reference(field, levels, grid) -> bool:
    """Compare with the reference; True when every level matched byte for byte.

    Keyed on rounded coordinates, the reference joins two distinct
    crossings that round alike (a level equal to a node value puts
    crossings within about 1e-15 of the node).  Stitching on grid edges
    keeps them apart, so where that happened the polylines may be grouped
    and ordered differently, but they must still be made of exactly the
    same segments.
    """
    got = level_curves(field, levels=levels, grid=grid)
    ref, merged = reference_level_curves(field, levels, grid)
    identical = True
    for mine, theirs, joined in zip(got, ref, merged):
        if _json_bytes([mine]) != _json_bytes([theirs]):
            identical = False
            assert joined, f"level {mine.level} differs with no crossings merged"
            assert _segments(mine) == _segments(theirs)
    return identical


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(random_fields))
def test_random_fields_match_reference(case):
    _assert_matches_reference(*case)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(saddle_fields))
def test_saddle_fields_match_reference(case):
    _assert_matches_reference(*case)


def _saddle_cell_count(field, level, grid) -> int:
    dom = field.domain
    above = field.evaluate_grid(
        np.linspace(dom.t_min, dom.t_max, grid + 1),
        np.linspace(dom.c_min, dom.c_max, grid + 1),
    ) > level
    crossed = above[:-1, :-1] != above[:-1, 1:]
    return int(np.count_nonzero(
        crossed
        & (above[:-1, :-1] == above[1:, 1:])
        & (above[:-1, 1:] == above[1:, :-1])
    ))


def test_saddle_cells_take_the_center_sign():
    # Saddle points at cell centers of the 64-cell grid, so the cells
    # around them are ambiguous (cases 5 and 10) at the saddle levels.
    field, saddle_levels = _two_saddle_field(
        2.03125, 4.03125, 0.99921875, 2.54609375, 1.0, 0.3, 0.1, 0.01
    )
    assert all(_saddle_cell_count(field, level, 64) for level in saddle_levels)
    assert _assert_matches_reference(field, saddle_levels, 64)


def test_paper_report_levels_match_reference():
    levels = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    assert _assert_matches_reference(published_field(), levels, 128)


def test_crossings_that_round_alike_stay_apart():
    # R = -c t^4 equals the level at the left-edge node (1, 0.40625) of the
    # 16-cell grid.  The crossings on the grid edges above and to the right
    # of that node both lie within 1e-15 of it.  The reference merged them
    # and split the curve in two; stitched on grid edges it is one polyline.
    field = RiskField((0.0, 0.0, 0.0, 0.0, -1.0), (0.0,) * 5)
    (curve,) = level_curves(field, levels=(-0.40625,), grid=16)
    (ref,), (merged,) = reference_level_curves(field, (-0.40625,), 16)
    assert merged
    assert len(ref.polylines) == 2
    assert len(curve.polylines) == 1
    assert curve.polylines[0][0] == curve.polylines[0][1] == (1.0, 0.40625)
    assert _segments(curve) == _segments(ref)
