"""Exact level curves against a scalar marching-squares reference.

The reference below is the original cell-by-cell marching squares: a
Python double loop over the cells of each level, saddle cells resolved by
the sign at their centre, and a stitcher keyed on vertex coordinates
rounded to 9 digits.  Its vertices interpolate the level on grid edges,
so they lie within a cell of the true level set, and so must the
package's exact curves; in the other direction, the exact curves must
pass within a cell of every reference vertex.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
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
    """Scalar marching squares over the field's own domain."""
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, grid + 1)
    cs = np.linspace(dom.c_min, dom.c_max, grid + 1)
    values = field.evaluate_grid(ts, cs)
    scale = float(np.max(np.abs(values))) + 1.0
    out = []
    for level in levels:
        vv = values - level
        vv = np.where(vv == 0.0, 1e-15 * scale, vv)
        above = vv > 0.0
        segments = []
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
                    segments.append((
                        _edge_point(e0, i, j, ts, cs, vv),
                        _edge_point(e1, i, j, ts, cs, vv),
                    ))
        out.append(LevelCurveSet(float(level), _stitch(segments)))
    return out


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
    """(field, levels, grid): levels between the grid's node values, and
    the field's saddle levels if it has any, none within rounding of a
    node value.

    At a level equal to a node value the reference counts the node as
    above it, so where the field only touches the level it draws a
    crossing of zero length that the exact curves rightly leave out; a
    level a few ulps from a node value puts a crossing within about
    1e-14 of that node, below the root isolation's 1e-10 resolution.
    """
    field, saddle_levels = draw(fields)
    grid = draw(st.integers(16, 128))
    dom = field.domain
    values = field.evaluate_grid(
        np.linspace(dom.t_min, dom.t_max, grid + 1),
        np.linspace(dom.c_min, dom.c_max, grid + 1),
    )
    assume(np.ptp(values) > 1e-6)
    flat = values.ravel()
    between = st.floats(0.0, 1.0).map(lambda q: float(np.quantile(flat, q)))
    levels = tuple(draw(st.lists(between, min_size=1, max_size=3))) + saddle_levels
    gap = np.abs(np.subtract.outer(levels, flat)).min()
    assume(gap > 1e-9 * (1.0 + np.abs(flat).max()))
    return field, levels, grid


def _cell_distances(points, lines, dom, grid) -> np.ndarray:
    """Distance in grid cells from each point to the nearest segment of
    the polylines: max(|dt| / t cell, |dc| / c cell) at the segment's
    nearest point, so 1 means a neighbouring cell."""
    cell = np.array([(dom.t_max - dom.t_min) / grid, (dom.c_max - dom.c_min) / grid])
    p = np.asarray(points, dtype=float).reshape(-1, 2)[:, None, :] / cell
    a = np.concatenate([line[:-1] for line in lines]).reshape(-1, 2) / cell
    ab = np.concatenate([line[1:] for line in lines]).reshape(-1, 2) / cell - a
    u, v = np.moveaxis(p - a, -1, 0)   # the offset p - a - s*ab is (u - s*x, v - s*y)
    x, y = ab.T
    # The largest component is convex in s, so its least value on [0, 1]
    # is at an end or where the components' sizes cross.
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = [(u - v) / (x - y), (u + v) / (x + y)]
    best = np.full(u.shape, np.inf)
    for s in (np.zeros_like(u), np.ones_like(u), *crossings):
        s = np.clip(np.nan_to_num(s, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
        best = np.minimum(best, np.maximum(abs(u - s * x), abs(v - s * y)))
    return best.min(axis=1)


def _assert_on_graph(field, level, line) -> None:
    """Every vertex lies on c*(t) = (L - h(t))/g(t), and the polyline ends
    at cuts of the level.  Vertices are rounded to 9 decimals, so c may
    miss c*(t) by 5e-10 plus the slope of c* times t's 5e-10."""
    t, c = np.array(line).T
    g = field.g(t)
    c_star = (level - field.h(t)) / g
    slope = (field.h_prime(t) + c_star * field.g_prime(t)) / g
    assert np.all(np.abs(c - c_star) <= 1e-9 * (1.0 + np.abs(slope))), level
    cuts = np.array(list(field.cuts(level)))
    for end in (t[0], t[-1]):
        assert np.abs(cuts - end).min() <= 1e-9, (level, end)


def _assert_near_reference(field, levels, grid) -> None:
    """Every exact polyline passes within one cell of the reference's
    polylines, and every reference vertex lies within one cell of the
    exact ones.

    The reference sees a level only where the node values change sign
    across it; where it sees none, such as a level the field touches on
    the domain's edge, there is nothing to compare.  Around a saddle
    point it cuts the corners of the level set and can miss a wedge
    thinner than a cell, so a polyline that ends on the vertical line
    through a saddle is not compared: it joins the rest of the curve
    there, and test_exact_curves_lie_on_the_level holds its vertices to
    the level.  A polyline whose stages hold no grid node inside them can
    lie between two node columns, where the reference has no crossing to
    see; it is held to the graph c* instead (_assert_on_graph).
    """
    got = level_curves(field, levels=levels, grid=grid)
    ref = reference_level_curves(field, levels, grid)
    dom = field.domain
    nodes = np.linspace(dom.t_min, dom.t_max, grid + 1)
    for mine, theirs in zip(got, ref):
        if not theirs.polylines:
            continue
        assert mine.polylines, mine.level
        saddle_stages = {line[0][0] for line in mine.polylines if len(line) == 2
                         and line[0][0] == line[1][0]}
        for line in mine.polylines:
            if {line[0][0], line[-1][0]} & saddle_stages:
                continue
            if not np.any((line[0][0] < nodes) & (nodes < line[-1][0])):
                _assert_on_graph(field, mine.level, line)
                continue
            near = _cell_distances(line, theirs.polylines, field.domain, grid)
            assert near.min() <= 1.0, (mine.level, near.min())
        vertices = [v for line in theirs.polylines for v in line]
        far = _cell_distances(vertices, mine.polylines, field.domain, grid)
        assert far.max() <= 1.0, (mine.level, far.max())


def test_arc_between_node_columns_is_held_to_the_graph():
    # A drawn field whose level dips into the domain from the c_min edge
    # for t in [3.1448, 3.3329], between the grid-17 node columns 3.1176
    # and 3.3529: the reference sees no crossing there, and the arc lay
    # 2.52 cells from its polylines.
    field = RiskField(
        (-1.3671875, 1.12109375, -0.21875, 0.0, 0.0),
        (0.0, -6.2734375, 1.6337890625, 0.0, -0.03125),
    )
    level, grid = -6.628389547987931, 17
    (cset,) = level_curves(field, levels=(level,), grid=grid)
    nodes = np.linspace(1.0, 5.0, grid + 1)
    assert any(not np.any((line[0][0] < nodes) & (nodes < line[-1][0]))
               for line in cset.polylines)
    _assert_near_reference(field, (level,), grid)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(random_fields))
def test_random_fields_match_reference(case):
    _assert_near_reference(*case)


# A drawn field with a saddle at t1 = 2.375, where g(2.375) is exactly
# 0.0 and h(2.375) is the level: graph() must not divide 0 by 0 there.
SADDLE_AT_2375 = (
    RiskField(
        (1.5973486097268557, -1.1580960683533004, 0.20443294007529889, 0.0, 0.0),
        (0.0, -12.986920050424285, 4.1765068828804655, -0.25,
         -0.04542197829910682),
    ),
    (-12.080122280853288,),
    16,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(saddle_fields))
@example(SADDLE_AT_2375)
def test_saddle_fields_match_reference(case):
    _assert_near_reference(*case)


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
    # Saddle points at cell centres of the 64-cell grid, so the cells
    # around them are ambiguous (cases 5 and 10) at the saddle levels and
    # the reference resolves them by the centre's sign.  The exact curves
    # cross there: the graph through the saddle, c = -h'/g' at its stage,
    # and the vertical line t = t0 on which R is the saddle level.
    field, saddle_levels = _two_saddle_field(
        2.03125, 4.03125, 0.99921875, 2.54609375, 1.0, 0.3, 0.1, 0.01
    )
    saddles = ((2.03125, 0.99921875), (4.03125, 2.54609375))
    assert all(_saddle_cell_count(field, level, 64) for level in saddle_levels)
    _assert_near_reference(field, saddle_levels, 64)
    dom = field.domain
    sets = level_curves(field, levels=saddle_levels, grid=64)
    for (t0, c0), cset in zip(saddles, sets):
        assert ((t0, dom.c_min), (t0, dom.c_max)) in cset.polylines
        ends = [v for line in cset.polylines for v in (line[0], line[-1])]
        assert any(abs(t - t0) < 1e-9 and abs(c - c0) < 1e-6 for t, c in ends)


def test_paper_report_levels_match_reference():
    levels = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    _assert_near_reference(published_field(), levels, 128)


def _slope_root_field(a, b, stage):
    """The field with slope terms a, a_0 moved so that g(stage) = 0: g
    changes sign in the domain (unless stage is a double root)."""
    a0 = -sum(ak * stage**k for k, ak in enumerate(a[1:], start=1))
    return RiskField((a0, *a[1:]), tuple(b)), ()


sign_changing_fields = st.builds(
    _slope_root_field,
    st.lists(coefficient, min_size=5, max_size=5),
    st.lists(coefficient, min_size=5, max_size=5),
    st.floats(1.2, 4.8),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.one_of(sign_changing_fields, saddle_fields),
    quantiles=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    grid=st.integers(16, 128),
)
# R = g(t)(c - 0.4375) + const: the minimum's level touches c = 3.5 only at
# t = 2.3, midway between the roots 1.5 and 3.1 of g, where c* rounds to
# exactly 3.5; the piece between the roots must not be drawn.
@example(case=_two_saddle_field(1.5, 3.1, 0.4375, 0.4375, 1.0, 0.0, 0.0, 0.0),
         quantiles=[0.0], grid=16)
def test_exact_curves_lie_on_the_level(case, quantiles, grid):
    field, saddle_levels = case
    dom = field.domain
    ts = np.linspace(dom.t_min, dom.t_max, 201)
    cs = np.linspace(dom.c_min, dom.c_max, 201)
    values = field.evaluate_grid(ts, cs)
    levels = tuple(float(np.quantile(values, q)) for q in quantiles) + saddle_levels
    with np.errstate(divide="raise", invalid="raise"):   # no 0/0, no x/0
        sets = level_curves(field, levels=levels, grid=grid)
    r_t = np.abs(
        cs[:, None] * np.polyval(np.polyder(field.a[::-1]), ts)[None]
        + np.polyval(np.polyder(field.b[::-1]), ts)[None]
    )
    r_c = np.abs(np.polyval(field.a[::-1], ts))[None]
    grad = float(np.max(np.hypot(r_t, r_c)))
    for cset in sets:
        spans = []
        for line in cset.polylines:
            v = np.array(line)
            assert len(v) >= 2
            assert np.all((dom.t_min <= v[:, 0]) & (v[:, 0] <= dom.t_max))
            assert np.all((dom.c_min <= v[:, 1]) & (v[:, 1] <= dom.c_max))
            t, c = v.T
            r_c_v = np.polyval(field.a[::-1], t)
            r_t_v = c * np.polyval(np.polyder(field.a[::-1]), t) + np.polyval(
                np.polyder(field.b[::-1]), t
            )
            bound = 1e-9 * (1.0 + max(grad, float(np.max(np.hypot(r_t_v, r_c_v)))))
            residual = np.abs(field.evaluate(t, c) - cset.level)
            assert residual.max() <= bound, (cset.level, residual.max(), bound)
            assert np.all(np.diff(t) >= 0.0)   # t-monotone
            if t[0] < t[-1]:
                spans.append((t[0], t[-1]))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start   # t-disjoint, vertical segments apart
