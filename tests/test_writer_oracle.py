"""The report's writers against the standard-library code they replace.

The references below are what the package used before its fast paths:
json.dumps(sort_keys=True, indent=2, allow_nan=False) for every JSON
file, a csv.writer loop for trajectory CSV, an f-string loop over
_Canvas.x/_Canvas.y for SVG polylines, and scalar field-kernel calls
for the flow portrait's arrows and the curvature profile.  The
package's writers must give the same text, byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from mehgrisk.cli import main
from mehgrisk.dynamics import FlowTrajectory, write_trajectory_csv
from mehgrisk.fieldfit import MIN_SPAN, Rectangle, RiskField, json_text
from mehgrisk.svgplot import (
    ARROW_GRID,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PROFILE_SAMPLES,
    WIDTH,
    _Canvas,
    curvature_profile_svg,
    flow_portrait_svg,
)


def _reference_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _written_json(data) -> str:
    return json_text(data, "doc.json")


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = (
    finite
    | st.sampled_from((0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300))
    | finite.map(np.float64)
    | st.integers(-(10**40), 10**40)
)
leaves = (
    numbers
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.sampled_from(',[]":\n\\{}aé€\U0001f600 \t'))
)
keys = st.text(alphabet=st.sampled_from(',[]":\n\\aé€ '), max_size=6)
# Lists of numbers and lists of number rows (a polyline's vertices) take
# the writer's fast paths; mixed lists and dicts take the general one.
number_lists = st.lists(numbers, max_size=6) | st.tuples(numbers, numbers)
row_lists = st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=5)
documents = st.recursive(
    leaves | number_lists | row_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(data=st.dictionaries(keys, documents, max_size=5))
def test_write_json_matches_stdlib(data):
    assert _written_json(data) == _reference_json(data)


@settings(max_examples=100, deadline=None)
@given(data=documents)
def test_write_json_matches_stdlib_for_any_top_level(data):
    assert _written_json(data) == _reference_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"x": []},
        {"x": [[]], "y": [[1.0], []], "z": [[], [2.0]]},
        {"rows": [[1.0, 2], [3, True, None]], "mixed": [1.0, [2.0], 3]},
        {"deep": [[[1.0, 2.0], [3.0, 4.0]]], "empty": {}},
        {"s": ["a,b", "[1]", '"q"', "line\nbreak", "é€"]},
        {1: [1.0], 2: {"k": [[0.5, -0.0]]}},
        {"float_keys": {0.5: 1.0, -1.5: [2.0]}},
        {"np": [np.float64(0.1), 0.2], "np_rows": [[np.float64(1e-310), 1]]},
        {"tuples": (1.0, 2.0), "tuple_rows": [(1.0,), (2.0, 3.0)]},
    ],
)
def test_write_json_matches_stdlib_on_edge_cases(data):
    assert _written_json(data) == _reference_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {"x": math.nan},
        {"x": [1.0, math.inf]},
        {"x": [[1.0, 2.0], [-math.inf, 1.0]]},
        {"a": {"b": [{"c": [math.nan]}]}},
        {"x": [np.float64("nan")]},
    ],
)
def test_write_json_rejects_nonfinite_before_opening(data, tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="doc.json: .*not JSON compliant"):
        json_text(data, path)
    assert not path.exists()


def _report(tmp_path, *args):
    out = tmp_path / "out"
    assert main(["report", *args, "--grid", "32", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("source", ["paper", "table"])
def test_report_json_equals_stdlib_encoding(source, tmp_path):
    if source == "paper":
        out = _report(tmp_path, "--paper-dataset", "--seed", "1")
    else:
        table = tmp_path / "table.csv"
        table.write_text(
            "hq,1,2,3,4,5\n0.3,0.1,0.9,0.4,1.2,2.5\n"
            "1.1,0.4,2.1,1.6,3.3,5.9\n2.9,1.3,4.4,3.2,7.7,11.8\n"
        )
        out = _report(tmp_path, "--input", str(table), "--threshold", "2")
    text = (out / "report.json").read_text()
    bundle = json.loads(text)
    assert text == _reference_json(bundle)
    files = {
        "fit": "fit_report.json", "analysis": "analysis.json",
        "geometry": "geometry.json", "flow": "flow.json",
        "exposure": "exposure.json",
    }
    if source == "table":
        del files["exposure"]
    assert sorted(bundle) == sorted(files)
    for key, name in files.items():
        member = (out / name).read_text()
        assert member == _reference_json(json.loads(member))
        assert bundle[key] == json.loads(member)


def _reference_csv(samples) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["tau", "t", "c", "R"])
    for tau, t, c, r in samples:
        writer.writerow([f"{tau:.9g}", f"{t:.9g}", f"{c:.9g}", f"{r:.9g}"])
    return buf.getvalue()


any_float = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from((0.0, -0.0, 5e-324, 1e300, 123456789.5, 1e-5))
)


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(st.tuples(any_float, any_float, any_float, any_float),
                        min_size=1, max_size=30))
def test_trajectory_csv_matches_csv_writer(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flow.csv"
        write_trajectory_csv(FlowTrajectory(tuple(samples), "max_steps"), path)
        got = path.read_bytes()
    assert got == _reference_csv(samples).encode()


def _reference_polyline(canvas, points) -> str:
    return " ".join(f"{canvas.x(t):.2f},{canvas.y(c):.2f}" for t, c in points)


bound = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
coordinate = (
    st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
    | st.integers(-1000, 1000)
    | st.sampled_from((0.0, -0.0, 0.005, -0.005, 1.125))
)


@st.composite
def worlds(draw):
    """Worlds Rectangle accepts: no side too narrow to resolve."""
    t0, t1 = sorted(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    c0, c1 = sorted(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    try:
        return Rectangle(t0, t1, c0, c1)
    except ValueError:
        reject()


@settings(max_examples=200, deadline=None)
@given(
    world=worlds(),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=40),
    as_lists=st.booleans(),
)
def test_polyline_matches_fstring_loop(world, points, as_lists):
    if as_lists:
        points = [list(p) for p in points]
    canvas = _Canvas(world, "test")
    canvas.polyline(points, "#123456", 1.5)
    want = (
        f'<polyline points="{_reference_polyline(canvas, points)}" '
        'fill="none" stroke="#123456" stroke-width="1.5"/>'
    )
    assert canvas.parts[-1] == want


@settings(max_examples=100, deadline=None)
@given(lo=bound, fraction=st.floats(0.0, 0.9), axis=st.sampled_from(("t", "c")))
def test_narrow_world_is_refused(lo, fraction, axis):
    # A side a few ulps wide made the pixel scale overflow and the tick
    # loop run without end; Rectangle refuses it where the domain is made.
    hi = max(
        lo + fraction * MIN_SPAN * max(1.0, abs(lo)), math.nextafter(lo, math.inf)
    )
    sides = {"t": (lo, hi, 0.0, 1.0), "c": (0.0, 1.0, lo, hi)}[axis]
    with pytest.raises(ValueError, match=f"{axis} span .* narrower than"):
        Rectangle(*sides)


def test_polyline_skips_fewer_than_two_points():
    canvas = _Canvas(Rectangle(0.0, 1.0, 0.0, 1.0), "test")
    before = list(canvas.parts)
    canvas.polyline([], "#000000")
    canvas.polyline([(0.5, 0.5)], "#000000")
    assert canvas.parts == before


def _reference_flow_svg(field) -> str:
    """flow_portrait_svg's text without trajectories, its arrows from the
    scalar loop it ran before the field kernel took arrays."""
    dom = field.domain
    canvas = _Canvas(dom, "Gradient flow of the risk field")
    arrow_px = 0.45 * (WIDTH - MARGIN_L - MARGIN_R) / ARROW_GRID
    for i in range(ARROW_GRID):
        for j in range(ARROW_GRID):
            t = dom.t_min + (i + 0.5) * (dom.t_max - dom.t_min) / ARROW_GRID
            c = dom.c_min + (j + 0.5) * (dom.c_max - dom.c_min) / ARROW_GRID
            dt_val = field.partial_t(t, c)
            dc_val = field.g(t)
            norm = math.hypot(dt_val, dc_val)
            if norm < 1e-15:
                continue
            px, py = canvas.x(t), canvas.y(c)
            # Screen-space direction; the y axis points down in SVG.
            ux, uy = dt_val / norm, -dc_val / norm
            x1, y1 = px + ux * arrow_px, py + uy * arrow_px
            canvas.parts.append(
                f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{x1:.2f}" '
                f'y2="{y1:.2f}" stroke="#999999" stroke-width="1"/>'
            )
            hx, hy = x1 - 3.5 * (ux + uy * 0.5), y1 - 3.5 * (uy - ux * 0.5)
            gx, gy = x1 - 3.5 * (ux - uy * 0.5), y1 - 3.5 * (uy + ux * 0.5)
            canvas.parts.append(
                f'<polyline points="{hx:.2f},{hy:.2f} {x1:.2f},{y1:.2f} '
                f'{gx:.2f},{gy:.2f}" fill="none" stroke="#999999" '
                'stroke-width="1"/>'
            )
    canvas.axes()
    return canvas.render()


def _reference_curvature_svg(field) -> str:
    """curvature_profile_svg's text from the scalar profile it drew before
    the field kernel took arrays."""
    q = field.g_prime
    t_lo, t_hi = field.search_range
    ts = [
        t_lo + i * (t_hi - t_lo) / PROFILE_SAMPLES
        for i in range(PROFILE_SAMPLES + 1)
    ]
    ks = [-(q(t) ** 2) for t in ts]
    lo = min(ks)
    world = Rectangle(t_lo, t_hi, lo * 1.05 if lo < 0 else -1.0, max(0.5, -lo * 0.05))
    canvas = _Canvas(world, "Curvature numerator -(q(t))² and its zero stages")
    canvas.line(world.t_min, 0.0, world.t_max, 0.0, "#888888", 1.0, "4 3")
    canvas.polyline(list(zip(ts, ks)), "#1f77b4", 1.8)
    for t in field.g_prime_roots:
        canvas.line(t, world.c_min, t, world.c_max, "#d62728", 1.0, "5 4")
        canvas.text(canvas.x(t), MARGIN_T + 14, f"t={t:.2f}", size=10, color="#d62728")
    canvas.axes("stage t", "k(t)", ages=False)
    return canvas.render()


def _written_svg(write, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot.svg"
        write(*args, path)
        return path.read_text()


# On worlds(), where |t| and |c| stay within 1e4, coefficients within 1e54
# keep every field under RiskField's bound of 2^250, so none is refused.
big_coefficient = st.floats(-1e3, 1e3) | st.sampled_from(
    (0.0, -0.0, 1e-16, -3e-16, 1e50, -1e54))


@st.composite
def fields(draw):
    """Fields on worlds(), some with slopes near RiskField's bound."""
    a, b = (draw(st.tuples(*[big_coefficient] * 5)) for _ in "ab")
    return RiskField(a, b, draw(worlds()))


SQUARE = Rectangle(-1.0, 1.0, -1.0, 1.0)
# R = t c + 1e-16 t on SQUARE: the arrow at (0, 0) has gradient (1e-16, 0).
ONE_FLAT_ARROW = RiskField((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 1e-16, 0.0, 0.0, 0.0), SQUARE)
# Gradient (dt, dc) the same at every arrow, with math.hypot(dt, dc) just
# below 1e-15 and np.hypot(dt, dc) at 1e-15 or above.
FLAT = RiskField((2.383528979773194e-16, 0.0, 0.0, 0.0, 0.0),
                 (0.0, 9.711786118041385e-16, 0.0, 0.0, 0.0))
# The field's bound on the search range is within 1% of 2^250.
STEEP = RiskField((0.0, 0.0, 0.0, 0.0, 7.9e70), (0.0,) * 5)


def test_flow_and_curvature_examples_reach_the_cases_they_name():
    # An arrow is a line and a polyline in its grey.
    arrows = [_written_svg(flow_portrait_svg, f, ()).count('"#999999"') // 2
              for f in (ONE_FLAT_ARROW, FLAT)]
    assert arrows == [ARROW_GRID**2 - 1, 0]
    # STEEP is at the bound: 3% more c range is past it.
    with pytest.raises(ValueError, match="outside the supported range"):
        STEEP.with_domain(Rectangle(1.0, 5.0, 0.2, 3.6))


@settings(max_examples=150, deadline=None)
@given(field=fields())
@example(field=ONE_FLAT_ARROW)
@example(field=FLAT)
@example(field=STEEP)
def test_flow_portrait_matches_scalar_arrow_loop(field):
    assert _written_svg(flow_portrait_svg, field, ()) == _reference_flow_svg(field)


@settings(max_examples=150, deadline=None)
@given(field=fields())
@example(field=STEEP)
@example(field=FLAT)
def test_curvature_profile_matches_scalar_profile(field):
    # A field whose roots of q the search refuses gets the same error.
    try:
        want = _reference_curvature_svg(field)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _written_svg(curvature_profile_svg, field)
        return
    assert _written_svg(curvature_profile_svg, field) == want
