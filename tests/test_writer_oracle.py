"""The report's writers against the standard-library code they replace.

The references below are what the package used before its fast paths:
json.dumps(sort_keys=True, indent=2, allow_nan=False) for every JSON
file, a csv.writer loop for trajectory CSV and an f-string loop over
_Canvas.x/_Canvas.y for SVG polylines.  The package's writers must give
the same text, byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehgrisk.cli import main
from mehgrisk.dynamics import FlowTrajectory, write_trajectory_csv
from mehgrisk.fieldfit import Rectangle, write_json
from mehgrisk.svgplot import _Canvas


def _reference_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _written_json(data) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(data, path)
        return path.read_text()


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
        write_json(data, path)
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
    t0, t1 = sorted(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    c0, c1 = sorted(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    return Rectangle(t0, t1, c0, c1)


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


def test_polyline_skips_fewer_than_two_points():
    canvas = _Canvas(Rectangle(0.0, 1.0, 0.0, 1.0), "test")
    before = list(canvas.parts)
    canvas.polyline([], "#000000")
    canvas.polyline([(0.5, 0.5)], "#000000")
    assert canvas.parts == before
