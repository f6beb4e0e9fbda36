"""Field construction: interpolation, regression, assembly, IO."""

from __future__ import annotations

import json
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mehgrisk.analysis import level_curves, mean_risk, mean_risk_simpson, risk_region_area
from mehgrisk.geometry import build_geometry_report
from mehgrisk.polynomial import Polynomial
from mehgrisk.svgplot import curvature_profile_svg
from mehgrisk.fieldfit import (
    DEFAULT_NODES,
    MAX_MAGNITUDE,
    PUBLISHED_A,
    PUBLISHED_B,
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    from_json_data,
    interpolate,
    published_field,
    read_json,
    regress_linear,
    json_text,
    survey_risk_table,
)

# Published per-concentration quartics (ascending powers) and the linear
# concentration laws they regress to; used as cross-layer oracles.
COEFF_ROWS = {
    0.27: (-5.25, 8.93, -4.54, 0.92, -0.06),
    2.43: (-47.6, 81.11, -41.39, 8.48, -0.60),
    3.33: (-64.8, 110.28, -56.12, 11.47, -0.82),
}
PUBLISHED_LINES = (
    (-19.48, -0.04),
    (33.17, 0.09),
    (-16.89, -0.06),
    (3.45, 0.007),
    (-0.24, 0.006),
)


def test_interpolate_constant():
    p = interpolate((1, 2, 3, 4, 5), (1, 1, 1, 1, 1))
    assert abs(p.coefficients[0] - 1.0) < 1e-12
    assert all(abs(c) < 1e-12 for c in p.coefficients[1:])


def test_interpolate_exact_monomial():
    p = interpolate((1, 2, 3, 4, 5), (1, 16, 81, 256, 625))
    expected = (0.0, 0.0, 0.0, 0.0, 1.0)
    for got, want in zip(p.coefficients, expected):
        assert abs(got - want) < 1e-9


def test_interpolate_node_residuals_random():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        nodes = np.sort(rng.uniform(-5, 5, 5))
        if np.min(np.diff(nodes)) < 0.3:
            continue
        values = rng.uniform(-50, 50, 5)
        p = interpolate(tuple(nodes), tuple(values))
        for x, y in zip(nodes, values):
            assert abs(p(float(x)) - float(y)) < 1e-9


def test_interpolate_arity_and_duplicates():
    with pytest.raises(ValueError):
        interpolate((1, 2, 3, 4), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        interpolate((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        interpolate((1, 2, 2, 4, 5), (1, 2, 3, 4, 5))
    # A NaN value gave NaN coefficients.
    with pytest.raises(ValueError, match=r"values\[2\]: expected a finite number, got nan"):
        interpolate((1, 2, 3, 4, 5), (0, 1, math.nan, 3, 4))


def test_survey_nodes_reproduce_published_quartic():
    table = survey_risk_table()
    assert table.nodes == DEFAULT_NODES
    row = table.values[0]     # 0.27 mg/kg column
    p = interpolate(table.nodes, row)
    for got, want in zip(p.coefficients, COEFF_ROWS[0.27]):
        assert abs(got - want) < 0.25
    # The match is actually to rounding precision, which pins the node
    # choice: (1..5) with zero risk at stage 1 regenerates the published
    # row including its unrounded leading coefficient -0.0663.
    assert abs(p.coefficients[4] - (-0.066333)) < 1e-6


def test_regress_two_points():
    assert regress_linear((0.0, 1.0), (0.0, 1.0)) == (1.0, 0.0)


def test_regress_published_rows():
    xs = tuple(COEFF_ROWS)
    slope, intercept = regress_linear(xs, tuple(COEFF_ROWS[c][3] for c in xs))
    assert abs(slope - 3.457) < 0.002
    assert abs(intercept - 0.008) < 0.002
    slope, intercept = regress_linear(xs, tuple(COEFF_ROWS[c][2] for c in xs))
    assert abs(slope - (-16.894)) < 0.002
    assert abs(intercept - (-0.060)) < 0.002


def test_regress_degenerate():
    with pytest.raises(ValueError):
        regress_linear((2.0, 2.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        regress_linear((1.0,), (1.0,))
    # A NaN gave (nan, nan).
    with pytest.raises(ValueError, match=r"xs\[2\]: expected a finite number, got nan"):
        regress_linear((1, 2, math.nan), (1, 2, 3))


def test_regress_matches_grid_refinement():
    xs = (0.0, 1.0, 2.0)
    ys = (1.0, 3.0, 4.0)
    slope, intercept = regress_linear(xs, ys)

    def sse(m, q):
        return sum((y - (m * x + q)) ** 2 for x, y in zip(xs, ys))

    best = (1.0, 1.0)
    span = 5.0
    for _ in range(6):
        m0, q0 = best
        grid_m = np.linspace(m0 - span, m0 + span, 41)
        grid_q = np.linspace(q0 - span, q0 + span, 41)
        best = min(
            ((m, q) for m in grid_m for q in grid_q),
            key=lambda mq: sse(*mq),
        )
        span /= 8.0
    resolution = 2 * 5.0 / 40 / 8.0**5
    assert abs(best[0] - slope) < 3 * resolution + 1e-9
    assert abs(best[1] - intercept) < 3 * resolution + 1e-9


def test_build_field_recovers_synthetic():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = tuple(rng.uniform(-10, 10, 5))
        b = tuple(rng.uniform(-10, 10, 5))
        true = RiskField(a, b)
        concs = (0.27, 1.1, 2.43, 3.33)
        nodes = DEFAULT_NODES
        values = tuple(
            tuple(true.evaluate(t, c) for t in nodes) for c in concs
        )
        table = RiskTable(concs, nodes, values)
        rebuilt = build_field(table)
        for got, want in zip(rebuilt.a + rebuilt.b, a + b):
            assert abs(got - want) < 1e-8


def test_build_field_single_concentration_errors():
    table = RiskTable((0.27,), DEFAULT_NODES, ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError):
        build_field(table)


def test_field_from_published_rows_matches_field_constants():
    # The published quartics read at the stage nodes make a table whose
    # fit regresses their rows to the published concentration laws.
    values = tuple(
        tuple(Polynomial(row)(t) for t in DEFAULT_NODES)
        for row in COEFF_ROWS.values()
    )
    field = build_field(RiskTable(tuple(COEFF_ROWS), DEFAULT_NODES, values))
    for k, (slope, intercept) in enumerate(PUBLISHED_LINES):
        assert abs(field.a[k] - slope) < 0.02
        assert abs(field.b[k] - intercept) < 0.02


def test_published_field_constants():
    f = published_field()
    assert f.a == (-19.48, 33.17, -16.89, 3.45, -0.24)
    assert f.b == (-0.04, 0.09, -0.06, 0.007, 0.006)
    assert f.domain == Rectangle(1.0, 5.0, 0.2, 3.5)
    assert abs(f.evaluate(1.0, 0.27) - 0.0057) < 1e-4
    assert abs(f.g(1.0) - 0.01) < 1e-12


def test_field_affine_in_concentration():
    f = published_field()
    rng = np.random.default_rng(31)
    for _ in range(300):
        t = float(rng.uniform(1, 5))
        c1, c2 = rng.uniform(0.2, 3.5, 2)
        lam = float(rng.uniform(0, 1))
        mixed = f.evaluate(t, lam * c1 + (1 - lam) * c2)
        split = lam * f.evaluate(t, float(c1)) + (1 - lam) * f.evaluate(t, float(c2))
        assert math.isclose(mixed, split, rel_tol=1e-12, abs_tol=1e-12)


def test_evaluate_grid_matches_scalar():
    f = published_field()
    ts = np.linspace(1, 5, 7)
    cs = np.linspace(0.2, 3.5, 5)
    grid = f.evaluate_grid(ts, cs)
    for j, c in enumerate(cs):
        for i, t in enumerate(ts):
            assert math.isclose(
                float(grid[j, i]), f.evaluate(float(t), float(c)),
                rel_tol=1e-12, abs_tol=1e-12,
            )


def test_table_csv_round_trip(tmp_path):
    table = survey_risk_table()
    path = tmp_path / "table.csv"
    rows = [("concentration", *table.nodes)]
    rows += [(conc, *row) for conc, row in zip(table.concentrations, table.values)]
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    back = RiskTable.from_csv(path)
    assert back == table


def test_table_csv_error_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("concentration,1,2,3,4,5\n0.27,0,0.8,x,0.2,0.4\n")
    with pytest.raises(ValueError) as err:
        RiskTable.from_csv(path)
    assert "row 2" in str(err.value)
    assert "column 4" in str(err.value)


@pytest.mark.parametrize(
    "text, row, column",
    [
        ("c,1,2,3,4,5\n0.27,0,0.8,nan,0.2,0.4\n", 2, 4),
        ("c,1,2,3,4,5\n0.27,0,0.8,0.3,0.2,0.4\n-inf,0,1,2,3,4\n", 3, 1),
        ("c,1,2,3,4,inf\n0.27,0,0.8,0.3,0.2,0.4\n", 1, 6),
    ],
    ids=["value", "concentration", "node"],
)
def test_table_csv_nonfinite_location(tmp_path, text, row, column):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        RiskTable.from_csv(path)
    assert f"{path}, row {row}, column {column}: not a finite number" in str(
        err.value
    )


def test_table_rejects_nonfinite():
    good = survey_risk_table()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"concentrations\[1\]: expected a finite number"):
            RiskTable((0.27, bad, 3.33), good.nodes, good.values)
        with pytest.raises(ValueError, match=r"nodes\[4\]: expected a finite number"):
            RiskTable(good.concentrations, (1, 2, 3, 4, bad), good.values)
        values = (good.values[0], (0.0, 7.2, bad, 1.8, 3.5), good.values[2])
        with pytest.raises(ValueError, match=r"values\[1\]\[2\]: expected a finite number"):
            RiskTable(good.concentrations, good.nodes, values)
    # True was taken as 1.0.
    with pytest.raises(ValueError, match=r"concentrations\[0\]: expected a number, got True"):
        RiskTable((True, 2.0), good.nodes, good.values[:2])


def test_table_json_nonfinite_names_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps({"concentrations": [0.27, 2.43], "nodes": [1, 2, 3, 4, 5],
                    "values": [[0, 1, 2, 3, 4], [0, 1, math.nan, 3, 4]]})
    )
    with pytest.raises(ValueError, match=r"table.json: values\[1\]\[2\]"):
        from_json_data(RiskTable.from_json_dict, read_json(path), path)


def test_field_rejects_nonfinite(tmp_path):
    a, b = published_field().a, published_field().b
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"a\[3\]: expected a finite number"):
            RiskField(a[:3] + (bad,) + a[4:], b)
        with pytest.raises(ValueError, match=r"b\[0\]: expected a finite number"):
            RiskField(a, (bad,) + b[1:])
    # A field of strings was built.
    with pytest.raises(ValueError, match=r"a\[0\]: expected a number, got '1'"):
        RiskField(("1",) * 5, (0,) * 5)
    assert RiskField(list(a), list(b)) == published_field()
    path = tmp_path / "field.json"
    data = published_field().as_json_dict()
    data["b"][4] = math.nan
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"field.json: b\[4\]: expected a finite number"):
        from_json_data(RiskField.from_json_dict, read_json(path), path)


@st.composite
def fields_at_the_bound(draw):
    """(a, b, domain, B): integer coefficients scaled by a power of two and
    a domain of integers times powers of two, where RiskField's bound B,
    computed exactly, lies in [2^240, 2^250).  T and C stay below 2^247,
    so max(B, T, C) lies there too."""
    ints = st.integers(-999, 999)
    a, b = (draw(st.lists(ints, min_size=5, max_size=5)) for _ in "ab")
    if not any(a + b):
        reject()
    corners = []
    for _ in "tc":
        pair = draw(st.lists(st.integers(-99, 99), min_size=2, max_size=2, unique=True))
        shift = draw(st.integers(0, 240))
        corners += [float(n << shift) for n in sorted(pair)]
    domain = Rectangle(*corners)
    t_top = max(-domain.t_min, domain.t_max, 6)
    c_top = max(-domain.c_min, domain.c_max, 1)
    bound = sum((k + 1) * (abs(ak) * Fraction(c_top) + abs(bk)) * Fraction(t_top) ** k
                for k, (ak, bk) in enumerate(zip(a, b)))
    # B scaled into [2^(top - 1), 2^top), clear of 2^250 by more than
    # RiskField's float rounding of it.
    shift = draw(st.integers(241, 250)) - math.floor(bound).bit_length()
    bound *= Fraction(2) ** shift
    if bound > MAX_MAGNITUDE * (1.0 - 2.0**-40):
        reject()
    scale = math.ldexp(1.0, shift)
    return tuple(x * scale for x in a), tuple(x * scale for x in b), domain, bound


def _finite_numbers(svg: str) -> bool:
    """Whether every coordinate in an SVG text is a finite number."""
    values = re.findall(r' (?:points|[xy]\d?)="([^"]*)"', svg)
    return bool(values) and all(
        math.isfinite(float(v)) for text in values for v in re.split(r"[ ,]+", text.strip()))


@settings(max_examples=60, deadline=None)
@given(fields_at_the_bound())
def test_fields_at_the_bound_give_finite_results_and_past_it_are_refused(drawn):
    # Each layer squares values up to the bound (curvature denominators,
    # q^2, chord lengths, x * 1e9 rounding): within 2^250 none overflows,
    # and numpy warnings are errors.  With its coefficients scaled so that
    # B is 2^251, the same field is refused.
    a, b, domain, bound = drawn
    assert 2.0**240 <= bound < MAX_MAGNITUDE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = RiskField(a, b, domain)
        t_mid = 0.5 * (domain.t_min + domain.t_max)
        c_mid = 0.5 * (domain.c_min + domain.c_max)
        level = float(field.evaluate(t_mid, c_mid))
        json_text(build_geometry_report(field), "geometry.json")
        with tempfile.TemporaryDirectory() as tmp:
            curvature_profile_svg(field, Path(tmp) / "curvature.svg")
            assert _finite_numbers((Path(tmp) / "curvature.svg").read_text())
        sets = level_curves(field, levels=(level, 1.0), grid=32)
        assert all(math.isfinite(x) for cset in sets for line in cset.polylines
                   for vertex in line for x in vertex)
        assert math.isfinite(mean_risk(field))
        assert math.isfinite(mean_risk_simpson(field))
        assert math.isfinite(risk_region_area(field, level).area)
    past = 2.0 * MAX_MAGNITUDE / float(bound)
    with pytest.raises(ValueError, match="outside the supported range"):
        RiskField(tuple(x * past for x in a), tuple(x * past for x in b), domain)


def test_write_json_rejects_nonfinite_before_opening(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="out.json"):
        json_text({"x": [1.0, math.nan]}, path)
    assert not path.exists()


def test_table_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("concentration,1,2,3,4,5\n0.27,0,0.8,0.3\n")
    with pytest.raises(ValueError) as err:
        RiskTable.from_csv(path)
    assert "row 2" in str(err.value)


def test_table_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        RiskTable.from_csv(path)


def test_table_validation():
    with pytest.raises(ValueError):
        RiskTable((0.27,), (1, 2, 2.5, 2.2, 5), ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError):
        RiskTable((0.27,), (0.5, 2, 3, 4, 5), ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError):
        RiskTable((0.27, 2.43), (1, 2, 3, 4, 5), ((0, 1, 2, 3, 4),))


def test_field_json_round_trip(tmp_path):
    f = published_field()
    path = tmp_path / "field.json"
    path.write_text(json_text(f.as_json_dict(), path))
    data = json.loads(path.read_text())
    assert data["a"] == list(f.a)
    back = from_json_data(RiskField.from_json_dict, read_json(path), path)
    assert back == f


def test_field_rejects_a_domain_that_is_no_rectangle():
    # A tuple was accepted and failed later with an AttributeError.
    for bad in ((1.0, 5.0, 0.2, 3.5), None):
        with pytest.raises(ValueError, match=re.escape(
                f"domain: expected a Rectangle, got {bad!r}")):
            RiskField(PUBLISHED_A, PUBLISHED_B, domain=bad)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(2.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(1.0, 2.0, 3.0, 3.0)
    names = ("t_min", "t_max", "c_min", "c_max")
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            bounds = [1.0, 5.0, 0.2, 3.5]
            bounds[k] = bad
            with pytest.raises(ValueError, match=f"{names[k]}: expected a finite number"):
                Rectangle(*bounds)
    # True was taken as 1.0, and "1" raised a TypeError.
    for bad in (True, "1"):
        with pytest.raises(ValueError, match=f"t_min: expected a number, got {bad!r}"):
            Rectangle(bad, 5, 0.2, 3.5)
    r = Rectangle(1.0, 5.0, 0.2, 3.5)
    assert math.isclose(r.area, 13.2)
    assert r.contains(1.0, 0.2) and not r.contains(0.9, 1.0)
