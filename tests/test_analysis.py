"""Field analysis: certificate, integrals, region, level curves."""

from __future__ import annotations

import collections
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mehgrisk import analysis, polynomial, svgplot as sp
from mehgrisk.analysis import (
    LevelCurveSet,
    build_analysis_report,
    certify_no_critical_points,
    level_curves,
    mean_risk,
    mean_risk_simpson,
    monte_carlo_region_area,
    risk_region_area,
)
from mehgrisk.fieldfit import (
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    published_field,
)
from mehgrisk.cli import main
from mehgrisk.polynomial import Polynomial, real_roots

DOMAIN = Rectangle(1.0, 5.0, 0.2, 3.5)


def _random_field(rng, lo=-2.0, hi=2.0) -> RiskField:
    return RiskField(tuple(rng.uniform(lo, hi, 5)), tuple(rng.uniform(lo, hi, 5)))


def _positive_slope_field(rng) -> RiskField:
    """Random field adjusted so dR/dc stays well above 0 on [1, 5]."""
    a = list(rng.uniform(-2.0, 2.0, 5))
    b = tuple(rng.uniform(-2.0, 2.0, 5))
    ts = np.linspace(1.0, 5.0, 2001)
    g_min = float(np.min(np.polyval(list(reversed(a)), ts)))
    a[0] += 0.5 - g_min
    return RiskField(tuple(a), b)


def test_gradient_hand_value():
    f = published_field()
    d_dc = f.g(1.0)
    # Hand sum -0.24 + 3.45 - 16.89 + 33.17 - 19.48 = 0.01; the Horner
    # evaluation order costs one extra ulp-scale rounding term.
    assert abs(d_dc - 0.01) < 2e-12
    d_dt = f.partial_t(2.0, 0.0)
    hp = f.h.derivative()
    assert math.isclose(d_dt, hp(2.0), rel_tol=1e-12)


def test_gradient_zero_field():
    f = RiskField((0.0,) * 5, (0.0,) * 5)
    assert (f.partial_t(2.0, 1.0), f.g(2.0)) == (0.0, 0.0)


def test_gradient_finite_difference_absolute():
    f = published_field()
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(100):
        t = float(rng.uniform(1.2, 4.8))
        c = float(rng.uniform(0.4, 3.3))
        d_dt, d_dc = f.partial_t(t, c), f.g(t)
        fd_t = (f.evaluate(t + h, c) - f.evaluate(t - h, c)) / (2 * h)
        fd_c = (f.evaluate(t, c + h) - f.evaluate(t, c - h)) / (2 * h)
        assert abs(d_dt - fd_t) < 1e-6
        assert abs(d_dc - fd_c) < 1e-6


def test_gradient_finite_difference_relative():
    # Vector-norm relative error; |grad R| >= min g = 0.01 on the domain,
    # so the quotient is well conditioned everywhere.
    f = published_field()
    rng = np.random.default_rng(18)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(1.2, 4.8))
        c = float(rng.uniform(0.4, 3.3))
        d_dt, d_dc = f.partial_t(t, c), f.g(t)
        fd_t = (f.evaluate(t + h, c) - f.evaluate(t - h, c)) / (2 * h)
        fd_c = (f.evaluate(t, c + h) - f.evaluate(t, c - h)) / (2 * h)
        err = math.hypot(d_dt - fd_t, d_dc - fd_c)
        norm = math.hypot(d_dt, d_dc)
        worst = max(worst, err / norm)
    assert worst < 1e-5


def test_certificate_published_field():
    f = published_field()
    cert = certify_no_critical_points(f)
    assert not cert.has_critical_points
    assert cert.slope_roots == ()
    assert cert.critical_points == ()
    assert abs(cert.min_dRdc - 0.01) < 1e-9
    assert cert.min_dRdc_at == 1.0
    assert cert.min_dRdc > 0
    assert "no real root" in cert.method


def test_certificate_against_dense_sampling():
    f = published_field()
    cert = certify_no_critical_points(f)
    ts = np.linspace(1.0, 5.0, 100000)
    g = np.polyval(list(reversed(f.a)), ts)
    assert float(np.min(g)) > 0
    assert abs(float(np.min(g)) - cert.min_dRdc) < 1e-3
    assert abs(float(ts[np.argmin(g)]) - cert.min_dRdc_at) < 1e-3


def test_certificate_interior_slope_extrema_dominate():
    # The two interior stationary values of g sit far above the boundary
    # minimum, so the minimum lands on t = 1.
    f = published_field()
    g = f.g
    stationary = real_roots(g.derivative(), 1.0, 5.0)
    values = sorted(g(t) for t in stationary)
    assert len(stationary) == 2
    assert values[0] > 1.0


def test_certificate_minimum_tied_at_two_candidates_is_the_first():
    # g = 5 - (t - 3)^2 is 1 at both ends of [1, 5] and 5 at its stationary
    # point: the certificate names the first candidate that is a minimum.
    f = RiskField((-4.0, 6.0, -1.0, 0.0, 0.0), (0.0,) * 5)
    assert f.g(1.0) == f.g(5.0) == 1.0
    cert = certify_no_critical_points(f)
    assert (cert.min_dRdc, cert.min_dRdc_at) == (1.0, 1.0)
    assert type(cert.min_dRdc) is float
    assert "1 at t = 1," in cert.method


def test_certificate_shifted_field_reports_sign_change():
    f = published_field()
    shifted = RiskField((f.a[0] - 0.02,) + f.a[1:], f.b)
    cert = certify_no_critical_points(shifted)
    assert len(cert.slope_roots) >= 1
    assert abs(cert.slope_roots[0] - 1.0) < 0.01
    assert cert.min_dRdc < 0


def test_certificate_constant_field():
    f = RiskField((0.0,) * 5, (2.0, 0.0, 0.0, 0.0, 0.0))
    cert = certify_no_critical_points(f)
    assert cert.has_critical_points
    assert cert.min_dRdc == 0.0


def test_certificate_tiny_constant_slope_is_not_zero():
    # dR/dc = 1e-13 never vanishes, so neither does grad R = (h', 1e-13).
    # A threshold of 1e-12 times the coefficients' size used to call the
    # slope identically zero and report the roots of h' as critical
    # stages, while risk_region_area took the same slope as nonzero.
    f = RiskField((1e-13, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -0.5, 0.1, 0.0))
    cert = certify_no_critical_points(f)
    assert not cert.has_critical_points
    assert cert.critical_stages == () and cert.slope_roots == ()
    assert cert.min_dRdc == 1e-13
    assert risk_region_area(f).method == "reduction"


def test_certificate_crafted_interior_critical_point():
    # dR/dc = t - 3 vanishes at t = 3; dR/dt = c - t solves to c = 3,
    # inside the concentration range: a genuine interior critical point.
    f = RiskField(
        (-3.0, 1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, -0.5, 0.0, 0.0),
    )
    cert = certify_no_critical_points(f)
    assert cert.has_critical_points
    assert len(cert.critical_points) == 1
    t_star, c_star = cert.critical_points[0]
    assert abs(t_star - 3.0) < 1e-8
    assert abs(c_star - 3.0) < 1e-6


@pytest.mark.parametrize("b", [
    (-2700.0, 2700.0, -900.0, 100.0, 0.0),   # R = (t-3)^2 c + 100 (t-3)^3
    (0.0, 0.0, 0.0, 0.0, 0.0),               # R = (t-3)^2 c
])
def test_certificate_critical_line_at_a_double_root(b):
    # g = (t - 3)^2 and h' share the root 3, and g' = 2(t - 3) vanishes
    # there too: grad R is zero all along t = 3.  At the float root found,
    # g' is about 1e-11 and not 0.0, so c* = -h'/g' says nothing; the
    # line is decided from the exact gcd of g, g' and h'.
    f = RiskField((9.0, -6.0, 1.0, 0.0, 0.0), b)
    cert = certify_no_critical_points(f)
    assert cert.has_critical_points
    (stage,) = cert.critical_stages
    assert abs(stage - 3.0) <= polynomial.ROOT_TOL
    assert cert.critical_points == ()


def test_certificate_double_root_of_the_slope_alone_is_no_line():
    # g = (t - 3)^2 as above, but h' = 1 is not zero at 3: dR/dt = 1 there.
    f = RiskField((9.0, -6.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0))
    cert = certify_no_critical_points(f)
    assert not cert.has_critical_points
    assert cert.critical_stages == cert.critical_points == ()


def test_mean_risk_published():
    f = published_field()
    mean = mean_risk(f)
    assert abs(mean - 5.5599) < 1e-4
    assert abs(mean - 5.56) < 0.005
    assert abs(mean * DOMAIN.area - 73.39) < 0.01


def test_mean_risk_constant_field():
    f = RiskField((0.0,) * 5, (4.2, 0.0, 0.0, 0.0, 0.0))
    assert math.isclose(mean_risk(f), 4.2, rel_tol=1e-14)


def test_mean_risk_simpson_agreement():
    f = published_field()
    assert abs(mean_risk(f) - mean_risk_simpson(f)) < 1e-8
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = _random_field(rng)
        assert math.isclose(
            mean_risk(g), mean_risk_simpson(g), rel_tol=1e-8, abs_tol=1e-8
        )


def test_mean_risk_subdomain():
    sub = published_field().with_domain(Rectangle(2.0, 3.0, 1.0, 2.0))
    simpson = mean_risk_simpson(sub)
    assert math.isclose(mean_risk(sub), simpson, rel_tol=1e-10, abs_tol=1e-10)


def test_region_area_published():
    f = published_field()
    region = risk_region_area(f)
    assert region.method == "reduction"
    assert abs(region.area - 12.570608) < 1e-4


def test_region_area_extreme_thresholds():
    f = published_field()
    assert math.isclose(risk_region_area(f, threshold=0.0).area, 13.2)
    assert risk_region_area(f, threshold=1e9).area == 0.0
    assert risk_region_area(f, threshold=1e9).area / f.domain.area == 0.0


def test_region_area_monotone_in_threshold():
    f = published_field()
    taus = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 22.0)
    areas = [risk_region_area(f, threshold=tau).area for tau in taus]
    assert all(b <= a + 1e-9 for a, b in zip(areas, areas[1:]))


def test_region_area_monte_carlo_agreement():
    f = published_field()
    region = risk_region_area(f)
    mc = monte_carlo_region_area(f, samples=10**6, seed=42)
    assert abs(region.area - mc.area) <= 3 * mc.std_error
    assert mc.samples == 10**6 and mc.seed == 42


def test_region_area_random_fields_against_monte_carlo():
    rng = np.random.default_rng(43)
    for _ in range(5):
        f = _positive_slope_field(rng)
        threshold = mean_risk(f)
        region = risk_region_area(f, threshold=threshold)
        assert region.method == "reduction"
        mc = monte_carlo_region_area(
            f, threshold=threshold, samples=200000, seed=7
        )
        assert abs(region.area - mc.area) <= 3 * mc.std_error + 1e-9


def test_slope_root_just_below_the_stage_range_is_no_slope_root():
    # g's root 0.99886222486 lies below this t_min: it was reported as
    # t_min beside min dR/dc = 1.76e-8 > 0, and the region fell back to
    # Monte Carlo.
    f = published_field().with_domain(Rectangle(0.9988622268324628, 5.0, 0.2, 3.5))
    cert = certify_no_critical_points(f)
    assert f.slope_roots == cert.slope_roots == () and cert.min_dRdc > 0.0
    assert risk_region_area(f).method == "reduction"


def test_region_area_fallback_when_slope_changes_sign():
    # dR/dc = t - 3 changes sign inside [1, 5]; the reduction is invalid
    # and the estimate must come from Monte Carlo with a standard error.
    f = RiskField((-3.0, 1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0))
    region = risk_region_area(f, threshold=1.0, seed=3)
    assert region.method == "monte_carlo"
    assert region.std_error is not None
    exact = monte_carlo_region_area(f, threshold=1.0, samples=4 * 10**6, seed=9)
    assert abs(region.area - exact.area) < 4 * (region.std_error + exact.std_error)


def test_monte_carlo_determinism():
    f = published_field()
    first = monte_carlo_region_area(f, samples=10**5, seed=5)
    second = monte_carlo_region_area(f, samples=10**5, seed=5)
    assert first == second


@pytest.mark.parametrize("samples", [0, -5, 2.5, "1000", None, True])
def test_monte_carlo_rejects_bad_sample_count(samples):
    # A streamed count of -5 samples would return area -0.0 silently.
    with pytest.raises(ValueError, match="samples: expected an integer >= 1, got "):
        monte_carlo_region_area(published_field(), samples=samples)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_monte_carlo_rejects_nonfinite_threshold(threshold):
    # NaN compares false with every R, so it read as an empty region.
    with pytest.raises(ValueError, match="threshold: expected a finite number, got "):
        monte_carlo_region_area(published_field(), threshold, samples=1000)


@pytest.mark.parametrize("cells", [0, -2, 3, 2.0, True, "4", None])
def test_simpson_rejects_bad_cell_count(cells):
    with pytest.raises(ValueError, match="cells: expected an (even )?integer >= 2, got "):
        mean_risk_simpson(published_field(), cells=cells)


def test_simpson_takes_the_smallest_and_numpy_cell_counts():
    f = published_field()
    assert math.isfinite(mean_risk_simpson(f, cells=2))
    assert mean_risk_simpson(f, cells=np.int64(400)) == mean_risk_simpson(f)


def test_monte_carlo_single_sample():
    f = published_field()
    one = monte_carlo_region_area(f, samples=1, seed=3)
    assert one.area in (0.0, f.domain.area) and one.std_error == 0.0
    assert monte_carlo_region_area(f, samples=np.int64(1), seed=3) == one


def test_level_curves_residuals():
    # At the report's levels every vertex is on the level up to the
    # 9-decimal rounding of its coordinates.
    f = published_field()
    sets = level_curves(f, levels=(1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0), grid=256)
    for cset in sets:
        assert cset.polylines
        for line in cset.polylines:
            assert len(line) >= 2
            for t, c in line:
                assert DOMAIN.contains(t, c)
                assert abs(f.evaluate(t, c) - cset.level) <= 1e-7


def test_level_curves_where_the_slope_rounds_to_zero():
    # g = (t - 2.5)^3 rounds to exactly 0.0 at stages near its root other
    # than the root found, and the level-0 graph c* = t - 1 runs through
    # them.  A bisection midpoint used to land on one, and graph() divided
    # 0 by 0 (or x by 0); it now takes c*'s limit -h'/g' there, as end()
    # does at a root of g.
    g = Polynomial((-2.5, 1.0)) * Polynomial((-2.5, 1.0)) * Polynomial((-2.5, 1.0))
    f = RiskField((*g.coefficients, 0.0), (-(Polynomial((-1.0, 1.0)) * g)).coefficients)
    for grid in (16, 19, 20, 25):
        with np.errstate(divide="raise", invalid="raise"):
            (cset,) = level_curves(f, levels=(0.0,), grid=grid)
        assert cset.polylines
        for line in cset.polylines:
            t, c = np.array(line).T
            assert np.all(np.abs(f.evaluate(t, c)) <= 1e-8)


def test_level_curves_on_a_stage_range_whose_chords_overflow_when_squared():
    # R = c on t in [1, 1e156]: the gap between two kept stages passes
    # about 1.3e154, and squaring it raised OverflowError.  Stages past
    # 2^250 are refused now; on t in [1, 1e75], the longest range in
    # reach, the level-2 line runs end to end and the region's area is
    # exact.
    with pytest.raises(ValueError, match="outside the supported range"):
        RiskField((1.0, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5,
                  Rectangle(1.0, 1e156, 0.2, 3.5))
    f = RiskField((1.0, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5,
                  Rectangle(1.0, 1e75, 0.2, 3.5))
    (cset,) = level_curves(f, levels=(2.0,))
    (line,) = cset.polylines
    assert (line[0][0], line[-1][0]) == (1.0, 1e75)
    assert {c for _, c in line} == {2.0}
    assert risk_region_area(f).area == pytest.approx(2.5e75, rel=1e-12)


def test_level_curves_square_no_gap_between_two_graphs():
    # Two levels on a long stage range: the step from one graph's last
    # stage to the next graph's first was squared too, and on t in
    # [1, 1e156], now refused, numpy's "overflow encountered in square"
    # is an error under the suite's filter.
    f = RiskField((1.0, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5,
                  Rectangle(1.0, 1e75, 0.2, 3.5))
    sets = level_curves(f, levels=(1.0, 2.0))
    for cset, level in zip(sets, (1.0, 2.0)):
        (line,) = cset.polylines
        assert (line[0][0], line[-1][0]) == (1.0, 1e75)
        assert {c for _, c in line} == {level}


def test_level_curves_empty_cases():
    f = published_field()
    assert level_curves(f, levels=(1e6,))[0].polylines == ()
    assert level_curves(f, levels=(1e-4,))[0].polylines == ()


def test_level_curves_grid_floor():
    with pytest.raises(ValueError):
        level_curves(published_field(), levels=(1.0,), grid=8)


@pytest.mark.parametrize("grid", [16.5, True, "64"])
def test_level_curves_reject_a_grid_that_is_not_an_integer(grid):
    # 16.5 raised numpy's TypeError and "64" the floor comparison's, and
    # True was refused as a grid of 1 cell.
    with pytest.raises(ValueError, match="grid: expected an integer >= 16, got "):
        level_curves(published_field(), levels=(1.0,), grid=grid)


def test_level_curves_take_a_numpy_grid():
    f = published_field()
    assert level_curves(f, grid=np.int64(64)) == level_curves(f, grid=64)
    assert level_curves(f, levels=[1.0, 2.0]) == level_curves(f, levels=(1.0, 2.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: risk_region_area(f, True), "threshold: expected a number, got True"),
        (lambda f: risk_region_area(f, None), "threshold: expected a number, got None"),
        (lambda f: risk_region_area(f, 1.0, seed=-1), "seed: expected an integer >= 0, got -1"),
        (lambda f: monte_carlo_region_area(f, 1.0, 10, seed=1.5),
         "seed: expected an integer >= 0, got 1.5"),
        (lambda f: monte_carlo_region_area(f, 1.0, 10, seed=-1),
         "seed: expected an integer >= 0, got -1"),
        (lambda f: monte_carlo_region_area(f, 1.0, 10, seed=True),
         "seed: expected an integer >= 0, got True"),
        (lambda f: level_curves(f, levels=[True], grid=16),
         "levels[0]: expected a number, got True"),
        (lambda f: level_curves(f, levels=(1.0, math.nan), grid=16),
         "levels[1]: expected a finite number, got nan"),
    ],
    ids=["region-threshold-true", "region-threshold-none", "region-seed-negative",
         "mc-seed-float", "mc-seed-negative", "mc-seed-true", "levels-true",
         "levels-nan"],
)
def test_entry_points_name_a_refused_argument(call, message):
    # True ran as threshold 1.0, seed True and level True as 1, and None,
    # a float or a negative seed failed in numpy without naming it.
    with pytest.raises(ValueError) as err:
        call(published_field())
    assert str(err.value) == message


def test_level_curve_piece_without_a_grid_node_follows_c_star():
    # Between grid nodes 3.1176 and 3.3529, c* leaves c = 0.2 at 3.1448,
    # rises to 0.336 and comes back at 3.3329.  Both ends took the edge
    # value and the steepness bisection saw no change, so the piece was
    # drawn as the segment c = 0.2; its midpoint is now a vertex.
    f = RiskField((-1.3671875, 1.12109375, -0.21875, 0, 0),
                  (0, -6.2734375, 1.6337890625, 0, -0.03125))
    level = -6.628389547987931
    (curves,) = level_curves(f, levels=(level,), grid=17)
    (piece,) = [line for line in curves.polylines
                if 3.1 < line[0][0] and line[-1][0] < 3.4]
    t, c = np.array(piece).T
    assert c.max() > 0.3
    assert np.all(np.abs(f.evaluate(t, c) - level) <= 1e-8)


def test_level_curve_polygon_area_consistency():
    # Close the level-1 curve along the domain boundary and compare the
    # enclosed polygon with the quadrature region area.  The chords stay
    # within the tolerance eps of the curve in c, so the areas differ by
    # at most eps times the stage range.
    f = published_field()
    region = risk_region_area(f).area
    curve = level_curves(f, levels=(1.0,), grid=256)[0]
    assert len(curve.polylines) == 1
    line = list(curve.polylines[0])
    if line[0][1] < line[-1][1]:
        line.reverse()
    assert abs(line[0][1] - DOMAIN.c_max) < 1e-9   # enters at the top edge
    assert abs(line[-1][1] - DOMAIN.c_min) < 1e-9  # exits at the bottom edge
    polygon = line + [(DOMAIN.t_max, DOMAIN.c_min), (DOMAIN.t_max, DOMAIN.c_max)]
    area = 0.0
    for (x0, y0), (x1, y1) in zip(polygon, polygon[1:] + polygon[:1]):
        area += x0 * y1 - x1 * y0
    area = abs(area) / 2.0
    assert abs(area - region) <= curve.tolerance * (DOMAIN.t_max - DOMAIN.t_min) + 1e-9


def test_level_curves_deterministic():
    f = published_field()
    one = level_curves(f, levels=(1.0, 8.0), grid=64)
    two = level_curves(f, levels=(1.0, 8.0), grid=64)
    assert one == two


@st.composite
def one_sign_slope_fields(draw):
    """A field whose g = dR/dc keeps one sign on the stage range, at least
    a drawn margin from 0, and levels that R takes in the domain.  A g
    with several roots is left out: c* cancels next to them."""
    coefficient = st.floats(-2.0, 2.0)
    a = draw(st.lists(coefficient, min_size=5, max_size=5))
    b = draw(st.lists(coefficient, min_size=5, max_size=5))
    margin = draw(st.floats(0.01, 1.0))
    g = np.polyval(a[::-1], np.linspace(DOMAIN.t_min, DOMAIN.t_max, 401))
    a[0] += margin - g.min() if draw(st.booleans()) else -margin - g.max()
    field = RiskField(tuple(a), tuple(b))
    assume(not field.slope_roots)
    values = field.evaluate_grid(np.linspace(DOMAIN.t_min, DOMAIN.t_max, 101),
                                 np.linspace(DOMAIN.c_min, DOMAIN.c_max, 101))
    quantiles = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    return field, tuple(float(np.quantile(values, q)) for q in quantiles)


REPORT_LEVELS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)


@settings(max_examples=60, deadline=None)
@given(case=one_sign_slope_fields(), grid=st.integers(16, 256))
@example(case=(published_field(), REPORT_LEVELS), grid=256)
@example(case=(published_field(), REPORT_LEVELS), grid=64)
# A short graph beside g's root at t = 5.0016: 2.88 eps from c* when the
# vertex budget stopped the halving.
@example(case=(RiskField((-626, 0, 0, 0, 1), (0,) * 5), (-3.487109375,)), grid=121)
def test_level_curve_chords_keep_the_stated_tolerance(case, grid):
    # At 15 evenly spaced interior points of every chord, c* is within
    # eps = 4 (c_max - c_min)/grid^2 of the chord in c, up to the slack of
    # the 9-decimal rounding of the vertices (_assert_on_graph in
    # tests/test_level_curve_oracle.py), and the report states eps.
    field, levels = case
    eps = 4.0 * (DOMAIN.c_max - DOMAIN.c_min) / grid**2
    sets = level_curves(field, levels=levels, grid=grid)
    share = np.arange(1, 16) / 16
    for cset in sets:
        assert cset.tolerance == eps
        for line in cset.polylines:
            (t0, c0), (t1, c1) = np.array(line[:-1]).T, np.array(line[1:]).T
            t = t0[:, None] + (t1 - t0)[:, None] * share
            g = np.polyval(field.a[::-1], t)
            c_star = (cset.level - np.polyval(field.b[::-1], t)) / g
            slope = (np.polyval(np.polyder(field.b[::-1]), t)
                     + c_star * np.polyval(np.polyder(field.a[::-1]), t)) / g
            gap = np.abs(c0[:, None] + (c1 - c0)[:, None] * share - c_star)
            assert np.all(gap <= eps + 1e-9 * (1.0 + np.abs(slope))), (
                cset.level, gap.max() / eps)
    report = build_analysis_report(field, sets, seed=1, mc_samples=64)
    assert report["level_chord_tolerance"] == eps


# Vertex coordinates up to 1e15 in size; near 8.4e6 the floats are
# spaced wider than 1e-9, and 2**53 / 1e9 is where 9 decimals stop
# fitting in a double's 53 bits.
vertex = st.floats(-1e15, 1e15) | st.sampled_from(
    (0.0, -0.0, 5e-324, -4.9e-10, 5e-10, 8.5e6 + 0.1, 2.0**53 / 1e9)
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.lists(st.tuples(vertex, vertex), min_size=1, max_size=20),
        max_size=4,
    )
)
def test_level_curve_json_rounds_once(lines):
    # Polylines stored as level_curves stores them: np.round(..., 9).
    polylines = []
    for line in lines:
        t, c = np.round(np.array(line).T, 9).tolist()
        polylines.append(tuple(zip(t, c)))
    cset = LevelCurveSet(2.0, tuple(polylines))
    # An independent reference: Python's round of each stored vertex.
    want = {
        "level": 2.0,
        "polylines": [
            [[round(t, 9), round(c, 9)] for t, c in line] for line in polylines
        ],
    }
    assert json.dumps(cset.as_json_dict()) == json.dumps(want)


def test_analysis_report_shape():
    f = published_field()
    report = build_analysis_report(
        f, level_curves(f, levels=(1.0, 8.0), grid=64), seed=1, mc_samples=10**4
    )
    for key in (
        "field", "threshold", "certificate", "mean_risk",
        "mean_risk_simpson", "region_area", "probability", "levels",
        "region_area_monte_carlo",
    ):
        assert key in report
    assert report["certificate"]["has_critical_points"] is False
    assert len(report["levels"]) == 2
    json.dumps(report)   # must be plain-JSON serializable


def test_analysis_report_reuses_the_fallback(monkeypatch):
    # The golden table fits g(1) = 0, so the region falls back to Monte
    # Carlo; with the cross-check's samples that estimate is the
    # cross-check, and the report used to compute it twice.  Samples are
    # counted as the stream draws them: one 10^6-sample pass per report.
    streamed = []
    stream = analysis._stream

    def counted(field, seed, samples, lo, hi):
        streamed.append(hi - lo)
        return stream(field, seed, samples, lo, hi)

    monkeypatch.setattr(analysis, "_stream", counted)
    monkeypatch.setattr(analysis, "_held", None)
    table = RiskTable(
        (0.4, 1.6, 2.9), (1.0, 2.0, 3.0, 4.0, 5.0),
        ((0, 1.1, 0.52, 0.31, 0.6), (0, 4.8, 2.1, 1.3, 2.4),
         (0, 8.7, 3.9, 2.2, 4.1)),
    )
    f = build_field(table)
    report = build_analysis_report(f, [], seed=4, mc_samples=10**6)
    assert report["region_area_method"] == "monte_carlo"
    assert sum(streamed) == 10**6
    assert report["region_area_monte_carlo"] == monte_carlo_region_area(
        f, threshold=1.0, samples=10**6, seed=4
    ).as_json_dict()
    assert report["region_area"] == report["region_area_monte_carlo"]["area"]
    # Another sample count is a separate cross-check; the region's
    # sample of this field and seed is held.
    streamed.clear()
    report = build_analysis_report(f, [], seed=4, mc_samples=10**4)
    assert sum(streamed) == 10**4
    assert report["region_area_monte_carlo"]["samples"] == 10**4


def _root_searches(monkeypatch, g=None) -> list:
    """Record real_roots calls, at every name in the package that binds
    real_roots: one (coefficients, a, b, ...) entry per call, on the
    polynomial g alone when g is given."""
    calls = []
    search = polynomial.real_roots

    def counted(p, *args, **kwargs):
        coefficients = p.coefficients[: p.degree + 1]
        if g is None or coefficients == g.coefficients[: g.degree + 1]:
            calls.append((coefficients, *args))
        return search(p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mehgrisk" and (
            getattr(module, "real_roots", None) is search
        ):
            monkeypatch.setattr(module, "real_roots", counted)
    return calls


def test_slope_roots_are_searched_once_per_field(monkeypatch, tmp_path):
    # The certificate, each region and each level-curve call used to
    # search the roots of g = dR/dc again: 3 in analyze, 5 in a sweep.
    calls = _root_searches(monkeypatch, published_field().g)
    assert main(["analyze", "--paper-dataset", "--grid", "16",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    calls.clear()
    f = published_field()
    certify_no_critical_points(f)
    for threshold in (1.0, 4.0, 8.0):
        risk_region_area(f, threshold=threshold)
    level_curves(f, levels=(1.0,), grid=16)
    assert len(calls) == 1


def test_report_searches_each_polynomial_once(monkeypatch, tmp_path):
    # A report used to make 19 searches: g' on [1, 5] for the certificate
    # and on [1, 6] for the curvature, and the threshold's two edge
    # crossings once for the region and again for the level-1 curve.  The
    # 14 edge crossings of the 7 levels then took a Sturm search each;
    # now they are read from one table of monotone pieces per c edge,
    # and none of them falls back to a search on the published field.
    calls = _root_searches(monkeypatch)
    tables = []
    build = polynomial.MonotonePieces.of.__func__

    def counted(cls, p, a, b):
        tables.append((p.coefficients, a, b))
        return build(cls, p, a, b)

    monkeypatch.setattr(polynomial.MonotonePieces, "of", classmethod(counted))
    assert main(["report", "--paper-dataset", "--grid", "16",
                 "--out", str(tmp_path / "out")]) == 0
    f = published_field()
    per_polynomial = collections.Counter(coefficients for coefficients, *_ in calls)
    assert per_polynomial.pop(f.g.coefficients[: f.g.degree + 1]) == 1
    assert per_polynomial.pop(f.g_prime.coefficients[: f.g_prime.degree + 1]) == 1
    assert sum(per_polynomial.values()) == 0
    assert len(calls) == len(set(calls)) == 2
    assert len(tables) == len(set(tables)) == 2   # one per c edge


def test_certificate_builds_the_gcd_only_for_a_slope_root(monkeypatch):
    # The exact gcd of g, g' and h' only filters the roots of g; it used
    # to be built on every call, also with no root of g in the stage range.
    calls = []
    gcd = analysis.common_roots

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(analysis, "common_roots", counted)
    assert not certify_no_critical_points(published_field()).has_critical_points
    assert calls == []
    cert = certify_no_critical_points(
        RiskField((-3.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -0.5, 0.0, 0.0)))
    assert cert.has_critical_points and len(cert.slope_roots) == 1
    assert len(calls) == 1


def _sub_domains():
    """Stage and concentration ranges inside [0.5, 8] x [-1, 5]."""
    return st.builds(
        lambda t0, dt, c0, dc: Rectangle(t0, t0 + dt, c0, c0 + dc),
        st.floats(0.5, 5.0), st.floats(0.01, 3.0),
        st.floats(-1.0, 2.0), st.floats(0.01, 3.0),
    )


@settings(max_examples=80, deadline=None)
@given(
    a=st.tuples(*[st.floats(-2.0, 2.0)] * 5),
    b=st.tuples(*[st.floats(-2.0, 2.0)] * 5),
    dom=_sub_domains(),
    levels=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
)
def test_root_table_matches_fresh_searches(a, b, dom, levels):
    f = RiskField(a, b).with_domain(dom)
    # The certificate's minimum of dR/dc, from the field's one search of
    # g' on its search range, against candidates searched on [t_min, t_max].
    cert = certify_no_critical_points(f)
    if "identically" not in cert.method:   # g = 0: no minimum is searched
        g = f.g
        fresh = sorted([dom.t_min, dom.t_max,
                        *real_roots(f.g_prime, dom.t_min, dom.t_max)])
        values = [g(t) for t in fresh]
        want = min(values)
        want_at = fresh[values.index(want)]
        # 1e-12 of the size of g's terms: the rounding of g itself.
        size = sum(abs(ak) * dom.t_max**k for k, ak in enumerate(a))
        assert abs(cert.min_dRdc - want) <= 1e-12 * size
        assert g(cert.min_dRdc_at) == cert.min_dRdc
        # The same point up to the roots' bracket width, or a tie in g.
        assert (abs(cert.min_dRdc_at - want_at) <= polynomial.ROOT_TOL
                or abs(g(want_at) - cert.min_dRdc) <= 1e-12 * size)
    # Cuts memoized per level equal an uncached build on a fresh field,
    # whichever levels were cut before, and are built once.
    memo = [f.cuts(level) for level in levels]
    for level, cuts in zip(levels, memo):
        assert f.cuts(level) is cuts
        assert cuts == RiskField(a, b).with_domain(dom).cuts(level)
        assert list(cuts) == sorted(cuts)


NONFINITE_PROBE = """
import sys
from mehgrisk.analysis import level_curves, risk_region_area
from mehgrisk.fieldfit import published_field
x = float(sys.argv[1])
for call in (
    lambda: risk_region_area(published_field(), threshold=x),
    lambda: level_curves(published_field(), levels=(1.0, x), grid=16),
):
    try:
        call()
    except ValueError as exc:
        assert "finite" in str(exc), exc
    else:
        sys.exit(f"accepted {x!r}")
"""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_threshold_and_levels_rejected(value, fresh_python):
    # A NaN threshold used to send adaptive Simpson to depth 50 on every
    # branch, so the call never returned; run it where a hang times out.
    proc = fresh_python("-c", NONFINITE_PROBE, value, seconds=30.0)
    assert proc.returncode == 0, proc.stderr


# R = (t - 3)(c - 1.5) + 1: g = t - 3 changes sign at t = 3, where R = 1
# whatever c is, so t = 3 is a pole of c* at every level but 1.
POLE_FIELD = RiskField((-3.0, 1.0, 0.0, 0.0, 0.0), (5.5, -1.5, 0.0, 0.0, 0.0))


def _shaded(path, dom):
    """The region plot's polygons, as lists of (x, y) pixel points, its
    shaded rectangles as (x, y, width, height), and the pixel-to-world map."""

    def world(x, y):
        return (dom.t_min + (x - sp.MARGIN_L) / (sp.WIDTH - sp.MARGIN_L - sp.MARGIN_R)
                * (dom.t_max - dom.t_min),
                dom.c_min + (sp.HEIGHT - sp.MARGIN_B - y)
                / (sp.HEIGHT - sp.MARGIN_T - sp.MARGIN_B) * (dom.c_max - dom.c_min))

    text = path.read_text()
    polygons = [[tuple(map(float, p.split(","))) for p in pts.split()]
                for pts in re.findall(r'<polygon points="([^"]*)"', text)]
    rects = [tuple(map(float, m)) for m in re.findall(
        r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" height="([\d.]+)" '
        r'fill="#d62728"', text)]
    return polygons, rects, world


def test_region_sides_follow_the_sign_of_dR_dc(tmp_path):
    dom, level = POLE_FIELD.domain, 1.3
    (cset,) = level_curves(POLE_FIELD, levels=(level,), grid=64)
    # Left of the pole dR/dc < 0 and R >= 1.3 below c*; right of it above.
    assert cset.sides == (0.2, 3.5)
    assert cset.full == ()
    for line, side in zip(cset.polylines, cset.sides):
        for t, c in line[1:-1]:
            assert POLE_FIELD.evaluate(t, c + 1e-3 * (side - c)) >= level
            assert POLE_FIELD.evaluate(t, c - 1e-3 * (side - c)) < level
    path = tmp_path / "region.svg"
    sp.region_plot_svg(POLE_FIELD, level, cset, path)
    polygons, rects, world = _shaded(path, dom)
    assert rects == []
    left, right = polygons
    x3 = sp._Canvas(dom, "").x(3.0)
    assert max(x for x, _ in left) < x3 < min(x for x, _ in right)
    assert [y for _, y in left[-2:]] == [414.0, 414.0]    # y of c_min
    assert [y for _, y in right[-2:]] == [36.0, 36.0]     # y of c_max
    for polygon in polygons:   # just inside, toward the closing edge
        y_edge = polygon[-1][1]
        for x, y in polygon[1:-3]:
            t, c = world(x, y + math.copysign(2.0, y_edge - y))
            assert POLE_FIELD.evaluate(t, c) >= level


def test_region_column_shaded_across_a_pole(tmp_path):
    dom, level = POLE_FIELD.domain, 0.5
    (cset,) = level_curves(POLE_FIELD, levels=(level,), grid=64)
    # c* leaves D through c_max at t = 2.75 and comes back through c_min
    # at t = 3 + 0.5/1.3; in between, across the pole, R >= 0.5 for all c.
    (lo, mid), (mid_again, hi) = cset.full
    assert math.isclose(lo, 2.75, abs_tol=1e-9)
    assert mid == mid_again and math.isclose(mid, 3.0, abs_tol=1e-9)
    assert math.isclose(hi, 3.0 + 0.5 / 1.3, abs_tol=1e-9)
    for t in np.linspace(lo, hi, 41)[1:-1]:
        assert np.all(POLE_FIELD.evaluate(t, np.linspace(0.2, 3.5, 34)) >= level)
    path = tmp_path / "region.svg"
    sp.region_plot_svg(POLE_FIELD, level, cset, path)
    polygons, rects, world = _shaded(path, dom)
    assert len(polygons) == 2 and len(rects) == 2
    (x0, y0, w0, h0), (x1, y1, w1, h1) = rects
    assert (y0, h0) == (y1, h1) == (36.0, 378.0)   # the whole c range
    assert abs(x0 + w0 - x1) <= 0.01               # adjacent at the pole
    assert math.isclose(world(x0, 0)[0], 2.75, abs_tol=0.01)
    assert math.isclose(world(x1 + w1, 0)[0], hi, abs_tol=0.01)
    for x, y, w, h in rects:   # just inside each corner
        for px, py in ((x + 1, y + 1), (x + w - 1, y + 1),
                       (x + 1, y + h - 1), (x + w - 1, y + h - 1)):
            assert POLE_FIELD.evaluate(*world(px, py)) >= level
