"""The region and mean integrals against independent references.

risk_region_area integrates the clamped column length with a globally
adaptive G7K15 rule; here it meets a composite Gauss-Legendre reference
written from numpy alone.  mean_risk_simpson collapses the 2-D Simpson
rule through R = g(t) c + h(t); here it meets the grid sum it replaced.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mehgrisk import analysis
from mehgrisk.analysis import mean_risk, mean_risk_simpson, risk_region_area
from mehgrisk.fieldfit import (
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    published_field,
)

P = np.polynomial.polynomial
EPS = np.finfo(float).eps
DOMAIN = Rectangle(1.0, 5.0, 0.2, 3.5)


def reference_area(field: RiskField, dom: Rectangle, threshold: float) -> float:
    """Area of {R >= threshold} for a g of one sign, from numpy alone.

    The column length is clamped at the roots of threshold - h - c g for
    each c edge (numpy's companion-matrix roots, near-real ones kept), and
    each piece is integrated by 20-point Gauss-Legendre on equal panels,
    doubled until two passes agree to 1e-13.
    """
    a, b = np.array(field.a), np.array(field.b)
    cuts = {dom.t_min, dom.t_max}
    for c_edge in (dom.c_min, dom.c_max):
        crossing = -(b + c_edge * a)
        crossing[0] += threshold
        # A leading term 1e-12 times the largest is noise to the roots in
        # [1, 5] and would swamp numpy's companion matrix.
        crossing = P.polytrim(crossing, 1e-12 * np.max(np.abs(crossing)))
        cuts.update(r.real for r in P.polyroots(crossing)
                    if abs(r.imag) < 1e-6 and dom.t_min < r.real < dom.t_max)
    positive = P.polyval(0.5 * (dom.t_min + dom.t_max), a) > 0.0
    x, w = np.polynomial.legendre.leggauss(20)

    def composite(panels: int) -> float:
        total = 0.0
        edges = sorted(cuts)
        for lo, hi in zip(edges, edges[1:]):
            ends = np.linspace(lo, hi, panels + 1)
            mid = 0.5 * (ends[1:] + ends[:-1])[:, None]
            half = 0.5 * (ends[1:] - ends[:-1])[:, None]
            t = mid + half * x
            c = np.clip((threshold - P.polyval(t, b)) / P.polyval(t, a),
                        dom.c_min, dom.c_max)
            length = dom.c_max - c if positive else c - dom.c_min
            total += float(np.sum(half * w * length))
        return total

    panels, area = 8, composite(8)
    while True:
        panels *= 2
        finer = composite(panels)
        if abs(finer - area) <= 1e-13:
            return finer
        assert panels < 2**14, "reference did not converge"
        area = finer


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def one_sign_fields(draw) -> RiskField:
    """Random quartic fields whose g stays at least `margin` from 0 on
    [1, 5], with either sign."""
    a = [draw(coefficient) for _ in range(5)]
    b = tuple(draw(coefficient) for _ in range(5))
    margin = draw(st.floats(0.05, 1.0))
    g = P.polyval(np.linspace(1.0, 5.0, 4001), a)
    if draw(st.booleans()):
        a[0] += margin - g.min()
    else:
        a[0] -= margin + g.max()
    return RiskField(tuple(a), b)


@st.composite
def fields_and_thresholds(draw):
    """A one-sign field and a threshold between its least and largest
    value on the domain, so the region is rarely empty or full."""
    field = draw(one_sign_fields())
    ts, cs = np.linspace(1.0, 5.0, 65), np.linspace(0.2, 3.5, 65)
    values = field.evaluate_grid(ts, cs)
    u = draw(st.floats(0.0, 1.0))
    return field, float(values.min() + u * (values.max() - values.min()))


@settings(max_examples=150, deadline=None)
@given(case=fields_and_thresholds())
def test_region_area_matches_gauss_legendre_reference(case):
    field, threshold = case
    region = risk_region_area(field, threshold=threshold)
    assert region.method == "reduction"
    want = reference_area(field, field.domain, threshold)
    error = abs(region.area - want)
    assert error <= 1e-10, (region, want)
    # The estimate sums |K15 - G7|, the error of the 7-point rule, so it
    # bounds the 15-point rule's error; 1e-13 covers the rounding of the
    # sums and of the reference.
    assert error <= region.error_estimate + 1e-13, (region, want)
    assert region.error_estimate <= 1e-10
    # At most nine pieces: the range ends and four crossings per c edge.
    assert 0 < region.evaluations <= analysis.QUAD_BUDGET + 15 * 9


@pytest.mark.parametrize(
    "concentrations, values, oracle",
    [
        pytest.param(
            (0.794652463891997, 1.4296932128045239, 2.7168506650307447,
             2.7344205490302826, 3.024036457244947),
            ((-0.028998384846295935, 2.674279717286289, 1.2119029958521583,
              0.5456672419608773, 1.6367776418961828),
             (0.020655505972074037, 3.4848592507838347, 1.9828778703049745,
              1.1761217247482243, 1.6957226685001985),
             (0.025490368730461732, 8.903708505783596, 3.847607374809733,
              1.500644449279481, 5.067288841376169),
             (-0.006107424918947097, 8.022409278591219, 3.1133518744029183,
              2.2684655419218096, 3.9256843007034723),
             (-0.030802416926813205, 8.410701057422022, 2.962172080840598,
              1.9243795947349882, 3.863916524450467)),
            10.893683098835911,
            id="sweep-seed-356-table-373",
        ),
        pytest.param(
            (0.45240685857676877, 0.5057189869505476, 1.6384471737349884,
             3.26911390597843),
            ((0.050867430296876785, 1.2563228263680406, 0.510240767094549,
              0.3037878696092918, 0.7757198648637521),
             (0.021424286023226543, 1.47195941585132, 0.5151019637371045,
              0.3278199102925108, 0.6329526736497098),
             (0.23905696910156812, 4.269141818448068, 1.9161874448088936,
              1.5907445363159087, 2.137242397226943),
             (0.3810998753654013, 7.283753963988288, 3.121459355970896,
              2.338784674662857, 3.588500424889743)),
            10.686136090847487,
            id="sweep-seed-301-table-162",
        ),
    ],
)
def test_region_area_where_adaptive_simpson_stopped_early(
    concentrations, values, oracle
):
    # Survey tables from the field_sweep benchmark pools of seeds 356 and
    # 301.  Recursive adaptive Simpson stopped early on them, 0.916 and
    # 0.0175 off at threshold 1; the oracle is a composite Gauss-Legendre
    # integral of the column length split at every clamp crossing.
    field = build_field(RiskTable(concentrations, (1.0, 2.0, 3.0, 4.0, 5.0), values))
    region = risk_region_area(field, threshold=1.0)
    assert region.method == "reduction"
    assert abs(region.area - oracle) <= 1e-9
    assert abs(region.area - reference_area(field, field.domain, 1.0)) <= 1e-10


@pytest.mark.parametrize("budget", [0, 30, 90])
def test_region_area_stops_at_its_budget(budget, monkeypatch):
    # The published field needs 255 evaluations for 1e-10; with a budget
    # of a few bisections after the first pass over its three pieces the
    # rule stops there and reports how far off it may be.
    monkeypatch.setattr(analysis, "QUAD_BUDGET", budget)
    f = published_field()
    region = risk_region_area(f)
    pieces = len(f.cuts(1.0)) - 1
    assert region.evaluations == 15 * pieces + budget
    assert region.error_estimate > 1e-10
    want = reference_area(f, f.domain, 1.0)
    assert abs(region.area - want) <= region.error_estimate


def test_published_region_area_work_bound():
    # Three pieces and seven bisections: 255 evaluations of the column
    # length on the published field; the bound leaves room for a few more.
    region = risk_region_area(published_field())
    assert region.evaluations <= 300
    assert region.error_estimate <= 1e-10


def test_gauss_kronrod_rule_is_exact_to_its_degree():
    # K15 integrates polynomials of degree 23 exactly on [-1, 1], G7 those
    # of degree 13; the rows of _GK_WEIGHTS are K15 and K15 - G7.
    x = np.array(analysis._GK_NODES)
    kronrod, difference = np.array(analysis._GK_WEIGHTS)
    for k in range(24):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(kronrod @ x**k - exact) <= 1e-15
        if k <= 13:
            assert abs(difference @ x**k) <= 1e-15
    assert abs(kronrod @ x**24 - 2.0 / 25.0) > 1e-10


def grid_simpson_mean(field: RiskField, dom: Rectangle, cells: int) -> float:
    """The 2-D Simpson mean as a sum over the (cells + 1)^2 grid."""
    ts = np.linspace(dom.t_min, dom.t_max, cells + 1)
    cs = np.linspace(dom.c_min, dom.c_max, cells + 1)
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    values = field.evaluate_grid(ts, cs)
    ht = (dom.t_max - dom.t_min) / cells
    hc = (dom.c_max - dom.c_min) / cells
    return float(np.einsum("i,ij,j->", w, values, w)) * ht * hc / 9.0 / dom.area


@st.composite
def fields_and_subdomains(draw):
    a = tuple(draw(coefficient) for _ in range(5))
    b = tuple(draw(coefficient) for _ in range(5))
    t0, t1 = sorted(draw(st.floats(1.0, 5.0)) for _ in range(2))
    c0, c1 = sorted(draw(st.floats(0.2, 3.5)) for _ in range(2))
    if t1 - t0 < 1e-3 or c1 - c0 < 1e-3:
        t0, t1, c0, c1 = DOMAIN.t_min, DOMAIN.t_max, DOMAIN.c_min, DOMAIN.c_max
    return RiskField(a, b), Rectangle(t0, t1, c0, c1)


def exact_simpson_mean(field: RiskField, dom: Rectangle, cells: int) -> float:
    """The collapsed rule's three sums over the same node values, in exact
    rational arithmetic, and its mean rounded once."""
    ts = np.linspace(dom.t_min, dom.t_max, cells + 1)
    g, h = field.g(ts), field.h(ts)
    c = np.linspace(dom.c_min, dom.c_max, cells + 1)
    w = [1] + [4 if k % 2 else 2 for k in range(1, cells)] + [1]
    sg, sh, sc = (sum(Fraction(wk) * Fraction(x) for wk, x in zip(w, v))
                  for v in (g, h, c))
    return float((sg * sc / (3 * cells) + sh) / (3 * cells))


@settings(max_examples=200, deadline=None)
@given(case=fields_and_subdomains(), half_cells=st.integers(1, 300))
@example(case=(RiskField((0.0,) * 5, (1.903052564399526, 0.0, 0.0, 0.0, 0.0)),
               DOMAIN), half_cells=18)
@example(case=(RiskField((2.225073858507203e-309, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5),
               DOMAIN), half_cells=1)
@example(case=(RiskField((2.225073858507203e-309, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5),
               DOMAIN), half_cells=10)
def test_collapsed_simpson_mean_equals_grid_sum(case, half_cells):
    field, dom = case
    cells = 2 * half_cells
    got = mean_risk_simpson(field.with_domain(dom), cells)
    # Ulps of the largest term |g| |c| + |h|, where cancellation leaves
    # the sums' rounding.  Below the normal range floats are spaced by the
    # smallest subnormal, not by EPS times their size, which underflows.
    ts = np.linspace(dom.t_min, dom.t_max, cells + 1)
    g, h = field.g(ts), field.h(ts)
    ulp = max(EPS * float(np.max(np.abs(g)) * max(abs(dom.c_min), abs(dom.c_max))
                          + np.max(np.abs(h))), math.ulp(0.0))
    # The collapsed sums are within a few ulps of the exact rule (2.6 at
    # most over 800 random fields and subdomains, half of them constant).
    assert abs(got - exact_simpson_mean(field, dom, cells)) <= 4 * ulp
    # The grid formula rounds (cells + 1)^2 products and four scale
    # factors: up to 6.5 (cells + 1) ulps from the exact rule over 600
    # random cases, and 52 ulps on the constant field above at 36 cells.
    want = grid_simpson_mean(field, dom, cells)
    assert abs(got - want) <= (4 + 8 * (cells + 1)) * ulp


def test_collapsed_simpson_mean_on_published_field():
    f = published_field()
    got = mean_risk_simpson(f)
    assert abs(got - grid_simpson_mean(f, f.domain, 400)) <= 2 * EPS * abs(got)
    assert abs(got - mean_risk(f)) < 1e-8


def test_simpson_mean_allocates_no_grid():
    # The grid sum peaked at 2.66 MB under tracemalloc (the 401 x 401 grid,
    # 1.29 MB, and einsum's temporaries); the collapsed rule keeps a few
    # 401-node vectors, 47 KB at its peak.
    f = published_field()
    mean_risk_simpson(f, cells=400)   # numpy's first-call caches
    tracemalloc.start()
    try:
        mean_risk_simpson(f, cells=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_means_stay_finite_on_a_wide_concentration_range():
    # c in [0, 1e75], near the 2^250 a field's c range may reach, with
    # a = 0, so R = h(t) and the mean is h's mean over the stages; numpy
    # warnings fail tests here, so none is raised.  mean_risk used to
    # square the c bounds and raise OverflowError on c in [0, 1e300],
    # which is refused now.
    h_only = RiskField((0.0,) * 5, published_field().b,
                       Rectangle(1.0, 5.0, 0.0, 1e75))
    want = published_field().h.integrate(1.0, 5.0) / 4.0
    assert math.isclose(mean_risk(h_only), want, rel_tol=1e-14)
    assert math.isclose(mean_risk_simpson(h_only), want, rel_tol=1e-9)
    # A small slope over the same range: R reaches about 1e67.
    wide = RiskField((1e-8, 0.0, 0.0, 0.0, 0.0), published_field().b,
                     Rectangle(1.0, 5.0, 0.0, 1e75))
    mean = mean_risk(wide)
    assert math.isfinite(mean)
    assert math.isclose(mean_risk_simpson(wide), mean, rel_tol=1e-12)
