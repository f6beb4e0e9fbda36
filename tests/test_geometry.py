"""Surface curvature, Hadamard certificate, zero-curvature ages."""

from __future__ import annotations

import json
import math

import numpy as np

from mehgrisk import stagemap
from mehgrisk.fieldfit import Rectangle, RiskField, published_field
from mehgrisk.geometry import (
    build_geometry_report,
    certify_hadamard,
    gaussian_curvature,
)

# Frozen from high-precision root isolation of q(t) = d2R/dtdc.
STAGES = (1.8540430241355907, 3.328842757131719, 5.598364218674536)
AGES = (5.270215, 27.784452, 107.950927)


def test_second_partials_match_finite_differences():
    # The second partials R_tt, R_tc, R_cc and the full curvature formula
    # (R_tt R_cc - R_tc^2) / (1 + R_t^2 + R_c^2)^2 from central differences
    # of evaluate alone, so the kernel's R_cc = 0 and R_tc = g' are checked.
    # h near eps**0.25 balances truncation against subtraction roundoff
    # for second differences.
    f = published_field()
    e = f.evaluate
    rng = np.random.default_rng(23)
    h = 1e-3
    for _ in range(500):
        t = float(rng.uniform(1.2, 4.8))
        c = float(rng.uniform(0.4, 3.3))
        r_t = (e(t + h, c) - e(t - h, c)) / (2 * h)
        r_c = (e(t, c + h) - e(t, c - h)) / (2 * h)
        r_tt = (e(t + h, c) - 2 * e(t, c) + e(t - h, c)) / (h * h)
        r_cc = (e(t, c + h) - 2 * e(t, c) + e(t, c - h)) / (h * h)
        r_tc = (
            e(t + h, c + h) - e(t + h, c - h)
            - e(t - h, c + h) + e(t - h, c - h)
        ) / (4 * h * h)
        norm = math.hypot(r_tt, r_tc)
        assert abs(r_cc) < 1e-5 * norm
        assert abs(r_tc - f.g_prime(t)) < 1e-5 * norm
        denom = (1.0 + r_t * r_t + r_c * r_c) ** 2
        k = gaussian_curvature(f, t, c)
        assert abs(k - (r_tt * r_cc - r_tc * r_tc) / denom) < 1e-5 * norm**2 / denom


def test_concentration_curvature_exactly_zero():
    # R is g(t) c + h(t), affine in c, so R_cc = 0 exactly: evaluate is that
    # product and sum bit for bit, and the curvature is -R_tc^2 / denom with
    # no R_tt R_cc term.
    f = published_field()
    for t, c in ((1.0, 0.2), (2.7, 1.9), (5.0, 3.5)):
        assert f.evaluate(t, c) == f.g(t) * c + f.h(t)
        q = f.g_prime(t)
        r_t = c * q + f.h_prime(t)
        denom = (1.0 + r_t * r_t + f.g(t) ** 2) ** 2
        assert gaussian_curvature(f, t, c) == -(q * q) / denom


def test_gaussian_curvature_arrays_round_as_scalars():
    f = published_field()
    rng = np.random.default_rng(31)
    ts, cs = rng.uniform(1.0, 5.0, 200), rng.uniform(0.2, 3.5, 200)
    want = [gaussian_curvature(f, t, c) for t, c in zip(ts.tolist(), cs.tolist())]
    assert gaussian_curvature(f, ts, cs).tobytes() == np.array(want).tobytes()
    # A scalar c broadcasts over an array of stages.
    want = [gaussian_curvature(f, t, 1.5) for t in ts.tolist()]
    assert gaussian_curvature(f, ts, 1.5).tobytes() == np.array(want).tobytes()


def test_mixed_partial_cubic_coefficients():
    q = published_field().g_prime
    expected = (33.17, -33.78, 10.35, -0.96)
    assert q.degree == 3
    for got, want in zip(q.coefficients, expected):
        assert abs(got - want) < 1e-12


def test_curvature_nonpositive_everywhere():
    f = published_field()
    rng = np.random.default_rng(29)
    for _ in range(10000):
        t = float(rng.uniform(1.0, 5.0))
        c = float(rng.uniform(0.2, 3.5))
        assert gaussian_curvature(f, t, c) <= 0.0


def test_curvature_formula_by_hand():
    f = published_field()
    q = f.g_prime
    for t, c in ((1.5, 0.5), (3.0, 2.0), (4.5, 3.2)):
        denom = (1.0 + f.partial_t(t, c) ** 2 + f.g(t) ** 2) ** 2
        assert math.isclose(
            gaussian_curvature(f, t, c), -q(t) ** 2 / denom, rel_tol=1e-12
        )


def test_curvature_vanishes_on_zero_loci():
    f = published_field()
    for t in STAGES:
        for c in (0.2, 1.7, 3.5):
            assert abs(gaussian_curvature(f, t, c)) < 1e-16


def test_root_count_matches_dense_sign_scan():
    q = published_field().g_prime
    ts = np.linspace(1.0, 6.0, 100001)
    vals = np.polyval(list(reversed(q.coefficients)), ts)
    crossings = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
    report = certify_hadamard(published_field())
    assert crossings == len(report.zero_loci) == 3


def test_certificate_published_field():
    report = certify_hadamard(published_field())
    assert report.is_hadamard
    assert not report.curvature_identically_zero
    assert report.max_curvature_on_domain == 0.0
    for locus, stage, age in zip(report.zero_loci, STAGES, AGES):
        assert abs(locus.stage - stage) < 1e-6
        assert abs(locus.age_years - age) < 1e-4


def test_zero_loci_flags_and_age_consistency():
    report = certify_hadamard(published_field())
    first, second, third = report.zero_loci
    assert first.in_domain and not first.extrapolated
    assert second.in_domain and not second.extrapolated
    assert third.extrapolated and not third.in_domain
    for locus in report.zero_loci:
        assert locus.age_years == stagemap.age(locus.stage)


def test_certificate_away_from_loci_is_strictly_negative():
    report = certify_hadamard(
        published_field().with_domain(Rectangle(4.0, 5.0, 0.2, 3.5))
    )
    assert report.is_hadamard
    assert report.max_curvature_on_domain < 0.0


def test_plane_field_identically_flat():
    f = RiskField((2.0, 0.0, 0.0, 0.0, 0.0), (1.0, 3.0, 0.0, 0.0, 0.0))
    report = certify_hadamard(f)
    assert report.curvature_identically_zero
    assert report.is_hadamard
    assert report.max_curvature_on_domain == 0.0
    assert report.zero_loci == ()


def test_rootless_cubic_field():
    # q = 1 + 3 t^2 never vanishes, so curvature stays strictly negative.
    f = RiskField((0.0, 1.0, 0.0, 1.0, 0.0), (0.0,) * 5)
    report = certify_hadamard(f)
    assert report.zero_loci == ()
    assert report.max_curvature_on_domain < 0.0
    assert report.is_hadamard


def _fd_curvature(f, t, c, h=1e-4):
    """Gaussian curvature of the graph of f from central differences of
    its values alone; t and c may be arrays."""
    f00 = f(t, c)
    ftt = (f(t + h, c) - 2.0 * f00 + f(t - h, c)) / (h * h)
    fcc = (f(t, c + h) - 2.0 * f00 + f(t, c - h)) / (h * h)
    ftc = (
        f(t + h, c + h) - f(t + h, c - h) - f(t - h, c + h) + f(t - h, c - h)
    ) / (4.0 * h * h)
    ft = (f(t + h, c) - f(t - h, c)) / (2.0 * h)
    fc = (f(t, c + h) - f(t, c - h)) / (2.0 * h)
    return (ftt * fcc - ftc * ftc) / (1.0 + ft * ft + fc * fc) ** 2


def test_max_curvature_matches_finite_difference_oracle():
    # The reported maximum is a supremum over the rectangle: no sample of
    # the finite-difference curvature may exceed it, and a 64 x 64 grid
    # kept 2e-4 of a side inside the boundary comes within 1% of it.
    rng = np.random.default_rng(41)
    for _ in range(30):
        t0, c0 = rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0)
        dom = Rectangle(
            t0, t0 + rng.uniform(0.2, 1.5), c0, c0 + rng.uniform(0.3, 2.0)
        )
        f = RiskField(
            tuple(rng.uniform(-2.0, 2.0, 5)), tuple(rng.uniform(-2.0, 2.0, 5)),
            dom,
        )
        pad_t = 2e-4 * (dom.t_max - dom.t_min)
        pad_c = 2e-4 * (dom.c_max - dom.c_min)
        ts, cs = np.meshgrid(
            np.linspace(dom.t_min + pad_t, dom.t_max - pad_t, 64),
            np.linspace(dom.c_min + pad_c, dom.c_max - pad_c, 64),
        )
        k = _fd_curvature(f.evaluate, ts, cs)
        sup = certify_hadamard(f).max_curvature_on_domain
        assert sup <= 0.0
        assert k.max() <= sup + 1e-3 * abs(sup)
        assert sup - k.max() <= 1e-2 * abs(sup) + 1e-3 * abs(k.min())


def test_geometry_report_shape():
    report = build_geometry_report(published_field())
    assert report["is_hadamard"] is True
    assert report["max_curvature_on_domain"] == 0.0
    assert report["search_interval"] == [1.0, 6.0]
    coeffs = report["numerator_cubic"]
    assert len(coeffs) == 4 and abs(coeffs[0] - 33.17) < 1e-12
    loci = report["zero_loci"]
    assert [entry["stage_rounded"] for entry in loci] == [1.85, 3.33, 5.6]
    assert [entry["age_rounded"] for entry in loci] == [5.3, 27.8, 108.0]
    assert loci[2]["label"].endswith("(extrapolated)")
    assert "extrapolated" not in loci[0]["label"]
    json.dumps(report)
