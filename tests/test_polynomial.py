"""Polynomial arithmetic and the Sturm root machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mehgrisk import polynomial
from mehgrisk.polynomial import (
    Polynomial,
    bisect_root,
    count_roots,
    divmod_poly,
    isolate_roots,
    real_roots,
    sturm_sequence,
)


def test_evaluation_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        coeffs = rng.uniform(-5, 5, rng.integers(1, 7))
        p = Polynomial(tuple(coeffs))
        x = float(rng.uniform(-3, 3))
        expected = float(np.polyval(coeffs[::-1], x))
        assert math.isclose(p(x), expected, rel_tol=1e-12, abs_tol=1e-12)


def test_degree_ignores_trailing_zeros():
    assert Polynomial((1.0, 2.0, 0.0)).degree == 1
    assert Polynomial((0.0,)).degree == -1
    assert Polynomial((0.0, 0.0, 3.0)).degree == 2
    assert Polynomial.zero().is_zero()


def test_arithmetic():
    p = Polynomial((1.0, 2.0))          # 1 + 2x
    q = Polynomial((0.0, 1.0, 1.0))     # x + x^2
    assert (p + q).coefficients == (1.0, 3.0, 1.0)
    assert (p - q).coefficients == (1.0, 1.0, -1.0)
    # (1 + 2x)(x + x^2) = x + 3x^2 + 2x^3
    assert (p * q).coefficients == (0.0, 1.0, 3.0, 2.0)
    assert (2.0 * p).coefficients == (2.0, 4.0)
    assert (p + 1.0).coefficients == (2.0, 2.0)


def test_derivative_and_antiderivative():
    p = Polynomial((3.0, 0.0, 1.0))     # 3 + x^2
    assert p.derivative().coefficients == (0.0, 2.0)
    assert Polynomial((5.0,)).derivative().is_zero()
    anti = p.antiderivative()
    assert anti.derivative().coefficients[: 3] == (3.0, 0.0, 1.0)
    # integral of 3 + x^2 over [0, 2] = 6 + 8/3
    assert math.isclose(p.integrate(0.0, 2.0), 6.0 + 8.0 / 3.0, rel_tol=1e-14)


def test_integrate_against_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(50):
        coeffs = tuple(rng.uniform(-4, 4, 5))
        p = Polynomial(coeffs)
        a, b = sorted(rng.uniform(-2, 2, 2))
        if b - a < 1e-3:
            continue
        xs = np.linspace(a, b, 20001)
        approx = float(np.trapezoid([p(x) for x in xs], xs))
        assert math.isclose(p.integrate(a, b), approx, rel_tol=1e-6, abs_tol=1e-6)


def test_divmod_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = Polynomial(tuple(rng.uniform(-3, 3, 5)))
        g = Polynomial(tuple(rng.uniform(-3, 3, 3)))
        if abs(g.coefficients[-1]) < 0.1:
            continue
        q, r = divmod_poly(f, g)
        back = q * g + r
        for cf, cb in zip(f.coefficients, back.coefficients):
            assert math.isclose(cf, cb, rel_tol=1e-9, abs_tol=1e-9)
        assert r.degree < g.degree


def test_sturm_root_count_matches_numpy():
    rng = np.random.default_rng(23)
    for _ in range(150):
        coeffs = rng.uniform(-4, 4, rng.integers(2, 6))
        p = Polynomial(tuple(coeffs))
        if p.degree < 1:
            continue
        npr = np.roots(coeffs[::-1])
        real = sorted(
            r.real for r in npr
            if abs(r.imag) < 1e-9 and -10 < r.real <= 10
        )
        chain = sturm_sequence(p)
        assert count_roots(chain, -10.0, 10.0) == len(real)


def test_isolated_brackets_contain_one_root_each():
    # (x - 1)(x - 2)(x - 4), well separated roots
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))
    brackets = isolate_roots(sturm_sequence(p), 0.0, 10.0)
    assert len(brackets) == 3
    for (lo, hi), root in zip(brackets, (1.0, 2.0, 4.0)):
        assert lo < root <= hi


def test_real_roots_accuracy():
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))
    roots = real_roots(p, 0.0, 10.0, tol=1e-12)
    assert len(roots) == 3
    for found, true in zip(roots, (1.0, 2.0, 4.0)):
        assert abs(found - true) < 1e-10


def test_root_on_interval_endpoint_is_found():
    p = Polynomial((-1.0, 1.0))   # root at exactly 1
    roots = real_roots(p, 1.0, 2.0)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-8


def test_repeated_root_counted_once():
    # (x - 2)^2 (x + 1)
    p = Polynomial((4.0, 0.0, -3.0, 1.0))
    roots = real_roots(p, -5.0, 5.0)
    assert len(roots) == 2
    assert abs(roots[0] + 1.0) < 1e-8
    assert abs(roots[1] - 2.0) < 1e-6


def test_no_real_roots():
    p = Polynomial((1.0, 0.0, 1.0))   # x^2 + 1
    assert real_roots(p, -100.0, 100.0) == ()


def test_bisect_requires_sign_change():
    p = Polynomial((1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        bisect_root(p, -1.0, 1.0)


def test_random_quartics_roots_match_numpy():
    rng = np.random.default_rng(41)
    for _ in range(100):
        coeffs = rng.uniform(-5, 5, 5)
        if abs(coeffs[-1]) < 0.1:
            continue
        p = Polynomial(tuple(coeffs))
        ours = real_roots(p, -20.0, 20.0)
        npr = np.roots(coeffs[::-1])
        theirs = sorted(
            r.real for r in npr if abs(r.imag) < 1e-7 and -20 < r.real <= 20
        )
        # Clustered roots may merge under float Sturm cleanup; require
        # agreement whenever numpy's roots are well separated.
        if len(theirs) >= 2 and min(
            b - a for a, b in zip(theirs, theirs[1:])
        ) < 1e-3:
            continue
        assert len(ours) == len(theirs)
        for x, y in zip(ours, theirs):
            assert abs(x - y) < 1e-7


def test_format_descending():
    p = Polynomial((-5.25, 8.93, -4.54, 0.92, -0.06))
    text = p.format_descending("t")
    assert text == "-0.06 t^4 + 0.92 t^3 - 4.54 t^2 + 8.93 t - 5.25"
    assert Polynomial((0.0,)).format_descending() == "0"
    assert Polynomial((2.5,)).format_descending() == "2.5"


def test_real_roots_builds_one_sturm_chain(monkeypatch):
    # real_roots used to build the chain once to isolate and again for
    # the square-free part it refines on.
    calls = []
    build = polynomial.sturm_sequence

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(polynomial, "sturm_sequence", counted)
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))   # (x - 1)(x - 2)(x - 4)
    roots = polynomial.real_roots(p, 0.0, 10.0)
    assert len(calls) == 1
    assert [round(r, 8) for r in roots] == [1.0, 2.0, 4.0]


def test_negligible_top_term_keeps_the_roots():
    # 3e-304 t^4 beside 0.2 t^3 scaled the Sturm chain into overflow, and
    # real_roots found no root where there is one.
    p = Polynomial((1.0, 0.0, 0.0, -0.2, -3e-304))
    (root,) = real_roots(p, 1.0, 5.0)
    assert abs(root - 5.0 ** (1 / 3)) < 1e-9
