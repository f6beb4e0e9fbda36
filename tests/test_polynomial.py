"""Polynomial arithmetic and the Sturm root machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehgrisk import polynomial
from mehgrisk.polynomial import (
    ROOT_TOL,
    Polynomial,
    bisect_root,
    common_roots,
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


def test_array_evaluation_fills_out_in_place():
    # Over an array the Horner chain runs in the caller's buffer and
    # returns it, with the bits of the scalar calls; a constant fills it.
    ts = np.array([-2.0, -0.0, 0.5, 3.0, np.inf])
    p = Polynomial((1.0, -2.0, 0.5))
    buf = np.full_like(ts, np.nan)
    assert p(ts, out=buf) is buf
    assert buf.tobytes() == np.array([p(t) for t in ts.tolist()]).tobytes()
    assert p(ts).tobytes() == buf.tobytes()
    const = Polynomial((-0.0,))
    assert const(ts, out=buf) is buf
    assert buf.tobytes() == np.full_like(ts, -0.0).tobytes()


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
        assert len(isolate_roots(chain, -10.0, 10.0)) == len(real)


def test_isolated_brackets_contain_one_root_each():
    # (x - 1)(x - 2)(x - 4), well separated roots
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))
    brackets = isolate_roots(sturm_sequence(p), 0.0, 10.0)
    assert len(brackets) == 3
    for (lo, hi), root in zip(brackets, (1.0, 2.0, 4.0)):
        assert lo < root <= hi


def test_real_roots_accuracy():
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))
    roots = real_roots(p, 0.0, 10.0)
    assert len(roots) == 3
    for found, true in zip(roots, (1.0, 2.0, 4.0)):
        assert abs(found - true) < 1e-10


def test_root_on_interval_endpoint_is_found():
    p = Polynomial((-1.0, 1.0))   # root at exactly 1
    roots = real_roots(p, 1.0, 2.0)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-8


def test_root_just_below_the_interval_is_not_reported():
    # The isolation padded below a used to clamp this root onto a.
    below = Polynomial((-(1 - 2**-33), 1.0))
    assert real_roots(below, 1.0, 5.0) == ()
    assert common_roots([below, below * 2.0], 1.0, 5.0) == ()
    (root,) = real_roots(below * Polynomial((-1.0, 1.0)), 1.0, 5.0)
    assert abs(root - 1.0) <= ROOT_TOL
    (root,) = real_roots(Polynomial((-1.0, 1.0)), 1.0, 5.0)
    assert abs(root - 1.0) <= ROOT_TOL


def test_bisection_takes_the_root_of_its_bracket():
    # A zero at lo belongs to the bracket before: bisection returned
    # 0.5 for both brackets and lost 0.75.
    chain = sturm_sequence(Polynomial((-0.5, 1.0)) * Polynomial((-0.75, 1.0)))
    assert isolate_roots(chain, 0.0, 1.0) == [(0.0, 0.5), (0.5, 1.0)]
    assert bisect_root(chain[0], 0.5, 1.0) == 0.75


def test_repeated_root_counted_once():
    # (x - 2)^2 (x + 1)
    p = Polynomial((4.0, 0.0, -3.0, 1.0))
    roots = real_roots(p, -5.0, 5.0)
    assert len(roots) == 2
    assert abs(roots[0] + 1.0) < 1e-8
    assert abs(roots[1] - 2.0) < 1e-6


def test_common_roots_are_the_exact_gcd_roots():
    # (x - 1)(x - 2)(x - 4) and (x - 2)^2 (x + 1) share only x = 2; a zero
    # polynomial shares every root, and x^2 + 1 none.
    p = Polynomial((-8.0, 14.0, -7.0, 1.0))
    q = Polynomial((4.0, 0.0, -3.0, 1.0))
    (root,) = common_roots([p, q], -5.0, 5.0)
    assert abs(root - 2.0) < 1e-10
    assert common_roots([p, Polynomial.zero()], 0.0, 10.0) == real_roots(p, 0.0, 10.0)
    assert common_roots([p, Polynomial((1.0, 0.0, 1.0))], -5.0, 5.0) == ()
    assert common_roots([p, q], 3.0, 5.0) == ()


def test_no_real_roots():
    p = Polynomial((1.0, 0.0, 1.0))   # x^2 + 1
    assert real_roots(p, -100.0, 100.0) == ()


def test_bisect_requires_sign_change():
    p = (1, 0, 1)   # x^2 + 1, integer coefficients ascending
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
        # numpy's companion-matrix roots lose accuracy on clusters; require
        # agreement whenever its roots are well separated.
        if len(theirs) >= 2 and min(
            b - a for a, b in zip(theirs, theirs[1:])
        ) < 1e-3:
            continue
        assert len(ours) == len(theirs)
        for x, y in zip(ours, theirs):
            assert abs(x - y) < 1e-7


@st.composite
def _planted(draw):
    """(k, numerators): roots m / 2^k with k <= 6 and |m| <= 2^9, each after
    the first a fresh draw, a repeat or a neighbour of an earlier one."""
    k = draw(st.integers(0, 6))
    numerator = st.integers(-2**9, 2**9)
    ms = [draw(numerator)]
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.sampled_from(ms)) + draw(st.sampled_from((-1, 0, 1)))
        ms.append(draw(st.one_of(numerator, st.just(max(-2**9, min(m, 2**9))))))
    return k, ms


@settings(max_examples=300, deadline=None)
@given(planted=_planted(),
       ends=st.tuples(*[st.integers(-520 * 64, 520 * 64)] * 2))
def test_planted_roots_are_found_once(planted, ends):
    # p = prod(2^k t - m) has exact float coefficients (all below 2^50), so
    # its roots are exactly m / 2^k: double roots touch zero without a
    # sign change, and neighbours at k = 6 sit 2^-6 apart.  The interval
    # ends are multiples of 2^-6, so a root may sit on either end.
    k, ms = planted
    p = Polynomial((1.0,))
    for m in ms:
        p = p * Polynomial((-float(m), float(2**k)))
    a, b = sorted(e / 64 for e in ends)
    want = sorted({m / 2**k for m in ms if a <= m / 2**k <= b})
    found = real_roots(p, a, b)
    assert len(found) == len(want)
    assert all(abs(x - y) <= ROOT_TOL for x, y in zip(found, want))
    assert len(isolate_roots(sturm_sequence(p), a, b)) == sum(x > a for x in want)


def test_import_loads_no_fractions_or_decimal(fresh_python):
    # Exact arithmetic here is plain ints; `fractions` would also load
    # `decimal`, which costs every run resident memory.
    proc = fresh_python("-c", "import sys, mehgrisk; print(sorted("
                        "{'fractions', 'decimal'} & set(sys.modules)))",
                        seconds=30.0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_format_descending():
    p = Polynomial((-5.25, 8.93, -4.54, 0.92, -0.06))
    text = p.format_descending()
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


@pytest.mark.parametrize(
    "coefficients",
    [
        (12.216890299320234, -3.5, 0.0, -4.172325136e-07, -0.000213623046875),
        (11.045035426647509, -3.5, 0.0, 4.172325136e-07, 0.001953125),
        (-0.50390625, -1.0, 0.0, 0.00390625, 2.0),
    ],
    ids=["lost-root", "lost-root-2", "spurious-root"],
)
def test_false_common_factor_falls_back_to_sign_changes(coefficients):
    # Polynomials from fields a property test drew: two crossings with
    # c = 3.5 and one slope g >= 0.5 on [1, 5].  The first remainder's top
    # coefficient is 1e-10 or 1e-6 of the rest, so a float Sturm chain
    # ended in a false common factor.  It found no root of the first two,
    # though each changes sign over [1, 5], and a root of the third at
    # 1.0103, where it is 0.52; the region area missed a clamp crossing or
    # fell back to Monte Carlo.  numpy's companion-matrix roots are the
    # reference.
    p = Polynomial(coefficients)
    want = sorted(r.real for r in np.roots(coefficients[::-1])
                  if abs(r.imag) < 1e-9 and 1.0 <= r.real <= 5.0)
    found = real_roots(p, 1.0, 5.0)
    assert len(found) == len(want)
    assert all(abs(x - y) < 1e-9 for x, y in zip(found, want))
