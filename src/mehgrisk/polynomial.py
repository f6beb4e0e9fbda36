"""Univariate polynomial arithmetic and exact real root isolation.

Coefficients are stored ascending by power, so ``Polynomial((c0, c1, c2))``
is c0 + c1*x + c2*x**2, in plain floats.  Root counts are exact: each float
coefficient is a binary fraction, so scaling p by the common power of two
gives an integer polynomial with p's roots.  Its Sturm chain is a primitive
pseudo-remainder sequence in Python ints (Collins 1967; Brown & Traub
1971), and every sign that the counts read is the exact sign of an
integer polynomial at a float (`sign_at`).  Degrees in this package stay
small (at most five), which keeps the integers short.

The bisection reads exact signs only beside each root: Newton's method in
floats proposes a narrow bracket, two exact signs certify it, and a
midpoint outside it takes its side unevaluated, the floating-point filter
of exact geometric predicates (Shewchuk 1997).  Every halving, and so
every root's float, is that of the exact signs alone.  MonotonePieces
holds the stationary points of one polynomial p, from one exact chain, so
that the roots of L - p come, for each constant L, from exact signs at
the ends of p's monotone pieces instead of a Sturm chain per L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Width to which real_roots brackets each root.
ROOT_TOL = 1e-10
# Newton steps bisect_root spends on a float estimate of its root, and the
# unit roundoff of a float.
NEWTON_STEPS = 16
_U = 2.0**-53


def _horner(coefficients, x, out=None):
    """Polynomial.__call__ on coefficients ascending by power.  With `out`
    of shape (k, n), and at least two coefficients, they may be (k, 1)
    columns: k polynomials evaluated at once, one to a row of out, each
    row with the bits of its own chain."""
    acc, *rest = reversed(coefficients)
    if out is not None:
        # x * top is top * x, bit for bit: one pass instead of fill, *=.
        acc = np.multiply(x, acc, out=out)
        acc += rest.pop(0)
    for c in rest:
        acc *= x   # a float times an array is a new array
        acc += c
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Immutable real polynomial, coefficients ascending by power."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0.0,))

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls((float(value),))

    @property
    def degree(self) -> int:
        """Effective degree; -1 for the zero polynomial.

        Trailing stored coefficients may be exact zeros, so the tuple
        length only bounds the degree.
        """
        for k in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[k] != 0.0:
                return k
        return -1

    def is_zero(self) -> bool:
        return self.degree < 0

    def __call__(self, x):
        """Horner's rule from the top coefficient: acc = acc * x + c_k, for
        a float x or, in place in a new array, for each element of an
        array x."""
        return _horner(self.coefficients, x)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __add__(self, other: "Polynomial | float") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        n = max(len(self.coefficients), len(other.coefficients))
        a = self.coefficients + (0.0,) * (n - len(self.coefficients))
        b = other.coefficients + (0.0,) * (n - len(other.coefficients))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | float") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: float) -> "Polynomial":
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other: "Polynomial | float") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(float(other) * c for c in self.coefficients))
        out = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        if len(self.coefficients) == 1:
            return Polynomial.zero()
        return Polynomial(
            tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        )

    def antiderivative(self) -> "Polynomial":
        """The antiderivative that vanishes at 0."""
        return Polynomial(
            (0.0, *(c / (k + 1) for k, c in enumerate(self.coefficients)))
        )

    def integrate(self, a: float, b: float) -> float:
        """Definite integral over [a, b] from the antiderivative."""
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def format_descending(self) -> str:
        """Human-readable form in t, highest power first: '-0.06 t^4 + ...'."""
        d = self.degree
        if d < 0:
            return "0"
        parts: list[str] = []
        for k in range(d, -1, -1):
            c = self.coefficients[k]
            if c == 0.0 and d > 0:
                continue
            mag = f"{abs(c):.6g}"
            if k == 0:
                term = mag
            elif k == 1:
                term = f"{mag} t"
            else:
                term = f"{mag} t^{k}"
            if not parts:
                parts.append(term if c >= 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c >= 0 else f"- {term}")
        return " ".join(parts)


def _primitive(q: list[int]) -> tuple[int, ...]:
    """q without its zero top terms, divided by the gcd of its terms."""
    while q and not q[-1]:
        q.pop()
    g = math.gcd(*q)
    return tuple(c // g for c in q) if g > 1 else tuple(q)


def _integer(p: Polynomial) -> tuple[int, ...]:
    """p times the common power of two of its coefficients, made
    primitive: an integer polynomial with p's roots."""
    ratios = [c.as_integer_ratio() for c in p.coefficients]
    scale = max(d for _, d in ratios)
    return _primitive([n * (scale // d) for n, d in ratios])


def _prem(f: tuple[int, ...], g: tuple[int, ...]) -> list[int]:
    """The remainder of f by g times |lead g|^(deg f - deg g + 1): a
    positive multiple of the remainder, in integers."""
    r, dg = list(f), len(g) - 1
    m, s = abs(g[-1]), (1 if g[-1] > 0 else -1)
    for k in range(len(f) - len(g), -1, -1):
        q = s * r.pop()
        r = [m * c for c in r]
        for j in range(dg):
            r[k + j] -= q * g[j]
    return r


def _quotient(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f / g for a primitive g that divides f: integers by Gauss's lemma."""
    r, dg = list(f), len(g) - 1
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + dg] // g[-1]
        for j in range(dg + 1):
            r[k + j] -= q[k] * g[j]
    return _primitive(q)


def _chain(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Primitive pseudo-remainder sequence p, p', -rem, ...: a Sturm chain
    of p up to positive factors, ending in gcd(p, p')."""
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _primitive([-c for c in _prem(chain[-2], chain[-1])])
        if not r:
            break
        chain.append(r)
    return chain


def sturm_sequence(p: Polynomial) -> list[tuple[int, ...]]:
    """Exact Sturm chain of the square-free part of p, as integer
    coefficient tuples ascending by power, so repeated roots are counted
    once.  chain[0] is that square-free part."""
    return _sturm(_integer(p))


def _sturm(q: tuple[int, ...]) -> list[tuple[int, ...]]:
    if len(q) <= 1:
        return [q]
    chain = _chain(q)
    if len(chain[-1]) > 1:   # p has repeated roots: restart on p / gcd(p, p')
        chain = _chain(_quotient(q, chain[-1]))
    return chain


def sign_at(p: tuple[int, ...], x: float) -> int:
    """Exact sign (-1, 0 or 1) of the integer polynomial p at the float x:
    Horner's rule on x = n/d, homogeneous in d so it stays in integers."""
    n, d = x.as_integer_ratio()
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _variations(chain: list[tuple[int, ...]], x: float) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    signs = [s for s in (sign_at(q, x) for q in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def isolate_roots(
    chain: list[tuple[int, ...]], a: float, b: float
) -> list[tuple[float, float]]:
    """Brackets (lo, hi], each containing exactly one distinct root of the
    polynomial whose Sturm chain is given: (a, b] halved until each part
    holds one root or no float lies between its ends, which ends every
    path of halvings within about 2,100 steps."""
    if len(chain[0]) <= 1:
        return []
    out: list[tuple[float, float]] = []
    # Each end with its variation count, so a split reads the chain once.
    stack = [(a, _variations(chain, a), b, _variations(chain, b))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        mid = 0.5 * (lo + hi)
        if v_lo - v_hi == 1 or mid in (lo, hi):
            out.append((lo, hi))
            continue
        v_mid = _variations(chain, mid)
        stack.append((lo, v_lo, mid, v_mid))
        stack.append((mid, v_mid, hi, v_hi))
    out.sort()
    return out


def _floats(p: tuple[int, ...]) -> list[float]:
    """The integer polynomial p as floats, scaled by one power of two that
    keeps its largest coefficient near 1: p up to a positive factor."""
    scale = 1 << max(abs(c) for c in p).bit_length()
    return [c / scale for c in p]


def _estimate(f: list[float], lo: float, hi: float, shi: int) -> tuple[float, float]:
    """A float x near the one root in (lo, hi) of the polynomial with float
    coefficients f, whose sign above the root is shi, and a radius about x
    that should hold the root.  x comes from at most NEWTON_STEPS
    safeguarded Newton steps, in which float signs shrink the bracket and
    a step that would leave it is a halving, until a step is below
    2^-44 |x| + 2^-10 ROOT_TOL.  The radius is twice (|f(x)| + its
    rounding bound) / |f'(x)|, plus an ulp of x."""
    top = f[::-1]
    x = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        v = d = 0.0
        for c in top:
            d = d * x + v
            v = v * x + c
        if not v:
            break
        if (v > 0.0) == (shi > 0):
            hi = x
        else:
            lo = x
        step = v / d if d else math.inf
        if not lo < x - step < hi:
            x = 0.5 * (lo + hi)
            continue
        x -= step
        if abs(step) <= 2.0**-44 * abs(x) + 2.0**-10 * ROOT_TOL:
            break
    v = d = e = 0.0
    for c in top:
        d = d * x + v
        v = v * x + c
        e = e * abs(x) + abs(c)
    if not d:
        return x, math.inf
    return x, 2.0 * (abs(v) + 2 * len(f) * _U * e) / abs(d) + math.ulp(x)


def _narrow(p: tuple[int, ...], f: list[float], lo: float, hi: float,
            shi: int) -> tuple[float, float]:
    """(a, b) with lo <= a < b <= hi and the one root of p in (lo, hi]
    inside (a, b), p's sign being shi above the root: the ends of
    _estimate's radius about its float estimate, each kept where its
    exact sign places it below or above the root."""
    x, radius = _estimate(f, lo, hi, shi)
    a, b = lo, hi
    for y in (x - radius, x + radius):
        if a < y < b:
            s = sign_at(p, y)
            if s == shi:
                b = y
            elif s:
                a = y
    return a, b


def _descend(p: tuple[int, ...], lo: float, hi: float, shi: int, a: float,
             b: float) -> tuple[float, float, float]:
    """bisect_root's loop on (lo, hi], whose one root of p lies in (a, b),
    p's sign being shi above the root: a midpoint at or below a, or at or
    above b, takes its side with no exact sign.  Returns the last bracket
    and the root's float: the bracket's midpoint, or a midpoint at which
    p is 0."""
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            s = sign_at(p, mid)
            if s == 0:
                return lo, hi, mid
            if s == shi:
                hi = mid
            else:
                lo = mid
    return lo, hi, 0.5 * (lo + hi)


def bisect_root(p: tuple[int, ...], lo: float, hi: float) -> float:
    """Refine the root in the bracket (lo, hi] of the integer polynomial p,
    whose sign changes there once, as isolate_roots' brackets of a
    square-free p do, by bisection to width ROOT_TOL, or until no float
    lies between its ends.  A zero at lo is not the bracket's root.  Each
    midpoint takes its side by the exact sign of p, except outside the
    narrow bracket about the root that _narrow certifies, where that sign
    is known: the halvings and the result are those of the exact signs."""
    shi = sign_at(p, hi)
    if shi == 0:
        return hi
    if sign_at(p, lo) == shi:
        raise ValueError("bracket does not straddle a sign change")
    a, b = _narrow(p, _floats(p), lo, hi, shi) if hi - lo > ROOT_TOL else (lo, hi)
    return _descend(p, lo, hi, shi, a, b)[2]


def real_roots(p: Polynomial, a: float, b: float) -> tuple[float, ...]:
    """Distinct real roots of p in the closed interval [a, b], sorted.

    Sturm counting is half-open at the left end, so roots are isolated on
    the interval padded slightly below a.  The exact signs at a decide
    whether the root of a bracket that reaches below a lies in [a, b], and
    each root is clamped into [a, b].
    """
    return _roots(sturm_sequence(p), a, b)


def common_roots(polys: list[Polynomial], a: float, b: float) -> tuple[float, ...]:
    """Distinct real roots in [a, b] that all of polys share: the roots of
    the exact gcd of their integer forms.  A zero polynomial shares every
    root; the polynomials after a constant gcd are not read."""
    q: tuple[int, ...] = ()
    for p in polys:
        f = _integer(p)
        while f:   # Euclid on primitive pseudo-remainders
            q, f = f, _primitive(_prem(q, f))
        if len(q) == 1:
            break
    return _roots(_sturm(q), a, b)


def _left(a: float, b: float) -> float:
    """The left end of the interval (a - pad, b] on which real_roots
    isolates the roots in [a, b]."""
    return a - (1e-9 * (1.0 + abs(a)) + 1e-9 * (b - a))


def _roots(chain: list[tuple[int, ...]], a: float, b: float) -> tuple[float, ...]:
    p = chain[0]
    s_a = sign_at(p, a)
    # The root in (lo, hi] is at or above a when the sign changes in [a, hi].
    return tuple(sorted(
        min(max(bisect_root(p, lo, hi), a), b)
        for lo, hi in isolate_roots(chain, _left(a, b), b)
        if lo >= a or hi >= a and (s_a == 0 or s_a != sign_at(p, hi))
    ))


@dataclass(frozen=True)
class MonotonePieces:
    """The pieces on which a polynomial p is monotone, read for the roots
    of L - p in [a, b] at any constant L.

    stations are, in order, the point a - pad, where real_roots' padded
    interval (a - pad, b] starts, brackets (lo, hi] about the stationary
    points of p in that interval, from one exact Sturm chain of p's
    integer derivative, each narrowed to width ROOT_TOL or a float by
    _narrow or, where it does not get there, by bisection, and the point
    b.  p is monotone between two stations.  spans holds, per
    station, p - p(0) at lo in floats and twice a bound on how far
    p - p(0) lies from that on the station: (hi - lo)^2 max|p''| plus
    Horner's rounding bound.

    roots(q), for q with the negatives of p's coefficients above the
    constant, as L - p has, is real_roots(q, a, b) bit for bit.  q keeps
    one sign on a station whose span its constant clears, and the two end
    points take exact signs where it does not.  Each monotone piece whose
    ends' signs differ holds one root, which descends the tree of halvings
    of (a - pad, b] that real_roots' isolation and bisection descend, from
    a bracket certified as in bisect_root, to its cell of width ROOT_TOL.
    Where that might not give real_roots' float, real_roots answers: q of
    degree below 2, q zero at an end point, a bracket's span that q does
    not clear, two roots in one cell, or a cell that holds a as well as
    its root.
    """

    a: float
    b: float
    upper: tuple[float, ...]
    stations: tuple[tuple[float, float], ...]
    spans: tuple[tuple[float, float], ...]

    @classmethod
    def of(cls, p: Polynomial, a: float, b: float) -> "MonotonePieces":
        q, left = _integer(p), _left(a, b)
        chain = _sturm(_primitive([k * c for k, c in enumerate(q)][1:]))
        f = _floats(chain[0]) if len(chain[0]) > 1 else []
        stations = [(left, left)]
        for lo, hi in isolate_roots(chain, left, b):
            shi = sign_at(chain[0], hi)
            if not shi:   # a stationary point at hi
                lo = hi
            elif hi - lo > ROOT_TOL and sign_at(chain[0], lo) != shi:
                lo, hi = _narrow(chain[0], f, lo, hi, shi)
                if hi - lo > ROOT_TOL:
                    lo, hi, _ = _descend(chain[0], lo, hi, shi, lo, hi)
            stations.append((lo, hi))
        stations.append((b, b))
        upper = p.coefficients[1:]
        return cls(a, b, upper, tuple(stations),
                   tuple(_span(upper, lo, hi) for lo, hi in stations))

    def roots(self, q: Polynomial) -> tuple[float, ...]:
        """real_roots(q, a, b), bit for bit."""
        found = self._level_roots(q)
        return real_roots(q, self.a, self.b) if found is None else found

    def _level_roots(self, q: Polynomial) -> tuple[float, ...] | None:
        (q0, *upper), a, b = q.coefficients, self.a, self.b
        if q.degree < 2 or tuple(-c for c in upper) != self.upper:
            return None
        p, signs, last = None, [], len(self.stations) - 1
        for k, ((lo, _), (center, radius)) in enumerate(
                zip(self.stations, self.spans)):
            v = q0 - center
            if abs(v) > radius:
                s = 1 if v > 0.0 else -1
            elif k in (0, last):
                p = p or _integer(q)
                s = sign_at(p, lo)
                if not s:
                    return None   # a zero at an end point
            else:
                return None   # q may vanish in the bracket
            signs.append(s)
        left, f = self.stations[0][0], list(q.coefficients)
        cells = []
        for (_, u), (v, _), s_u, s_v in zip(self.stations, self.stations[1:],
                                            signs, signs[1:]):
            if s_u != s_v:
                p = p or _integer(q)
                cells.append(_descend(p, left, b, s_v, *_narrow(p, f, u, v, s_v)))
        if any(hi > lo for (_, hi, _), (lo, _, _) in zip(cells, cells[1:])):
            return None   # two roots share a cell
        if any(lo < a <= hi for lo, hi, _ in cells):
            return None   # a cell holds a as well as its root
        return tuple(sorted(min(max(x, a), b) for lo, _, x in cells if lo >= a))


def _span(upper: tuple[float, ...], lo: float, hi: float) -> tuple[float, float]:
    """u(lo) for u = sum_k upper[k - 1] x^k by Horner's rule, and twice a
    bound on |u(x) - that| for x in [lo, hi], where u' is 0 somewhere if
    hi > lo: |u(x) - u(lo)| <= (hi - lo)^2 max|u''|, and Horner's rounding
    is at most 2 (n + 1) u sum_k |upper[k - 1]| |lo|^k for degree n."""
    top = max(abs(lo), abs(hi))
    v = e = m2 = 0.0
    for k in range(len(upper), 0, -1):
        c = upper[k - 1]
        v = v * lo + c
        e = e * abs(lo) + abs(c)
        if k >= 2:
            m2 = m2 * top + k * (k - 1) * abs(c)
    v, e, w = v * lo, e * abs(lo), hi - lo
    return v, 2.0 * (w * w * m2 + 2 * (len(upper) + 1) * _U * e)
