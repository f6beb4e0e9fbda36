"""Univariate polynomial arithmetic and real root isolation.

Coefficients are stored ascending by power, so ``Polynomial((c0, c1, c2))``
is c0 + c1*x + c2*x**2.  Everything here runs on plain floats.  Degrees in
this package stay small (at most five), which keeps the float Sturm chains
below fast, though not exact: remainders below a relative threshold count
as zero (`_cleanup`), and where a chain ends in a false common factor the
roots come from sign changes between the roots of the derivative instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative threshold below which a remainder in the Sturm chain is treated
# as identically zero.  Scaled by the magnitude of the operands.
_EPS = 1e-12
# Log of the relative size below which real_roots drops a polynomial's
# top term on its interval: the Sturm chain's own noise threshold.
_NEGLIGIBLE = math.log(_EPS)
# Width to which real_roots brackets each root.
ROOT_TOL = 1e-10
# Bisection depth at which isolate_roots stops splitting a bracket.
_MAX_DEPTH = 80


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

    def __call__(self, x: float) -> float:
        """Horner's rule from the top coefficient: acc = acc * x + c_k."""
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

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

    def trimmed(self) -> "Polynomial":
        d = self.degree
        if d < 0:
            return Polynomial.zero()
        return Polynomial(self.coefficients[: d + 1])

    def scale(self) -> float:
        return max(abs(c) for c in self.coefficients)

    def format_descending(self, var: str = "t") -> str:
        """Human-readable form, highest power first, e.g. '-0.06 t^4 + ...'."""
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
                term = f"{mag} {var}"
            else:
                term = f"{mag} {var}^{k}"
            if not parts:
                parts.append(term if c >= 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c >= 0 else f"- {term}")
        return " ".join(parts)


def divmod_poly(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of f by g (float long division)."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f = f.trimmed()
    g = g.trimmed()
    if f.degree < g.degree:
        return Polynomial.zero(), f
    rem = list(f.coefficients)
    dg = g.degree
    lead = g.coefficients[dg]
    quot = [0.0] * (f.degree - dg + 1)
    for k in range(f.degree - dg, -1, -1):
        q = rem[k + dg] / lead
        quot[k] = q
        for j in range(dg + 1):
            rem[k + j] -= q * g.coefficients[j]
    r = Polynomial(tuple(rem[:dg]) if dg > 0 else (0.0,))
    return Polynomial(tuple(quot)), r


def _cleanup(p: Polynomial, scale: float) -> Polynomial:
    """Zero out coefficients that are noise relative to the given scale."""
    tol = _EPS * scale
    return Polynomial(
        tuple(0.0 if abs(c) < tol else c for c in p.coefficients)
    ).trimmed()


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Sturm chain of p, divided through by any nontrivial gcd(p, p').

    The returned chain belongs to the square-free part of p, so repeated
    roots are counted once.
    """
    p = p.trimmed()
    if p.degree <= 0:
        return [p]
    scale = p.scale()
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        r = _cleanup(r, scale)
        if r.is_zero():
            break
        chain.append(-r)
    last = chain[-1]
    if last.degree > 0:
        # Nontrivial gcd: p has repeated roots.  Restart on p / gcd.
        reduced, rem = divmod_poly(p, last)
        if not _cleanup(rem, scale).is_zero():
            # A remainder with a tiny top term made the next one huge and
            # the one after it round to zero: a false common factor.
            raise ArithmeticError("float Sturm chain found a false common factor")
        return sturm_sequence(reduced)
    return chain


def _variations(chain: list[Polynomial], x: float) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0.0:
            signs.append(v > 0.0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain: list[Polynomial], a: float, b: float) -> int:
    """Distinct real roots in the half-open interval (a, b]."""
    if b < a:
        raise ValueError("interval endpoints out of order")
    return _variations(chain, a) - _variations(chain, b)


def isolate_roots(
    chain: list[Polynomial], a: float, b: float
) -> list[tuple[float, float]]:
    """Brackets (lo, hi], each containing exactly one distinct root of the
    polynomial whose Sturm chain is given."""
    if chain[0].degree <= 0:
        return []
    out: list[tuple[float, float]] = []
    stack = [(a, b, count_roots(chain, a, b), 0)]
    while stack:
        lo, hi, n, depth = stack.pop()
        if n == 0:
            continue
        if n == 1 or depth >= _MAX_DEPTH:
            out.append((lo, hi))
            continue
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, count_roots(chain, lo, mid), depth + 1))
        stack.append((mid, hi, count_roots(chain, mid, hi), depth + 1))
    out.sort()
    return out


def bisect_root(
    p: Polynomial, lo: float, hi: float, tol: float = ROOT_TOL
) -> float:
    """Refine a sign-change bracket by bisection to width tol."""
    flo, fhi = p(lo), p(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bracket does not straddle a sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_change_roots(p: Polynomial, a: float, b: float, tol: float) -> list:
    """Roots of p in [a, b] from signs alone: p is monotone between the
    roots of p', found the same way, so each such piece holds a root when
    p changes sign or vanishes at its ends.  A root where p only touches
    zero is missed; real_roots uses this where its Sturm chain failed."""
    if p.degree <= 0:
        return []
    stops = [a, *_sign_change_roots(p.derivative().trimmed(), a, b, tol), b]
    return [
        bisect_root(p, lo, hi, tol)
        for lo, hi in zip(stops, stops[1:])
        if p(lo) == 0.0 or p(hi) == 0.0 or (p(lo) < 0.0) != (p(hi) < 0.0)
    ]


def real_roots(
    p: Polynomial, a: float, b: float, tol: float = ROOT_TOL
) -> tuple[float, ...]:
    """Distinct real roots of p in the closed interval [a, b], sorted.

    Sturm counting is half-open at the left end, so the interval is padded
    slightly to catch a root sitting exactly on a; results are clamped
    back into [a, b].
    """
    # A top term below the chain's noise threshold on [a, b] (such as
    # 2e-16 t^4 or 1e-304 t^4 beside 0.25 t^3) makes the float Sturm chain
    # find false common factors or overflow; its extra roots lie far
    # outside, so it is dropped.
    log_m = math.log(max(abs(a), abs(b)) or 1.0)
    sizes = [
        math.log(abs(c)) + k * log_m if c else -math.inf
        for k, c in enumerate(p.trimmed().coefficients)
    ]
    while len(sizes) > 1 and sizes[-1] < max(sizes) + _NEGLIGIBLE:
        sizes.pop()
    p = Polynomial(p.coefficients[: len(sizes)]).trimmed()
    if p.degree <= 0:
        return ()
    pad = 1e-9 * (1.0 + abs(a)) + 1e-9 * (b - a)
    try:
        chain = sturm_sequence(p)
    except ArithmeticError:
        return tuple(sorted(set(_sign_change_roots(p, a, b, tol))))
    sq = chain[0]
    brackets = isolate_roots(chain, a - pad, b)
    roots = []
    for lo, hi in brackets:
        roots.append(min(max(bisect_root(sq, lo, hi, tol), a), b))
    return tuple(sorted(roots))
