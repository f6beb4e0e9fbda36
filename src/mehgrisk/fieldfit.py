"""Construction of the bivariate risk field R(t, c).

The field is built in two stages from tabulated hazard quotients:

1. for each concentration, a degree-4 Newton interpolant through five
   (stage, quotient) nodes;
2. for each power of t, an ordinary least-squares line across
   concentration, giving R(t, c) = sum_k (a_k c + b_k) t^k.

The result is affine in c by construction, which downstream analysis
relies on (one-signed d/dc, exactly vanishing d2/dc2).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from types import MappingProxyType

import numpy as np

from .polynomial import Polynomial, real_roots

DEGREE = 4
NODE_COUNT = DEGREE + 1
# A domain side must span at least this fraction of its bounds' size,
# max(1, |lo|, |hi|): plots and grids cannot resolve a narrower one.
MIN_SPAN = 1e-9
# The largest |R|, |g|, |g'|, |h'|, |dR/dt|, |t| or |c| a field may reach
# on its search range and c range.  It keeps every square the layers take
# finite, such as (1 + R_t^2 + g^2)^2, q^2, (dt)^2 or x * 1e9, so none of
# them has to guard against overflow.
MAX_MAGNITUDE = 2.0**250


# The checks of the values the package is given: the JSON values of the
# config file and of every input document, and the arguments of its
# constructors and entry points.  Each returns the value as the program
# holds it, or None for unset, and raises ValueError "expected WHAT, got
# VALUE" on a value of the wrong type or range; _arg names the value.

def _expected(what: str, value) -> ValueError:
    return ValueError(f"expected {what}, got {value!r}")


def _arg(name: str, check: Callable, value):
    """check(value), its ValueError prefixed with the value's name, as in
    "name: expected ...", or "name[3]: ..." for a list's item."""
    try:
        return check(value)
    except ValueError as exc:
        text = str(exc)
        raise ValueError(name + ("" if text[:1] == "[" else ": ") + text) from None


def _number(value) -> float:
    """A real number, a numpy one too, as a float: a string, a bool or an
    int past the float range is refused, NaN and inf left to the range
    checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _expected("a number", value)
    try:
        return float(value)
    except OverflowError:
        raise _expected("a number in the float range", value) from None


def _real(what: str, inside: Callable[[float], bool]) -> Callable:
    """The check of a finite number x for which inside(x) holds; its
    error says it expected `what`."""
    def check(value) -> float:
        x = _number(value)
        if not (math.isfinite(x) and inside(x)):
            raise _expected(what, value)
        return x
    return check


_finite = _real("a finite number", lambda x: True)
_positive = _real("a finite number > 0", lambda x: x > 0)
_nonnegative = _real("a finite number >= 0", lambda x: x >= 0)


def _within(lo: float, hi: float) -> Callable:
    """The check of a number in [lo, hi]."""
    return _real(f"a number in [{lo:g}, {hi:g}]", lambda x: lo <= x <= hi)


def _count(low: int, high: int | None = None) -> Callable:
    """The check of an int, a numpy one too, in [low, high]: a float, 2.0
    too, or a bool is refused."""
    what = (f"an integer >= {low}" if high is None
            else f"an integer in [{low}, {high}]")

    def check(value) -> int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < low or high is not None and value > high):
            raise _expected(what, value)
        return int(value)
    return check


def _integer(value) -> int:
    """An integer in JSON text, where 256.0 counts as 256, while 2.7, "2"
    or true is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected("an integer", value)
    return value


def _list(item: Callable, count: int | None = None) -> Callable:
    """The check of a list or a tuple of items, count of them if count is
    given, as a tuple; an item's error names its index."""
    def check(value) -> tuple:
        if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
            raise _expected("a list" + (f" of {count}" if count else ""), value)
        return tuple(_arg(f"[{i}]", item, x) for i, x in enumerate(value))
    return check


def _string(value) -> str | None:
    """A string; the empty one counts as unset."""
    if not isinstance(value, str):
        raise _expected("a string", value)
    return value or None


def _path(value) -> Path:
    """A path, given as one or as a nonempty string."""
    if not isinstance(value, (str, PurePath)) or value == "":
        raise _expected("a path or a nonempty string", value)
    return Path(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise _expected("true or false", value)
    return value


def _object(checks: dict[str, Callable]) -> Callable:
    """The check of an object with exactly the keys of checks, each value
    passed through its check and named by its key.  A value its check
    leaves unset, such as "" for _string, counts as missing."""
    def check(value) -> dict:
        if not isinstance(value, dict):
            raise _expected("a JSON object", value)
        for key in value:
            if key not in checks:
                raise ValueError(f"unknown key {key!r}")
        checked = {}
        for key, item in checks.items():
            checked[key] = _arg(key, item, value[key]) if key in value else None
            if checked[key] is None:
                raise ValueError(f"missing key {key!r}")
        return checked
    return check


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned domain [t_min, t_max] x [c_min, c_max]."""

    t_min: float
    t_max: float
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        for name in ("t_min", "t_max", "c_min", "c_max"):
            object.__setattr__(self, name, _arg(name, _finite, getattr(self, name)))
        for axis, lo, hi in (
            ("t", self.t_min, self.t_max), ("c", self.c_min, self.c_max)
        ):
            if not lo < hi:
                raise ValueError(f"{axis}_min must be below {axis}_max")
            if not math.isfinite(hi - lo):
                raise ValueError(f"{axis} span {hi!r} - {lo!r} overflows a float")
            if hi - lo < MIN_SPAN * max(1.0, abs(lo), abs(hi)):
                raise ValueError(
                    f"{axis} span {hi - lo:.3g} is narrower than {MIN_SPAN:g} "
                    f"of its bounds' size"
                )

    @property
    def area(self) -> float:
        return (self.t_max - self.t_min) * (self.c_max - self.c_min)

    def contains(self, t: float, c: float) -> bool:
        return (
            self.t_min <= t <= self.t_max and self.c_min <= c <= self.c_max
        )

    def as_json_dict(self) -> dict:
        return {"t": [self.t_min, self.t_max], "c": [self.c_min, self.c_max]}

    @classmethod
    def from_json_dict(cls, data) -> "Rectangle":
        bounds = _object({"t": _list(_number, 2), "c": _list(_number, 2)})(data)
        return cls(*bounds["t"], *bounds["c"])


def _rectangle(value) -> Rectangle:
    if not isinstance(value, Rectangle):
        raise _expected("a Rectangle", value)
    return value


DEFAULT_DOMAIN = Rectangle(1.0, 5.0, 0.2, 3.5)
# Stages searched for zero curvature: wider than the default domain on the
# right because the oldest critical age sits just past stage 5.  A field's
# search range is this one widened to cover its own stage range.
DEFAULT_SEARCH = (1.0, 6.0)

# Interpolation nodes: the five stage boundaries.  Stage 1 (age one year)
# carries risk 0 because fish consumption begins after the first year of
# life; the survey quotients sit at the remaining boundaries.
DEFAULT_NODES = (1.0, 2.0, 3.0, 4.0, 5.0)


def interpolate(
    nodes: tuple[float, ...], values: tuple[float, ...]
) -> Polynomial:
    """Degree-4 interpolant through five (node, value) pairs.

    Newton divided differences, expanded to monomial coefficients so the
    printed-coefficient comparisons downstream are direct.
    """
    xs = _arg("nodes", _list(_finite), nodes)
    dd = list(_arg("values", _list(_finite), values))
    if len(xs) != NODE_COUNT or len(dd) != NODE_COUNT:
        raise ValueError(
            f"need exactly {NODE_COUNT} nodes and values, got "
            f"{len(xs)} and {len(dd)}"
        )
    for i in range(NODE_COUNT):
        for j in range(i + 1, NODE_COUNT):
            if abs(xs[i] - xs[j]) < 1e-12:
                raise ValueError(f"duplicate node {xs[i]!r}")
    # Divided-difference table, in place.
    for order in range(1, NODE_COUNT):
        for i in range(NODE_COUNT - 1, order - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - order])
    # Horner expansion of the Newton form into monomial coefficients.
    poly = Polynomial.constant(dd[-1])
    for i in range(NODE_COUNT - 2, -1, -1):
        poly = poly * Polynomial((-xs[i], 1.0)) + dd[i]
    return poly


def regress_linear(
    xs: tuple[float, ...], ys: tuple[float, ...]
) -> tuple[float, float]:
    """Ordinary least squares line: returns (slope, intercept)."""
    xs, ys = _arg("xs", _list(_finite), xs), _arg("ys", _list(_finite), ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx < 1e-300:
        raise ValueError("all x values equal; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def _csv_number(cell: str, where: str) -> float:
    """One CSV cell as a finite float; an error is prefixed with where,
    which names the file, row and column."""
    try:
        x = float(cell)
    except ValueError:
        raise ValueError(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{where}: not a finite number: {cell!r}")
    return x


@dataclass(frozen=True)
class RiskTable:
    """Hazard quotients on a (concentration x stage-node) grid."""

    concentrations: tuple[float, ...]
    nodes: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for name, check in (("concentrations", _list(_finite)),
                            ("nodes", _list(_finite)),
                            ("values", _list(_list(_finite)))):
            object.__setattr__(self, name, _arg(name, check, getattr(self, name)))
        if len(self.values) != len(self.concentrations):
            raise ValueError("one value row required per concentration")
        if any(len(row) != len(self.nodes) for row in self.values):
            raise ValueError("row length must match node count")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes and (self.nodes[0] < 1.0 or self.nodes[-1] > 5.0):
            raise ValueError("nodes must lie within the stage range [1, 5]")

    @classmethod
    def from_csv(cls, path: str | Path) -> "RiskTable":
        (first, header), *rows = read_csv(path)
        nodes = [_csv_number(cell, f"{path}, row {first}, column {j}")
                 for j, cell in enumerate(header[1:], start=2)]
        cells = [[_csv_number(cell, f"{path}, row {i}, column {j}")
                  for j, cell in enumerate(row, start=1)] for i, row in rows]
        return from_json_data(cls.from_json_dict, {
            "concentrations": [row[0] for row in cells], "nodes": nodes,
            "values": [row[1:] for row in cells],
        }, path)

    @classmethod
    def from_json_dict(cls, data) -> "RiskTable":
        return cls(**_object({
            "concentrations": _list(_number), "nodes": _list(_number),
            "values": _list(_list(_number)),
        })(data))


@dataclass(frozen=True)
class RiskField:
    """R(t, c) = sum_k (a_k c + b_k) t^k = g(t) c + h(t) on a rectangle.

    The one field kernel: g = dR/dc, h = R(t, 0) and their t-derivatives
    g' and h' are built once, with the field; every layer evaluates them,
    on floats or arrays, by their one Horner chain.  The domain is the one
    rectangle every analysis, geometry and plot of the field covers.  The
    root table (slope_roots, g_prime_roots and cuts) holds every root
    search of the field, each made once, on first use; the layers read it.

    The package supports one range: a field is refused, with ValueError,
    unless |R|, |g|, |g'|, |h'|, |dR/dt|, |t| and |c| stay within
    MAX_MAGNITUDE on the search range x the c range.
    """

    a: tuple[float, float, float, float, float]
    b: tuple[float, float, float, float, float]
    domain: Rectangle = field(default=DEFAULT_DOMAIN)
    g: Polynomial = field(init=False, repr=False, compare=False)
    h: Polynomial = field(init=False, repr=False, compare=False)
    g_prime: Polynomial = field(init=False, repr=False, compare=False)
    h_prime: Polynomial = field(init=False, repr=False, compare=False)
    _cut_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, _arg(
                name, _list(_finite, NODE_COUNT), getattr(self, name)))
        # For |t| <= T over the search range and |c| <= C over the c range,
        # B = sum_k (k + 1)(|a_k| C + |b_k|) T^k bounds |R|, |g|, |g'|, |h'|
        # and |dR/dt|.  A product past the float range is inf, not an error.
        d = _arg("domain", _rectangle, self.domain)
        t_top = max(-d.t_min, d.t_max, DEFAULT_SEARCH[1])
        c_top = max(-d.c_min, d.c_max, 1.0)
        bound = 0.0
        for k in range(DEGREE, -1, -1):
            bound = bound * t_top + (k + 1) * (abs(self.a[k]) * c_top
                                               + abs(self.b[k]))
        top = max(bound, t_top, c_top)
        if top > MAX_MAGNITUDE:
            reach = (f"its values, slopes or bounds may reach {top:.3g}"
                     if top < math.inf else
                     "the bound on its values and slopes passes the float range")
            raise ValueError(
                f"field outside the supported range: {reach} on its search "
                f"range and c range, past 2^250 = {MAX_MAGNITUDE:.3g}")
        g, h = Polynomial(self.a), Polynomial(self.b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g_prime", g.derivative())
        object.__setattr__(self, "h_prime", h.derivative())

    @cached_property
    def slope_roots(self) -> tuple[float, ...]:
        """The roots of g = dR/dc on the stage range."""
        d = self.domain
        return real_roots(self.g, d.t_min, d.t_max)

    @property
    def search_range(self) -> tuple[float, float]:
        """DEFAULT_SEARCH widened to cover the stage range."""
        d = self.domain
        return min(d.t_min, DEFAULT_SEARCH[0]), max(d.t_max, DEFAULT_SEARCH[1])

    @cached_property
    def g_prime_roots(self) -> tuple[float, ...]:
        """The roots of g' on the search range: the stationary points of
        dR/dc and the stages where the surface's curvature vanishes."""
        return real_roots(self.g_prime, *self.search_range)

    def cuts(self, level: float) -> MappingProxyType:
        """Where c*(t) = (level - h(t))/g(t) may enter or leave the domain,
        increasing: each cut maps to the c edge c* crosses there, or to None
        at the ends of the stage range and at the slope_roots.  Built once
        per level and shared read-only."""
        if level not in self._cut_memo:
            d = self.domain
            cuts = dict.fromkeys((d.t_min, d.t_max))
            for c_edge in (d.c_min, d.c_max):
                crossing = Polynomial.constant(level) - self.h - c_edge * self.g
                cuts.update(dict.fromkeys(
                    real_roots(crossing, d.t_min, d.t_max), c_edge
                ))
            cuts.update(dict.fromkeys(self.slope_roots))   # a root of g wins a tie
            self._cut_memo[level] = MappingProxyType(dict(sorted(cuts.items())))
        return self._cut_memo[level]

    def evaluate(self, t, c):
        """R = g(t) c + h(t) at points (t, c); t and c are floats or
        broadcastable arrays, and each element rounds as its scalar call."""
        return self.g(t) * c + self.h(t)

    def evaluate_grid(self, ts, cs):
        """R at every (ts[j], cs[i]), with shape (len(cs), len(ts))."""
        return self.evaluate(np.asarray(ts, float), np.asarray(cs, float)[:, None])

    def partial_t(self, t, c):
        """dR/dt = c g'(t) + h'(t), on floats or arrays as evaluate takes."""
        return c * self.g_prime(t) + self.h_prime(t)

    def with_domain(self, domain: Rectangle) -> "RiskField":
        return RiskField(self.a, self.b, domain)

    def as_json_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "domain": self.domain.as_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data) -> "RiskField":
        return cls(**_object({
            "a": _list(_number, NODE_COUNT), "b": _list(_number, NODE_COUNT),
            "domain": Rectangle.from_json_dict,
        })(data))


def read_json(path: str | Path):
    """The document in a JSON file; invalid JSON raises ValueError naming
    the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # bad JSON or bad UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def from_json_data(build, data, path: str | Path):
    """build(data), such as a from_json_dict, for a document read from
    path; its ValueError is raised again naming the file."""
    try:
        return build(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_csv(path: str | Path) -> list[tuple[int, list[str]]]:
    """The rows of a CSV file that hold a nonblank cell, the header first,
    each with its row number in the file.  Bytes that are not UTF-8, a
    cell past csv's size limit, a file without such a row, or a row whose
    length differs from the header's raise ValueError naming the file
    (and the row)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(i, row) for i, row in enumerate(csv.reader(fh), start=1)
                    if any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0][1])
    for i, row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"{path}, row {i}: expected {width} cells, got {len(row)}")
    return rows


# The standard library's C encoder, which it runs only without indent.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",", ":"))


def json_text(data: dict, path: str | Path) -> str:
    """The text of data as the JSON file path: that of json.dumps(data,
    sort_keys=True, separators=(",", ":"), allow_nan=False), with no
    whitespace between tokens, and a newline.  NaN or inf raises
    ValueError naming the file, which is not touched."""
    try:
        return _ENCODER.encode(data) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def build_field(table: RiskTable) -> RiskField:
    """Interpolate each concentration row, then regress the coefficients
    of each power of t on the concentrations."""
    if len(table.concentrations) < 2:
        raise ValueError("need at least two concentrations to regress")
    rows = (interpolate(table.nodes, row).coefficients for row in table.values)
    a, b = zip(*(regress_linear(table.concentrations, ys) for ys in zip(*rows)))
    return RiskField(a, b)


# Published field constants (ascending powers of t).  dR/dc at t = 1 sums
# to 0.01, the pivotal positivity margin for the no-critical-point
# certificate.
PUBLISHED_A = (-19.48, 33.17, -16.89, 3.45, -0.24)
PUBLISHED_B = (-0.04, 0.09, -0.06, 0.007, 0.006)

# The concentrations (mg/kg) measured in the survey.
SURVEY_CONCENTRATIONS = (0.27, 2.43, 3.33)


def published_field() -> RiskField:
    """The published risk field on [1,5] x [0.2,3.5].

    Canonical dataset for the analysis, dynamics and geometry layers.
    """
    return RiskField(PUBLISHED_A, PUBLISHED_B, DEFAULT_DOMAIN)


def survey_risk_table() -> RiskTable:
    """Surveyed hazard quotients by stage node and concentration.

    Column 1 is zero (no fish consumption during the first year); the
    remaining columns are the published per-group quotients at the three
    measured concentrations.
    """
    return RiskTable(
        concentrations=SURVEY_CONCENTRATIONS,
        nodes=DEFAULT_NODES,
        values=(
            (0.0, 0.804, 0.342, 0.204, 0.388),
            (0.0, 7.237, 3.077, 1.834, 3.490),
            (0.0, 9.918, 4.216, 2.513, 4.783),
        ),
    )
