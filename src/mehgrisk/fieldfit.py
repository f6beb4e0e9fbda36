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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .polynomial import Polynomial, real_roots

DEGREE = 4
NODE_COUNT = DEGREE + 1
# A domain side must span at least this fraction of its bounds' size,
# max(1, |lo|, |hi|): plots and grids cannot resolve a narrower one.
MIN_SPAN = 1e-9


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned domain [t_min, t_max] x [c_min, c_max]."""

    t_min: float
    t_max: float
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        bounds = (self.t_min, self.t_max, self.c_min, self.c_max)
        if not all(math.isfinite(x) for x in bounds):
            raise ValueError(f"domain bounds must be finite, got {bounds}")
        for axis, lo, hi in (
            ("t", self.t_min, self.t_max), ("c", self.c_min, self.c_max)
        ):
            if not lo < hi:
                raise ValueError(f"{axis}_min must be below {axis}_max")
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
    def from_json_dict(cls, data: dict) -> "Rectangle":
        return cls(data["t"][0], data["t"][1], data["c"][0], data["c"][1])


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
    if len(nodes) != NODE_COUNT or len(values) != NODE_COUNT:
        raise ValueError(
            f"need exactly {NODE_COUNT} nodes and values, got "
            f"{len(nodes)} and {len(values)}"
        )
    xs = [float(x) for x in nodes]
    for i in range(NODE_COUNT):
        for j in range(i + 1, NODE_COUNT):
            if abs(xs[i] - xs[j]) < 1e-12:
                raise ValueError(f"duplicate node {xs[i]!r}")
    # Divided-difference table, in place.
    dd = [float(v) for v in values]
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


def _require_finite(name: str, values: tuple[float, ...]) -> None:
    for k, x in enumerate(values):
        if not math.isfinite(x):
            raise ValueError(f"{name}[{k}] is not finite: {x!r}")


def _csv_number(path, row: int, column: int, cell: str) -> float:
    """One CSV cell as a finite float; an error names file, row and column."""
    try:
        x = float(cell)
    except ValueError:
        raise ValueError(
            f"{path}, row {row}, column {column}: not a number: {cell!r}"
        ) from None
    if not math.isfinite(x):
        raise ValueError(
            f"{path}, row {row}, column {column}: not a finite number: {cell!r}"
        )
    return x


@dataclass(frozen=True)
class RiskTable:
    """Hazard quotients on a (concentration x stage-node) grid."""

    concentrations: tuple[float, ...]
    nodes: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "concentrations", tuple(float(c) for c in self.concentrations)
        )
        object.__setattr__(
            self, "nodes", tuple(float(t) for t in self.nodes)
        )
        object.__setattr__(
            self,
            "values",
            tuple(tuple(float(v) for v in row) for row in self.values),
        )
        for name in ("concentrations", "nodes"):
            _require_finite(name, getattr(self, name))
        for i, row in enumerate(self.values):
            _require_finite(f"values[{i}]", row)
        if len(self.values) != len(self.concentrations):
            raise ValueError("one value row required per concentration")
        for row in self.values:
            if len(row) != len(self.nodes):
                raise ValueError("row length must match node count")
        if any(
            b <= a for a, b in zip(self.nodes, self.nodes[1:])
        ):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes and (self.nodes[0] < 1.0 or self.nodes[-1] > 5.0):
            raise ValueError("nodes must lie within the stage range [1, 5]")

    @classmethod
    def from_csv(cls, path: str | Path) -> "RiskTable":
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file: {exc}") from None
        rows = [r for r in rows if any(cell.strip() for cell in r)]
        if not rows:
            raise ValueError(f"{path}: empty table")
        header = rows[0]
        if len(header) < 2:
            raise ValueError(f"{path}, row 1: need node columns after the label")
        nodes = tuple(
            _csv_number(path, 1, j, cell)
            for j, cell in enumerate(header[1:], start=2)
        )
        concentrations = []
        values = []
        for i, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, row {i}: expected {len(header)} cells, got {len(row)}"
                )
            concentrations.append(_csv_number(path, i, 1, row[0]))
            values.append(
                tuple(
                    _csv_number(path, i, j, cell)
                    for j, cell in enumerate(row[1:], start=2)
                )
            )
        return from_json_data(cls.from_json_dict, {   # errors name the file
            "concentrations": concentrations, "nodes": nodes, "values": values,
        }, path, "table")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RiskTable":
        return cls(
            tuple(data["concentrations"]),
            tuple(data["nodes"]),
            tuple(tuple(row) for row in data["values"]),
        )


@dataclass(frozen=True)
class RiskField:
    """R(t, c) = sum_k (a_k c + b_k) t^k = g(t) c + h(t) on a rectangle.

    The one field kernel: g = dR/dc, h = R(t, 0) and their t-derivatives
    g' and h' are built once, with the field; every layer evaluates them,
    on floats or arrays, by their one Horner chain.  The domain is the one
    rectangle every analysis, geometry and plot of the field covers.  The
    root table (slope_roots, g_prime_roots and cuts) holds every root
    search of the field, each made once, on first use; the layers read it.
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
        if len(self.a) != NODE_COUNT or len(self.b) != NODE_COUNT:
            raise ValueError("field needs five slope and five intercept terms")
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        _require_finite("a", self.a)
        _require_finite("b", self.b)
        # |R| <= sum_k (|a_k| max|c| + |b_k|) max|t|^k on the domain.
        d = self.domain
        bound = Polynomial(tuple(
            abs(ak) * max(-d.c_min, d.c_max) + abs(bk)
            for ak, bk in zip(self.a, self.b)
        ))(max(-d.t_min, d.t_max))
        if not math.isfinite(bound):
            raise ValueError("field overflows on its domain: the bound on |R| "
                             "is not a finite float")
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
        """Vectorized evaluation: returns R with shape (len(cs), len(ts))."""
        ts, cs = np.asarray(ts, dtype=float), np.asarray(cs, dtype=float)
        return cs[:, None] * self.g(ts)[None, :] + self.h(ts)[None, :]

    def partial_t(self, t: float, c: float) -> float:
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
    def from_json_dict(cls, data: dict) -> "RiskField":
        return cls(
            tuple(data["a"]),
            tuple(data["b"]),
            Rectangle.from_json_dict(data["domain"]),
        )


def read_json(path: str | Path):
    """The document in a JSON file; invalid JSON raises ValueError naming
    the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # bad JSON or bad UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def from_json_data(build, data, path: str | Path, what: str):
    """build(data) for a document read from path; a malformed document or
    a rejected value raises ValueError naming the file."""
    try:
        return build(data)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed {what} JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_text(data: dict, path: str | Path) -> str:
    """The text of data as the JSON file path: that of json.dumps(data,
    sort_keys=True, indent=2, allow_nan=False) and a newline.  NaN or inf
    raises ValueError naming the file, which is not touched."""
    try:
        return _json_text(data, "") + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# Compact C encoder for string-free subtrees; its item separator is the
# only comma in their text, so str.replace can indent them.
_COMPACT = json.JSONEncoder(allow_nan=False, separators=(",", ":"))
_NUMBER_TYPES = frozenset((float, int, bool, type(None)))


def _json_text(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False), its
    lines after the first indented by `indent`."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
            return text.replace("\n", "\n" + indent)
        return (
            "{\n" + inner
            + (",\n" + inner).join(
                f"{_COMPACT.encode(key)}: {_json_text(value[key], inner)}"
                for key in sorted(value)
            )
            + "\n" + indent + "}"
        )
    if not isinstance(value, (list, tuple)):
        return _COMPACT.encode(value)
    if not value:
        return "[]"
    types = set(map(type, value))
    if types <= _NUMBER_TYPES:
        body = _COMPACT.encode(value)[1:-1].replace(",", ",\n" + inner)
        return "[\n" + inner + body + "\n" + indent + "]"
    if (
        types <= {list, tuple}
        and all(value)
        and set(map(type, chain.from_iterable(value))) <= _NUMBER_TYPES
    ):
        # Rows of numbers, such as a polyline's vertices.
        deeper = inner + "  "
        body = (
            _COMPACT.encode(value)[2:-2]
            .replace(",", ",\n" + deeper)
            .replace(
                "],\n" + deeper + "[",
                "\n" + inner + "],\n" + inner + "[\n" + deeper,
            )
        )
        return (
            "[\n" + inner + "[\n" + deeper + body
            + "\n" + inner + "]\n" + indent + "]"
        )
    return (
        "[\n" + inner
        + (",\n" + inner).join(_json_text(item, inner) for item in value)
        + "\n" + indent + "]"
    )


def build_field(table: RiskTable) -> RiskField:
    """Interpolate each concentration row, then regress per power of t."""
    if len(table.concentrations) < 2:
        raise ValueError("need at least two concentrations to regress")
    rows = tuple(
        interpolate(table.nodes, row).coefficients for row in table.values
    )
    return field_from_coefficient_rows(table.concentrations, rows)


def field_from_coefficient_rows(
    concentrations: tuple[float, ...],
    rows: tuple[tuple[float, ...], ...],
) -> RiskField:
    """Regress already-interpolated coefficient rows (ascending powers)."""
    if len(rows) != len(concentrations):
        raise ValueError("one coefficient row required per concentration")
    for row in rows:
        if len(row) != NODE_COUNT:
            raise ValueError("each row needs five ascending coefficients")
    a = []
    b = []
    for k in range(NODE_COUNT):
        ys = tuple(row[k] for row in rows)
        slope, intercept = regress_linear(concentrations, ys)
        a.append(slope)
        b.append(intercept)
    return RiskField(tuple(a), tuple(b))


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
