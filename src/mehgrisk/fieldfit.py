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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exposure import SURVEY_CONCENTRATIONS
from .polynomial import Polynomial

DEGREE = 4
NODE_COUNT = DEGREE + 1


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned domain [t_min, t_max] x [c_min, c_max]."""

    t_min: float
    t_max: float
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")
        if not self.c_min < self.c_max:
            raise ValueError("c_min must be below c_max")

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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows = [r for r in rows if any(cell.strip() for cell in r)]
        if not rows:
            raise ValueError(f"{path}: empty table")
        header = rows[0]
        if len(header) < 2:
            raise ValueError(f"{path}, row 1: need node columns after the label")
        try:
            nodes = tuple(float(x) for x in header[1:])
        except ValueError:
            raise ValueError(
                f"{path}, row 1: node header must be numeric stages"
            ) from None
        concentrations = []
        values = []
        for i, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, row {i}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                concentrations.append(float(row[0]))
            except ValueError:
                raise ValueError(
                    f"{path}, row {i}, column 1: not a number: {row[0]!r}"
                ) from None
            parsed = []
            for j, cell in enumerate(row[1:], start=2):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}, row {i}, column {j}: not a number: {cell!r}"
                    ) from None
            values.append(tuple(parsed))
        return cls(tuple(concentrations), nodes, tuple(values))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["concentration", *self.nodes])
            for conc, row in zip(self.concentrations, self.values):
                writer.writerow([conc, *row])

    @classmethod
    def from_json(cls, path: str | Path) -> "RiskTable":
        with open(path) as fh:
            data = json.load(fh)
        try:
            return cls(
                tuple(data["concentrations"]),
                tuple(data["nodes"]),
                tuple(tuple(row) for row in data["values"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed table JSON: {exc}") from None


@dataclass(frozen=True)
class RiskField:
    """R(t, c) = sum_k (a_k c + b_k) t^k on a rectangular domain."""

    a: tuple[float, float, float, float, float]
    b: tuple[float, float, float, float, float]
    domain: Rectangle = field(default=DEFAULT_DOMAIN)

    def __post_init__(self) -> None:
        if len(self.a) != NODE_COUNT or len(self.b) != NODE_COUNT:
            raise ValueError("field needs five slope and five intercept terms")
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))

    def concentration_slope(self) -> Polynomial:
        """g(t) = dR/dc, a quartic in t alone."""
        return Polynomial(self.a)

    def concentration_intercept(self) -> Polynomial:
        """h(t) = R(t, 0)."""
        return Polynomial(self.b)

    def evaluate(self, t, c):
        """R at points (t, c); t and c are floats or broadcastable arrays.

        Horner in t over the terms a_k c + b_k, so every element of an
        array call is rounded exactly as the same point's scalar call.
        """
        acc = 0.0
        for ak, bk in zip(reversed(self.a), reversed(self.b)):
            acc = acc * t + (ak * c + bk)
        return acc

    def slope_and_intercept(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """g(t) and h(t) over an array of stages, each by Horner's rule."""
        ts = np.asarray(ts, dtype=float)
        g = np.zeros_like(ts)
        h = np.zeros_like(ts)
        for ak, bk in zip(reversed(self.a), reversed(self.b)):
            g = g * ts + ak
            h = h * ts + bk
        return g, h

    def evaluate_grid(self, ts, cs):
        """Vectorized evaluation: returns R with shape (len(cs), len(ts))."""
        g, h = self.slope_and_intercept(ts)
        cs = np.asarray(cs, dtype=float)
        return cs[:, None] * g[None, :] + h[None, :]

    def partial_t(self, t: float, c: float) -> float:
        gp = self.concentration_slope().derivative()
        hp = self.concentration_intercept().derivative()
        return c * gp(t) + hp(t)

    def partial_c(self, t: float) -> float:
        return self.concentration_slope()(t)

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

    @classmethod
    def from_json(cls, path: str | Path) -> "RiskField":
        with open(path) as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(
                    f"{path}: malformed field JSON: {exc}"
                ) from None

    def to_json(self, path: str | Path) -> None:
        write_json(self.as_json_dict(), path)


def write_json(data: dict, path: str | Path) -> None:
    """Write sorted, indented standard JSON.

    NaN or inf raises ValueError naming the file, before the file is
    opened, so a rejected value leaves no partial file behind.
    """
    try:
        text = json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")


def build_field(
    table: RiskTable, domain: Rectangle = DEFAULT_DOMAIN
) -> RiskField:
    """Interpolate each concentration row, then regress per power of t."""
    if len(table.concentrations) < 2:
        raise ValueError("need at least two concentrations to regress")
    interpolants = [
        interpolate(table.nodes, row) for row in table.values
    ]
    a = []
    b = []
    for k in range(NODE_COUNT):
        ys = tuple(p.coefficients[k] for p in interpolants)
        slope, intercept = regress_linear(table.concentrations, ys)
        a.append(slope)
        b.append(intercept)
    return RiskField(tuple(a), tuple(b), domain)


def field_from_coefficient_rows(
    concentrations: tuple[float, ...],
    rows: tuple[tuple[float, ...], ...],
    domain: Rectangle = DEFAULT_DOMAIN,
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
    return RiskField(tuple(a), tuple(b), domain)


# Published field constants (ascending powers of t).  dR/dc at t = 1 sums
# to 0.01, the pivotal positivity margin for the no-critical-point
# certificate.
PUBLISHED_A = (-19.48, 33.17, -16.89, 3.45, -0.24)
PUBLISHED_B = (-0.04, 0.09, -0.06, 0.007, 0.006)


def published_field() -> RiskField:
    """The published risk field on [1,5] x [0.2,3.5].

    Canonical dataset for the analysis, dynamics and geometry layers.
    """
    return RiskField(PUBLISHED_A, PUBLISHED_B, DEFAULT_DOMAIN)


def survey_risk_table(nodes: tuple[float, ...] = DEFAULT_NODES) -> RiskTable:
    """Surveyed hazard quotients by stage node and concentration.

    Column 1 is zero (no fish consumption during the first year); the
    remaining columns are the published per-group quotients at the three
    measured concentrations.
    """
    return RiskTable(
        concentrations=SURVEY_CONCENTRATIONS,
        nodes=nodes,
        values=(
            (0.0, 0.804, 0.342, 0.204, 0.388),
            (0.0, 7.237, 3.077, 1.834, 3.490),
            (0.0, 9.918, 4.216, 2.513, 4.783),
        ),
    )
