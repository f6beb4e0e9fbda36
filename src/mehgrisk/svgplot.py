"""Self-contained SVG emission for contour, region, flow and curvature plots.

No rendering dependency: plots are assembled as SVG strings and written
directly.  Output is a pure function of the inputs, so repeated runs
produce identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import stagemap
from .analysis import LevelCurveSet
from .fieldfit import Rectangle, RiskField

# Plots cover the field's domain; the flow portrait has ARROW_GRID^2
# gradient arrows, the curvature profile PROFILE_SAMPLES + 1 points and
# each axis about TICKS ticks.
ARROW_GRID = 15
PROFILE_SAMPLES = 400
TICKS = 6
WIDTH = 640
HEIGHT = 480
MARGIN_L = 64
MARGIN_R = 24
MARGIN_T = 36
MARGIN_B = 66

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


class _Canvas:
    """World-to-pixel mapping over a fixed plot frame; x and y map floats
    or arrays."""

    def __init__(self, world: Rectangle, title: str):
        self.world = world
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="22" font-size="15" '
            f'text-anchor="middle" font-family="sans-serif">{title}</text>',
        ]

    def x(self, t):
        w = self.world
        frac = (t - w.t_min) / (w.t_max - w.t_min)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, c):
        w = self.world
        frac = (c - w.c_min) / (w.c_max - w.c_min)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def coords(self, points) -> str:
        """The pixel coordinates of world points as an SVG points list."""
        pts = np.asarray(points, dtype=float)
        pairs = zip(self.x(pts[:, 0]).tolist(), self.y(pts[:, 1]).tolist())
        return " ".join(["%.2f,%.2f" % p for p in pairs])

    def polyline(self, points, color: str, width: float = 1.5) -> None:
        if len(points) < 2:
            return
        self.parts.append(
            f'<polyline points="{self.coords(points)}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polygon(self, points, fill: str, opacity: float) -> None:
        self.parts.append(
            f'<polygon points="{self.coords(points)}" fill="{fill}" '
            f'fill-opacity="{opacity}" stroke="none"/>'
        )

    def line(self, t0, c0, t1, c1, color="#333333", width=1.0, dash="") -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{self.x(t0):.2f}" y1="{self.y(c0):.2f}" '
            f'x2="{self.x(t1):.2f}" y2="{self.y(c1):.2f}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def rect_world(self, t0, c0, t1, c1, fill: str, opacity: float) -> None:
        x0, y1 = self.x(t0), self.y(c0)
        x1, y0 = self.x(t1), self.y(c1)
        self.parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="{fill}" fill-opacity="{opacity}" '
            'stroke="none"/>'
        )

    def text(self, px, py, s, size=11, anchor="middle", color="#222222") -> None:
        self.parts.append(
            f'<text x="{px:.1f}" y="{py:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" font-family="sans-serif" '
            f'fill="{color}">{s}</text>'
        )

    def axes(
        self,
        x_label: str = "stage t (age below)",
        y_label: str = "concentration c (mg/kg)",
        ages: bool = True,
    ) -> None:
        w = self.world
        frame_color = "#333333"
        self.parts.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
            f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
            f'stroke="{frame_color}" stroke-width="1"/>'
        )
        for t in _ticks(w.t_min, w.t_max):
            px = self.x(t)
            base = HEIGHT - MARGIN_B
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{base}" x2="{px:.2f}" '
                f'y2="{base + 5}" stroke="{frame_color}" stroke-width="1"/>'
            )
            self.text(px, base + 18, _fmt(t))
            if ages:
                self.text(
                    px, base + 33, f"{stagemap.age(t):g}y", size=10,
                    color="#666666",
                )
        for c in _ticks(w.c_min, w.c_max):
            py = self.y(c)
            self.parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
                f'y2="{py:.2f}" stroke="{frame_color}" stroke-width="1"/>'
            )
            self.text(MARGIN_L - 9, py + 4, _fmt(c), anchor="end")
        self.text(
            MARGIN_L + (WIDTH - MARGIN_L - MARGIN_R) / 2,
            HEIGHT - 14, x_label, size=12,
        )
        mid_y = MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2
        self.parts.append(
            f'<text x="16" y="{mid_y:.1f}" font-size="12" '
            'text-anchor="middle" font-family="sans-serif" fill="#222222" '
            f'transform="rotate(-90 16 {mid_y:.1f})">{y_label}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _ticks(lo: float, hi: float) -> list[float]:
    """Multiples k*step of a 1-2-5 step in [lo, hi]: at most about
    TICKS + 1 of them, since step >= (hi - lo)/TICKS."""
    span = hi - lo
    raw = span / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    first, last = math.ceil(lo / step), math.floor((hi + 1e-9 * span) / step)
    return [round(k * step, 10) for k in range(first, last + 1)]


def _fmt(v: float) -> str:
    return f"{v:g}"


def contour_plot_svg(
    field: RiskField, curve_sets: list[LevelCurveSet], path: str | Path
) -> None:
    canvas = _Canvas(field.domain, "Risk level curves")
    for idx, cset in enumerate(curve_sets):
        color = PALETTE[idx % len(PALETTE)]
        for line in cset.polylines:
            canvas.polyline(line, color)
        if cset.polylines and cset.polylines[0]:
            t0, c0 = cset.polylines[0][0]
            canvas.text(
                canvas.x(t0) + 6, canvas.y(c0) - 4, f"R={_fmt(cset.level)}",
                size=10, anchor="start", color=color,
            )
    canvas.axes()
    _write(canvas, path)


def region_plot_svg(
    field: RiskField,
    threshold: float,
    boundary: LevelCurveSet,
    path: str | Path,
) -> None:
    """Shade {R >= threshold} from its boundary curve and overlay it.

    The boundary is level_curves' set at the threshold: each graph c*(t)
    is closed along its side, the c edge on the region's side, and each
    full piece is shaded over the whole c range.
    """
    dom = field.domain
    canvas = _Canvas(dom, f"Critical-risk region R ≥ {_fmt(threshold)}")
    for line, edge in zip(boundary.polylines, boundary.sides):
        if edge is not None:
            (t0, _), (t1, _) = line[0], line[-1]
            canvas.polygon([*line, (t1, edge), (t0, edge)], "#d62728", 0.25)
    for lo, hi in boundary.full:
        canvas.rect_world(lo, dom.c_min, hi, dom.c_max, "#d62728", 0.25)
    for line in boundary.polylines:
        canvas.polyline(line, "#d62728", 2.0)
    canvas.axes()
    _write(canvas, path)


def flow_portrait_svg(field: RiskField, trajectories, path: str | Path) -> None:
    """Normalized gradient arrows plus integrated trajectories."""
    dom = field.domain
    canvas = _Canvas(dom, "Gradient flow of the risk field")
    arrow_px = 0.45 * (WIDTH - MARGIN_L - MARGIN_R) / ARROW_GRID
    # All arrows at once: the stages down a column, concentrations along a row.
    mid = np.arange(ARROW_GRID) + 0.5
    t = dom.t_min + mid[:, None] * (dom.t_max - dom.t_min) / ARROW_GRID
    c = dom.c_min + mid * (dom.c_max - dom.c_min) / ARROW_GRID
    rows = np.reshape(np.broadcast_arrays(
        field.partial_t(t, c), field.g(t), canvas.x(t), canvas.y(c)), (4, -1))
    # math.hypot, which np.hypot does not round as.
    norm = np.array(list(map(math.hypot, *rows[:2].tolist())))
    drawn = ~(norm < 1e-15)
    dt, dc, x0, y0 = rows[:, drawn]
    # Screen-space direction; the y axis points down in SVG.
    ux, uy = dt / norm[drawn], -dc / norm[drawn]
    x1, y1 = x0 + ux * arrow_px, y0 + uy * arrow_px
    ends = (x0, y0, x1, y1, x1 - 3.5 * (ux + uy * 0.5), y1 - 3.5 * (uy - ux * 0.5),
            x1 - 3.5 * (ux - uy * 0.5), y1 - 3.5 * (uy + ux * 0.5))
    for px, py, qx, qy, hx, hy, gx, gy in zip(*(v.tolist() for v in ends)):
        canvas.parts.append(
            f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{qx:.2f}" '
            f'y2="{qy:.2f}" stroke="#999999" stroke-width="1"/>'
        )
        canvas.parts.append(
            f'<polyline points="{hx:.2f},{hy:.2f} {qx:.2f},{qy:.2f} '
            f'{gx:.2f},{gy:.2f}" fill="none" stroke="#999999" '
            'stroke-width="1"/>'
        )
    for idx, traj in enumerate(trajectories):
        pts = traj.samples[:, 1:3]
        canvas.polyline(pts, PALETTE[idx % len(PALETTE)], 1.8)
        if len(pts):
            t0, c0 = pts[0]
            canvas.parts.append(
                f'<circle cx="{canvas.x(t0):.2f}" cy="{canvas.y(c0):.2f}" '
                f'r="3" fill="{PALETTE[idx % len(PALETTE)]}"/>'
            )
    canvas.axes()
    _write(canvas, path)


def curvature_profile_svg(field: RiskField, path: str | Path) -> None:
    """Profile of the curvature numerator k(t) = -(q(t))^2 over the field's
    search range, with its zero stages marked."""
    t_lo, t_hi = field.search_range
    ts = [
        t_lo + i * (t_hi - t_lo) / PROFILE_SAMPLES
        for i in range(PROFILE_SAMPLES + 1)
    ]
    # v ** 2 is not always v * v.
    ks = [-(v ** 2) for v in field.g_prime(np.array(ts)).tolist()]
    lo = min(ks)
    world = Rectangle(t_lo, t_hi, lo * 1.05 if lo < 0 else -1.0, max(0.5, -lo * 0.05))
    canvas = _Canvas(world, "Curvature numerator -(q(t))² and its zero stages")
    canvas.line(world.t_min, 0.0, world.t_max, 0.0, "#888888", 1.0, "4 3")
    canvas.polyline(list(zip(ts, ks)), "#1f77b4", 1.8)
    for t in field.g_prime_roots:
        canvas.line(t, world.c_min, t, world.c_max, "#d62728", 1.0, "5 4")
        canvas.text(canvas.x(t), MARGIN_T + 14, f"t={t:.2f}", size=10, color="#d62728")
    canvas.axes("stage t", "k(t)", ages=False)
    _write(canvas, path)


def _write(canvas: _Canvas, path: str | Path) -> None:
    Path(path).write_text(canvas.render())
