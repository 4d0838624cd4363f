"""Minimal standalone SVG line chart, no plotting dependency.

Renders a single curve in a fixed 800x600 viewport with linear axes,
5 tick marks per axis, and numeric tick labels at 3 significant
figures. The curve is the only <path> element in the document; axes and
ticks are <line> elements, so consumers can locate the data

    path = svg.find(".//{http://www.w3.org/2000/svg}path")

unambiguously.
"""

from __future__ import annotations

from .errors import DomainError

WIDTH = 800
HEIGHT = 600
_MARGIN_LEFT = 80.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 64.0
_TICKS = 5
_TICK_LEN = 6.0


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _spread(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def render_curve(xs, ys, x_label: str, y_label: str) -> str:
    """Render the polyline (xs, ys) as a complete SVG document string."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("render_curve needs two same-length lists, len >= 2")

    x_lo, x_hi = _spread(xs)
    y_lo, y_hi = _spread(ys)
    plot_w = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h  # plot origin (lower left)

    def sx(v: float) -> float:
        return x0 + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return y0 - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0 + plot_w:.2f}" y2="{y0:.2f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y0 - plot_h:.2f}" '
        f'stroke="black" stroke-width="1"/>',
    ]

    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px, py = sx(xv), sy(yv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" '
            f'y2="{y0 + _TICK_LEN:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 22:.2f}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{x0 - _TICK_LEN:.2f}" y1="{py:.2f}" x2="{x0:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 10:.2f}" y="{py + 4:.2f}" font-size="13" '
            f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>'
        )

    d = "M " + " L ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<path d="{d}" fill="none" stroke="#1f5fa8" stroke-width="2"/>')

    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{HEIGHT - 14:.2f}" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{y0 - plot_h / 2:.2f}" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 20 {y0 - plot_h / 2:.2f})">{_escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
