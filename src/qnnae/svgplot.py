"""Minimal hand-built SVG scatter plots (no plotting dependency).

Output is deterministic: fixed layout, fixed float formatting.
"""
from __future__ import annotations

from typing import Optional, Sequence

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 55
NUM_TICKS = 5


def _axis_range(values: Sequence[float]) -> tuple:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """Text content for an SVG element.

    Same result as xml.sax.saxutils.escape, whose import pulls in urllib and ssl.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_scatter(
    path,
    xs: Sequence[float],
    ys: Sequence[float],
    xlabel: str,
    ylabel: str,
    title: Optional[str] = None,
    point_labels: Optional[Sequence[str]] = None,
) -> None:
    """Scatter plot with linear axes, tick labels, and one circle per point."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for i in range(NUM_TICKS + 1):
        frac = i / NUM_TICKS
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{_fmt(xp)}" y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{MARGIN_TOP + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(yp)}" '
            f'x2="{MARGIN_LEFT}" y2="{_fmt(yp)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(yp + 4)}" font-size="11" '
            f'text-anchor="end">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">{_escape(ylabel)}</text>'
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="22" font-size="14" text-anchor="middle">'
            f'{_escape(title)}</text>'
        )
    for i, (x, y) in enumerate(zip(xs, ys)):
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.5" '
            'fill="steelblue" fill-opacity="0.8"/>'
        )
        if point_labels is not None:
            parts.append(
                f'<text x="{_fmt(px(x) + 5)}" y="{_fmt(py(y) - 5)}" '
                f'font-size="9">{_escape(point_labels[i])}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
