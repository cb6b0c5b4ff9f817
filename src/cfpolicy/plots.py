"""Dependency-free SVG line charts for report output."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 420  # chart size in SVG user units


def _text(label: str) -> str:
    """``label`` as SVG character data."""
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart_svg(series: dict, title: str, path) -> None:
    """Write a simple multi-series line chart; x is the sample index. The
    title and series names are written as text, escaped."""
    pad = 50
    plot_w, plot_h = WIDTH - 2 * pad, HEIGHT - 2 * pad
    ys = [np.asarray(v, dtype=np.float64) for v in series.values()]
    if not ys or all(y.size == 0 for y in ys):
        raise ValueError("no data to plot")
    y_min = min(float(np.nanmin(y)) for y in ys)
    y_max = max(float(np.nanmax(y)) for y in ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_max = max(y.size - 1 for y in ys) or 1

    def sx(i):
        return pad + plot_w * i / x_max

    def sy(v):
        return pad + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{_text(title)}</text>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{HEIGHT - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{HEIGHT - pad}" x2="{WIDTH - pad}" y2="{HEIGHT - pad}" '
        f'stroke="black"/>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{y_max:.3g}</text>',
        f'<text x="{pad - 6}" y="{HEIGHT - pad + 4}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{y_min:.3g}</text>',
    ]
    for k, (name, y) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(np.asarray(y)))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{WIDTH - pad}" y="{pad + 16 * (k + 1)}" text-anchor="end" '
                     f'font-size="12" font-family="sans-serif" fill="{color}">'
                     f'{_text(name)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
