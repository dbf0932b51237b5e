"""Dependency-free SVG line charts for diagnostic output."""

from __future__ import annotations

__all__ = ["polyline_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def polyline_chart(series: list[tuple[str, list[float], list[float]]], title: str = "") -> str:
    """Render ``(label, xs, ys)`` series as a minimal 640 x 400 SVG string.

    Output is deterministic for identical input (fixed float formatting, no
    timestamps), so charts can be compared byte-for-byte.
    """
    width, height, pad = 640, 400, 48
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("no data to plot")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:.6g}</text>',
        f'<text x="{width-pad-20}" y="{height-pad+16}" font-size="10">{x1:.6g}</text>',
        f'<text x="4" y="{height-pad}" font-size="10">{y0:.6g}</text>',
        f'<text x="4" y="{pad+4}" font-size="10">{y1:.6g}</text>',
    ]
    if title:
        parts.append(f'<text x="{width//2}" y="20" font-size="13" text-anchor="middle">{title}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width-pad+4}" y="{pad + 14*i + 10}" font-size="10" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
