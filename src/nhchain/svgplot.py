"""Minimal deterministic SVG line plots.

Self-contained documents (no external assets, no timestamps): identical
input produces byte-identical output.  Only what the figure presets need:
multiple labeled curves, axis labels, a legend, markers for single-point
curves.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelError

__all__ = ["render_line_plot"]

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 34, 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Multiples k * step in [lo, hi] of a 1, 2, 2.5 or 5 times 10**n step.

    One tick, lo, when the span is not positive and finite, when span/count
    underflows, or when the bounds cannot resolve the span (an empty or
    overlong index range k); none then if lo itself overflowed.
    """
    span = hi - lo
    if not np.finfo(float).tiny <= span / count < math.inf:
        return [lo] if math.isfinite(lo) else []
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first, last = np.ceil(lo / step), np.floor((hi + 1e-9 * span) / step)
    if not 0 <= last - first <= count + 1:
        return [lo]
    return [k * step for k in range(int(first), int(last) + 1)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_line_plot(
    curves: list[tuple[str, list | np.ndarray, list | np.ndarray]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    """Render labeled (x, y) curves to a standalone SVG string.

    ``curves`` is a list of (label, xs, ys).  Raises on no curves or an
    empty curve.  A curve with a single point is drawn as a marker.
    """
    if not curves:
        raise ModelError("no curves to plot")
    for label, xs, ys in curves:
        if len(xs) == 0 or len(xs) != len(ys):
            raise ModelError(f"curve {label!r} is empty or ragged")

    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in curves])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in curves])
    # Bounds in quarters of the data (exact on normal floats): no padded span overflows.
    x_lo, x_hi = float(all_x.min()) / 4, float(all_x.max()) / 4
    y_lo, y_hi = float(all_y.min()) / 4, float(all_y.max()) / 4
    # A flat range is widened by 0.5 (0.125 in quarters), or by one ulp where that is more.
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - max(0.125, math.ulp(x_lo)), x_hi + max(0.125, math.ulp(x_hi))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - max(0.125, math.ulp(y_lo)), y_hi + max(0.125, math.ulp(y_hi))
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):  # a float or an array of them
        return MARGIN_L + (x / 4 - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y / 4) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )

    for tick in _ticks(4 * x_lo, 4 * x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )
    for tick in _ticks(4 * y_lo, 4 * y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )

    for index, (label, xs, ys) in enumerate(curves):
        color = PALETTE[index % len(PALETTE)]
        if len(xs) == 1:
            parts.append(
                f'<circle cx="{px(float(xs[0])):.2f}" cy="{py(float(ys[0])):.2f}" '
                f'r="4" fill="{color}"/>'
            )
        else:
            xy = np.column_stack([px(np.asarray(xs, dtype=float)), py(np.asarray(ys, dtype=float))])
            points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        legend_y = MARGIN_T + 16 + 18 * index
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{MARGIN_L + plot_w - 126}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + plot_w - 120}" y="{legend_y}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
