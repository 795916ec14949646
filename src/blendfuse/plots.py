"""Static SVG report graphics: score-surface heat map and per-fold beta bars.

Hand-rolled SVG keeps the outputs dependency-free and byte-stable across
reruns (no embedded timestamps or generated ids).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .postprocess import ThresholdPair

CELL = 10  # side of one heat-map cell, in pixels


def _color(t: float) -> str:
    """Blue-to-red ramp for t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    r = int(40 + 215 * t)
    g = int(60 + 40 * (1 - abs(2 * t - 1)))
    b = int(255 - 215 * t)
    return f"rgb({r},{g},{b})"


def surface_heatmap_svg(
    score: np.ndarray, alpha_grid: Sequence[float], beta_grid: Sequence[float], path: str | Path
) -> None:
    """Render a score surface over ``alpha_grid`` x ``beta_grid`` as a
    colored grid, alpha down, beta across."""
    lo, hi = float(score.min()), float(score.max())
    span = hi - lo if hi > lo else 1.0
    a_n, b_n = score.shape
    margin = 60
    width = margin + b_n * CELL + 20
    height = margin + a_n * CELL + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="20" font-size="12" font-family="monospace">'
        f"score surface (min={lo:.4f}, max={hi:.4f})</text>",
        f'<text x="10" y="{margin - 8}" font-size="10" font-family="monospace">alpha \\ beta</text>',
    ]
    for ai in range(a_n):
        for bi in range(b_n):
            t = (float(score[ai, bi]) - lo) / span
            x = margin + bi * CELL
            y = margin + ai * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="{_color(t)}"/>'
            )
    step_a = max(1, a_n // 5)
    step_b = max(1, b_n // 5)
    for ai in range(0, a_n, step_a):
        y = margin + ai * CELL + CELL
        parts.append(
            f'<text x="5" y="{y}" font-size="9" font-family="monospace">{alpha_grid[ai]:.2f}</text>'
        )
    for bi in range(0, b_n, step_b):
        x = margin + bi * CELL
        parts.append(
            f'<text x="{x}" y="{margin + a_n * CELL + 14}" font-size="9" '
            f'font-family="monospace">{beta_grid[bi]:.2f}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def fold_beta_bars_svg(pairs: Sequence[ThresholdPair], path: str | Path) -> None:
    """Bar chart of the per-fold optimal beta values."""
    betas = [p.beta for p in pairs]
    top = max(max(betas), 1e-9)
    bar_w, gap, chart_h, margin = 40, 16, 160, 40
    width = margin * 2 + len(betas) * (bar_w + gap)
    height = chart_h + margin * 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="20" font-size="12" font-family="monospace">per-fold optimal beta</text>',
    ]
    for i, beta in enumerate(betas):
        h = int(chart_h * beta / top)
        x = margin + i * (bar_w + gap)
        y = margin + chart_h - h
        parts.append(f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" fill="rgb(70,110,220)"/>')
        parts.append(
            f'<text x="{x}" y="{margin + chart_h + 14}" font-size="10" font-family="monospace">f{i}</text>'
        )
        parts.append(
            f'<text x="{x}" y="{y - 4}" font-size="9" font-family="monospace">{beta:.2f}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
