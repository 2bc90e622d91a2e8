"""Render sweep tables as standalone SVG line plots.

The CSV is the canonical artifact; these plots are a thin presentational
layer that draws with the standard library alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .noise import CSV_HEADER

X_FIELDS = ("beta", "error_scale", "n_qubits")

EXPECTED_HEADER = CSV_HEADER.split(",")

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

WIDTH = 720
HEIGHT = 480
MARGIN = 70
TICKS = 5  # per axis


@dataclass(frozen=True)
class Series:
    """One plotted line: a protocol's mean fidelity against the x field."""

    label: str
    points: tuple[tuple[float, float], ...]


def load_rows(path) -> list[dict]:
    """Rows of a sweep CSV; rejects wrong headers and empty tables."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:  # skips a leading BOM
        reader = csv.DictReader(handle)
        if reader.fieldnames != EXPECTED_HEADER:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        rows = list(reader)
    if not rows:
        raise ValueError("CSV has no data rows")
    return rows


def build_series(rows, x_field: str) -> list[Series]:
    """Group rows by protocol; points sorted by the x value, which like y must be finite."""
    if x_field not in X_FIELDS:
        raise ValueError(f"x field must be one of {X_FIELDS}, got {x_field!r}")
    groups: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        try:
            x = float(row[x_field])
            y = float(row["mean_fidelity"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed CSV row: {row!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"malformed CSV row: {row!r}")
        groups.setdefault(row["protocol"], []).append((x, y))
    return [
        Series(label, tuple(sorted(points)))
        for label, points in sorted(groups.items())
    ]


def _escape(text: str) -> str:
    """Text as XML character data, as xml.sax.saxutils.escape gives it.

    That module imports urllib.request, which raised a daqft run's peak
    memory by ~3 MB; html.escape loads the html.entities table.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(low: float, high: float) -> list[float]:
    step = (high - low) / (TICKS - 1)
    return [low + i * step for i in range(TICKS)]


def render_svg(series_list: list[Series], x_label: str) -> str:
    """A fixed-size line chart whose axes span the data ranges exactly; label text is escaped."""
    if not series_list:
        raise ValueError("nothing to plot")
    xs = [x for s in series_list for x, _ in s.points]
    ys = [y for s in series_list for _, y in s.points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_min) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for tick in _ticks(x_min, x_max):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN + 22}" font-size="12" '
            f'text-anchor="middle">{tick:.3g}</text>'
        )
    for tick in _ticks(y_min, y_max):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN - 6}" y1="{y:.2f}" x2="{MARGIN}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN - 10}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.2f}" y="{HEIGHT - 18}" font-size="14" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{HEIGHT / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {HEIGHT / 2:.2f})">mean fidelity</text>'
    )
    for idx, series in enumerate(series_list):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in series.points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        legend_y = MARGIN + 18 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN - 110}" y1="{legend_y}" x2="{WIDTH - MARGIN - 86}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 80}" y="{legend_y + 4}" '
            f'font-size="12">{_escape(series.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_csv(in_path, x_field: str, out_path) -> None:
    """Read a sweep CSV and write the corresponding SVG."""
    rows = load_rows(in_path)
    series = build_series(rows, x_field)
    svg = render_svg(series, x_label=x_field)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(svg)
