"""Deterministic SVG figures: region boundary, quiver, enclosure, labels.

Byte-for-byte determinism matters (CI re-renders the committed figures and
compares them byte for byte), so all coordinates are formatted with a fixed
precision and iteration orders are fixed.  No plotting library is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import PlanarField
from .regions import ANNULUS, DISK, Region

_SCALE = 240.0
_PAD = 0.12
_GRID = 15      # the quiver samples (_GRID + 1)^2 points of the bounding box


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Mapper:
    def __init__(self, bbox):
        x0, y0, x1, y1 = (float(v) for v in bbox)
        w, h = x1 - x0, y1 - y0
        self.x0 = x0 - _PAD * w
        self.y1 = y1 + _PAD * h
        self.width = w * (1 + 2 * _PAD) * _SCALE
        self.height = h * (1 + 2 * _PAD) * _SCALE

    def pt(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x0) * _SCALE, (self.y1 - y) * _SCALE)

    def length(self, d: float) -> float:
        return d * _SCALE


def _region_elements(region: Region, m: _Mapper) -> list[str]:
    style = 'fill="none" stroke="#1f5673" stroke-width="1.5"'
    out = []
    if region.kind == DISK:
        cx, cy = m.pt(float(region.center[0]), float(region.center[1]))
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                   f'r="{_fmt(m.length(float(region.r)))}" {style}/>')
    elif region.kind == ANNULUS:
        cx, cy = m.pt(float(region.center[0]), float(region.center[1]))
        for r in (region.r_out, region.r_in):
            out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                       f'r="{_fmt(m.length(float(r)))}" {style}/>')
    else:
        x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
        px, py = m.pt(x0, y1)
        out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                   f'width="{_fmt(m.length(x1 - x0))}" '
                   f'height="{_fmt(m.length(y1 - y0))}" {style}/>')
    return out


def _enclosure_elements(enclosure, m: _Mapper) -> list[str]:
    out = []
    style = 'fill="#e4572e" fill-opacity="0.55" stroke="none"'
    for b in enclosure.boxes:
        x0, y0, x1, y1 = (float(v) for v in b)
        px, py = m.pt(x0, y1)
        out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                   f'width="{_fmt(m.length(x1 - x0))}" '
                   f'height="{_fmt(m.length(y1 - y0))}" {style}/>')
    return out


def _quiver_elements(field: PlanarField, region: Region, m: _Mapper) -> list[str]:
    out = []
    x0, y0, x1, y1 = (float(v) for v in region.bounding_box())
    cell = min(x1 - x0, y1 - y0) / _GRID
    pts = []
    vecs = []
    max_norm = 0.0
    for i in range(_GRID + 1):
        for j in range(_GRID + 1):
            px = x0 + (x1 - x0) * i / _GRID
            py = y0 + (y1 - y0) * j / _GRID
            vx, vy = field.eval_float(px, py)
            n = math.hypot(vx, vy)
            pts.append((px, py))
            vecs.append((vx, vy, n))
            max_norm = max(max_norm, n)
    if max_norm == 0.0:
        return out
    style = 'stroke="#444444" stroke-width="0.8" fill="none"'
    for (px, py), (vx, vy, n) in zip(pts, vecs):
        if n == 0.0:
            continue
        scale = 0.85 * cell * (n / max_norm) / n
        ex, ey = px + vx * scale, py + vy * scale
        ax, ay = m.pt(px, py)
        bx, by = m.pt(ex, ey)
        out.append(f'<path d="M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}" {style}/>')
        # arrow head: two short back-angled strokes
        ang = math.atan2(by - ay, bx - ax)
        hl = 0.25 * math.hypot(bx - ax, by - ay)
        for da in (2.62, -2.62):
            hx = bx + hl * math.cos(ang + da)
            hy = by + hl * math.sin(ang + da)
            out.append(f'<path d="M {_fmt(bx)} {_fmt(by)} L {_fmt(hx)} {_fmt(hy)}" {style}/>')
    return out


def _label_elements(labels, m: _Mapper) -> list[str]:
    out = []
    for (x, y), text in labels:
        px, py = m.pt(float(x), float(y))
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-family="monospace" '
            f'font-size="14" fill="#111111" text-anchor="middle">{text}</text>')
    return out


def render_svg(region: Region, field: PlanarField, enclosure, labels) -> str:
    """The figure: enclosure boxes, quiver, region boundary, then the labels,
    each ((x, y), text)."""
    m = _Mapper(region.bounding_box())
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(m.width)}" '
        f'height="{_fmt(m.height)}" viewBox="0 0 {_fmt(m.width)} {_fmt(m.height)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    parts.extend(_enclosure_elements(enclosure, m))
    parts.extend(_quiver_elements(field, region, m))
    parts.extend(_region_elements(region, m))
    parts.extend(_label_elements(labels, m))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(report, region: Region, field: PlanarField, enclosure, out_path) -> str:
    """Write the figure, with each component labelled by its index when the
    report (a scenario report's JSON, or None) carries per-component indices."""
    svg = render_svg(region, field, enclosure, _labels_from_report(report))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return svg


def _labels_from_report(report) -> list:
    out = []

    def walk(node):
        if isinstance(node, dict):
            comps = node.get("components")
            idx = node.get("index")
            if isinstance(comps, list) and isinstance(idx, dict):
                for comp in comps:
                    bb = comp.get("bounding_box")
                    if bb:
                        cx = (Fraction(bb["x0"]) + Fraction(bb["x1"])) / 2
                        cy = (Fraction(bb["y0"]) + Fraction(bb["y1"])) / 2
                        out.append(((float(cx), float(cy)), str(idx.get("index"))))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
    return out
