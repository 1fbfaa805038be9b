"""Tiny standalone SVG scatter/line plots, enough to eyeball results.

Deliberately not a charting framework: points, polylines, decade ticks on
optional log axes, axis labels, and a handful of fixed colors.  Output is a
self-contained SVG 1.1 document.
"""

from __future__ import annotations

import math

COLORS = ["#c0392b", "#2471a3", "#1e8449", "#7d3c98", "#b7950b", "#17202a",
          "#d35400", "#117a65"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 24, 56


def _transform(lo, hi, log):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo if hi > lo else 1.0

    def to_unit(v):
        v = math.log10(v) if log else v
        return (v - lo) / span

    return to_unit, lo, hi


def _ticks(lo, hi, log):
    if log:
        lo_d = math.floor(lo + 1e-9)
        hi_d = math.ceil(hi - 1e-9)
        step = max(1, (hi_d - lo_d) // 8)
        return [(10.0 ** d, f"1e{d}") for d in range(lo_d, hi_d + 1, step)]
    span = hi - lo if hi > lo else 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 8:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append((v, f"{v:.6g}"))
        v += step
    return out


class SvgPlot:
    """Accumulates series, then renders one SVG document."""

    def __init__(self, xlabel="", ylabel="", title="", xlog=False, ylog=False):
        self.xlabel, self.ylabel, self.title = xlabel, ylabel, title
        self.xlog, self.ylog = xlog, ylog
        self.series = []

    def add(self, xs, ys, label="", mode="points"):
        # a None point (an undefined ratio) is dropped like a non-finite one
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if x is not None and y is not None
               and math.isfinite(x) and math.isfinite(y)
               and (not self.xlog or x > 0) and (not self.ylog or y > 0)]
        self.series.append((pts, label, mode))

    def render(self) -> str:
        xs = [p[0] for s in self.series for p in s[0]]
        ys = [p[1] for s in self.series for p in s[0]]
        if not xs:
            # no point survived (a lossless profile on a log axis): an empty
            # frame over [0, 1], or over one decade on a log axis
            xs = [1.0, 10.0] if self.xlog else [0.0, 1.0]
            ys = [1.0, 10.0] if self.ylog else [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if not self.xlog:
            pad = 0.05 * (x_hi - x_lo or 1.0)
            x_lo, x_hi = x_lo - pad, x_hi + pad
        if not self.ylog:
            pad = 0.05 * (y_hi - y_lo or 1.0)
            y_lo, y_hi = y_lo - pad, y_hi + pad
        if self.xlog and x_lo == x_hi:
            x_hi = x_lo * 10
        if self.ylog and y_lo == y_hi:
            y_hi = y_lo * 10
        fx, xl, xh = _transform(x_lo, x_hi, self.xlog)
        fy, yl, yh = _transform(y_lo, y_hi, self.ylog)
        pw, ph = _W - _ML - _MR, _H - _MT - _MB

        def px(x):
            return _ML + fx(x) * pw

        def py(y):
            return _MT + (1.0 - fy(y)) * ph

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
               f'<rect width="{_W}" height="{_H}" fill="white"/>',
               f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333"/>']
        if self.title:
            out.append(f'<text x="{_W / 2:.1f}" y="16" text-anchor="middle" '
                       f'font-size="13" font-family="sans-serif">{self.title}</text>')
        for v, lab in _ticks(xl, xh, self.xlog):
            if not self.xlog and not (x_lo <= v <= x_hi):
                continue
            x = px(v)
            out.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" '
                       f'y2="{_MT + ph + 5}" stroke="#333"/>')
            out.append(f'<text x="{x:.1f}" y="{_MT + ph + 18}" text-anchor="middle" '
                       f'font-size="11" font-family="sans-serif">{lab}</text>')
        for v, lab in _ticks(yl, yh, self.ylog):
            if not self.ylog and not (y_lo <= v <= y_hi):
                continue
            y = py(v)
            out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" '
                       f'y2="{y:.1f}" stroke="#333"/>')
            out.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
                       f'font-size="11" font-family="sans-serif">{lab}</text>')
        if self.xlabel:
            out.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 16}" text-anchor="middle" '
                       f'font-size="12" font-family="sans-serif">{self.xlabel}</text>')
        if self.ylabel:
            yc = _MT + ph / 2
            out.append(f'<text x="18" y="{yc:.1f}" text-anchor="middle" font-size="12" '
                       f'font-family="sans-serif" transform="rotate(-90 18 {yc:.1f})">'
                       f'{self.ylabel}</text>')
        for i, (pts, label, mode) in enumerate(self.series):
            color = COLORS[i % len(COLORS)]
            if mode == "line" and len(pts) > 1:
                path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
                out.append(f'<polyline points="{path}" fill="none" '
                           f'stroke="{color}" stroke-width="1.4"/>')
            else:
                for x, y in pts:
                    out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" '
                               f'r="2.2" fill="{color}"/>')
            if label:
                ly = _MT + 14 + 14 * i
                out.append(f'<rect x="{_ML + pw - 130}" y="{ly - 8}" width="9" '
                           f'height="9" fill="{color}"/>')
                out.append(f'<text x="{_ML + pw - 117}" y="{ly}" font-size="11" '
                           f'font-family="sans-serif">{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
