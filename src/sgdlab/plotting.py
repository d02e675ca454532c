"""Log-log convergence plots as hand-written SVG.

The emitted file uses only <svg>, <polyline>, and <text> elements so it can
be inspected with a text editor and rendered anywhere.  Two data curves
(mean_grad_sq, mean_gap) are drawn as polylines with class "curve"; their
standard-error bands are closed, filled polylines with class "band"; the
axis frame and ticks are one polyline with class "axis".

Points with k <= 0 or a non-positive mean are dropped (no log coordinate);
band edges are clamped to the plot floor where mean - se <= 0.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_REQUIRED = ("checkpoint", "mean_grad_sq", "se_grad_sq", "mean_gap", "se_gap")

_WIDTH, _HEIGHT = 640.0, 440.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 20.0, 30.0, 50.0


def parse_estimates_csv(text: str) -> dict:
    """Columns of an estimates CSV as lists of floats, keyed by header name.

    Raises ConfigError when the header does not start with the documented
    columns or when no data rows are present.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("estimates CSV is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if tuple(header[: len(_REQUIRED)]) != _REQUIRED:
        raise ConfigError(
            f"estimates CSV must start with columns {','.join(_REQUIRED)}; "
            f"got {lines[0]!r}")
    rows = lines[1:]
    if not rows:
        raise ConfigError("estimates CSV has no data rows")
    cols = {h: [] for h in header}
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed CSV row: {ln!r}")
        for h, p in zip(header, parts):
            try:
                cols[h].append(float(p))
            except ValueError:
                raise ConfigError(f"non-numeric value {p!r} in column {h}")
    return cols


def _ticks(lo: float, hi: float):
    """Decade ticks covering [lo, hi] in log10 space."""
    first = math.floor(lo)
    last = math.ceil(hi)
    return list(range(int(first), int(last) + 1))


class _LogMap:
    """Affine map from log10 data coordinates to pixel coordinates."""

    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, value_log: float) -> float:
        t = (value_log - self.lo) / (self.hi - self.lo)
        return self.pix_lo + t * (self.pix_hi - self.pix_lo)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _poly(points, cls: str, style: str) -> str:
    coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
    return f'<polyline class="{cls}" {style} points="{coords}" />'


def _escaped(text: str) -> str:
    """text as XML character data: "&", "<" and ">" escaped.  Written out
    rather than imported from xml.sax.saxutils, whose import pulls in
    urllib.request and costs every CLI command about 25 ms and 1.5 MB."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_plot(cols: dict, title: str = "convergence") -> str:
    """Render mean_grad_sq and mean_gap vs checkpoint on log-log axes."""
    ks = cols["checkpoint"]
    series = [
        ("mean_grad_sq", "se_grad_sq", "#1f77b4"),
        ("mean_gap", "se_gap", "#d62728"),
    ]
    curves = []
    for mean_col, se_col, color in series:
        pts = [(k, m, s) for k, m, s in zip(ks, cols[mean_col], cols[se_col])
               if k > 0 and m > 0 and math.isfinite(m)]
        curves.append((mean_col, color, pts))
    if all(not pts for _, _, pts in curves):
        raise ConfigError("no plottable rows (need checkpoint > 0 and positive means)")

    all_k = [k for _, _, pts in curves for k, _, _ in pts]
    all_y = [m for _, _, pts in curves for _, m, _ in pts]
    kx_lo, kx_hi = math.log10(min(all_k)), math.log10(max(all_k))
    y_lo, y_hi = math.log10(min(all_y)), math.log10(max(all_y))
    floor = y_lo - 0.5          # band clamp a little under the smallest mean
    xmap = _LogMap(kx_lo, kx_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    ymap = _LogMap(floor, y_hi + 0.2, _HEIGHT - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="14">{_escaped(title)}</text>',
    ]

    # Bands first so curves draw on top.
    for mean_col, color, pts in curves:
        if not pts:
            continue
        upper = [(xmap(math.log10(k)), ymap(math.log10(m + s))) for k, m, s in pts]
        lower = []
        for k, m, s in reversed(pts):
            edge = math.log10(m - s) if m - s > 0 else floor
            lower.append((xmap(math.log10(k)), ymap(max(edge, floor))))
        parts.append(_poly(upper + lower, "band",
                           f'fill="{color}" fill-opacity="0.15" stroke="none"'))
    for mean_col, color, pts in curves:
        if not pts:
            continue
        line = [(xmap(math.log10(k)), ymap(math.log10(m))) for k, m, _ in pts]
        parts.append(_poly(line, "curve",
                           f'fill="none" stroke="{color}" stroke-width="1.5"'))

    # Axis frame plus tick marks as a single polyline (pen never lifts; the
    # retrace segments overlap the frame so only ticks are visible).
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    frame = [(x0, y1), (x0, y0), (x1, y0)]
    for t in _ticks(kx_lo, kx_hi):
        px = xmap(float(t))
        if x0 <= px <= x1:
            frame += [(px, y0), (px, y0 + 5), (px, y0)]
    frame += [(x0, y0)]
    for t in _ticks(y_lo, y_hi):
        py = ymap(float(t))
        if y1 <= py <= y0:
            frame += [(x0, py), (x0 - 5, py), (x0, py)]
    parts.append(_poly(frame, "axis", 'fill="none" stroke="#333" stroke-width="1"'))

    for t in _ticks(kx_lo, kx_hi):
        px = xmap(float(t))
        if x0 <= px <= x1:
            parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" '
                         f'text-anchor="middle" font-size="11">1e{t}</text>')
    for t in _ticks(y_lo, y_hi):
        py = ymap(float(t))
        if y1 <= py <= y0:
            parts.append(f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" '
                         f'text-anchor="end" font-size="11">1e{t}</text>')
    parts.append(f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12:.0f}" '
                 f'text-anchor="middle" font-size="12">iteration k</text>')
    legend_y = _MARGIN_T + 14
    for mean_col, color, pts in curves:
        parts.append(f'<text x="{_WIDTH - _MARGIN_R - 8:.0f}" y="{legend_y:.0f}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{mean_col}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_file(csv_path: str, svg_path: str, title: str = "convergence") -> None:
    with open(csv_path, "r", encoding="utf-8") as fh:
        cols = parse_estimates_csv(fh.read())
    svg = svg_plot(cols, title=title)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
