"""Minimal self-contained SVG emitters: price series and ternary maps."""

import math
from xml.etree import ElementTree as ET

from .errors import DomainError
from .experiments import TernaryGrid

_SVG_NS = "http://www.w3.org/2000/svg"
_SERIES_WIDTH, _SERIES_HEIGHT, _TERNARY_WIDTH = 640, 360, 480


def _svg_root(width: int, height: int) -> ET.Element:
    return ET.Element("svg", {
        "xmlns": _SVG_NS, "width": str(width), "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })


def _color(value: float) -> str:
    """Blue (0) to red (1) through white."""
    v = min(1.0, max(0.0, value))
    if v < 0.5:
        t = v / 0.5
        r, g, b = int(40 + 215 * t), int(80 + 175 * t), 255
    else:
        t = (v - 0.5) / 0.5
        r, g, b = 255, int(255 - 200 * t), int(255 - 215 * t)
    return f"rgb({r},{g},{b})"


def render_series_svg(prices, valuation: float) -> str:
    """Log-scale price polyline with a valuation reference line and a
    5-deciblack drop marker below the valuation."""
    prices = [float(p) for p in prices]
    if not prices:
        raise DomainError("empty price series")
    if any(p <= 0 for p in prices):
        raise DomainError("prices must be positive")
    width, height = _SERIES_WIDTH, _SERIES_HEIGHT
    marker = valuation * 2.0 ** -0.5
    logs = [math.log(p) for p in prices] + [math.log(valuation), math.log(marker)]
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    pad = 10.0

    def x_of(i: int) -> float:
        if len(prices) == 1:
            return width / 2.0
        return pad + (width - 2 * pad) * i / (len(prices) - 1)

    def y_of(p: float) -> float:
        return pad + (height - 2 * pad) * (hi - math.log(p)) / (hi - lo)

    root = _svg_root(width, height)
    for level, color, dash in ((valuation, "#555555", "4 3"), (marker, "#cc2222", "6 3")):
        ET.SubElement(root, "line", {
            "x1": str(pad), "x2": str(width - pad),
            "y1": f"{y_of(level):.2f}", "y2": f"{y_of(level):.2f}",
            "stroke": color, "stroke-dasharray": dash, "stroke-width": "1",
        })
    if len(prices) == 1:
        ET.SubElement(root, "circle", {
            "cx": f"{x_of(0):.2f}", "cy": f"{y_of(prices[0]):.2f}",
            "r": "3", "fill": "black"})
    else:
        pts = " ".join(f"{x_of(i):.2f},{y_of(p):.2f}" for i, p in enumerate(prices))
        ET.SubElement(root, "polyline", {
            "points": pts, "fill": "none", "stroke": "black", "stroke-width": "1.2"})
    return ET.tostring(root, encoding="unicode")


def render_ternary_svg(grid: TernaryGrid) -> str:
    """Simplex colored by crash frequency: one cell per grid point.

    Top corner is 100% valuation traders, right corner 100% momentum,
    left corner 100% random."""
    if not grid.points:
        raise DomainError("empty ternary grid")
    width = _TERNARY_WIDTH
    height = int(width * math.sqrt(3) / 2) + 20
    pad = 10.0
    top = (width / 2.0, pad)
    right = (width - pad, height - pad)
    left = (pad, height - pad)

    root = _svg_root(width, height)
    ET.SubElement(root, "polygon", {
        "points": f"{top[0]},{top[1]} {right[0]},{right[1]} {left[0]},{left[1]}",
        "fill": "none", "stroke": "#888888", "stroke-width": "1"})
    radius = max(2.0, (width - 2 * pad) / (2.2 * (grid.resolution + 1)))
    for point in grid.points:
        x = (point.val_frac * top[0] + point.mo_frac * right[0]
             + point.rand_frac * left[0])
        y = (point.val_frac * top[1] + point.mo_frac * right[1]
             + point.rand_frac * left[1])
        ET.SubElement(root, "circle", {
            "cx": f"{x:.2f}", "cy": f"{y:.2f}", "r": f"{radius:.2f}",
            "fill": _color(point.crash_freq)})
    return ET.tostring(root, encoding="unicode")
