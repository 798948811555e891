"""Standalone SVG rendering of motion curves.

The chart is a single polyline over frame index, with peaks drawn as upward
triangles, valleys as downward triangles, and keyframes as vertical lines.
Output is plain deterministic SVG text so plots diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, as_index
from .ingest import fixed_text
from .motion import Extrema, MotionCurve
from .selection import KeyframeSchedule

MARGIN = 24.0
MARK_SIZE = 5.0
# canvas side bounds in pixels; below MIN_CANVAS the inner area is empty or mirrored
MIN_CANVAS = int(2 * MARGIN) + 1
MAX_CANVAS = 100_000

CURVE_COLOR = "#1f6fb2"
PEAK_COLOR = "#d64541"
VALLEY_COLOR = "#1e8e5a"
KEYFRAME_COLOR = "#9aa0a6"


@dataclass
class PlotSpec:
    """Everything one chart needs: canvas size, curve, marks."""

    width: int
    height: int
    curve: MotionCurve
    extrema: Extrema
    schedule: KeyframeSchedule | None = None

    def __post_init__(self):
        self.width = as_index(self.width, "width", lo=MIN_CANVAS, hi=MAX_CANVAS + 1)
        self.height = as_index(self.height, "height", lo=MIN_CANVAS, hi=MAX_CANVAS + 1)
        n, sched = len(self.curve), self.schedule
        if sched is not None and sched.total_frames != n:
            raise InvariantViolationError(f"schedule of {sched.total_frames} frames, curve of {n}")
        if any(i >= n for i in self.extrema.peaks[-1:] + self.extrema.valleys[-1:]):
            raise InvariantViolationError(f"extrema index beyond curve of length {n}")


def render_plot(spec: PlotSpec) -> str:
    """Render the chart as a standalone SVG document string."""
    values = spec.curve.values
    n = values.size
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo if hi > lo else 1.0
    inner_w = spec.width - 2 * MARGIN
    inner_h = spec.height - 2 * MARGIN

    def sx(i: np.ndarray) -> np.ndarray:
        # a one-point curve is centred
        return MARGIN + (inner_w * i / (n - 1) if n > 1 else np.full(i.shape, inner_w / 2))

    def sy(v: np.ndarray) -> np.ndarray:
        return MARGIN + inner_h * (1.0 - (v - lo) / span)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]
    if spec.schedule is not None:
        y1, y2 = f"{MARGIN:.2f}", f"{MARGIN + inner_h:.2f}"
        for x in fixed_text(sx(np.array(spec.schedule.keyframes))[:, None], 2).split():
            parts.append(
                f'<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" '
                f'stroke="{KEYFRAME_COLOR}" stroke-width="1" stroke-dasharray="3,3"/>'
            )
    points = fixed_text(np.column_stack((sx(np.arange(n)), sy(values))), 2, end=" ")[:-1]
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{CURVE_COLOR}" stroke-width="1.5"/>'
    )
    marks = ((spec.extrema.peaks, 1, PEAK_COLOR), (spec.extrema.valleys, -1, VALLEY_COLOR))
    for indices, d, color in marks:
        x, y = sx(np.array(indices)), sy(values[indices])
        # apex, then the two base corners: one "x,y" pair per row
        corners = np.column_stack((x, y - d * MARK_SIZE, x - MARK_SIZE, y + d * MARK_SIZE,
                                   x + MARK_SIZE, y + d * MARK_SIZE)).reshape(-1, 2)
        pairs = fixed_text(corners, 2, end=" ").split()
        for apex, left, right in zip(pairs[::3], pairs[1::3], pairs[2::3]):
            parts.append(f'<polygon points="{apex} {left} {right}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
