"""SVG bytes of ``plot.render_plot`` pinned against goldens.

``tests/golden/plot_svgs.json`` holds the documents rendered from the specs
below by the per-point polyline formatter; the vectorised one must give the
same bytes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from keysched import errors, motion, plot, selection
from keysched.motion import Extrema, MotionCurve
from keysched.selection import KeyframeSchedule, SelectionParams

GOLDEN_SVGS = Path(__file__).parent / "golden" / "plot_svgs.json"


def golden_specs():
    """Named plot specs: one and two points, a flat curve, a seeded curve with marks."""
    rng = np.random.default_rng(6)
    raw = motion.smooth(MotionCurve(rng.random(600) ** 3 * 7.0), window=9)
    curve = motion.normalize(raw)
    extrema = motion.detect_extrema(curve)
    sched = selection.select_keyframes(curve, extrema, SelectionParams(target_count=24))
    return {
        "n1": plot.PlotSpec(width=800, height=300, curve=MotionCurve([0.4]), extrema=Extrema(),
                            schedule=KeyframeSchedule(total_frames=1, keyframes=[0])),
        "n2": plot.PlotSpec(width=97, height=49, curve=MotionCurve([3.0, 1.5]),
                            extrema=Extrema(peaks=[0], valleys=[1])),
        "flat7": plot.PlotSpec(width=640, height=200, curve=MotionCurve(np.full(7, 2.5)),
                               extrema=Extrema()),
        "seeded600_raw": plot.PlotSpec(width=1234, height=321, curve=raw, extrema=extrema),
        "seeded600": plot.PlotSpec(width=800, height=300, curve=curve, extrema=extrema,
                                   schedule=sched),
    }


@pytest.mark.parametrize("name", sorted(golden_specs()))
def test_render_plot_bytes_match_golden(name):
    expected = json.loads(GOLDEN_SVGS.read_text())[name]
    assert plot.render_plot(golden_specs()[name]) == expected


@pytest.mark.parametrize("extrema, schedule", [
    pytest.param(Extrema(peaks=[7]), None, id="peak-beyond-curve"),
    pytest.param(Extrema(valleys=[3]), None, id="valley-beyond-curve"),
    pytest.param(Extrema(), KeyframeSchedule(total_frames=4, keyframes=[0, 2], fill=[2]),
                 id="schedule-longer-than-curve"),
    pytest.param(Extrema(), KeyframeSchedule(total_frames=2, keyframes=[0, 1], fill=[1]),
                 id="schedule-shorter-than-curve"),
])
def test_marks_must_fit_the_curve(extrema, schedule):
    with pytest.raises(errors.InvariantViolationError):
        plot.PlotSpec(width=80, height=60, curve=MotionCurve([0.0, 1.0, 0.5]),
                      extrema=extrema, schedule=schedule)


def test_side_without_marks_writes_no_polygon():
    """Peaks but no valleys: the valley side formats an empty corner table."""
    curve = motion.normalize(MotionCurve([0.0, 0.5, 1.0, 0.5, 0.0]))
    extrema = motion.detect_extrema(curve)
    assert (extrema.peaks, extrema.valleys) == ([2], [])
    assert plot.render_plot(plot.PlotSpec(width=120, height=80, curve=curve, extrema=extrema)) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="120" height="80" viewBox="0 0 120 80">\n'
        '<rect x="0" y="0" width="120" height="80" fill="#ffffff"/>\n'
        '<polyline points="24.00,56.00 42.00,40.00 60.00,24.00 78.00,40.00 96.00,56.00" '
        'fill="none" stroke="#1f6fb2" stroke-width="1.5"/>\n'
        '<polygon points="60.00,19.00 55.00,29.00 65.00,29.00" fill="#d64541"/>\n'
        '</svg>\n')
