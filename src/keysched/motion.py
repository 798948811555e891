"""Motion-curve conditioning and extrema detection.

smooth(): centered moving average with boundary truncation.
normalize(): per-clip min-max scaling to [0, 1]; a range below FLAT_RANGE is flat.
detect_peaks() / detect_valleys(): local extrema filtered by topographic
prominence and a minimum inter-peak distance; extrema and prominences come
from one linear-time monotonic-stack pass per side.
peak_prominences(): exact prominence of any index (0.0 off a peak plateau),
used by downstream peak ranking.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWindowError, InvariantViolationError, NotNormalizedError, as_index

STAGE_RAW = "raw"
STAGE_SMOOTHED = "smoothed"
STAGE_NORMALIZED = "normalized"

_STAGES = (STAGE_RAW, STAGE_SMOOTHED, STAGE_NORMALIZED)

DEFAULT_SMOOTH_WINDOW = 5
DEFAULT_MIN_DISTANCE = 5
DEFAULT_MIN_PROMINENCE = 0.1
# A curve whose max - min is below this counts as flat. Min-max scaling would
# stretch a range of a few subnormals to [0, 1] and invent extrema that the
# same curve plus an offset, which rounds to a constant, does not have. The
# floor sits three decades under the 1e-9 resolution of a scores CSV, so no
# non-constant curve read from one is flat.
FLAT_RANGE = 1e-12


@dataclass
class MotionCurve:
    """Per-frame motion scores plus the processing stage they are in."""

    values: np.ndarray
    stage: str = STAGE_RAW

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise InvariantViolationError("motion curve must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolationError("motion curve values must be finite")
        if np.any(self.values < 0):
            raise InvariantViolationError("motion curve values must be non-negative")
        if self.stage not in _STAGES:
            raise InvariantViolationError(f"unknown curve stage {self.stage!r}")
        if self.stage == STAGE_NORMALIZED and np.any(self.values > 1.0):
            raise InvariantViolationError("normalized curve values must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class Extrema:
    """Sorted peak and valley indices detected on one curve."""

    peaks: list[int] = field(default_factory=list)
    valleys: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.peaks = [as_index(i, "peaks") for i in self.peaks]
        self.valleys = [as_index(i, "valleys") for i in self.valleys]
        for name, idx in (("peaks", self.peaks), ("valleys", self.valleys)):
            if sorted(set(idx)) != idx:
                raise InvariantViolationError(f"{name} must be sorted and distinct")


def smooth(curve: MotionCurve, window: int = DEFAULT_SMOOTH_WINDOW) -> MotionCurve:
    """Centered moving average of width ``window`` (odd).

    Near the boundaries the window is truncated to the indices that exist and
    the mean is taken over that shorter span, so constant curves pass through
    unchanged and no zero-padding bias appears at the ends.
    """
    window = as_index(window, "window", lo=None)
    if window < 1 or window % 2 == 0:
        raise InvalidWindowError(f"window must be odd and >= 1, got {window}")
    x = curve.values
    n = x.size
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    out = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return MotionCurve(out, stage=STAGE_SMOOTHED)


def normalize(curve: MotionCurve) -> MotionCurve:
    """Min-max scale to [0, 1]; a flat curve (range below FLAT_RANGE) maps to all zeros."""
    x = curve.values
    lo = float(x.min())
    hi = float(x.max())
    if hi - lo < FLAT_RANGE:
        return MotionCurve(np.zeros_like(x), stage=STAGE_NORMALIZED)
    return MotionCurve((x - lo) / (hi - lo), stage=STAGE_NORMALIZED)


def _span_minima(values: list[float]) -> list[float]:
    """For each value, the minimum from it back to the nearest strictly higher value.

    One monotonic-stack pass: the stack holds values that strictly decrease
    from the bottom, each with the minimum of its own span, and a new value
    absorbs the spans of every entry it pops.
    """
    out = []
    stack: list[tuple[float, float]] = []
    for h in values:
        m = h
        while stack and stack[-1][0] <= h:
            s = stack.pop()[1]
            if s < m:
                m = s
        stack.append((h, m))
        out.append(m)
    return out


def _run_prominences(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index of each run of equal values in ``x``, and each run's prominence.

    Topographic prominence: from the run, each side's minimum up to strictly
    higher terrain or the array end, and the height above the higher of the
    two. The minima are taken only over turning runs (both ends, maxima,
    minima), because a side's minimum always lies on one; being minima of the
    same elements, they are exactly those of a walk over every index. A
    local-maximum run (both neighbours strictly lower) has prominence > 0;
    every other run, the array ends included, has exactly 0.
    """
    first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[first]
    up = v[1:] > v[:-1]
    turn = np.concatenate(([0], np.flatnonzero(up[:-1] != up[1:]) + 1, [v.size - 1]))
    tv = v[turn].tolist()
    base = np.maximum(_span_minima(tv), _span_minima(tv[::-1])[::-1])
    prom = np.zeros(v.size)
    prom[turn] = v[turn] - base
    return first, prom


def peak_prominences(curve: MotionCurve, indices: list[int]) -> list[float]:
    """Prominence of each index on the curve, in the given order.

    Exact for any index: an index on a peak plateau gets the plateau's
    prominence, any other index 0.0.
    """
    x = curve.values
    indices = [as_index(i, "indices", hi=x.size) for i in indices]
    first, prom = _run_prominences(x)
    runs = np.searchsorted(first, np.asarray(indices, dtype=np.int64), side="right") - 1
    return prom[runs].tolist()


def detect_peaks(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[int]:
    """Peak indices of a normalized curve.

    Candidates are interior local maxima (leftmost index of a plateau), found
    with their prominences in one linear-time monotonic-stack pass per side.
    They are filtered to prominence >= ``min_prominence``, then thinned so any
    two survivors sit >= ``min_distance`` apart, keeping higher peaks first
    and breaking height ties toward the lower index.
    """
    if curve.stage != STAGE_NORMALIZED:
        raise NotNormalizedError("peak detection requires a normalized curve")
    x = curve.values
    first, prom = _run_prominences(x)
    cands = first[(prom > 0) & (prom >= min_prominence)]
    kept: list[int] = []
    for i in cands[np.argsort(-x[cands], kind="stable")].tolist():
        # the nearest kept peak on either side decides
        pos = bisect_left(kept, i)
        if (pos == 0 or i - kept[pos - 1] >= min_distance) and (
            pos == len(kept) or kept[pos] - i >= min_distance
        ):
            kept.insert(pos, i)
    return kept


def detect_valleys(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[int]:
    """Valley indices: peak detection on the affinely negated curve."""
    if curve.stage != STAGE_NORMALIZED:
        raise NotNormalizedError("valley detection requires a normalized curve")
    negated = MotionCurve(curve.values.max() - curve.values, stage=STAGE_NORMALIZED)
    return detect_peaks(negated, min_distance=min_distance, min_prominence=min_prominence)


def detect_extrema(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> Extrema:
    """Peaks and valleys of one curve under shared constraints."""
    return Extrema(
        peaks=detect_peaks(curve, min_distance, min_prominence),
        valleys=detect_valleys(curve, min_distance, min_prominence),
    )
