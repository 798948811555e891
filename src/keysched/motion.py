"""Motion-curve conditioning and extrema detection.

smooth(): centered moving average with boundary truncation.
normalize(): per-clip min-max scaling to [0, 1]; a range below FLAT_RANGE is flat.
detect_peaks() / detect_valleys(): local extrema filtered by topographic
prominence and a minimum inter-peak distance.
peak_prominences(): prominence lookup used by downstream peak ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWindowError, InvariantViolationError, NotNormalizedError

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
        self.peaks = [int(i) for i in self.peaks]
        self.valleys = [int(i) for i in self.valleys]
        for name, idx in (("peaks", self.peaks), ("valleys", self.valleys)):
            if any(i < 0 for i in idx):
                raise InvariantViolationError(f"{name} contain a negative index")
            if sorted(set(idx)) != idx:
                raise InvariantViolationError(f"{name} must be sorted and distinct")


def smooth(curve: MotionCurve, window: int = DEFAULT_SMOOTH_WINDOW) -> MotionCurve:
    """Centered moving average of width ``window`` (odd).

    Near the boundaries the window is truncated to the indices that exist and
    the mean is taken over that shorter span, so constant curves pass through
    unchanged and no zero-padding bias appears at the ends.
    """
    window = int(window)
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


def _local_maxima(x: np.ndarray) -> list[int]:
    """Interior local maxima; a flat run reports its leftmost index only."""
    n = x.size
    maxima = []
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[i]:
                j += 1
            # the run [i, j] is a peak only if it drops on the right as well
            if j < n - 1 and x[j + 1] < x[i]:
                maxima.append(i)
            i = j + 1
        else:
            i += 1
    return maxima


def _prominence(x: np.ndarray, i: int) -> float:
    """Topographic prominence of index ``i``.

    Walks outward until strictly higher terrain or the array end, takes the
    minimum of each stretch, and measures height above the higher minimum.
    Array ends act as unbounded drops, never as higher terrain.
    """
    h = x[i]
    j = i - 1
    left = h
    while j >= 0 and x[j] <= h:
        if x[j] < left:
            left = x[j]
        j -= 1
    j = i + 1
    right = h
    while j < x.size and x[j] <= h:
        if x[j] < right:
            right = x[j]
        j += 1
    return float(h - max(left, right))


def peak_prominences(curve: MotionCurve, indices: list[int]) -> list[float]:
    """Prominence of each index on the curve, in the given order."""
    x = curve.values
    for i in indices:
        if not 0 <= i < x.size:
            raise InvariantViolationError(f"index {i} outside curve of length {x.size}")
    return [_prominence(x, int(i)) for i in indices]


def detect_peaks(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[int]:
    """Peak indices of a normalized curve.

    Candidates are interior local maxima (leftmost index of a plateau). They
    are filtered to prominence >= ``min_prominence``, then thinned so any two
    survivors sit >= ``min_distance`` apart, keeping higher peaks first and
    breaking height ties toward the lower index.
    """
    if curve.stage != STAGE_NORMALIZED:
        raise NotNormalizedError("peak detection requires a normalized curve")
    x = curve.values
    cands = [i for i in _local_maxima(x) if _prominence(x, i) >= min_prominence]
    kept: list[int] = []
    for i in sorted(cands, key=lambda i: (-x[i], i)):
        if all(abs(i - k) >= min_distance for k in kept):
            kept.append(i)
    return sorted(kept)


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
