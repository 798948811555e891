"""Motion-curve conditioning and extrema detection.

smooth(): centered moving average with boundary truncation.
normalize(): per-clip min-max scaling to [0, 1]; a range below FLAT_RANGE is flat.
detect_extrema(): the one extrema detector. Peaks are local maxima filtered by
topographic prominence and a minimum inter-peak distance; valleys are the
peaks of the exactly negated curve. Prominences are exact and take linear time
in the worst case: vectorized peeling rounds settle most peaks (each round
drops every peak lower than both of its neighbouring peaks, which fixes its
two bases), and a monotonic stack finishes the peaks that remain. The kept
peaks' prominences, which downstream peak ranking uses, come from the same pass.
The distance filter visits the k candidates highest first, and each peak it
keeps marks out every candidate within the distance: O(k log k) in all.
detect_peaks() / detect_valleys(): one side of detect_extrema().
peak_prominences(): exact prominence of any index (0.0 off a peak plateau),
for extrema that carry no prominences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidWindowError, InvariantViolationError, NotNormalizedError,
                     as_floats, as_index, as_indices)

STAGE_RAW = "raw"
STAGE_SMOOTHED = "smoothed"
STAGE_NORMALIZED = "normalized"

_STAGE_MAX = {STAGE_RAW: np.inf, STAGE_SMOOTHED: np.inf, STAGE_NORMALIZED: 1.0}

DEFAULT_SMOOTH_WINDOW = 5
DEFAULT_MIN_DISTANCE = 5
DEFAULT_MIN_PROMINENCE = 0.1
# A curve whose max - min is below this counts as flat. Min-max scaling would
# stretch a range of a few subnormals to [0, 1] and invent extrema that the
# same curve plus an offset, which rounds to a constant, does not have. The
# floor sits three decades under the 1e-9 resolution of a scores CSV, so no
# non-constant curve read from one is flat.
FLAT_RANGE = 1e-12
# Below this many peaks one vectorized peeling round costs more than running
# the monotonic stack over them in Python.
_PEEL_MIN_PEAKS = 64


@dataclass
class MotionCurve:
    """Per-frame motion scores plus the processing stage they are in."""

    values: np.ndarray
    stage: str = STAGE_RAW

    def __post_init__(self):
        if self.stage not in _STAGE_MAX:
            raise InvariantViolationError(f"unknown curve stage {self.stage!r}")
        self.values = as_floats(self.values, "curve values", 1, 0.0, _STAGE_MAX[self.stage])

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class Extrema:
    """Sorted peak and valley indices detected on one curve.

    ``prominences``, when given, holds each peak's prominence on that same
    curve, in peak order; ``detect_extrema`` fills it in from its own pass.
    Consumers trust them and do not check them against the curve, so extrema
    moved to another curve must drop them. They take part in equality.
    """

    peaks: list[int] = field(default_factory=list)
    valleys: list[int] = field(default_factory=list)
    prominences: list[float] | None = None

    def __post_init__(self):
        self.peaks = as_indices(self.peaks, "peaks")
        self.valleys = as_indices(self.valleys, "valleys")
        for name, idx in (("peaks", self.peaks), ("valleys", self.valleys)):
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise InvariantViolationError(f"{name} must be sorted and distinct")
        prom = self.prominences
        # an Extrema without peaks may carry any empty 1-D sequence, which as_floats rejects
        if not self.peaks and (isinstance(prom, (list, tuple)) and not prom
                               or isinstance(prom, np.ndarray) and prom.shape == (0,)):
            self.prominences = []
        elif prom is not None:
            self.prominences = as_floats(prom, "prominences", 1, lo=0.0).tolist()
            if len(self.prominences) != len(self.peaks):
                raise InvariantViolationError("need one prominence per peak")


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
    # n - 1 already spans the whole curve from every index, and keeps idx - half in int64
    half = min(window // 2, n - 1)
    with np.errstate(over="ignore"):  # past the float range, sum x / 2**k, 2**k >= n, instead
        csum = np.cumsum(x)
    scale = float(1 << (n - 1).bit_length()) if np.isinf(csum[-1]) else 1.0  # exact for normals
    csum = np.concatenate(([0.0], csum if scale == 1.0 else np.cumsum(x / scale)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    mean = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    if scale != 1.0:  # a mean of rounded prefix sums can exceed max / scale
        mean = np.minimum(mean, x.max() / scale)
    return MotionCurve(mean * scale, stage=STAGE_SMOOTHED)


def normalize(curve: MotionCurve) -> MotionCurve:
    """Min-max scale to [0, 1]; a flat curve (range below FLAT_RANGE) maps to all zeros."""
    x = curve.values
    lo, hi = float(x.min()), float(x.max())
    if hi - lo < FLAT_RANGE:
        return MotionCurve(np.zeros_like(x), stage=STAGE_NORMALIZED)
    return MotionCurve((x - lo) / (hi - lo), stage=STAGE_NORMALIZED)


def _stack_bases(heights: list[float], gaps: list[float]) -> list[float]:
    """For each peak, the minimum of the gaps back to the nearest strictly higher peak.

    ``gaps[j]`` is the terrain minimum just before peak ``j``. One
    monotonic-stack pass: the stack holds heights that strictly decrease from
    the bottom, each with the minimum of its own span, and a new peak absorbs
    the spans of every entry it pops.
    """
    out = []
    stack: list[tuple[float, float]] = []
    for h, m in zip(heights, gaps):
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
    two. A local-maximum run (both neighbours strictly lower) has prominence
    > 0; every other run, the array ends included, has exactly 0.

    Strictly higher terrain beside a peak rises to a strictly higher peak, so
    a side's base is the minimum of the gaps (terrain minima between
    neighbouring peaks, the array ends included) back to the nearest strictly
    higher peak, or to the end. Peeling rounds find most bases in whole-array
    passes: a peak strictly lower than both current neighbours has them as
    its nearest strictly higher peaks, so it takes the gap on each side as
    that side's base, the two gaps merge by ``min`` and the peak is dropped.
    A dropped peak is never the nearest strictly higher peak of one that
    remains, so later rounds stay exact. Once a round drops under 1/8 of the
    peaks left (ascending or V-shaped teeth lose one per round), or few are
    left, a monotonic stack over (height, gap) pairs finishes, so the worst
    case stays linear. Only comparisons and ``min`` run before the one
    subtraction per peak, so no value is rounded.
    """
    first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[first]
    prom = np.zeros(v.size)
    # Behind infinite walls at both ends, peaks and minima alternate and a
    # minimum comes first and last. Neighbouring runs are never equal, so a
    # run higher than neither neighbour is a minimum, and the minima are the
    # gaps: the terrain minimum before each peak, plus the one after the last.
    walled = np.concatenate(([np.inf], v, [np.inf]))
    rise, fall = v > walled[:-2], v > walled[2:]
    pk = np.flatnonzero(rise & fall)
    if pk.size == 0:
        return first, prom
    gaps = v[~(rise | fall)]
    left = np.empty(pk.size)
    right = np.empty(pk.size)
    alive = np.arange(pk.size)
    heights = v[pk]
    while alive.size > _PEEL_MIN_PEAKS:
        walls = np.concatenate(([np.inf], heights, [np.inf]))
        drop = (heights < walls[:-2]) & (heights < walls[2:])
        d = np.flatnonzero(drop)
        before, after = gaps[d], gaps[d + 1]
        left[alive[d]] = before
        right[alive[d]] = after
        # dropped peaks are never neighbours, so the merged gap can take the
        # place of the one after each dropped peak
        gaps[d + 1] = np.minimum(before, after)
        keep = ~drop
        gaps = np.concatenate((gaps[:-1][keep], gaps[-1:]))
        alive, heights = alive[keep], heights[keep]
        if 8 * d.size < drop.size:
            break
    # the highest peak is never dropped, so the stack always has peaks left
    h, g = heights.tolist(), gaps.tolist()
    left[alive] = _stack_bases(h, g[:-1])
    right[alive] = _stack_bases(h[::-1], g[:0:-1])[::-1]
    prom[pk] = v[pk] - np.maximum(left, right)
    return first, prom


def peak_prominences(curve: MotionCurve, indices: list[int]) -> list[float]:
    """Prominence of each index on the curve, in the given order.

    Exact for any index: an index on a peak plateau gets the plateau's
    prominence, any other index 0.0.
    """
    x = curve.values
    indices = as_indices(indices, "indices", hi=x.size)
    first, prom = _run_prominences(x)
    runs = np.searchsorted(first, np.asarray(indices, dtype=np.int64), side="right") - 1
    return prom[runs].tolist()


def _peaks(x: np.ndarray, distance: int, prominence: float) -> tuple[np.ndarray, np.ndarray]:
    """Kept peak indices of ``x`` and their prominences; see ``detect_extrema``."""
    first, prom = _run_prominences(x)
    survives = (prom > 0) & (prom >= prominence)
    cands, cand_prom = first[survives], prom[survives]
    d = min(distance, x.size)  # any d >= n keeps one peak, and keeps cands - d in int64
    lo = np.searchsorted(cands, cands - d, "right").tolist()
    hi = np.searchsorted(cands, cands + d, "left").tolist()
    keep = [True] * cands.size
    for j in np.argsort(-x[cands], kind="stable").tolist():
        if keep[j]:  # no higher peak, nor an earlier one as high, was kept within d
            keep[lo[j]:hi[j]] = [False] * (hi[j] - lo[j])
            keep[j] = True
    return cands[keep], cand_prom[keep]


def detect_extrema(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> Extrema:
    """Peaks and valleys of a normalized curve, with the peaks' prominences.

    Peak candidates are interior local maxima (leftmost index of a plateau),
    found with their prominences by ``_run_prominences`` in linear time. They
    are filtered to prominence >= ``min_prominence``, then thinned so any two
    survivors sit >= ``min_distance`` apart, keeping higher peaks first and
    breaking height ties toward the lower index. Valleys are the peaks of
    ``-values`` under the same rule; negation is exact, so no value is rounded
    before each prominence's one subtraction.
    """
    min_distance = as_index(min_distance, "min_distance")
    min_prominence = float(as_floats(min_prominence, "min_prominence", lo=0.0))
    if curve.stage != STAGE_NORMALIZED:
        raise NotNormalizedError("extrema detection requires a normalized curve")
    peaks, prominences = _peaks(curve.values, min_distance, min_prominence)
    valleys = _peaks(-curve.values, min_distance, min_prominence)[0]
    return Extrema(peaks=peaks, valleys=valleys, prominences=prominences)


def detect_peaks(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[int]:
    """The peaks of ``detect_extrema``."""
    return detect_extrema(curve, min_distance, min_prominence).peaks


def detect_valleys(
    curve: MotionCurve,
    min_distance: int = DEFAULT_MIN_DISTANCE,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[int]:
    """The valleys of ``detect_extrema``."""
    return detect_extrema(curve, min_distance, min_prominence).valleys
