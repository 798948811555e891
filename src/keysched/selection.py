"""Keyframe selection: first frame + ranked peaks + inter-peak valleys,
topped up by proportional fill over the remaining gaps.

The fill stage apportions the remaining budget across gaps between already
selected frames with the largest-remainder method (gap weight = interior
frame count) and spreads each gap's share evenly inside it. The budget is
always below the total interior count, so no gap gets more indices than it
has interior frames and the spacing is at least one frame: fill indices
round half up and never collide with each other or with a selected frame.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadIntervalError,
    InconsistentExtremaError,
    InvalidKError,
    InvariantViolationError,
    as_floats,
    as_index,
    as_indices,
)
# detect_valleys is unused here but stays a module attribute that perfbench/tracer.py wraps
from .motion import Extrema, MotionCurve, detect_valleys, peak_prominences  # noqa: F401

MODE_BY_PROMINENCE = "by_prominence"
MODE_SEEDED_RANDOM = "seeded_random"

_MASK64 = (1 << 64) - 1


@dataclass
class KeyframeSchedule:
    """Selected frame indices plus the provenance of each one."""

    total_frames: int
    keyframes: list[int]
    peaks_used: list[int] = field(default_factory=list)
    valleys_used: list[int] = field(default_factory=list)
    fill: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.total_frames = as_index(self.total_frames, "total_frames")
        self.keyframes = as_indices(self.keyframes, "keyframes", hi=self.total_frames)
        self.peaks_used = sorted(as_indices(self.peaks_used, "peaks_used"))
        self.valleys_used = sorted(as_indices(self.valleys_used, "valleys_used"))
        self.fill = sorted(as_indices(self.fill, "fill"))
        kf = self.keyframes
        if any(b <= a for a, b in zip(kf, kf[1:])):
            raise InvariantViolationError("keyframes must be strictly increasing")
        if not kf or kf[0] != 0:
            raise InvariantViolationError("keyframes must include frame 0")
        labelled = self.peaks_used + self.valleys_used + self.fill
        if len(set(labelled)) != len(labelled):
            raise InvariantViolationError("provenance lists must not share or repeat an index")
        if set(labelled) | {0} != set(kf):
            raise InvariantViolationError("provenance subsets plus frame 0 must cover keyframes")


@dataclass
class SelectionParams:
    """Target keyframe count and the peak-choice policy."""

    target_count: int = 12
    mode: str = MODE_BY_PROMINENCE
    seed: int = 0

    def __post_init__(self):
        self.target_count = as_index(self.target_count, "target_count", lo=None)
        self.seed = as_index(self.seed, "seed", lo=None)
        if self.target_count < 2:
            raise InvalidKError(f"target keyframe count must be >= 2, got {self.target_count}")
        if self.mode not in (MODE_BY_PROMINENCE, MODE_SEEDED_RANDOM):
            raise InvariantViolationError(f"unknown selection mode {self.mode!r}")


def _splitmix64(state: int):
    """SplitMix64 step: returns (next state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def choose_peaks(
    peaks: list[int],
    prominences: list[float],
    limit: int,
    params: SelectionParams | None = None,
) -> list[int]:
    """Pick up to ``limit`` peaks, returned in ascending index order.

    by_prominence ranks by descending prominence (ties toward the lower
    index); seeded_random draws a uniform sample without replacement via a
    Fisher-Yates shuffle driven by SplitMix64 on ``params.seed``.
    """
    limit = as_index(limit, "limit")
    if len(peaks) != len(prominences):
        raise InconsistentExtremaError("peaks and prominences differ in length")
    if len(peaks) == 0:  # the reals rule rejects empty prominences
        return []
    peaks = as_indices(peaks, "peaks")
    prominences = as_floats(prominences, "prominences", 1, lo=0.0)
    mode = params.mode if params is not None else MODE_BY_PROMINENCE
    if mode == MODE_SEEDED_RANDOM:
        state = params.seed & _MASK64
        for j in range(len(peaks) - 1, 0, -1):
            state, z = _splitmix64(state)
            i = z % (j + 1)
            peaks[i], peaks[j] = peaks[j], peaks[i]
        return sorted(peaks[:limit])
    ranked = np.lexsort((peaks, -prominences))[:limit]  # the last key sorts first
    return sorted(peaks[i] for i in ranked.tolist())


def valley_between(curve: MotionCurve, extrema: Extrema, p1: int, p2: int) -> int | None:
    """One valley index strictly inside (p1, p2), or None if the interval is empty.

    Prefers the valley from ``extrema.valleys`` with the lowest curve value
    (ties toward the lower index); absent any such valley the interval argmin
    stands in, so consecutive peaks always contribute a separator when room exists.
    """
    p1, p2 = as_index(p1, "p1", hi=len(curve)), as_index(p2, "p2", hi=len(curve))
    if p1 >= p2:
        raise BadIntervalError(f"need p1 < p2, got ({p1}, {p2})")
    if p2 - p1 < 2:
        return None
    valleys = extrema.valleys
    inside = valleys[bisect_right(valleys, p1):bisect_left(valleys, p2)]
    if not inside:
        return p1 + 1 + int(np.argmin(curve.values[p1 + 1:p2]))
    return inside[int(np.argmin(curve.values[inside]))]  # the first minimum: the lowest index


def _largest_remainder(weights: list[int], total: int) -> list[int]:
    """Integer allocation proportional to ``weights`` summing to ``total``.

    Floors the ideal shares and hands the remainder to the largest fractional
    parts (ties toward the lower slot index). Since ``total <= sum(weights)``,
    no slot gets more than its weight.
    """
    wsum = sum(weights)
    if not 0 <= total <= wsum:
        raise InvariantViolationError(f"cannot apportion {total} over weights summing to {wsum}")
    ideal = [total * w / wsum for w in weights]
    alloc = [math.floor(s) for s in ideal]
    remainder = total - sum(alloc)
    order = sorted(range(len(weights)), key=lambda i: (-(ideal[i] - alloc[i]), i))
    for i in order[:remainder]:
        alloc[i] += 1
    return alloc


def _place_in_gap(a: int, b: int, count: int) -> list[int]:
    """Spread ``count < b - a`` distinct indices evenly over the open interval (a, b)."""
    return [a + math.floor(j * (b - a) / (count + 1) + 0.5) for j in range(1, count + 1)]


def select_keyframes(
    curve: MotionCurve,
    extrema: Extrema,
    params: SelectionParams,
) -> KeyframeSchedule:
    """Assemble exactly ``params.target_count`` keyframes for the curve.

    Frame 0 is always included. Up to target_count/2 - 1 peaks are chosen
    from ``extrema.peaks`` (all of them when fewer exist), ranked by
    ``extrema.prominences`` or, for extrema built without them, by
    ``peak_prominences`` on the curve. Given prominences are used as they
    are, so they must have been measured on ``curve``. One valley is inserted between each
    pair of consecutive chosen peaks, taken from
    ``extrema.valleys`` (see ``valley_between``), and the remaining budget is
    spread over the gaps between selected frames proportionally to gap size,
    with the final gap running to the virtual clip boundary.
    """
    total = len(curve)
    t_k = params.target_count
    if t_k >= total:
        raise InvalidKError(f"need target count < frame count, got {t_k} >= {total}")
    for name, idx in (("peaks", extrema.peaks), ("valleys", extrema.valleys)):
        if idx and idx[-1] >= total:  # sorted, distinct and >= 0: see Extrema
            raise InconsistentExtremaError(f"{name} fall outside the curve range")

    peak_limit = t_k // 2 - 1
    proms = extrema.prominences
    if proms is None:
        proms = peak_prominences(curve, extrema.peaks)
    chosen_peaks = choose_peaks(extrema.peaks, proms, peak_limit, params)

    chosen_valleys = []
    for a, b in zip(chosen_peaks, chosen_peaks[1:]):
        v = valley_between(curve, extrema, a, b)
        if v is not None:
            chosen_valleys.append(v)

    selected = sorted({0} | set(chosen_peaks) | set(chosen_valleys))
    remaining = t_k - len(selected)

    # gaps between consecutive selections; the last gap ends at the virtual
    # boundary ``total`` so fill can land near the clip end
    gaps = list(zip(selected, selected[1:] + [total]))
    alloc = _largest_remainder([b - a - 1 for a, b in gaps], remaining)
    fill = [i for (a, b), k in zip(gaps, alloc) for i in _place_in_gap(a, b, k)]

    return KeyframeSchedule(
        total_frames=total,
        keyframes=sorted(selected + fill),
        peaks_used=chosen_peaks,
        valleys_used=chosen_valleys,
        fill=fill,
    )
