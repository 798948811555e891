"""Conditioning layouts for the interpolator and generator.

interpolation_layout(): keyframe features placed at their frame slots with
zero rows everywhere else. firstframe_layout(): one feature row repeated
across the clip. freenoise_windows(): overlapping fixed-size windows that
cover the clip, clamping the final window to the clip end. A deterministic
sinusoidal frame-index embedding stands in for the learnable one, since this
toolkit ships no trainable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadGeometryError,
    CountMismatchError,
    InvariantViolationError,
    OddDimError,
    ShapeMismatchError,
    as_feature_matrix,
    as_index,
    as_indices,
    as_real_array,
)
from .selection import KeyframeSchedule

FREENOISE_WINDOW = 12
FREENOISE_STRIDE = 6
# the most windows one plan may hold (its JSON takes about 30 bytes each)
MAX_WINDOWS = 100_000


@dataclass
class ConditionLayout:
    """Feature rows plus the 0/1 mask of conditioned slots, one per frame."""

    mask: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        mask = as_real_array(self.mask, "mask")
        if mask.ndim != 1 or mask.size == 0:
            raise InvariantViolationError("mask must be a non-empty 1-D array")
        if not np.all((mask == 0) | (mask == 1)):  # before the cast, which would truncate 0.9
            raise InvariantViolationError("mask entries must be 0 or 1")
        self.mask = mask.astype(np.int64, copy=False)
        self.features = as_real_array(self.features, "features").astype(np.float64, copy=False)
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise InvariantViolationError("features must be a 2-D array at least one column wide")
        if self.features.shape[0] != self.total_frames:
            raise InvariantViolationError("features must carry one row per frame")
        if np.any(self.features[self.mask == 0] != 0.0):
            raise InvariantViolationError("unmasked rows must be exactly zero")

    @property
    def total_frames(self) -> int:
        return self.mask.size

    def to_dict(self) -> dict:
        return {
            "total_frames": self.total_frames,
            "mask": self.mask.tolist(),
            "features": self.features.tolist(),
        }


@dataclass
class WindowPlan:
    """Overlapping fixed-size windows covering [0, total_frames): starts step
    by ``stride`` while a full window fits; a trailing clamped window closes
    any uncovered tail. The window count is checked against ``MAX_WINDOWS``
    before any window is built."""

    total_frames: int
    window: int
    stride: int
    windows: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        total = self.total_frames = as_index(self.total_frames, "total_frames", lo=None)
        window = self.window = as_index(self.window, "window", lo=None)
        stride = self.stride = as_index(self.stride, "stride", lo=None)
        if stride < 1 or stride > window or window > total:
            raise BadGeometryError(
                f"need 1 <= stride <= window <= total_frames, got ({total}, {window}, {stride})"
            )
        # the full-stride windows, plus the clamped one if a tail is left
        count = -(-(total - window) // stride) + 1
        if count > MAX_WINDOWS:
            raise BadGeometryError(
                f"({total}, {window}, {stride}) makes {count} windows, "
                f"more than MAX_WINDOWS = {MAX_WINDOWS}"
            )
        self.windows = [(s, s + window) for s in range(0, total - window + 1, stride)]
        if self.windows[-1][1] != total:
            self.windows.append((total - window, total))

    def to_dict(self) -> dict:
        return {
            "total_frames": self.total_frames,
            "window": self.window,
            "stride": self.stride,
            "windows": [list(w) for w in self.windows],
        }


def interpolation_layout(keyframe_feats, schedule: KeyframeSchedule) -> ConditionLayout:
    """Scatter keyframe feature rows to their frame indices, zeros between."""
    feats = as_feature_matrix(keyframe_feats, "keyframe_feats")
    if feats.shape[0] != len(schedule.keyframes):
        raise CountMismatchError(
            f"{feats.shape[0]} feature rows for {len(schedule.keyframes)} keyframes"
        )
    # KeyframeSchedule keeps the keyframes distinct and in [0, total_frames)
    total = schedule.total_frames
    features = np.zeros((total, feats.shape[1]))
    mask = np.zeros(total, dtype=np.int64)
    features[schedule.keyframes] = feats
    mask[schedule.keyframes] = 1
    return ConditionLayout(mask=mask, features=features)


def firstframe_layout(first_feat, total_frames: int) -> ConditionLayout:
    """Repeat a single feature row across every frame slot."""
    feat = as_feature_matrix(first_feat, "first_feat")
    if feat.shape[0] != 1:
        raise ShapeMismatchError(f"need exactly one feature row, got {feat.shape[0]}")
    total_frames = as_index(total_frames, "total_frames", lo=1)
    features = np.tile(feat[0], (total_frames, 1))
    mask = np.ones(total_frames, dtype=np.int64)
    return ConditionLayout(mask=mask, features=features)


def freenoise_windows(total_frames: int, window: int = FREENOISE_WINDOW,
                      stride: int = FREENOISE_STRIDE) -> WindowPlan:
    """The FreeNoise window plan, at the default geometry unless given."""
    return WindowPlan(total_frames, window, stride)


def frame_index_embedding(indices, channels: int) -> np.ndarray:
    """Sinusoidal embedding of absolute frame indices.

    Row p interleaves sin(p / 10000^(2k/c)) and cos(p / 10000^(2k/c)) for
    k = 0 .. c/2 - 1, giving every index a distinct, reproducible row with
    squared norm c/2.
    """
    channels = as_index(channels, "channels", lo=None)
    if channels < 2 or channels % 2 != 0:
        raise OddDimError(f"channels must be even and >= 2, got {channels}")
    idx = np.asarray(as_indices(indices, "indices"), dtype=np.float64)
    k = np.arange(channels // 2)
    rates = 1.0 / np.power(10000.0, 2.0 * k / channels)
    phase = idx[:, None] * rates[None, :]
    out = np.empty((idx.size, channels))
    out[:, 0::2] = np.sin(phase)
    out[:, 1::2] = np.cos(phase)
    return out
