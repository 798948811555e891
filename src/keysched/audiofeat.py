"""Audio feature geometry: log-mel spectrograms and the token bookkeeping
that maps encoder patches onto video time steps and keyframe indices.

The spectrogram uses a 25 ms periodic Hann window with a 10 ms hop at
16 kHz, 128 Slaney-style mel filters over 0-8000 Hz, log(1+x) compression,
and a fixed 196-frame time axis, sized so a kernel-16 patchifier yields 19
tokens at stride 10 and 46 at stride 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ClipTooShortError,
    IndexOutOfRangeError,
    InvariantViolationError,
    KernelTooLargeError,
    ShapeMismatchError,
    WrongSampleRateError,
    as_feature_matrix,
    as_floats,
    as_index,
    as_indices,
)
from .ingest import AudioClip, PIPELINE_SAMPLE_RATE, fixed_text
from .selection import KeyframeSchedule

N_MELS = 128
WINDOW_SIZE = 400   # 25 ms at 16 kHz
HOP_SIZE = 160      # 10 ms
FMAX = 8000.0
TARGET_FRAMES = 196
PATCH_KERNEL = 16
# the samples the kept windows span (31 600); later samples never reach the mel
FRAMED_SAMPLES = WINDOW_SIZE + (TARGET_FRAMES - 1) * HOP_SIZE


@dataclass
class MelSpectrogram:
    """128-band log-mel matrix, band-major (bands x frames)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = as_floats(self.values, "log-mel values", 2, lo=0.0)
        if self.values.shape[0] != N_MELS:
            raise InvariantViolationError(f"expected {N_MELS} x frames matrix")

    @property
    def bands(self) -> int:
        return N_MELS

    @property
    def frames(self) -> int:
        return int(self.values.shape[1])


def _hz_to_mel(freq: float) -> float:
    # Slaney scale: linear to 1 kHz, logarithmic above
    if freq < 1000.0:
        return freq * 3.0 / 200.0
    return 15.0 + math.log(freq / 1000.0) / (math.log(6.4) / 27.0)


def _mel_to_hz(mel: float) -> float:
    if mel < 15.0:
        return mel * 200.0 / 3.0
    return 1000.0 * math.exp((math.log(6.4) / 27.0) * (mel - 15.0))


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Area-normalized triangular filters on the Slaney mel scale: N_MELS
    bands up to FMAX over the bins of a WINDOW_SIZE-point FFT.

    Built once per process; every call returns the same read-only array.
    """
    n_bins = WINDOW_SIZE // 2 + 1
    fft_freqs = np.arange(n_bins) * (PIPELINE_SAMPLE_RATE / WINDOW_SIZE)
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(FMAX), N_MELS + 2)
    hz_pts = np.array([_mel_to_hz(m) for m in mel_pts])
    lo, mid, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    rising = (fft_freqs - lo) / (mid - lo)
    falling = (hi - fft_freqs) / (hi - mid)
    bank = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    bank.flags.writeable = False
    return bank


def mel_spectrogram(clip: AudioClip) -> MelSpectrogram:
    """Log-mel spectrogram with the time axis fixed to 196 frames.

    Framing is left-aligned with no centering. Only the first
    ``FRAMED_SAMPLES`` (31 600) samples reach a kept window, so only they
    are framed; a clip with fewer than 196 windows is zero-padded (silence)
    to the target frame count.
    """
    if clip.sample_rate != PIPELINE_SAMPLE_RATE:
        raise WrongSampleRateError(
            f"need {PIPELINE_SAMPLE_RATE} Hz audio, got {clip.sample_rate}"
        )
    if clip.samples.size < WINDOW_SIZE:
        raise ClipTooShortError(f"need >= {WINDOW_SIZE} samples, got {clip.samples.size}")
    samples = clip.samples[:FRAMED_SAMPLES]
    n_frames = (samples.size - WINDOW_SIZE) // HOP_SIZE + 1
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SIZE) / WINDOW_SIZE)
    frames = sliding_window_view(samples, WINDOW_SIZE)[::HOP_SIZE] * window
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mel = np.log1p(mel_filterbank() @ power.T)
    return MelSpectrogram(values=np.pad(mel, ((0, 0), (0, TARGET_FRAMES - n_frames))))


def mel_csv_text(spec: MelSpectrogram) -> str:
    """The spectrogram as plain CSV, one band per row, 9-decimal values."""
    return fixed_text(spec.values, 9)


def patch_token_count(frame_count: int, kernel: int, stride: int) -> int:
    """Number of temporal patches a strided 1-D patchifier produces."""
    frame_count = as_index(frame_count, "frame_count", lo=None)
    kernel = as_index(kernel, "kernel", lo=1)
    stride = as_index(stride, "stride", lo=1)
    if kernel > frame_count:
        raise KernelTooLargeError(f"kernel {kernel} exceeds {frame_count} frames")
    return (frame_count - kernel) // stride + 1


def interp_pos_embeddings(embeddings, n_new: int) -> np.ndarray:
    """Resample position embeddings to a new sequence length.

    Each channel is linearly interpolated over normalized positions, so the
    first and last rows are preserved exactly; a single input row broadcasts.
    All channels go through ``np.interp``'s formula at once (the slope of the
    segment below each target, times the offset into it, plus its start), so
    on finite input the result is bit for bit per-channel ``np.interp``.
    """
    emb = as_feature_matrix(embeddings, "embeddings")
    n_new = as_index(n_new, "n_new", lo=1)
    n = emb.shape[0]
    if n == 1:
        return np.tile(emb[0], (n_new, 1))
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, n_new)
    below = np.searchsorted(src, dst, side="right") - 1
    j = np.minimum(below, n - 2)
    slope = (emb[j + 1] - emb[j]) / (src[j + 1] - src[j])[:, None]
    out = slope * (dst - src[j])[:, None] + emb[j]
    # where a target lands on a source position (the last one always),
    # np.interp returns that row itself, -0.0 included
    on_row = dst == src[below]
    out[on_row] = emb[below[on_row]]
    return out


def segment_features(tokens, time_steps: int) -> np.ndarray:
    """Assign one nearest token row to each of ``time_steps`` video steps."""
    mat = as_feature_matrix(tokens, "tokens")
    time_steps = as_index(time_steps, "time_steps", lo=1)
    n = mat.shape[0]
    rows = [math.floor(s * (n - 1) / max(time_steps - 1, 1) + 0.5) for s in range(time_steps)]
    return mat[rows]


def gather_keyframe_rows(perstep, indices) -> np.ndarray:
    """Pick the rows at the schedule's keyframe indices, in schedule order."""
    mat = as_feature_matrix(perstep, "perstep")
    if isinstance(indices, KeyframeSchedule):
        indices = indices.keyframes
    idx = as_indices(indices, "indices", lo=None)
    for i in idx:
        if not 0 <= i < mat.shape[0]:
            raise IndexOutOfRangeError(f"row {i} outside matrix with {mat.shape[0]} rows")
    return mat[idx]


def l1_loss(pred, gt) -> float:
    """Mean absolute difference over all entries."""
    p = as_feature_matrix(pred, "pred")
    g = as_feature_matrix(gt, "gt")
    if p.shape != g.shape:
        raise ShapeMismatchError(f"shape mismatch: {p.shape} vs {g.shape}")
    return float(np.mean(np.abs(p - g)))
