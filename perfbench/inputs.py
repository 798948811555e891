"""Seeded synthetic inputs for the keysched benchmark.

Every generator takes a ``numpy.random.Generator`` and writes plain files
with its own encoders, so the program under test only ever sees the
generated bytes. The same seed and sizes give the same bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
WINDOW = 400          # STFT window of the spectrogram stage, in samples
HOP = 160             # STFT hop, in samples
MEL_FRAMES = 196      # fixed time axis of the spectrogram stage
# 400 + 195 * 160 samples give exactly 196 STFT frames: no pad, no crop
EXACT_SAMPLES = WINDOW + (MEL_FRAMES - 1) * HOP


def stft_frames(n_samples: int) -> int:
    """STFT frames the spectrogram stage computes for a clip of this length."""
    return (n_samples - WINDOW) // HOP + 1


# --- encoders (independent of keysched's own writers) ---

def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes())


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    path.write_bytes(header + pcm)


def write_scores(path: Path, values: np.ndarray) -> None:
    rows = "".join(f"{i},{v:.9f}\n" for i, v in enumerate(values))
    path.write_text("index,score\n" + rows, encoding="ascii")


# --- clips of frames ---

def _bursts(length: int, centres: np.ndarray, amplitudes: np.ndarray,
            width: float) -> np.ndarray:
    """Sum of Gaussian bumps along [0, length)."""
    t = np.arange(length, dtype=np.float64)
    out = np.zeros(length)
    for c, a in zip(centres, amplitudes):
        out += a * np.exp(-0.5 * ((t - c) / width) ** 2)
    return out


def _grid(rng: np.random.Generator, length: int, count: int, jitter: float) -> np.ndarray:
    """``count`` centres on an even grid over [0, length), each moved by up to
    ``jitter`` of a grid step, so every seed spreads them the same way."""
    step = length / count
    return (np.arange(count) + 0.5 + rng.uniform(-jitter, jitter, count)) * step


def clip_frames(rng: np.random.Generator, count: int, size: int) -> list[np.ndarray]:
    """A smooth periodic texture translated at a burst-modulated speed.

    Speed is a slow base drift plus three bursts of equal height at jittered
    positions, so the motion curve carries peaks and valleys. The shift is
    applied in the Fourier domain, which is exact for the periodic
    band-limited texture, then quantized.
    """
    ky = np.fft.fftfreq(size)[:, None]
    kx = np.fft.fftfreq(size)[None, :]
    lowpass = np.exp(-0.5 * (kx ** 2 + ky ** 2) / 0.06 ** 2)
    # seeded phases over a fixed power spectrum: every seed has the same
    # gradient statistics, so the solver converges in about as many steps
    phase = np.angle(np.fft.fft2(rng.standard_normal((size, size))))
    spectrum = lowpass * np.exp(1j * phase)
    scale = 0.12 / np.real(np.fft.ifft2(spectrum)).std()
    speed = 0.3 + _bursts(count, _grid(rng, count, 3, 0.2), np.full(3, 2.0), count / 16)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    travel = np.concatenate(([0.0], np.cumsum(speed[:-1])))
    frames = []
    for d in travel:
        dx, dy = d * np.cos(angle), d * np.sin(angle)
        shifted = np.real(np.fft.ifft2(spectrum * np.exp(-2j * np.pi * (kx * dx + ky * dy))))
        scaled = 0.5 + scale * shifted
        frames.append(np.clip(np.rint(scaled * 255.0), 0, 255))
    return frames


def write_clip(directory: Path, frames: list[np.ndarray]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, pixels in enumerate(frames):
        write_pgm(directory / f"frame_{i:05d}.pgm", pixels)


# --- long motion curves ---

@dataclass
class Curve:
    values: np.ndarray
    centres: list[int]   # planted major bursts: ground truth for eval-ap


def long_curve(rng: np.random.Generator, length: int, major: int, minor: int) -> Curve:
    """Raw motion scores: noise floor, ``minor`` small bursts, ``major`` big ones.

    Bursts sit on evenly spaced grids with seeded jitter, so every seed gives
    the extrema detector about the same amount of work.
    """
    centres = np.rint(_grid(rng, length, major, 0.2))
    small = _grid(rng, length, minor, 0.4)
    values = 0.05 + 0.01 * np.abs(rng.standard_normal(length))
    values += _bursts(length, small, rng.uniform(0.1, 0.3, minor), 6.0)
    values += _bursts(length, centres, rng.uniform(0.8, 1.0, major), 10.0)
    return Curve(values=values, centres=[int(c) for c in centres])


# --- audio ---

def audio_clip(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """A few seeded tones under a slow amplitude envelope, plus light noise."""
    t = np.arange(n_samples) / SAMPLE_RATE
    out = np.zeros(n_samples)
    for freq in rng.uniform(120.0, 4000.0, 4):
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.2, 2.0) * t + rng.uniform(0, 6.3))
        out += 0.1 * envelope * np.sin(2 * np.pi * freq * t)
    out += 0.01 * rng.standard_normal(n_samples)
    return np.clip(out, -0.99, 0.99)


@dataclass
class Conditioning:
    """Fixed tensors of the in-process conditioning path, one set per run."""

    pos: np.ndarray          # audio position embeddings, pos_rows x width
    tokens: np.ndarray       # audio tokens, tokens x width
    keyframes: list[int]     # sorted keyframe schedule over ``steps`` frames, from 0
    f_base: np.ndarray       # latent input added to the frame embedding, steps x latent
    w_q: np.ndarray          # query projection, latent x query
    text_k: np.ndarray       # text keys, text_rows x query
    text_v: np.ndarray       # text values, text_rows x latent


def conditioning(rng: np.random.Generator, pos_rows: int, tokens: int, width: int,
                 steps: int, keys: int, latent: int, query: int, text_rows: int) -> Conditioning:
    picked = rng.choice(np.arange(1, steps), size=keys - 1, replace=False)
    return Conditioning(
        pos=rng.standard_normal((pos_rows, width)),
        tokens=rng.standard_normal((tokens, width)),
        keyframes=[0] + sorted(int(i) for i in picked),
        f_base=0.1 * rng.standard_normal((steps, latent)),
        w_q=rng.standard_normal((latent, query)) / np.sqrt(latent),
        text_k=rng.standard_normal((text_rows, query)),
        text_v=rng.standard_normal((text_rows, latent)),
    )
