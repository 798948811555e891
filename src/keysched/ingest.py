"""File ingestion and serialization.

Frames arrive as binary PGM (P5, maxval 255), audio as RIFF/WAVE PCM16 mono.
Motion curves round-trip through ``index,score`` CSV and keyframe schedules
through a small JSON schema. Each text artifact has one formatter that emits
byte-stable output, and every text file is written by ``_atomic_write_text``.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDirectoryError,
    InvariantViolationError,
    MalformedPgmError,
    ParseError,
    UnsupportedChannelsError,
    UnsupportedEncodingError,
    as_index,
)
from .motion import MotionCurve, STAGE_RAW
from .selection import KeyframeSchedule

PIPELINE_SAMPLE_RATE = 16000


@dataclass
class Frame:
    """Single grayscale frame; pixels are row-major luminance in [0, 1]."""

    height: int
    width: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.shape != (self.height, self.width):
            raise InvariantViolationError(
                f"pixel array {self.pixels.shape} does not match {self.height}x{self.width}"
            )
        if self.pixels.size and (self.pixels.min() < 0.0 or self.pixels.max() > 1.0):
            raise InvariantViolationError("pixel values must lie in [0, 1]")


@dataclass
class FrameSequence:
    """Ordered frames of identical dimensions; fps is carried as metadata."""

    frames: list[Frame]
    fps: float = 24.0

    def __post_init__(self):
        if not self.frames:
            raise InvariantViolationError("frame sequence must contain at least one frame")
        h, w = self.frames[0].height, self.frames[0].width
        for i, f in enumerate(self.frames):
            if (f.height, f.width) != (h, w):
                raise DimensionMismatchError(
                    f"frame {i} is {f.height}x{f.width}, expected {h}x{w}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def width(self) -> int:
        return self.frames[0].width


@dataclass
class AudioClip:
    """Mono PCM samples scaled to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = PIPELINE_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise InvariantViolationError("audio clip needs at least one mono sample")
        if self.samples.size and (self.samples.min() < -1.0 or self.samples.max() > 1.0):
            raise InvariantViolationError("sample values must lie in [-1, 1]")

    def __len__(self) -> int:
        return int(self.samples.size)


# --- PGM ---

# "P5", then width, height and maxval in ASCII decimal, separated by
# whitespace and '#' comments that run to the end of the line. Each number
# ends at a whitespace byte; the one after maxval is the last header byte.
_PGM_HEADER = re.compile(
    rb"P5(?:\s|#[^\n]*\n)+"
    rb"([0-9]+)\s(?:\s|#[^\n]*\n)*"
    rb"([0-9]+)\s(?:\s|#[^\n]*\n)*"
    rb"([0-9]+)\s"
)


def read_pgm(path: str | Path) -> Frame:
    """Parse one binary PGM (P5, maxval 255) into a Frame.

    Pixel values are exactly byte/255, preserving bit-level content.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedPgmError(f"{path}: not a binary PGM header (P5 width height 255)")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:  # a number past Python's int-string digit limit
        raise MalformedPgmError(f"{path}: {exc}") from exc
    if maxval != 255:
        raise MalformedPgmError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise MalformedPgmError(f"{path}: non-positive dimensions {width}x{height}")
    raster = data[header.end():header.end() + width * height]
    if len(raster) != width * height:
        raise MalformedPgmError(f"{path}: raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    return Frame(height=height, width=width, pixels=pixels.reshape(height, width))


def load_frame_sequence(directory: str | Path, fps: float = 24.0) -> FrameSequence:
    """Load every ``*.pgm`` in the directory, ordered by filename."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.is_file() and p.suffix == ".pgm")
    if not paths:
        raise EmptyDirectoryError(f"no PGM files in {directory}")
    return FrameSequence(frames=[read_pgm(p) for p in paths], fps=fps)


# --- WAV ---

def load_wav(path: str | Path) -> AudioClip:
    """Parse a RIFF/WAVE PCM16 mono file; samples map to value/32768.

    Any sample rate loads as read; ``audiofeat.mel_spectrogram`` is the one
    place that requires 16 kHz.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise UnsupportedEncodingError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise UnsupportedEncodingError(f"{path}: short fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise UnsupportedEncodingError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise UnsupportedEncodingError(f"{path}: need PCM16, got format {audio_format}/{bits}-bit")
    if channels != 1:
        raise UnsupportedChannelsError(f"{path}: need mono, got {channels} channels")
    raw = np.frombuffer(payload[:len(payload) - (len(payload) % 2)], dtype="<i2")
    if raw.size < 1:
        raise UnsupportedEncodingError(f"{path}: empty data chunk")
    return AudioClip(samples=raw.astype(np.float64) / 32768.0, sample_rate=rate)


# --- text files ---

def _atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a uniquely named temp file beside the target, then rename.

    A failed write removes the temp file and leaves the target untouched. The
    temp file is created with mode 0666, so the result honours the umask as a
    plain ``open`` would.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str | Path, encoding: str) -> str:
    """Read a text file; bytes the encoding rejects raise ParseError."""
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def json_text(obj) -> str:
    """Byte-stable JSON: sorted keys, 2-space indent, no NaN, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def fixed_text(table, decimals, end: str = "\n") -> str:
    """Rows of a 2-D table as text, every value exactly ``format(x, f".{d}f")``.

    ``decimals`` is one d for every column or one per column, from 0 to 18
    so that 10**d is an exact float and the fraction digits fit an int64.
    The values of a row are joined by commas and each row ends with ``end``,
    a single ASCII character.

    ``y = x * 10**d`` is the float nearest the exact product, and below
    2**52 every half-integer is a float, so none lies strictly between the
    two: unless ``y`` is itself a half-integer, both round to the same
    integer. Those ties, signed values (-0.0 too), non-finite values and
    ``y >= 2**52`` go through ``format`` one by one. Every other value is cut
    into digit columns of one character matrix, from which one boolean mask
    drops the leading zeros.
    """
    x = np.asarray(table, dtype=np.float64)
    rows, cols = x.shape
    places = decimals if np.ndim(decimals) else [decimals]
    col_d = np.broadcast_to([as_index(v, "decimals", hi=19) for v in places], cols)
    dmax = int(col_d.max())
    # a shared d stays a scalar, so NumPy's inner loops run over whole rows
    d = dmax if col_d.min() == dmax else col_d
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 10.0 ** d
        fast = np.isfinite(y) & ~np.signbit(x) & (y < 2.0 ** 52)
        y[~fast] = 0.0
        fast &= y - np.floor(y) != 0.5
    whole, frac = np.divmod(np.rint(y).astype(np.int64), 10 ** d)
    # each column's d fraction digits lead the dmax fraction places
    frac *= 10 ** (dmax - d)
    wi = len(str(whole.max()))
    # per value: wi integer digits, the point, dmax fraction digits, a comma
    chars = np.empty((rows, cols, wi + dmax + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    for k in range(wi - 1):
        np.greater_equal(whole, 10 ** (wi - 1 - k), out=keep[:, :, k])
    # no point where d is 0, and no fraction places past a column's d
    keep[:, col_d == 0, wi] = False
    for k in range(dmax):
        keep[:, col_d <= k, wi + 1 + k] = False

    def put_digits(value, start, stop):
        # in the narrowest dtype that holds it, where dividing by 10 is cheapest
        value = value.astype(np.min_scalar_type(value.max()))
        digit = np.empty_like(value)
        for k in range(stop - 1, start - 1, -1):
            np.divmod(value, 10, out=(value, digit))
            np.add(digit, ord("0"), out=chars[:, :, k], casting="unsafe")

    put_digits(whole, 0, wi)
    put_digits(frac, wi + 1, wi + 1 + dmax)
    chars[:, :, wi] = ord(".")
    chars[:, :, -1] = ord(",")
    chars[:, -1, -1] = ord(end)
    slow = ~fast
    if not slow.any():
        return chars[keep].tobytes().decode("ascii")
    # each slow value leaves one NUL byte, where its format() text goes
    keep[slow, :-1] = False
    keep[slow, 0] = True
    chars[slow, 0] = 0
    parts = chars[keep].tobytes().decode("ascii").split("\0")
    exact = [format(v, f".{p}f") for v, p in
             zip(x[slow].tolist(), np.broadcast_to(col_d, x.shape)[slow].tolist())]
    return parts[0] + "".join(s + p for s, p in zip(exact, parts[1:]))


# --- scores CSV ---

CSV_HEADER = "index,score"


def scores_csv_text(curve: MotionCurve) -> str:
    """One ``index,score`` row per frame with 9-decimal scores."""
    rows = np.column_stack((np.arange(len(curve)), curve.values))
    return CSV_HEADER + "\n" + fixed_text(rows, (0, 9))


def write_scores_csv(curve: MotionCurve, path: str | Path) -> None:
    """Write ``scores_csv_text(curve)`` to ``path`` atomically."""
    _atomic_write_text(path, scores_csv_text(curve))


def read_scores_csv(path: str | Path) -> MotionCurve:
    """Read a scores CSV back into a raw-stage MotionCurve."""
    header, _, body = _read_text(path, "ascii").partition("\n")
    if header != CSV_HEADER:
        raise ParseError(f"{path}: first line is not the '{CSV_HEADER}' header")
    if not body.strip():
        raise ParseError(f"{path}: no score rows")
    # NumPy's number parsers skip the ASCII separators \x1c-\x1f as
    # whitespace; int() and float() do not, and neither does this format
    if any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        raise ParseError(f"{path}: control byte in a score row")
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                          dtype=[("index", np.int64), ("score", np.float64)])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    misplaced = np.flatnonzero(rows["index"] != np.arange(rows.size))
    if misplaced.size:
        row = misplaced[0]
        raise ParseError(f"{path}: row {row} carries index {rows['index'][row]}")
    return MotionCurve(np.ascontiguousarray(rows["score"]), stage=STAGE_RAW)


# --- schedule JSON ---

def schedule_to_dict(schedule: KeyframeSchedule) -> dict:
    return {
        "total_frames": schedule.total_frames,
        "keyframes": list(schedule.keyframes),
        "peaks": list(schedule.peaks_used),
        "valleys": list(schedule.valleys_used),
        "fill": list(schedule.fill),
    }


def write_schedule_json(schedule: KeyframeSchedule, path: str | Path) -> None:
    """Write the schedule's JSON to ``path`` atomically."""
    _atomic_write_text(path, json_text(schedule_to_dict(schedule)))


def read_schedule_json(path: str | Path) -> KeyframeSchedule:
    """Read a schedule JSON, re-validating every schedule invariant."""
    try:
        obj = json.loads(_read_text(path, "utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # Python's digit limit; RecursionError covers deep nesting
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    try:
        total, keyframes = obj["total_frames"], obj["keyframes"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    arrays = {"keyframes": keyframes, **{k: obj.get(k, []) for k in ("peaks", "valleys", "fill")}}
    # json.loads yields int for integer literals and bool for true/false;
    # type() tells them apart where isinstance() would not
    if type(total) is not int:
        raise ParseError(f"{path}: total_frames must be an integer")
    for name, value in arrays.items():
        if type(value) is not list or any(type(i) is not int for i in value):
            raise ParseError(f"{path}: {name} must be an array of integers")
    return KeyframeSchedule(total, *arrays.values())
