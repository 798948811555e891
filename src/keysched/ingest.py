"""File ingestion and serialization.

Frames arrive as binary PGM (P5, maxval 255), audio as RIFF/WAVE PCM16 mono.
Motion curves round-trip through ``index,score`` CSV and keyframe schedules
through a small JSON schema. Each text artifact has one formatter that emits
byte-stable output, and every text file is written by ``_atomic_write_text``.
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import struct
from collections.abc import Iterator
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
    as_floats,
    as_index,
)
from .motion import MotionCurve, STAGE_RAW
from .selection import KeyframeSchedule

PIPELINE_SAMPLE_RATE = 16000


@dataclass
class Frame:
    """Single grayscale frame; pixels are row-major luminance in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = as_floats(self.pixels, "pixels", 2, 0.0, 1.0)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class FrameSequence:
    """Ordered frames of identical dimensions, with their shared ``height`` and ``width``."""

    frames: list[Frame]

    def __post_init__(self):
        if not self.frames:
            raise InvariantViolationError("frame sequence must contain at least one frame")
        for i, f in enumerate(self.frames):
            if not isinstance(f, Frame):
                raise InvariantViolationError(f"frame {i} is a {type(f).__name__}, not a Frame")
            _check_size(i, (f.height, f.width), (self.frames[0].height, self.frames[0].width))
        self.height, self.width = self.frames[0].height, self.frames[0].width

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, index: slice) -> FrameSequence:
        """The frames of a slice as a sequence of their own, not checked again."""
        start, stop = _frame_span(index, len(self))
        part = copy.copy(self)
        part.frames = self.frames[start:stop]
        return part


@dataclass
class AudioClip:
    """Mono PCM samples scaled to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = PIPELINE_SAMPLE_RATE

    def __post_init__(self):
        self.sample_rate = as_index(self.sample_rate, "sample_rate", lo=1)
        self.samples = as_floats(self.samples, "samples", 1, -1.0, 1.0)

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


def _pgm_layout(path: str | Path, data: bytes) -> tuple[int, int, int]:
    """Check a binary PGM's header and raster length; return its height,
    width and the offset of its raster in ``data``."""
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
    if len(data) - header.end() < width * height:
        raise MalformedPgmError(f"{path}: raster truncated")
    return height, width, header.end()


def read_pgm(path: str | Path) -> Frame:
    """Parse one binary PGM (P5, maxval 255) into a Frame.

    Pixel values are exactly byte/255, preserving bit-level content.
    """
    data = Path(path).read_bytes()
    height, width, offset = _pgm_layout(path, data)
    raster = np.frombuffer(data, dtype=np.uint8, count=height * width, offset=offset)
    pixels = raster.astype(np.float64) / 255.0
    return Frame(pixels.reshape(height, width))


def _frame_span(index: slice, count: int) -> tuple[int, int]:
    """The bounds of a slice with step 1 that keeps some of ``count`` frames."""
    start, stop, step = index.indices(count)
    if step != 1 or stop <= start:
        raise InvariantViolationError(f"a frame slice needs step 1 and a frame, got {index}")
    return start, stop


def _check_size(index: int, size: tuple[int, int], expected: tuple[int, int]) -> None:
    if size != expected:
        raise DimensionMismatchError(
            f"frame {index} is {size[0]}x{size[1]}, expected {expected[0]}x{expected[1]}"
        )


class FrameSource:
    """The ``*.pgm`` frames of a directory in filename order, read lazily.

    Construction parses every header and checks every raster length, then
    the sizes, so a malformed frame is reported before any size mismatch.
    Only the paths and the shared size are kept; each iteration reads the
    frames again, one at a time, so memory does not grow with the frame
    count. A file that changed since construction raises the same errors.
    A slice, ``source[a:b]``, reads the same paths without checking them
    again, and its frames keep their index in this source in its errors.
    """

    def __init__(self, directory: str | Path):
        directory = Path(directory)
        self.paths = sorted(p for p in directory.iterdir()
                            if p.is_file() and p.suffix == ".pgm")
        if not self.paths:
            raise EmptyDirectoryError(f"no PGM files in {directory}")
        sizes = [_pgm_layout(p, p.read_bytes())[:2] for p in self.paths]
        self.height, self.width = sizes[0]
        for i, size in enumerate(sizes):
            _check_size(i, size, sizes[0])
        self.first = 0  # the index of paths[0] in the directory's frames

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Frame]:
        for i, path in enumerate(self.paths, self.first):
            frame = read_pgm(path)
            _check_size(i, (frame.height, frame.width), (self.height, self.width))
            yield frame

    def __getitem__(self, index: slice) -> FrameSource:
        start, stop = _frame_span(index, len(self))
        part = copy.copy(self)
        part.paths, part.first = self.paths[start:stop], self.first + start
        return part


def load_frame_sequence(directory: str | Path) -> FrameSequence:
    """Load every ``*.pgm`` in the directory, ordered by filename."""
    return FrameSequence(frames=list(FrameSource(directory)))


# --- WAV ---

def load_wav(path: str | Path, max_samples: int | None = None) -> AudioClip:
    """Parse a RIFF/WAVE PCM16 mono file; samples map to value/32768.

    The chunks are walked by seeking: only the RIFF header, each chunk
    header and the ``fmt `` body are read, then the samples of the last
    ``data`` chunk, at most ``max_samples`` (>= 1) of them when it is given.
    A chunk that claims more bytes than the file holds is cut to the file,
    and an odd trailing byte is dropped. Any positive sample rate loads as
    read; ``audiofeat.mel_spectrogram`` is the one place that requires 16 kHz.
    """
    if max_samples is not None:
        max_samples = as_index(max_samples, "max_samples", lo=1)
    with open(path, "rb") as fh:
        end = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise UnsupportedEncodingError(f"{path}: not a RIFF/WAVE file")
        pos = 12
        fmt = None
        payload = None  # (file offset, whole samples) of the last data chunk
        while pos + 8 <= end:
            fh.seek(pos)
            chunk_id, size = struct.unpack("<4sI", fh.read(8))
            length = min(size, end - pos - 8)
            if chunk_id == b"fmt ":
                if length < 16:
                    raise UnsupportedEncodingError(f"{path}: short fmt chunk")
                fmt = struct.unpack("<HHIIHH", fh.read(16))
            elif chunk_id == b"data":
                payload = pos + 8, length // 2
            pos += 8 + size + (size & 1)  # chunks are word-aligned
        if fmt is None or payload is None:
            raise UnsupportedEncodingError(f"{path}: missing fmt or data chunk")
        audio_format, channels, rate, _, _, bits = fmt
        if audio_format != 1 or bits != 16:
            raise UnsupportedEncodingError(
                f"{path}: need PCM16, got format {audio_format}/{bits}-bit")
        if channels != 1:
            raise UnsupportedChannelsError(f"{path}: need mono, got {channels} channels")
        offset, count = payload
        if count < 1:
            raise UnsupportedEncodingError(f"{path}: empty data chunk")
        if max_samples is not None:
            count = min(count, max_samples)
        fh.seek(offset)
        raw = np.frombuffer(fh.read(2 * count), dtype="<i2")
    return AudioClip(samples=raw.astype(np.float64) / 32768.0, sample_rate=rate)


# --- text files ---

def _atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a uniquely named temp file beside the target, then rename.

    A failed write removes the temp file and leaves the target untouched; an
    ``OSError`` is raised again naming ``path``, not the temp file. The temp
    file is created with mode 0666, so the result honours the umask as a
    plain ``open`` would.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _read_text(path: str | Path, encoding: str) -> str:
    """Read a text file; bytes the encoding rejects raise ParseError."""
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def json_text(obj) -> str:
    """Byte-stable JSON: sorted keys, 2-space indent, no NaN, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# rows per fixed_text block: 64 KB per int64 temporary of two columns; also the
# most rows that one value the digit matrix cannot write sends through format
FIXED_BLOCK_ROWS = 4096


def fixed_text(table, decimals: int, end: str = "\n") -> str:
    """Rows of a 2-D table as text, every value exactly ``format(x, f".{d}f")``.

    ``decimals`` is the one d of every value, from 1 to 18 so that 10**d is
    an exact float and the fraction digits fit an int64. The values of a row
    are joined by commas and each row ends with ``end``, a single ASCII
    character.

    ``y = x * 10**d`` is the float nearest the exact product, and below
    2**52 every half-integer is a float, so none lies strictly between the
    two: unless ``y`` is itself a half-integer, both round to the same
    integer. A block holding a value the digit matrix cannot write exactly,
    a tie, a signed value (-0.0 too), a non-finite value or ``y >= 2**52``,
    is written whole by ``format``. Any other block is cut into digit columns
    of one character matrix, from which one boolean mask drops the leading
    integer zeros; with one integer digit everywhere there is no mask.

    The rows go in blocks of at most ``FIXED_BLOCK_ROWS``, so the temporaries
    stay small enough for the heap to reuse from block to block instead of
    each being mapped and faulted in afresh, and one such value sends at most
    that many rows through ``format``.
    """
    d = as_index(decimals, "decimals", lo=1, hi=19)
    x = np.asarray(table, dtype=np.float64)
    return "".join(_fixed_rows(x[i:i + FIXED_BLOCK_ROWS], d, end)
                   for i in range(0, x.shape[0], FIXED_BLOCK_ROWS))


def _fixed_rows(x: np.ndarray, d: int, end: str) -> str:
    """``fixed_text`` of one block of rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 10.0 ** d
        fast = np.isfinite(y) & ~np.signbit(x) & (y < 2.0 ** 52) & (y - np.floor(y) != 0.5)
    if not fast.all():
        return "".join(",".join(format(v, f".{d}f") for v in row) + end for row in x.tolist())
    units = np.rint(y).astype(np.int64)
    whole = units // 10 ** d
    # in place: one int64 temporary fewer; with it, a loop of mel writes gave
    # the heap's top back to the OS and faulted it in again on every call
    frac = units
    frac -= whole * 10 ** d
    wi = len(str(whole.max()))
    # per value: wi integer digits, the point, d fraction digits, a comma
    chars = np.empty((*x.shape, wi + d + 2), dtype=np.uint8)

    def put_digits(value, start, stop):
        # in the narrowest dtype that holds it, each digit is value - 10 * tens
        # with tens = value // 10: NumPy's floor_divide by a scalar is several
        # times faster than its divmod. tens * 10 <= value, so no product
        # overflows, and only the digit is cast into the uint8 column
        value = value.astype(np.min_scalar_type(value.max()))
        tens, product = np.empty_like(value), np.empty_like(value)
        for k in range(stop - 1, start - 1, -1):
            np.floor_divide(value, 10, out=tens)
            np.multiply(tens, 10, out=product)
            np.subtract(value, product, out=chars[:, :, k], casting="unsafe")
            value, tens = tens, value

    put_digits(whole, 0, wi)
    put_digits(frac, wi + 1, wi + 1 + d)
    chars += ord("0")
    chars[:, :, wi] = ord(".")
    chars[:, :, -1] = ord(",")
    chars[:, -1, -1] = ord(end)
    if wi == 1:  # no leading zero to drop
        return str(chars, "ascii")
    keep = np.ones(chars.shape, dtype=bool)
    for k in range(wi - 1):
        np.greater_equal(whole, 10 ** (wi - 1 - k), out=keep[:, :, k])
    return str(chars[keep], "ascii")


# --- scores CSV ---

CSV_HEADER = "index,score"


def scores_csv_text(curve: MotionCurve) -> str:
    """One ``index,score`` row per frame with 9-decimal scores."""
    rows = enumerate(curve.values.tolist())
    return CSV_HEADER + "\n" + "".join(f"{i},{v:.9f}\n" for i, v in rows)


def write_scores_csv(curve: MotionCurve, path: str | Path) -> None:
    """Write ``scores_csv_text(curve)`` to ``path`` atomically."""
    _atomic_write_text(path, scores_csv_text(curve))


def _digits_before(b: np.ndarray, end: np.ndarray, width: int | np.ndarray,
                   wmax: int) -> np.ndarray:
    """The int64 value of the ``width`` ASCII digits before each offset ``end``.

    One column of bytes at a time, most significant first; a row narrower
    than ``wmax`` reads '0' in the columns it lacks (whatever byte the offset
    there points at, wrapped from the end of ``b`` if it is negative).
    """
    narrowest = np.min(width)
    value = np.zeros(end.size, dtype=np.int64)
    for k in range(wmax, 0, -1):
        column = b.take(end - k)
        if k > narrowest:
            column[width < k] = ord("0")
        value *= 10
        value += column
    return value - ord("0") * ((10 ** wmax - 1) // 9)


def _fixed_point_rows(body: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The index and score columns of a body in ``scores_csv_text``'s layout.

    Every row is ``<digits>,<digits>.<d digits>`` and a newline, with one
    d >= 1 for all rows and at most 15 digits in each number; anything else
    returns None. A score is then its digits as an integer below 10**15 <
    2**53, so exact as a float, divided by the exact 10.0**d: one correctly
    rounded division, the float that ``float()`` and ``np.loadtxt`` read.
    """
    b = np.frombuffer(body, dtype=np.uint8)
    newline = np.flatnonzero(b == ord("\n"))
    comma = np.flatnonzero(b == ord(","))
    rows = newline.size
    if not (rows and comma.size == rows and body.endswith(b"\n")):
        return None
    # d is read off the first row: the bytes between its dot and its newline
    d = int(newline[0]) - body.find(b".") - 1
    dot = newline - d - 1
    index_width = comma - np.concatenate(([0], newline[:-1] + 1))
    whole_width = dot - comma - 1
    # with exactly one comma, dot and newline per row in that order, every
    # byte left over must be a digit: none above '9', and none but those
    # 3 * rows below '0'
    if not (0 < d and index_width.min() > 0 and whole_width.min() > 0
            and np.all(b.take(dot) == ord("."))
            and b.max() <= ord("9") and np.count_nonzero(b < ord("0")) == 3 * rows):
        return None
    index_digits, whole_digits = int(index_width.max()), int(whole_width.max())
    if index_digits > 15 or whole_digits + d > 15:
        return None
    index = _digits_before(b, comma, index_width, index_digits)
    mantissa = _digits_before(b, dot, whole_width, whole_digits) * 10 ** d
    mantissa += _digits_before(b, newline, d, d)
    return index, mantissa / 10.0 ** d


def read_scores_csv(path: str | Path) -> MotionCurve:
    """Read a scores CSV back into a raw-stage MotionCurve.

    A file in the layout ``scores_csv_text`` writes is read from its bytes
    by ``_fixed_point_rows``. Any other file is read again as ASCII text,
    with text mode's line ends; a body then in that layout (a CRLF copy, say)
    still goes through ``_fixed_point_rows``, and any other through
    ``np.loadtxt``.
    """
    header, _, body = Path(path).read_bytes().partition(b"\n")
    columns = _fixed_point_rows(body) if header == CSV_HEADER.encode() else None
    if columns is None:
        header, _, body = _read_text(path, "ascii").partition("\n")
        if header != CSV_HEADER:
            raise ParseError(f"{path}: first line is not the '{CSV_HEADER}' header")
        columns = _fixed_point_rows(body.encode("ascii"))
    if columns is None:
        if not body or body.isspace():  # what strip() would empty, without copying the body
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
        columns = rows["index"], np.ascontiguousarray(rows["score"])
    index, scores = columns
    misplaced = np.flatnonzero(index != np.arange(index.size))
    if misplaced.size:
        row = misplaced[0]
        raise ParseError(f"{path}: row {row} carries index {index[row]}")
    return MotionCurve(scores, stage=STAGE_RAW)


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
