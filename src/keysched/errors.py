"""Exception hierarchy shared by all keysched modules.

Every error raised by the library derives from KeyschedError, so callers can
catch one base class at pipeline boundaries. Each pipeline stage has a base
class whose ``exit_code`` is the CLI exit status of every error under it and
whose ``summary`` describes that code in ``keysched --help``.
"""

import operator

import numpy as np


class KeyschedError(Exception):
    """Base class for all keysched errors."""

    exit_code = 1
    summary = "unexpected failure"


class IngestError(KeyschedError):
    exit_code = 2
    summary = "ingestion or serialization failure"


class FlowError(KeyschedError):
    exit_code = 3
    summary = "optical flow failure"


class SelectionError(KeyschedError):
    exit_code = 4
    summary = "keyframe selection failure"


class AudioError(KeyschedError):
    exit_code = 5
    summary = "audio feature failure"


class LayoutError(KeyschedError):
    exit_code = 6
    summary = "layout geometry failure"


class EvalError(KeyschedError):
    exit_code = 7
    summary = "evaluation failure"


STAGE_ERRORS = (IngestError, FlowError, SelectionError, AudioError, LayoutError, EvalError)


class EmptyDirectoryError(IngestError):
    """Frame directory contains no PGM files."""


class MalformedPgmError(IngestError):
    """PGM file has a bad magic number, maxval, header, or truncated payload."""


class DimensionMismatchError(IngestError):
    """Frames (or frame pairs) disagree in height/width."""


class UnsupportedEncodingError(IngestError):
    """WAV file is not 16-bit PCM."""


class UnsupportedChannelsError(IngestError):
    """WAV file is not mono."""


class ParseError(IngestError):
    """Malformed CSV/JSON payload."""


class InvariantViolationError(IngestError):
    """Deserialized or constructed value breaks a type invariant."""


def as_index(value, name: str, lo: int | None = 0, hi: int | None = None) -> int:
    """The one integer rule for every index and count: a Python or NumPy integer in ``[lo, hi)``.

    Returns it as an int. ``bool``, floats (``3.0`` too), strings and values out
    of bounds raise InvariantViolationError. A ``None`` bound is open, for callers
    whose own stage error decides the range.
    """
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise InvariantViolationError(f"{name} must be an integer, got {value!r}")
    if lo is not None and index < lo:
        raise InvariantViolationError(f"{name} must be >= {lo}, got {index}")
    if hi is not None and index >= hi:
        raise InvariantViolationError(f"{name} must be < {hi}, got {index}")
    return index


def as_indices(values, name: str, lo: int | None = 0, hi: int | None = None) -> list[int]:
    """``as_index`` of each entry, as a list of ints. An integer ndarray takes
    one vectorized bounds check; any other input is checked entry by entry.
    The first bad entry raises as ``as_index`` would."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 1):
        return [as_index(v, name, lo, hi) for v in values]
    bad = np.zeros(values.shape, dtype=bool)
    if lo is not None:
        bad |= values < lo
    if hi is not None:
        bad |= values >= hi
    if bad.any():
        as_index(values[bad.argmax()], name, lo, hi)
    return values.tolist()


def as_floats(value, name: str, ndim: int = 0, lo: float = -np.inf, hi: float = np.inf):
    """The one real rule: a non-empty ``ndim``-D float64 array (0-D for a scalar, float64 input
    not copied) of Python or NumPy ints or floats, all finite and in ``[lo, hi]``; anything else,
    ``bool`` and ragged nesting too, raises InvariantViolationError. Exempt: the kernel operands,
    which take ``as_real_array``, and ``match_keypoints``' threshold."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.size == 0:
        raise InvariantViolationError(f"{name} must be non-empty {ndim}-D reals: {value!r:.40}")
    arr = arr.astype(np.float64, copy=False)
    low, high = arr.min(), arr.max()
    if not (lo <= low and high <= hi and np.isfinite(low) and np.isfinite(high)):
        raise InvariantViolationError(f"{name} must be finite and lie in [{lo}, {hi}]")
    return arr


def as_real_array(value, name: str) -> np.ndarray:
    """The rule of the kernel operands (``as_feature_matrix``, ``ConditionLayout``): ``value`` as an
    array of bool, integer or float dtype, neither cast nor read for finiteness; ragged nesting,
    strings, objects and complex values raise InvariantViolationError."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise InvariantViolationError(f"{name}: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise InvariantViolationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr


class TooSmallError(FlowError):
    """Frame too small for the requested pyramid depth."""


class TooShortError(FlowError):
    """Frame sequence has fewer than two frames."""


# Curve-processing errors belong to no stage, so they exit 1.

class InvalidWindowError(KeyschedError):
    """Smoothing window is even or smaller than 1."""


class NotNormalizedError(KeyschedError):
    """Operation requires a min-max normalized curve."""


class BadIntervalError(SelectionError):
    """Valley search interval has start >= end."""


class InvalidKError(SelectionError):
    """Requested keyframe count is out of the valid range."""


class InconsistentExtremaError(SelectionError):
    """Extrema indices do not fit the curve they claim to describe."""


class WrongSampleRateError(AudioError):
    """Audio clip is not at the pipeline sample rate."""


class ClipTooShortError(AudioError):
    """Audio clip is shorter than one STFT window."""


class KernelTooLargeError(AudioError):
    """Patch kernel exceeds the available frame count."""


class ShapeMismatchError(AudioError):
    """Matrix operands have incompatible shapes."""


class IndexOutOfRangeError(AudioError):
    """Gather index exceeds the available rows."""


class CountMismatchError(LayoutError):
    """Feature row count disagrees with the keyframe count."""


class BadGeometryError(LayoutError):
    """Window/stride combination cannot tile the frame range."""


class OddDimError(LayoutError):
    """Embedding dimension must be even."""


class NoValidInstancesError(EvalError):
    """Average precision needs at least one instance with ground truth."""


class NotDivisibleByThreeError(EvalError):
    """Intensity bucketing needs a class count divisible by three."""
