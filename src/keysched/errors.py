"""Exception hierarchy shared by all keysched modules.

Every error raised by the library derives from KeyschedError, so callers can
catch one base class at pipeline boundaries. Each pipeline stage has a base
class whose ``exit_code`` is the CLI exit status of every error under it and
whose ``summary`` describes that code in ``keysched --help``.
"""


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


class UnsupportedRateError(IngestError):
    """WAV sample rate rejected under strict-rate loading."""


class ParseError(IngestError):
    """Malformed CSV/JSON payload."""


class InvariantViolationError(IngestError):
    """Deserialized or constructed value breaks a type invariant."""


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
