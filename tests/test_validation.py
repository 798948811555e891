"""Input validation: the one integer rule and each constructor's own checks.

``errors.as_index`` decides for every index and count in the library whether
a value is an integer: Python and NumPy integers pass, and ``bool``, floats
(``3.0`` too) and strings raise ``InvariantViolationError``. The second table
drives every other validation branch to its ``KeyschedError`` class.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest

from keysched import (audiofeat, errors, evaluate, flow, ingest, motion, plot, refops,
                      schedule, selection)
from keysched.cli import main
from keysched.motion import Extrema, MotionCurve
from keysched.selection import KeyframeSchedule, SelectionParams

RAW = MotionCurve([0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.5])
NORM = motion.normalize(RAW)
RNG = np.random.default_rng(11)
MAT = RNG.standard_normal((6, 3))

# entry point -> (call with the value under test, a valid integer for it)
INDEX_SITES = {
    "Extrema.peaks": (lambda v: Extrema(peaks=[v]), 3),
    "Extrema.valleys": (lambda v: Extrema(valleys=[v]), 3),
    "smooth.window": (lambda v: motion.smooth(RAW, v), 3),
    "detect_extrema.min_distance": (lambda v: motion.detect_extrema(NORM, v), 3),
    "peak_prominences.indices": (lambda v: motion.peak_prominences(NORM, [1, v]), 3),
    "KeyframeSchedule.total_frames": (lambda v: KeyframeSchedule(v, [0]), 3),
    "KeyframeSchedule.keyframes": (lambda v: KeyframeSchedule(8, [0, v], fill=[3]), 3),
    "KeyframeSchedule.peaks_used": (lambda v: KeyframeSchedule(8, [0, 3], peaks_used=[v]), 3),
    "KeyframeSchedule.valleys_used":
        (lambda v: KeyframeSchedule(8, [0, 3], valleys_used=[v]), 3),
    "KeyframeSchedule.fill": (lambda v: KeyframeSchedule(8, [0, 3], fill=[v]), 3),
    "SelectionParams.target_count":
        (lambda v: selection.select_keyframes(NORM, Extrema(), SelectionParams(v)), 3),
    "SelectionParams.seed": (lambda v: selection.choose_peaks(
        list(range(1, 12)), [0.0] * 11, 4,
        SelectionParams(mode=selection.MODE_SEEDED_RANDOM, seed=v)), 3),
    "choose_peaks.peaks":
        (lambda v: selection.choose_peaks([1, v, 7], [0.1, 0.5, 0.2], 2), 3),
    "choose_peaks.limit": (lambda v: selection.choose_peaks([1, 5, 7], [0.1, 0.5, 0.2], v), 3),
    "valley_between.p1": (lambda v: selection.valley_between(NORM, Extrema(), v, 9), 3),
    "valley_between.p2": (lambda v: selection.valley_between(NORM, Extrema(), 0, v), 3),
    "KeypointInstance.gt": (lambda v: evaluate.KeypointInstance(gt=[v], pred=[1]), 3),
    "KeypointInstance.pred": (lambda v: evaluate.KeypointInstance(gt=[1], pred=[v]), 3),
    "WindowPlan.total_frames": (lambda v: schedule.WindowPlan(v, 3, 3), 3),
    "WindowPlan.window": (lambda v: schedule.WindowPlan(6, v, 3), 3),
    "WindowPlan.stride": (lambda v: schedule.WindowPlan(6, 3, v), 3),
    "freenoise_windows.total_frames": (lambda v: schedule.freenoise_windows(v, 3, 3), 3),
    "freenoise_windows.window": (lambda v: schedule.freenoise_windows(12, v, 3), 3),
    "freenoise_windows.stride": (lambda v: schedule.freenoise_windows(12, 6, v), 3),
    "firstframe_layout.total_frames":
        (lambda v: schedule.firstframe_layout(np.ones((1, 2)), v), 3),
    "frame_index_embedding.indices": (lambda v: schedule.frame_index_embedding([1, v], 4), 3),
    "frame_index_embedding.channels": (lambda v: schedule.frame_index_embedding([1, 3], v), 4),
    "patch_token_count.frame_count": (lambda v: audiofeat.patch_token_count(v, 2, 1), 3),
    "patch_token_count.kernel": (lambda v: audiofeat.patch_token_count(196, v, 4), 3),
    "patch_token_count.stride": (lambda v: audiofeat.patch_token_count(196, 16, v), 3),
    "interp_pos_embeddings.n_new": (lambda v: audiofeat.interp_pos_embeddings(MAT, v), 3),
    "segment_features.time_steps": (lambda v: audiofeat.segment_features(MAT, v), 3),
    "gather_keyframe_rows.indices": (lambda v: audiofeat.gather_keyframe_rows(MAT, [0, v]), 3),
    "fixed_text.decimals": (lambda v: ingest.fixed_text([[1.5, 2.5]], [2, v]), 3),
    "FlowParams.iterations": (lambda v: flow.FlowParams(iterations=v), 3),
    "FlowParams.pyramid_levels": (lambda v: flow.FlowParams(pyramid_levels=v), 3),
    "PlotSpec.width": (lambda v: plot.render_plot(plot.PlotSpec(v, 60, NORM, Extrema())), 60),
    "PlotSpec.height": (lambda v: plot.render_plot(plot.PlotSpec(60, v, NORM, Extrema())), 60),
}


def plain(x):
    """A result as nested builtins, so a NumPy scalar shows up in its repr."""
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.tolist())
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


@pytest.mark.parametrize("value", [np.int64, True, 3.0, 3.7, "3"],
                         ids=["int64", "bool", "float3.0", "float3.7", "str"])
@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_index_rule(site, value):
    call, good = INDEX_SITES[site]
    if value is np.int64:
        assert repr(plain(call(np.int64(good)))) == repr(plain(call(good)))
    else:
        with pytest.raises(errors.InvariantViolationError):
            call(value)


def test_as_index_bounds():
    assert errors.as_index(np.uint8(4), "n", lo=4, hi=5) == 4
    assert errors.as_index(-7, "n", lo=None) == -7
    for value, lo, hi in ((3, 4, None), (5, 0, 5), (-1, 0, None)):
        with pytest.raises(errors.InvariantViolationError):
            errors.as_index(value, "n", lo=lo, hi=hi)


def read_zero_width_pgm():
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "zero.pgm"
        path.write_bytes(b"P5 0 4 255\n")
        ingest.read_pgm(path)


def fuse_with_mismatched_query():
    kv = (np.ones((2, 3)), np.ones((2, 3)))
    refops.fuse_features(np.ones((2, 4)), np.ones((5, 3)), kv, kv, kv)


def mel(values):
    return audiofeat.MelSpectrogram(values)


def layout(mask, features):
    return schedule.ConditionLayout(np.asarray(mask), np.asarray(features, dtype=float))


# validation branch -> (call that reaches it, the error it raises)
VALIDATION = {
    "Frame.shape": (lambda: ingest.Frame(2, 3, np.zeros((3, 2))),
                    errors.InvariantViolationError),
    "Frame.pixel_range": (lambda: ingest.Frame(1, 2, [[0.5, 1.5]]),
                          errors.InvariantViolationError),
    "FrameSequence.empty": (lambda: ingest.FrameSequence([]), errors.InvariantViolationError),
    "AudioClip.shape": (lambda: ingest.AudioClip(np.zeros((2, 2))),
                        errors.InvariantViolationError),
    "AudioClip.range": (lambda: ingest.AudioClip([0.0, -1.5]), errors.InvariantViolationError),
    "read_pgm.zero_width": (read_zero_width_pgm, errors.MalformedPgmError),
    "MotionCurve.shape": (lambda: MotionCurve(np.zeros((2, 2))),
                          errors.InvariantViolationError),
    "MotionCurve.empty": (lambda: MotionCurve([]), errors.InvariantViolationError),
    "MotionCurve.finite": (lambda: MotionCurve([0.0, np.nan]), errors.InvariantViolationError),
    "MotionCurve.negative": (lambda: MotionCurve([0.0, -1.0]), errors.InvariantViolationError),
    "MotionCurve.stage": (lambda: MotionCurve([0.0], stage="cooked"),
                          errors.InvariantViolationError),
    "MotionCurve.normalized_range": (lambda: MotionCurve([0.0, 2.0], stage="normalized"),
                                     errors.InvariantViolationError),
    "detect_valleys.raw_curve": (lambda: motion.detect_valleys(RAW), errors.NotNormalizedError),
    "detect_extrema.min_prominence_nan": (lambda: motion.detect_extrema(NORM, 1, np.nan),
                                          errors.InvariantViolationError),
    "detect_extrema.min_prominence_negative": (lambda: motion.detect_extrema(NORM, 1, -0.1),
                                               errors.InvariantViolationError),
    "detect_extrema.min_prominence_str": (lambda: motion.detect_extrema(NORM, 1, "a"),
                                          errors.InvariantViolationError),
    "FlowField.shape": (lambda: flow.FlowField(np.zeros((2, 2)), np.zeros((2, 3))),
                        errors.InvariantViolationError),
    "FlowField.finite": (lambda: flow.FlowField(np.zeros((2, 2)), np.full((2, 2), np.inf)),
                         errors.InvariantViolationError),
    "MelSpectrogram.bands": (lambda: mel(np.zeros((64, 196))), errors.InvariantViolationError),
    "MelSpectrogram.frames": (lambda: mel(np.zeros((128, 0))), errors.InvariantViolationError),
    "MelSpectrogram.values": (lambda: mel(np.full((128, 2), -1.0)),
                              errors.InvariantViolationError),
    "as_feature_matrix.shape": (lambda: audiofeat.as_feature_matrix(np.ones(3)),
                                errors.ShapeMismatchError),
    "ConditionLayout.mask_ndim": (lambda: layout([[1], [1], [1]], np.ones((3, 2))),
                                  errors.InvariantViolationError),
    "ConditionLayout.mask_values": (lambda: layout([1, 2, 1], np.ones((3, 2))),
                                    errors.InvariantViolationError),
    "ConditionLayout.feature_rows": (lambda: layout([1, 1, 1], np.ones((2, 2))),
                                     errors.InvariantViolationError),
    "ConditionLayout.unmasked_rows": (lambda: layout([1, 0, 1], np.ones((3, 2))),
                                      errors.InvariantViolationError),
    "WindowPlan.geometry": (lambda: schedule.WindowPlan(6, 3, 4), errors.BadGeometryError),
    "GuidanceScales.finite": (lambda: refops.GuidanceScales(text=np.nan),
                              errors.InvariantViolationError),
    "FusionWeights.finite": (lambda: refops.FusionWeights(audio=np.inf),
                             errors.InvariantViolationError),
    "fuse_features.query_shape": (fuse_with_mismatched_query, errors.ShapeMismatchError),
    "SelectionParams.mode": (lambda: SelectionParams(mode="by_vibes"),
                             errors.InvariantViolationError),
    "choose_peaks.lengths": (lambda: selection.choose_peaks([1, 3], [0.5], 1),
                             errors.InconsistentExtremaError),
}


@pytest.mark.parametrize("branch", sorted(VALIDATION))
def test_validation_branch_raises_its_error(branch):
    call, error = VALIDATION[branch]
    with pytest.raises(error):
        call()


def test_score_on_zero_width_pgm_exits_2(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "f0.pgm").write_bytes(b"P5 0 4 255\n")
    out = tmp_path / "scores.csv"
    assert main(["score", "--frames", str(frames), "--out", str(out)]) == 2
    assert not out.exists()
    assert "non-positive dimensions" in capsys.readouterr().err
