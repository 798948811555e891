"""Input validation: the one integer rule, the one real rule and each constructor's own checks.

``errors.as_index`` decides for every index and count in the library whether
a value is an integer: Python and NumPy integers pass, and ``bool``, floats
(``3.0`` too) and strings raise ``InvariantViolationError``. ``errors.as_floats``
decides the same for every real value: Python and NumPy integers and floats
pass, and NaN, +-inf, ``bool``, strings, ``None``, ragged nesting, a wrong
number of dimensions, an empty array and values out of bounds raise
``InvariantViolationError``. The last table drives every other validation
branch to its ``KeyschedError`` class.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "fixed_text.decimals": (lambda v: ingest.fixed_text([[1.5, 2.5]], v), 3),
    "FlowParams.iterations": (lambda v: flow.FlowParams(iterations=v), 3),
    "FlowParams.pyramid_levels": (lambda v: flow.FlowParams(pyramid_levels=v), 3),
    "PlotSpec.width": (lambda v: plot.render_plot(plot.PlotSpec(v, 60, NORM, Extrema())), 60),
    "PlotSpec.height": (lambda v: plot.render_plot(plot.PlotSpec(60, v, NORM, Extrema())), 60),
    "AudioClip.sample_rate": (lambda v: ingest.AudioClip(np.zeros(4), v), 16000),
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


@pytest.mark.parametrize("make", [
    lambda: ingest.Frame(np.zeros((0, 3))),
    lambda: ingest.AudioClip(np.zeros(500), sample_rate=16000.0),
    lambda: ingest.AudioClip(np.zeros(500), sample_rate="x"),
    lambda: ingest.AudioClip(np.zeros(500), sample_rate=0),
], ids=["height-0", "rate-16000.0", "rate-str", "rate-0"])
def test_sizes_and_rates_are_positive_integers(make):
    with pytest.raises(errors.InvariantViolationError) as info:
        make()
    assert info.value.exit_code == 2


def test_as_index_bounds():
    assert errors.as_index(np.uint8(4), "n", lo=4, hi=5) == 4
    assert errors.as_index(-7, "n", lo=None) == -7
    for value, lo, hi in ((3, 4, None), (5, 0, 5), (-1, 0, None)):
        with pytest.raises(errors.InvariantViolationError):
            errors.as_index(value, "n", lo=lo, hi=hi)


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from(["int8", "uint8", "int32", "int64", "uint64"]), data=st.data())
def test_as_indices_of_an_array_matches_the_entry_rule(dtype, data):
    """The vectorized bounds check of an integer array gives the list, or
    the class and message, of ``as_index`` on each entry in turn."""
    info = np.iinfo(dtype)
    entry = st.integers(max(info.min, -9), min(info.max, 300)) | st.integers(info.min, info.max)
    values = np.array(data.draw(st.lists(entry, max_size=12)), dtype=dtype)
    lo, hi = data.draw(st.none() | st.integers(-5, 5)), data.draw(st.none() | st.integers(-5, 300))

    def outcome(call):
        try:
            return call()
        except errors.InvariantViolationError as exc:
            return str(exc)

    want = outcome(lambda: [errors.as_index(v, "n", lo, hi) for v in values])
    got = outcome(lambda: errors.as_indices(values, "n", lo, hi))
    assert got == want and type(got) is type(want)
    if isinstance(got, list):
        assert all(type(i) is int for i in got)


# entry point -> (call with the value under test, its shape, a value out of its bounds or None)
FLOAT_SITES = {
    "Frame.pixels": (lambda a: ingest.Frame(a), (1, 2), 1.5),
    "AudioClip.samples": (lambda a: ingest.AudioClip(a), (2,), -1.5),
    "MotionCurve.values": (lambda a: MotionCurve(a), (2,), -0.5),
    "MotionCurve.values.normalized": (lambda a: MotionCurve(a, stage="normalized"), (2,), 1.5),
    "FlowField.u": (lambda a: flow.FlowField(a, np.zeros((1, 2))), (1, 2), None),
    "FlowField.v": (lambda a: flow.FlowField(np.zeros((1, 2)), a), (1, 2), None),
    "FlowParams.alpha": (lambda a: flow.FlowParams(alpha=a), (), 0.0),
    "FlowParams.convergence_eps": (lambda a: flow.FlowParams(convergence_eps=a), (), -0.5),
    "MelSpectrogram.values": (lambda a: audiofeat.MelSpectrogram(a), (128, 2), -0.5),
    "GuidanceScales.image": (lambda a: refops.GuidanceScales(image=a), (), None),
    "GuidanceScales.text": (lambda a: refops.GuidanceScales(text=a), (), None),
    "GuidanceScales.audio": (lambda a: refops.GuidanceScales(audio=a), (), None),
    "FusionWeights.audio": (lambda a: refops.FusionWeights(audio=a), (), None),
    "FusionWeights.image": (lambda a: refops.FusionWeights(image=a), (), None),
    "detect_extrema.min_prominence": (lambda a: motion.detect_extrema(NORM, 1, a), (), -0.5),
    "Extrema.prominences": (lambda a: Extrema(peaks=[3], prominences=a), (1,), -0.5),
}
NOT_REALS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "bool": True, "str": "0.5",
             "None": None}


def filled(value, shape):
    """``value`` at every position of ``shape``, as nested lists; ``value`` itself for ``()``."""
    for n in reversed(shape):
        value = [value] * n
    return value


def bad_shapes(shape):
    """Values of the wrong shape for a site that takes ``shape``, by name."""
    good = filled(1.0, shape)
    if not shape:
        return {"extra_dim": [good, good]}
    return {"extra_dim": [good], "ragged": good + [[1.0]], "empty": np.zeros((0, *shape[1:]))}


@pytest.mark.parametrize("value", sorted(NOT_REALS))
@pytest.mark.parametrize("site", sorted(FLOAT_SITES))
def test_float_rule_rejects(site, value):
    call, shape, _ = FLOAT_SITES[site]
    with pytest.raises(errors.InvariantViolationError):
        call(filled(NOT_REALS[value], shape))


@pytest.mark.parametrize("site, case", [(site, case) for site in sorted(FLOAT_SITES)
                                        for case in sorted(bad_shapes(FLOAT_SITES[site][1]))])
def test_float_rule_rejects_shape(site, case):
    call, shape, _ = FLOAT_SITES[site]
    with pytest.raises(errors.InvariantViolationError):
        call(bad_shapes(shape)[case])


@pytest.mark.parametrize("site", sorted(s for s in FLOAT_SITES if FLOAT_SITES[s][2] is not None))
def test_float_rule_rejects_out_of_bounds(site):
    call, shape, outside = FLOAT_SITES[site]
    with pytest.raises(errors.InvariantViolationError):
        call(filled(outside, shape))


@pytest.mark.parametrize("kind", [np.float32, np.int64])
@pytest.mark.parametrize("site", sorted(FLOAT_SITES))
def test_float_rule_accepts_numpy_scalars(site, kind):
    call, shape, _ = FLOAT_SITES[site]
    assert repr(plain(call(filled(kind(1), shape)))) == repr(plain(call(filled(1.0, shape))))


def test_as_floats_returns_float64_without_copying():
    pixels = np.zeros((2, 3))
    assert errors.as_floats(pixels, "pixels", 2) is pixels
    assert errors.as_floats(3, "x").dtype == np.float64
    assert errors.as_floats(3, "x").ndim == 0
    for value, lo, hi in ((0.5, 0.6, 1.0), (0.5, 0.0, 0.4)):
        with pytest.raises(errors.InvariantViolationError):
            errors.as_floats(value, "x", lo=lo, hi=hi)
    assert errors.as_floats(0.5, "x", lo=0.5, hi=0.5) == 0.5


def test_extrema_prominences_are_a_list_of_floats():
    given = Extrema(peaks=[3, 5], prominences=np.array([0.5, 1], dtype=np.float32))
    assert given == Extrema(peaks=[3, 5], prominences=[0.5, 1.0])
    assert type(given.prominences[1]) is float
    for empty in ([], (), np.array([]), np.zeros(0, dtype=np.float32)):
        assert Extrema(prominences=empty).prominences == []
        assert Extrema(prominences=empty) == Extrema(prominences=[])
    for not_1d in (np.zeros((0, 2)), [[]]):
        with pytest.raises(errors.InvariantViolationError):
            Extrema(prominences=not_1d)


def read_zero_width_pgm():
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "zero.pgm"
        path.write_bytes(b"P5 0 4 255\n")
        ingest.read_pgm(path)


def index_frame_source(index):
    with tempfile.TemporaryDirectory() as d:
        for name in ("a.pgm", "b.pgm"):
            (Path(d) / name).write_bytes(b"P5 4 4 255\n" + bytes(16))
        ingest.FrameSource(d)[index]


TWO_FRAMES = ingest.FrameSequence([ingest.Frame(np.zeros((4, 4)))] * 2)
# a frame index takes the one integer rule, below the frame count: no slices
BAD_FRAME_INDICES = {"slice": slice(0, 1), "bool": True, "float": 1.0, "negative": -1,
                     "past_end": 2}


def flow_on_nan_frame():
    # the NaN frame is refused when it is built; a NaN once reached the solver's warp
    still = ingest.Frame(np.zeros((32, 32)))
    flow.estimate_flow(ingest.Frame(np.full((32, 32), np.nan)), still)


def fuse_with_mismatched_query():
    kv = (np.ones((2, 3)), np.ones((2, 3)))
    refops.fuse_features(np.ones((2, 4)), np.ones((5, 3)), kv, kv, kv)


def mel(values):
    return audiofeat.MelSpectrogram(values)


def layout(mask, features):
    return schedule.ConditionLayout(np.asarray(mask), np.asarray(features, dtype=float))


# validation branch -> (call that reaches it, the error it raises)
VALIDATION = {
    "Frame.pixel_range": (lambda: ingest.Frame([[0.5, 1.5]]),
                          errors.InvariantViolationError),
    "FrameSequence.empty": (lambda: ingest.FrameSequence([]), errors.InvariantViolationError),
    "FrameSequence.not_frame": (lambda: ingest.FrameSequence([np.zeros((4, 4))]),
                                errors.InvariantViolationError),
    "FrameSequence.later_not_frame":
        (lambda: ingest.FrameSequence([ingest.Frame(np.zeros((4, 4))), np.zeros((4, 4))]),
         errors.InvariantViolationError),
    **{f"{kind}.index_{name}": (lambda get=get, i=i: get(i), errors.InvariantViolationError)
       for kind, get in [("FrameSource", index_frame_source),
                         ("FrameSequence", TWO_FRAMES.__getitem__)]
       for name, i in BAD_FRAME_INDICES.items()},
    "AudioClip.shape": (lambda: ingest.AudioClip(np.zeros((2, 2))),
                        errors.InvariantViolationError),
    "AudioClip.range": (lambda: ingest.AudioClip([0.0, -1.5]), errors.InvariantViolationError),
    # checked before the file is opened
    "load_wav.max_samples": (lambda: ingest.load_wav("unread.wav", max_samples=0),
                             errors.InvariantViolationError),
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
    "estimate_flow.nan_frame": (flow_on_nan_frame, errors.InvariantViolationError),
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
    "as_feature_matrix.str": (lambda: audiofeat.as_feature_matrix([["a", "b"]]),
                              errors.InvariantViolationError),
    "as_feature_matrix.numeric_str": (lambda: audiofeat.as_feature_matrix([[1.0, "2"]]),
                                      errors.InvariantViolationError),
    "as_feature_matrix.ragged": (lambda: audiofeat.as_feature_matrix([[1.0], [1.0, 2.0]]),
                                 errors.InvariantViolationError),
    "as_feature_matrix.object": (lambda: audiofeat.as_feature_matrix([[object()]]),
                                 errors.InvariantViolationError),
    "as_feature_matrix.none": (lambda: audiofeat.as_feature_matrix([[None]]),
                               errors.InvariantViolationError),
    "as_feature_matrix.complex": (lambda: audiofeat.as_feature_matrix(np.ones((2, 2), complex)),
                                  errors.InvariantViolationError),
    "ConditionLayout.mask_ndim": (lambda: layout([[1], [1], [1]], np.ones((3, 2))),
                                  errors.InvariantViolationError),
    "ConditionLayout.mask_values": (lambda: layout([1, 2, 1], np.ones((3, 2))),
                                    errors.InvariantViolationError),
    "ConditionLayout.feature_rows": (lambda: layout([1, 1, 1], np.ones((2, 2))),
                                     errors.InvariantViolationError),
    "ConditionLayout.unmasked_rows": (lambda: layout([1, 0, 1], np.ones((3, 2))),
                                      errors.InvariantViolationError),
    # the mask is checked before its int64 cast, which would turn 0.9 into 0
    "ConditionLayout.mask_fraction": (lambda: schedule.ConditionLayout([0.9, 1], np.zeros((2, 1))),
                                      errors.InvariantViolationError),
    "ConditionLayout.mask_nan": (lambda: schedule.ConditionLayout([np.nan, 1], np.zeros((2, 1))),
                                 errors.InvariantViolationError),
    "ConditionLayout.mask_str": (lambda: schedule.ConditionLayout(["1", "0"], np.zeros((2, 1))),
                                 errors.InvariantViolationError),
    "ConditionLayout.mask_ragged":
        (lambda: schedule.ConditionLayout([[1], [1, 0]], np.zeros((2, 1))),
         errors.InvariantViolationError),
    "ConditionLayout.features_0d": (lambda: schedule.ConditionLayout([1], 0.5),
                                    errors.InvariantViolationError),
    "ConditionLayout.features_1d": (lambda: schedule.ConditionLayout([1, 1], [0.5, 0.5]),
                                    errors.InvariantViolationError),
    "ConditionLayout.features_str": (lambda: schedule.ConditionLayout([1], [["a"]]),
                                     errors.InvariantViolationError),
    "ConditionLayout.empty": (lambda: layout([], np.zeros((0, 2))),
                              errors.InvariantViolationError),
    "ConditionLayout.features_no_columns": (lambda: layout([1], np.zeros((1, 0))),
                                            errors.InvariantViolationError),
    "ConditionLayout.features_ragged":
        (lambda: schedule.ConditionLayout([1, 1], [[0.5], [0.5, 1.0]]),
         errors.InvariantViolationError),
    "fixed_text.decimals_zero": (lambda: ingest.fixed_text([[1.5, 2.5]], 0),
                                 errors.InvariantViolationError),
    "fixed_text.decimals_list": (lambda: ingest.fixed_text([[1.5, 2.5]], [2, 9]),
                                 errors.InvariantViolationError),
    "fixed_text.table_1d": (lambda: ingest.fixed_text([1.5, 2.5], 2),
                            errors.InvariantViolationError),
    "fixed_text.table_3d": (lambda: ingest.fixed_text(np.ones((2, 2, 2)), 2),
                            errors.InvariantViolationError),
    "fixed_text.table_no_columns": (lambda: ingest.fixed_text(np.ones((2, 0)), 2),
                                    errors.InvariantViolationError),
    "fixed_text.table_str": (lambda: ingest.fixed_text([["0.5", "a"]], 2),
                             errors.InvariantViolationError),
    "fixed_text.table_ragged": (lambda: ingest.fixed_text([[0.5], [0.5, 1.0]], 2),
                                errors.InvariantViolationError),
    # 0.12 goes through the digit matrix, the tie 0.125 through format
    **{f"fixed_text.end_{name}_{path}": (lambda end=end, v=v: ingest.fixed_text([[v, 1.0]], 2, end),
                                         errors.InvariantViolationError)
       for name, end in [("two_chars", "ab"), ("non_ascii", "\u00e9"), ("empty", ""),
                         ("bytes", b"\n"), ("none", None)]
       for path, v in [("digits", 0.12), ("format", 0.125)]},
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
    "choose_peaks.prominences_str": (lambda: selection.choose_peaks([1, 2, 3], ["a", "b", "c"], 1),
                                     errors.InvariantViolationError),
    "choose_peaks.prominences_nan": (lambda: selection.choose_peaks([3, 1], [np.nan, 0.5], 1),
                                     errors.InvariantViolationError),
    "choose_peaks.prominences_negative":
        (lambda: selection.choose_peaks([1, 3], [0.5, -0.5], 1), errors.InvariantViolationError),
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
