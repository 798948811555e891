"""Acceptance gate: one test per criterion, each at its stated tolerance.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
after the run. Random cases are seeded so the gate is reproducible.
"""

import time

import numpy as np

from keysched import audiofeat, evaluate, ingest, motion, refops, schedule, selection
from keysched.cli import main as cli_main
from keysched.flow import FlowParams, estimate_flow
from keysched.ingest import Frame
from oracles import detect_peaks_oracle, max_matching_oracle, mel_band_oracle, translated_texture


def test_criterion_01_patch_geometry_anchors():
    assert audiofeat.patch_token_count(196, 16, 10) == 19
    assert audiofeat.patch_token_count(196, 16, 4) == 46


def test_criterion_02_cfg_telescoping():
    rng = np.random.default_rng(2025)
    unit = refops.GuidanceScales(1.0, 1.0, 1.0)
    zero = refops.GuidanceScales(0.0, 0.0, 0.0)
    for _ in range(1000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        tiers = [rng.uniform(-10, 10, shape) for _ in range(4)]
        full = refops.cfg_combine(*tiers, unit)
        none = refops.cfg_combine(*tiers, zero)
        assert np.max(np.abs(full - tiers[3])) <= 1e-12
        assert np.max(np.abs(none - tiers[0])) <= 1e-12
        # dyadic entries make float64 arithmetic exact, so the audio-scale
        # slope must match the tier delta bitwise
        dyadic = [np.round(t * 16.0) / 16.0 for t in tiers]
        lo = refops.cfg_combine(*dyadic, refops.GuidanceScales(1.5, 0.5, 1.0))
        hi = refops.cfg_combine(*dyadic, refops.GuidanceScales(1.5, 0.5, 2.0))
        assert np.array_equal(hi - lo, dyadic[3] - dyadic[2])


def _flat_schedule(total, t_k):
    curve = motion.MotionCurve(np.zeros(total), stage=motion.STAGE_NORMALIZED)
    return selection.select_keyframes(curve, motion.Extrema(),
                                      selection.SelectionParams(t_k))


def test_criterion_03_flat_curve_uniformity():
    assert _flat_schedule(48, 12).keyframes == list(range(0, 48, 4))
    rng = np.random.default_rng(3)
    for _ in range(200):
        t_k = int(rng.integers(2, 25))
        total = t_k * int(rng.integers(2, 9))
        sched = _flat_schedule(total, t_k)
        assert sched.keyframes == list(range(0, total, total // t_k))


def test_criterion_04_cardinality():
    rng = np.random.default_rng(4)
    for _ in range(500):
        total = int(rng.integers(13, 97))
        t_k = int(rng.integers(2, min(24, total - 1) + 1))
        raw = motion.MotionCurve(rng.random(total))
        curve = motion.normalize(motion.smooth(raw))
        sched = selection.select_keyframes(curve, motion.detect_extrema(curve),
                                           selection.SelectionParams(t_k))
        assert len(sched.keyframes) == t_k
        assert sched.keyframes[0] == 0
        assert all(b > a for a, b in zip(sched.keyframes, sched.keyframes[1:]))


def test_criterion_05_peak_detection_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(8, 97))
        curve = motion.normalize(motion.MotionCurve(rng.random(n)))
        peaks = motion.detect_peaks(curve, min_distance=5, min_prominence=0.1)
        assert peaks == detect_peaks_oracle(curve.values.tolist(), 5, 0.1)
        valleys = motion.detect_valleys(curve)
        assert valleys == detect_peaks_oracle((-curve.values).tolist(), 5, 0.1)


def test_criterion_06_flow_sanity():
    start = time.perf_counter()
    base, right, _ = translated_texture(64, 64)
    a = Frame(base)
    b = Frame(right)
    field = estimate_flow(a, b, FlowParams())
    interior = (slice(4, -4), slice(4, -4))
    assert 0.75 <= field.u[interior].mean() <= 1.25
    assert np.abs(field.v[interior]).mean() < 0.25
    still = estimate_flow(a, a, FlowParams())
    assert np.max(np.abs(still.u)) <= 1e-6
    assert np.max(np.abs(still.v)) <= 1e-6
    assert time.perf_counter() - start < 2.0


def test_criterion_07_matching_oracle():
    rng = np.random.default_rng(7)
    for _ in range(500):
        gt = sorted(rng.integers(0, 48, int(rng.integers(0, 7))).tolist())
        pred = sorted(rng.integers(0, 48, int(rng.integers(0, 7))).tolist())
        t = int(rng.integers(0, 7))
        assert evaluate.match_keypoints(gt, pred, t) == max_matching_oracle(gt, pred, t)
    inst = [evaluate.KeypointInstance(gt=[5, 20], pred=[6, 40])]
    assert evaluate.average_precision(inst, 3) == 0.5


def test_criterion_08_freenoise_plan():
    plan = schedule.freenoise_windows(48, 12, 6)
    assert len(plan.windows) == 7
    covered = set()
    for s, e in plan.windows:
        covered.update(range(s, e))
    assert covered == set(range(48))
    for (s1, e1), (s2, e2) in zip(plan.windows, plan.windows[1:]):
        assert e1 - s2 == 6


def test_criterion_09_layout_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(200):
        total = int(rng.integers(4, 64))
        count = int(rng.integers(1, total))
        others = rng.choice(np.arange(1, total), size=count - 1, replace=False) \
            if count > 1 else np.array([], dtype=int)
        keyframes = sorted([0] + others.tolist())
        sched = selection.KeyframeSchedule(total_frames=total, keyframes=keyframes,
                                           fill=[i for i in keyframes if i != 0])
        feats = rng.standard_normal((len(keyframes), int(rng.integers(1, 8))))
        layout = schedule.interpolation_layout(feats, sched)
        back = audiofeat.gather_keyframe_rows(layout.features, sched)
        assert np.array_equal(back, feats)
        assert np.sum(np.abs(layout.features[layout.mask == 0])) == 0.0


def test_criterion_10_mel_geometry():
    t = np.arange(32000) / 16000.0
    clip = ingest.AudioClip(samples=0.9 * np.sin(2 * np.pi * 1000.0 * t),
                            sample_rate=16000)
    spec = audiofeat.mel_spectrogram(clip)
    assert spec.values.shape == (128, 196)
    assert np.all(spec.values.argmax(axis=0) == mel_band_oracle(1000.0))


def test_criterion_11_end_to_end_determinism(pgm_dir, tmp_path):
    outputs = []
    for tag in ("first", "second"):
        scores = tmp_path / f"{tag}_scores.csv"
        sched = tmp_path / f"{tag}_schedule.json"
        svg = tmp_path / f"{tag}_curve.svg"
        assert cli_main(["score", "--frames", str(pgm_dir), "--normalize",
                         "--out", str(scores)]) == 0
        assert cli_main(["select", "--scores", str(scores), "--k", "12",
                         "--out", str(sched)]) == 0
        assert cli_main(["plot", "--scores", str(scores), "--schedule", str(sched),
                         "--out", str(svg)]) == 0
        outputs.append((scores.read_bytes(), sched.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]
