import json
from pathlib import Path

import numpy as np
import pytest

from conftest import moving_square_frames
from keysched import errors, flow
from keysched.ingest import Frame, FrameSequence
from oracles import hs_energy_oracle, solve_level_oracle, translated_texture


def as_frame(pixels):
    return Frame(height=pixels.shape[0], width=pixels.shape[1], pixels=pixels)


INTERIOR = (slice(4, -4), slice(4, -4))


class TestEstimateFlow:
    def test_identical_frames_give_zero_flow(self):
        base, _, _ = translated_texture()
        field = flow.estimate_flow(as_frame(base), as_frame(base))
        assert np.max(np.abs(field.u)) <= 1e-6
        assert np.max(np.abs(field.v)) <= 1e-6

    def test_one_pixel_right_shift(self):
        base, right, _ = translated_texture()
        field = flow.estimate_flow(as_frame(base), as_frame(right))
        assert 0.75 <= field.u[INTERIOR].mean() <= 1.25
        assert np.abs(field.v[INTERIOR]).mean() < 0.25

    def test_one_pixel_down_shift(self):
        base, _, down = translated_texture()
        field = flow.estimate_flow(as_frame(base), as_frame(down))
        assert 0.75 <= field.v[INTERIOR].mean() <= 1.25
        assert np.abs(field.u[INTERIOR]).mean() < 0.25

    def test_dimension_mismatch(self):
        # both sizes are also too small for three levels; the mismatch wins
        a = as_frame(np.zeros((16, 16)))
        b = as_frame(np.zeros((16, 24)))
        with pytest.raises(errors.DimensionMismatchError):
            flow.estimate_flow(a, b, flow.FlowParams(pyramid_levels=3))

    def test_too_small_for_pyramid(self):
        a = as_frame(np.zeros((16, 16)))
        with pytest.raises(errors.TooSmallError):
            flow.estimate_flow(a, a, flow.FlowParams(pyramid_levels=3))
        # shallower pyramid fits
        flow.estimate_flow(a, a, flow.FlowParams(pyramid_levels=2))

    def test_energy_non_increasing_over_iterations(self):
        # fixed-seed case: smoothed noise shifted by one pixel
        rng = np.random.default_rng(1234)
        base = rng.random((32, 32))
        for _ in range(3):
            base = flow._conv3(base, flow._BLUR_KERNEL)
        shifted = np.roll(base, 1, axis=1)
        alpha_eff = flow.DEFAULT_ALPHA / 255.0
        energies = []
        for iters in range(1, 31):
            params = flow.FlowParams(iterations=iters, pyramid_levels=1,
                                     convergence_eps=0.0)
            field = flow.estimate_flow(as_frame(base), as_frame(shifted), params)
            energies.append(hs_energy_oracle(base, shifted, field.u, field.v, alpha_eff))
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-12 * max(1.0, abs(before))


class TestFlowParams:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(errors.InvariantViolationError):
            flow.FlowParams(alpha=alpha)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_convergence_eps_rejected(self, eps):
        with pytest.raises(errors.InvariantViolationError):
            flow.FlowParams(convergence_eps=eps)

    @pytest.mark.parametrize("field", ["iterations", "pyramid_levels"])
    @pytest.mark.parametrize("value", [2.5, 1.5, 2.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(errors.InvariantViolationError):
            flow.FlowParams(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        params = flow.FlowParams(iterations=np.int64(7), pyramid_levels=np.int32(2))
        assert (params.iterations, params.pyramid_levels) == (7, 2)


def level_inputs(height, width, seed):
    """Seeded smooth frame pair and a nonzero starting flow for one level."""
    rng = np.random.default_rng(seed)
    a = rng.random((height, width))
    for _ in range(2):
        a = (a + np.roll(a, 1, axis=0) + np.roll(a, 1, axis=1)) / 3.0
    b = np.roll(a, 1, axis=1) + 0.01 * rng.standard_normal((height, width))
    u, v = 0.3 * rng.standard_normal((2, height, width))
    return a, b, u, v


class TestSolveLevelMatchesReference:
    """The stacked in-place Jacobi loop against the per-component loop it
    replaced (``oracles.solve_level_oracle``), compared bit for bit."""

    ALPHA = flow.DEFAULT_ALPHA / 255.0
    SHAPES = [(8, 8), (17, 9), (64, 40)]

    def check(self, shape, iterations, eps):
        a, b, u, v = level_inputs(*shape, seed=shape[0] * 100 + shape[1])
        grid = np.indices(shape, dtype=np.float64)
        got = flow._solve_level(a, b, u, v, grid, self.ALPHA, iterations, eps)
        want = solve_level_oracle(a, b, u, v, self.ALPHA, iterations, eps)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("iterations", range(1, 7))
    def test_fixed_iteration_counts(self, shape, iterations):
        self.check(shape, iterations, eps=0.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_break_after_first_iteration(self, shape):
        self.check(shape, flow.DEFAULT_ITERATIONS, eps=float("inf"))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_defaults(self, shape):
        self.check(shape, flow.DEFAULT_ITERATIONS, flow.DEFAULT_CONVERGENCE_EPS)


class TestMotionScore:
    def test_zero_flow(self):
        field = flow.FlowField(u=np.zeros((4, 4)), v=np.zeros((4, 4)))
        assert flow.motion_score(field, normalize=False) == 0.0
        assert flow.motion_score(field, normalize=True) == 0.0

    def test_constant_field_hand_value(self):
        field = flow.FlowField(u=np.ones((4, 4)), v=np.full((4, 4), -2.0))
        assert flow.motion_score(field, normalize=False) == 48.0
        assert flow.motion_score(field, normalize=True) == 3.0

    def test_single_pixel(self):
        u = np.zeros((4, 4))
        v = np.zeros((4, 4))
        u[2, 1] = 0.5
        v[2, 1] = 0.5
        field = flow.FlowField(u=u, v=v)
        assert flow.motion_score(field, normalize=False) == 1.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal((2, 6, 5))
        a = flow.motion_score(flow.FlowField(u=u, v=v), normalize=False)
        b = flow.motion_score(flow.FlowField(u=-u, v=-v), normalize=False)
        assert a == b

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal((2, 6, 5))
        field = flow.FlowField(u=u, v=v)
        for c in (0.0, 0.5, 2.0, 7.25):
            scaled = flow.FlowField(u=c * u, v=c * v)
            assert flow.motion_score(scaled, normalize=False) == pytest.approx(
                c * flow.motion_score(field, normalize=False), rel=1e-12)


class TestMotionCurve:
    def test_two_identical_frames(self):
        img = translated_texture(height=32, width=32)[0]
        seq = FrameSequence(frames=[as_frame(img), as_frame(img)])
        curve = flow.motion_curve(seq)
        assert np.array_equal(curve.values, np.zeros(2))

    def test_static_static_shifted(self):
        base, right, _ = translated_texture(height=32, width=32)
        seq = FrameSequence(frames=[as_frame(base), as_frame(base), as_frame(right)])
        curve = flow.motion_curve(seq)
        assert curve.values[0] == pytest.approx(0.0, abs=1e-9)
        assert curve.values[1] > 0.0
        assert curve.values[2] == curve.values[1]  # duplicated tail

    def test_length_always_matches_frame_count(self, synthetic_clip):
        curve = flow.motion_curve(synthetic_clip)
        assert len(curve) == len(synthetic_clip)

    def test_too_short(self):
        seq = FrameSequence(frames=[as_frame(np.zeros((32, 32)))])
        with pytest.raises(errors.TooShortError):
            flow.motion_curve(seq)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_each_pyramid_built_once(self, synthetic_clip, monkeypatch, levels):
        calls = []
        downsample = flow._downsample

        def counting(img):
            calls.append(img.shape)
            return downsample(img)

        monkeypatch.setattr(flow, "_downsample", counting)
        flow.motion_curve(synthetic_clip, flow.FlowParams(pyramid_levels=levels))
        assert len(calls) == len(synthetic_clip) * (levels - 1)


GOLDEN_FLOW_SCORES = Path(__file__).parent / "golden" / "flow_scores.json"


def sine_texture_clip(height, width, count, seed):
    """Seeded smooth texture translated by a seeded sub-pixel step per frame."""
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.02, 0.12, size=(6, 2))
    phases = rng.uniform(0.0, 2 * np.pi, 6)
    amps = rng.uniform(0.03, 0.08, 6)
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    frames = []
    x_off = y_off = 0.0
    for _ in range(count):
        img = 0.5 + sum(a * np.sin(2 * np.pi * (fx * (xx - x_off) + fy * (yy - y_off)) + p)
                        for (fx, fy), p, a in zip(freqs, phases, amps))
        frames.append(as_frame(img))
        x_off += rng.uniform(-1.5, 1.5)
        y_off += rng.uniform(-1.5, 1.5)
    return FrameSequence(frames=frames, fps=24.0)


def rolled_noise_clip(height, width, count, seed):
    """Seeded box-smoothed noise, circularly shifted by whole pixels per frame."""
    rng = np.random.default_rng(seed)
    base = rng.random((height, width))
    for _ in range(2):
        base = (base + np.roll(base, 1, axis=0) + np.roll(base, 1, axis=1)
                + np.roll(base, (1, 1), axis=(0, 1))) / 4.0
    frames = []
    dy = dx = 0
    for _ in range(count):
        frames.append(as_frame(np.roll(base, (dy, dx), axis=(0, 1))))
        dy += int(rng.integers(-2, 3))
        dx += int(rng.integers(-2, 3))
    return FrameSequence(frames=frames, fps=24.0)


def noise_clip(height, width, count, seed):
    """Independent uniform noise frames: no coherent motion at all."""
    rng = np.random.default_rng(seed)
    return FrameSequence(frames=[as_frame(rng.random((height, width)))
                                 for _ in range(count)], fps=24.0)


GOLDEN_CLIPS = {
    "moving_square": moving_square_frames,
    "texture128": lambda: sine_texture_clip(128, 128, 8, seed=128),
    "noise48x96": lambda: rolled_noise_clip(48, 96, 6, seed=4896),
    "noise3": lambda: noise_clip(32, 32, 3, seed=3),
}


class TestGoldenScores:
    """Raw motion scores pinned exactly, so a rewrite of the solver cannot
    drift them even in the last bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CLIPS))
    def test_raw_scores_equal_golden(self, name):
        expected = json.loads(GOLDEN_FLOW_SCORES.read_text())[name]
        curve = flow.motion_curve(GOLDEN_CLIPS[name](), normalize=False)
        assert [repr(x) for x in curve.values.tolist()] == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_CLIPS))
    def test_curve_matches_pairwise_estimates(self, name):
        seq = GOLDEN_CLIPS[name]()
        frames = seq.frames
        curve = flow.motion_curve(seq, normalize=False)
        pairwise = [flow.motion_score(flow.estimate_flow(a, b), normalize=False)
                    for a, b in zip(frames, frames[1:])]
        assert curve.values.tobytes() == np.array(pairwise + pairwise[-1:]).tobytes()
