import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pgm_bytes, moving_square_frames, write_pgm
from keysched import cli, errors, flow, ingest
from keysched.ingest import Frame, FrameSequence
from oracles import (bilinear_sample_oracle, conv3_oracle, hs_energy_oracle,
                     solve_level_oracle, translated_texture)


INTERIOR = (slice(4, -4), slice(4, -4))


class TestEstimateFlow:
    def test_identical_frames_give_zero_flow(self):
        base, _, _ = translated_texture()
        field = flow.estimate_flow(Frame(base), Frame(base))
        assert np.max(np.abs(field.u)) <= 1e-6
        assert np.max(np.abs(field.v)) <= 1e-6

    def test_one_pixel_right_shift(self):
        base, right, _ = translated_texture()
        field = flow.estimate_flow(Frame(base), Frame(right))
        assert 0.75 <= field.u[INTERIOR].mean() <= 1.25
        assert np.abs(field.v[INTERIOR]).mean() < 0.25

    def test_one_pixel_down_shift(self):
        base, _, down = translated_texture()
        field = flow.estimate_flow(Frame(base), Frame(down))
        assert 0.75 <= field.v[INTERIOR].mean() <= 1.25
        assert np.abs(field.u[INTERIOR]).mean() < 0.25

    def test_dimension_mismatch(self):
        # both sizes are also too small for three levels; the mismatch wins
        a = Frame(np.zeros((16, 16)))
        b = Frame(np.zeros((16, 24)))
        with pytest.raises(errors.DimensionMismatchError):
            flow.estimate_flow(a, b, flow.FlowParams(pyramid_levels=3))

    def test_too_small_for_pyramid(self):
        a = Frame(np.zeros((16, 16)))
        with pytest.raises(errors.TooSmallError):
            flow.estimate_flow(a, a, flow.FlowParams(pyramid_levels=3))
        # shallower pyramid fits
        flow.estimate_flow(a, a, flow.FlowParams(pyramid_levels=2))

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_coarse_size_rule_follows_downsample(self, levels):
        """A side is refused exactly when its real pyramid's coarsest side,
        which ``_downsample`` rounds up, is below ``MIN_COARSE_SIZE``; the
        message names that size."""
        for side in range(8, 71):
            for h, w in [(side, side), (side, 70), (70, side)]:
                coarsest = np.zeros((h, w))
                for _ in range(levels - 1):
                    coarsest = flow._downsample(coarsest)
                ch, cw = coarsest.shape
                pairs = flow._pyramid_pairs(FrameSequence([Frame(np.zeros((h, w)))] * 2),
                                            range(2), levels)
                if min(ch, cw) < flow.MIN_COARSE_SIZE:
                    with pytest.raises(errors.TooSmallError, match=f" leaves {ch}x{cw} at "):
                        next(pairs)
                else:
                    prev, pyr = next(pairs)
                    assert prev[-1].shape == pyr[-1].shape == (ch, cw)

    def test_read_only_frames(self):
        """Nothing is written into the frames: read-only pixels give the
        same bytes as writable copies."""
        base, right, _ = translated_texture()
        want = flow.estimate_flow(Frame(base.copy()), Frame(right.copy()))
        for img in (base, right):
            img.flags.writeable = False
        a, b = Frame(base), Frame(right)
        assert not (a.pixels.flags.writeable or b.pixels.flags.writeable)
        got = flow.estimate_flow(a, b)
        assert (got.u.tobytes(), got.v.tobytes()) == (want.u.tobytes(), want.v.tobytes())

    def test_energy_non_increasing_over_iterations(self):
        # fixed-seed case: smoothed noise shifted by one pixel
        rng = np.random.default_rng(1234)
        base = rng.random((32, 32))
        for _ in range(3):
            base = conv3_oracle(base, flow._BLUR_KERNEL)
        shifted = np.roll(base, 1, axis=1)
        alpha_eff = flow.DEFAULT_ALPHA / 255.0
        energies = []
        for iters in range(1, 31):
            params = flow.FlowParams(iterations=iters, pyramid_levels=1,
                                     convergence_eps=0.0)
            field = flow.estimate_flow(Frame(base), Frame(shifted), params)
            energies.append(hs_energy_oracle(base, shifted, field.u, field.v, alpha_eff))
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-12 * max(1.0, abs(before))


class TestFlowParams:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(errors.InvariantViolationError):
            flow.FlowParams(alpha=alpha)

    def test_alpha_floor_solves_a_flat_pair_cleanly(self):
        """At MIN_ALPHA a flat region's Jacobi step divides by the least
        square with a finite reciprocal: no overflow, no warning."""
        a, b = Frame(np.zeros((32, 32))), Frame(np.ones((32, 32)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = flow.estimate_flow(a, b, flow.FlowParams(alpha=flow.MIN_ALPHA, iterations=20))
        assert flow.motion_score(field) == 0.0

    def test_alpha_just_below_floor_rejected(self):
        below = np.nextafter(flow.MIN_ALPHA, 0)
        with np.errstate(over="ignore"):
            assert np.isinf(1.0 / (below / 255.0) ** 2)  # the flat step it would take
        with pytest.raises(errors.InvariantViolationError, match="alpha"):
            flow.FlowParams(alpha=below)

    @pytest.mark.parametrize("alpha", [1.5e-152, 5e-160, 5e-324])
    def test_alpha_that_overflows_a_flat_step_rejected(self, alpha):
        with pytest.raises(errors.InvariantViolationError, match="alpha"):
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
    """The in-place Jacobi loop over one flat (u, v) run against the
    per-component loop it replaced (``oracles.solve_level_oracle``),
    compared bit for bit. (8, 8) is the smallest coarse level; the flat and
    tall shapes and the odd ones move the seam between u's and v's grids."""

    ALPHA = flow.DEFAULT_ALPHA / 255.0
    SHAPES = [(8, 8), (17, 9), (64, 40), (8, 64), (64, 8), (9, 17)]

    def check(self, shape, iterations, eps, inputs=None):
        a, b, u, v = inputs or level_inputs(*shape, seed=shape[0] * 100 + shape[1])
        got = flow._solve_level(a, b, np.stack((u, v)), self.ALPHA, iterations, eps)
        want = solve_level_oracle(a, b, u, v, self.ALPHA, iterations, eps)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        return want

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

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("stop", [5, 6], ids=["odd", "even"])
    def test_finite_eps_breaks_at_either_parity(self, shape, stop):
        """The next iterate's run doubles as the neighbour average, so the
        buffer returned alternates with the step that breaks. ``eps`` sits
        between the deltas of steps ``stop - 1`` and ``stop``, which fall
        steadily on these inputs, so the first break is at ``stop``."""
        a, b, u, v = inputs = level_inputs(*shape, seed=shape[0] * 100 + shape[1])
        steps = [(u, v)] + [solve_level_oracle(a, b, u, v, self.ALPHA, n, 0.0)
                            for n in range(1, stop + 1)]
        deltas = [max(np.mean(np.abs(new - old)) for new, old in zip(after, before))
                  for before, after in zip(steps, steps[1:])]
        assert deltas[-1] < 0.9 * min(deltas[:-1])
        eps = float(np.sqrt(deltas[-1] * deltas[-2]))
        want = self.check(shape, flow.DEFAULT_ITERATIONS, eps, inputs)
        assert all(w.tobytes() == s.tobytes() for w, s in zip(want, steps[-1]))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_read_only_inputs(self, shape):
        """Nothing is written into a, b or the starting flow: read-only
        inputs give the same bytes as writable copies."""
        a, b, u, v = level_inputs(*shape, seed=shape[0] * 100 + shape[1])
        uv = np.stack((u, v))
        args = (self.ALPHA, flow.DEFAULT_ITERATIONS, flow.DEFAULT_CONVERGENCE_EPS)
        want = flow._solve_level(a.copy(), b.copy(), uv.copy(), *args)
        for arr in (a, b, uv):
            arr.flags.writeable = False
        assert flow._solve_level(a, b, uv, *args).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_constant_regions_and_tiny_flows(self, data):
        """Frames that are flat outside one textured patch, so most
        gradients are zero, and a flow that is zero but for a few tiny
        values: most of the state is zeros, whose sign the sum that starts
        from its first tap must keep as the oracle's does."""
        h, w = data.draw(st.sampled_from(self.SHAPES))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a = np.full((h, w), data.draw(st.sampled_from([0.0, 0.5, 1.0])))
        b = a.copy()
        y0, x0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        y1, x1 = data.draw(st.integers(y0, h)), data.draw(st.integers(x0, w))
        a[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0))
        b[y0:y1, x0:x1] = np.roll(a[y0:y1, x0:x1], 1, axis=1)
        uv = np.zeros((2, h, w))
        for _ in range(data.draw(st.integers(0, 4))):
            exponent = data.draw(st.integers(3, 300))
            uv[data.draw(st.integers(0, 1)), rng.integers(h), rng.integers(w)] = (
                data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -exponent)
        iterations = data.draw(st.integers(1, 8))
        eps = data.draw(st.sampled_from([0.0, flow.DEFAULT_CONVERGENCE_EPS]))
        self.check((h, w), iterations, eps, (a, b, *uv))


class TestDownsampleMatchesReference:
    """Blurring only the kept pixels against blurring every pixel with the
    replicate-border convolution and then decimating, bit for bit."""

    @pytest.mark.parametrize("shape", [(8, 8), (17, 9), (9, 17), (33, 64), (128, 128)])
    def test_equals_blur_then_decimate(self, shape):
        img = np.random.default_rng(shape[0] * 1000 + shape[1]).random(shape)
        got = flow._downsample(img)
        want = conv3_oracle(img, flow._BLUR_KERNEL)[::2, ::2]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestStackedBilinearSample:
    """One sample of the stacked (u, v) planes at broadcast coordinates
    against each plane sampled alone at full coordinate grids, bit for bit."""

    SHAPES = [(8, 8), (9, 17), (17, 9), (32, 48)]

    def check(self, img, xs, ys, grid_x, grid_y):
        got = flow._bilinear_sample(img, xs, ys)
        planes = zip(img.reshape(-1, *img.shape[-2:]), got.reshape(-1, *got.shape[-2:]))
        for plane, g in planes:
            want = bilinear_sample_oracle(plane, grid_x, grid_y)
            assert g.shape == want.shape and g.dtype == want.dtype
            assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_upsampling_coordinates(self, shape):
        ch, cw = shape
        fh, fw = 2 * ch + ch % 2, 2 * cw - cw % 2
        uv = np.random.default_rng(ch * 100 + cw).standard_normal((2, ch, cw))
        xs = np.linspace(0.0, cw - 1.0, fw)
        ys = np.linspace(0.0, ch - 1.0, fh)
        self.check(uv, xs, ys[:, None], *np.meshgrid(xs, ys))

    # (coarse, fine) pyramid level shapes, as _downsample makes them
    LEVELS = [((8, 8), (16, 16)), ((17, 17), (33, 33)), ((33, 33), (65, 65)),
              ((9, 17), (17, 33)), ((17, 9), (33, 17)), ((64, 64), (128, 128))]

    @pytest.mark.parametrize("coarse, fine", LEVELS)
    def test_pyramid_upsampling(self, coarse, fine):
        """The coordinates _solve_pair builds to carry the flow one level up."""
        (ch, cw), (fh, fw) = coarse, fine
        assert flow._downsample(np.zeros(fine)).shape == coarse
        uv = np.random.default_rng(ch * 100 + cw).standard_normal((2, ch, cw))
        xs = np.linspace(0.0, cw - 1.0, fw)
        ys = np.linspace(0.0, ch - 1.0, fh)
        self.check(uv, xs, ys[:, None], *np.meshgrid(xs, ys))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_warp_coordinates(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * 100 + w + 1)
        uv, flow_uv = rng.standard_normal((2, 2, h, w))
        flow_uv *= 2.0
        xs = np.arange(w, dtype=np.float64) + flow_uv[0]
        ys = np.arange(h, dtype=np.float64)[:, None] + flow_uv[1]
        gy, gx = np.indices(shape, dtype=np.float64)
        grid = (gx + flow_uv[0], gy + flow_uv[1])
        self.check(uv, xs, ys, *grid)
        # a single image samples through the same code
        self.check(uv[0], xs, ys, *grid)


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
        seq = FrameSequence(frames=[Frame(img), Frame(img)])
        curve = flow.motion_curve(seq)
        assert np.array_equal(curve.values, np.zeros(2))

    def test_static_static_shifted(self):
        base, right, _ = translated_texture(height=32, width=32)
        seq = FrameSequence(frames=[Frame(base), Frame(base), Frame(right)])
        curve = flow.motion_curve(seq)
        assert curve.values[0] == pytest.approx(0.0, abs=1e-9)
        assert curve.values[1] > 0.0
        assert curve.values[2] == curve.values[1]  # duplicated tail

    def test_length_always_matches_frame_count(self, synthetic_clip):
        curve = flow.motion_curve(synthetic_clip)
        assert len(curve) == len(synthetic_clip)

    def test_too_short(self):
        seq = FrameSequence(frames=[Frame(np.zeros((32, 32)))])
        with pytest.raises(errors.TooShortError):
            flow.motion_curve(seq)

    def test_read_only_frames(self, synthetic_clip):
        """Nothing is written into the frames, in any range: read-only
        pixels score the same bytes as writable copies."""
        frozen = []
        for frame in synthetic_clip:
            pixels = frame.pixels.copy()
            pixels.flags.writeable = False
            frozen.append(Frame(pixels))
        assert not any(f.pixels.flags.writeable for f in frozen)
        got = flow.motion_curve(FrameSequence(frames=frozen))
        assert got.values.tobytes() == flow.motion_curve(synthetic_clip).values.tobytes()

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_each_pyramid_built_once(self, synthetic_clip, monkeypatch, levels):
        """Counted on one range, since a child's calls are not seen here;
        ``TestSolverCount`` counts the builds of every range."""
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 1)
        calls = []
        downsample = flow._downsample

        def counting(img):
            calls.append(img.shape)
            return downsample(img)

        monkeypatch.setattr(flow, "_downsample", counting)
        flow.motion_curve(synthetic_clip, flow.FlowParams(pyramid_levels=levels))
        assert len(calls) == len(synthetic_clip) * (levels - 1)

    def test_at_most_two_pyramids_per_solver_are_live(self, synthetic_clip, monkeypatch):
        """Counted on one range as each pyramid's second level is built. The
        range holds one pair and drops it before it builds the next pyramid;
        one that held its spent pair would make it three."""
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 1)
        built, counts = [], []
        downsample = flow._downsample

        def counting(img):
            out = downsample(img)
            if img.shape == (synthetic_clip.height, synthetic_clip.width):
                built.append(weakref.ref(out))
                counts.append(sum(ref() is not None for ref in built))
            return out

        monkeypatch.setattr(flow, "_downsample", counting)
        flow.motion_curve(synthetic_clip)
        assert len(counts) == len(synthetic_clip)
        assert max(counts) <= 2

    def test_many_pairs_over_many_ranges(self, monkeypatch):
        """199 tiny pairs over four ranges, three of them in forked children:
        a range cut or joined wrong would put a score at the wrong index or
        skip or repeat a pair."""
        rng = np.random.default_rng(200)
        seq = FrameSequence(frames=[Frame(rng.random((16, 16))) for _ in range(200)])
        params = flow.FlowParams(iterations=2, pyramid_levels=2)
        want = [flow.motion_score(flow.estimate_flow(a, b, params))
                for a, b in zip(seq.frames, seq.frames[1:])]
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 4)
        curve = flow.motion_curve(seq, params)
        assert curve.values.tobytes() == np.array(want + want[-1:]).tobytes()
        assert forks == [1, 1, 1]
        assert_no_child_left()

    def test_many_pairs_over_many_ranges_of_a_source(self, tmp_path, monkeypatch):
        """19 pairs of a ``FrameSource`` over four ranges, three of them in
        forked children, each reading its own span of frame indices: the
        frames at the range boundaries are read by both ranges that hold
        them."""
        rng = np.random.default_rng(20)
        for i in range(20):
            write_pgm(Frame(rng.integers(0, 256, (16, 16)) / 255.0), tmp_path / f"{i:02d}.pgm")
        frames = ingest.load_frame_sequence(tmp_path).frames
        params = flow.FlowParams(iterations=2, pyramid_levels=2)
        want = [flow.motion_score(flow.estimate_flow(a, b, params))
                for a, b in zip(frames, frames[1:])]
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 4)
        curve = flow.motion_curve(ingest.FrameSource(tmp_path), params)
        assert curve.values.tobytes() == np.array(want + want[-1:]).tobytes()
        assert forks == [1, 1, 1]
        assert_no_child_left()

    def test_earliest_failure_wins(self, synthetic_clip, monkeypatch, capfd):
        """Pair 12, in the child's range, fails first in time, while pair 2
        is still being solved in the calling process; the error of pair 2 is
        the one raised, and no child outlives it."""
        index = {id(f.pixels): i for i, f in enumerate(synthetic_clip)}
        solve_pair = flow._solve_pair

        def failing(prev, pyr, params):
            i = index[id(prev[0])]
            if i == 2:
                time.sleep(0.2)
            if i in (2, 12):
                raise errors.InvariantViolationError(f"pair {i}")
            return solve_pair(prev, pyr, params)

        monkeypatch.setattr(flow, "_solve_pair", failing)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 2)
        with pytest.raises(errors.InvariantViolationError, match="pair 2"):
            flow.motion_curve(synthetic_clip)
        assert forks == [1]
        assert_no_child_left()
        assert capfd.readouterr().err == ""

    def test_fork_warning_is_silenced(self, synthetic_clip, monkeypatch):
        """Python 3.12+ warns on a fork from a process with OS threads, such
        as the pool NumPy's OpenBLAS starts at import; ``motion_curve``
        silences that one warning. (Python 3.11 has no such warning.)"""
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flow.motion_curve(synthetic_clip)
        assert forks == [1]
        assert [str(w.message) for w in caught] == []

    def test_no_fork_beside_another_thread(self, synthetic_clip, monkeypatch):
        """Forking with a second Python thread alive is unsafe, so then one
        range runs on the calling thread."""
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            curve = flow.motion_curve(synthetic_clip)
        finally:
            release.set()
            other.join()
        assert forks == []
        assert curve.values.tobytes() == flow.motion_curve(synthetic_clip).values.tobytes()

    def test_child_that_ends_without_a_result(self, synthetic_clip, monkeypatch):
        range_scores = flow._range_scores
        parent = os.getpid()

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return range_scores(*args)

        monkeypatch.setattr(flow, "_range_scores", dying)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 2)
        with pytest.raises(errors.KeyschedError, match=r"^flow worker \d+ ended without a result$"):
            flow.motion_curve(synthetic_clip)
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_every_child(self, synthetic_clip, monkeypatch):
        """A KeyboardInterrupt in the calling process, while the children
        still solve: each is killed and reaped before it propagates."""
        solve_pair = flow._solve_pair
        parent = os.getpid()

        def interrupted(prev, pyr, params):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child would hold the test here unless killed
            return solve_pair(prev, pyr, params)

        monkeypatch.setattr(flow, "_solve_pair", interrupted)
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            flow.motion_curve(synthetic_clip)
        assert time.monotonic() - start < 30
        assert_no_child_left()


def count_forks(monkeypatch) -> list:
    """A list that gains one entry in this process per ``os.fork()``."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(1)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(Exception):
    """An error whose state pickle cannot write."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class Unloadable(Exception):
    """An error that pickles but cannot be built again from its args."""

    def __init__(self, message, pair):
        super().__init__(f"{message} {pair}")


def square_pair(prev) -> int:
    """The index of a pair of ``moving_square_frames``, from where its first
    frame's square sits."""
    return (int(np.argmax(prev[0][15])) - 4) // 2


class TestForkedRanges:
    """Failures on the fork path against one range: the same error class,
    message and CLI exit code, no child left and nothing else on stderr.
    The 16-frame clip splits into pairs 0-6 in the calling process and pairs
    7-14 in one child, which share frame 7."""

    def outcomes(self, pgm_dir, tmp_path, monkeypatch, capfd, changed=()):
        """On one range, then on two: the class and message that
        ``motion_curve`` over the directory raises, then the exit code (or
        the class it raises) and stderr of ``keysched score`` on it.
        ``changed`` holds (frame, bytes) written once the source is built."""
        paths = {i: pgm_dir / f"frame_{i:04d}.pgm" for i, _ in changed}
        originals = {i: path.read_bytes() for i, path in paths.items()}
        motion_curve = flow.motion_curve

        def change_then_solve(source, *args, **kwargs):
            for i, payload in changed:
                paths[i].write_bytes(payload)
            try:
                return motion_curve(source, *args, **kwargs)
            finally:
                for i, data in originals.items():
                    paths[i].write_bytes(data)

        monkeypatch.setattr(flow, "motion_curve", change_then_solve)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(flow, "_usable_cpus", lambda: cpus)
            with pytest.raises(BaseException) as info:
                flow.motion_curve(ingest.FrameSource(pgm_dir))
            assert_no_child_left()
            assert capfd.readouterr().err == ""
            out = tmp_path / "scores.csv"
            try:
                code = cli.main(["score", "--frames", str(pgm_dir), "--out", str(out)])
            except BaseException as exc:
                code = type(exc)
            assert_no_child_left()
            assert not out.exists()
            results.append((type(info.value), str(info.value), code, capfd.readouterr().err))
        return results

    @pytest.mark.parametrize("frame", [7, 12], ids=["boundary", "child"])
    @pytest.mark.parametrize("payload, error", [
        (make_pgm_bytes(48, 32, bytes(10)), errors.MalformedPgmError),
        (make_pgm_bytes(24, 32, bytes(24 * 32)), errors.DimensionMismatchError),
    ], ids=["truncated", "resized"])
    def test_frame_changed_after_the_source_is_built(self, frame, payload, error, pgm_dir,
                                                     tmp_path, monkeypatch, capfd):
        one, two = self.outcomes(pgm_dir, tmp_path, monkeypatch, capfd, [(frame, payload)])
        assert one == two
        cls, message, code, err = one
        assert cls is error and code == error.exit_code
        assert err == f"keysched score: {message}\n"
        if error is errors.DimensionMismatchError:
            assert message == f"frame {frame} is 32x24, expected 32x48"

    def test_pairs_fail_in_both_ranges(self, pgm_dir, tmp_path, monkeypatch, capfd):
        """Pair 11 fails in the child while pair 3 is still being solved in
        the calling process; pair 3's error is raised."""
        solve_pair = flow._solve_pair

        def failing(prev, pyr, params):
            i = square_pair(prev)
            if i == 3:
                time.sleep(0.2)
            if i in (3, 11):
                raise errors.InvariantViolationError(f"pair {i}")
            return solve_pair(prev, pyr, params)

        monkeypatch.setattr(flow, "_solve_pair", failing)
        one, two = self.outcomes(pgm_dir, tmp_path, monkeypatch, capfd)
        assert one == two == (errors.InvariantViolationError, "pair 3", 2,
                              "keysched score: pair 3\n")

    @pytest.mark.parametrize("raised", [Unpicklable("pair 11"), Unloadable("pair", 11)],
                             ids=["unpicklable", "unloadable"])
    def test_child_error_that_does_not_pickle(self, raised, pgm_dir, tmp_path, monkeypatch,
                                              capfd):
        """One range raises the error itself; a child sends a KeyschedError
        that names it. Both end a ``keysched`` process with status 1: an
        uncaught exception exits 1, and so does a bare KeyschedError."""
        solve_pair = flow._solve_pair

        def failing(prev, pyr, params):
            if square_pair(prev) == 11:
                raise raised
            return solve_pair(prev, pyr, params)

        monkeypatch.setattr(flow, "_solve_pair", failing)
        one, two = self.outcomes(pgm_dir, tmp_path, monkeypatch, capfd)
        name = type(raised).__qualname__
        message = f"flow worker raised {name}, which does not pickle: pair 11"
        assert one == (type(raised), "pair 11", type(raised), "")
        assert two == (errors.KeyschedError, message, 1, f"keysched score: {message}\n")
        assert errors.KeyschedError.exit_code == 1


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
        frames.append(Frame(img))
        x_off += rng.uniform(-1.5, 1.5)
        y_off += rng.uniform(-1.5, 1.5)
    return FrameSequence(frames=frames)


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
        frames.append(Frame(np.roll(base, (dy, dx), axis=(0, 1))))
        dy += int(rng.integers(-2, 3))
        dx += int(rng.integers(-2, 3))
    return FrameSequence(frames=frames)


def noise_clip(height, width, count, seed):
    """Independent uniform noise frames: no coherent motion at all."""
    rng = np.random.default_rng(seed)
    return FrameSequence(frames=[Frame(rng.random((height, width)))
                                 for _ in range(count)])


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


class TestStreamedFrames:
    """``motion_curve`` over a ``FrameSource`` reads one frame at a time and
    gives the bytes of the in-memory sequence."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CLIPS))
    def test_source_scores_equal_loaded_scores(self, name, tmp_path):
        for i, frame in enumerate(GOLDEN_CLIPS[name]()):
            write_pgm(frame, tmp_path / f"frame_{i:04d}.pgm")
        source = ingest.FrameSource(tmp_path)
        loaded = ingest.load_frame_sequence(tmp_path)
        streamed = flow.motion_curve(source, normalize=False)
        assert streamed.values.tobytes() == flow.motion_curve(
            loaded, normalize=False).values.tobytes()
        for _ in range(2):  # a source can be iterated again
            assert [f.pixels.tobytes() for f in source] == [
                f.pixels.tobytes() for f in loaded]

    def test_range_reads_only_its_frames(self, pgm_dir, monkeypatch):
        source = ingest.FrameSource(pgm_dir)
        read, read_pgm = [], ingest.read_pgm
        monkeypatch.setattr(ingest, "read_pgm", lambda path: read.append(path) or read_pgm(path))
        scores = flow._range_scores(source, range(5, 10), flow.FlowParams(), True)
        assert read == source.paths[5:10]
        monkeypatch.undo()
        monkeypatch.setattr(flow, "_usable_cpus", lambda: 1)
        assert scores == flow.motion_curve(source).values[5:9].tolist()

    # the child's own peak RSS, in bytes, after scoring the directory. On
    # Linux, ru_maxrss also counts the parent's peak, which exec carries
    # over, so VmHWM is read there; ru_maxrss is the fallback elsewhere.
    PEAK_RSS = (
        "import resource, sys\n"
        "from keysched import flow, ingest\n"
        "flow.motion_curve(ingest.FrameSource(sys.argv[1]),\n"
        "                  flow.FlowParams(iterations=1, pyramid_levels=1))\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak = next(int(line.split()[1]) * 1024 for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    peak = peak if sys.platform == 'darwin' else peak * 1024\n"
        "print(peak)\n"
    )

    def test_peak_memory_does_not_grow_with_clip_length(self, tmp_path):
        """Holding every frame would add 0.13 MB per 128x128 frame: 39 MB
        between 100 and 400 frames."""
        src = Path(ingest.__file__).resolve().parents[1]
        raster = np.random.default_rng(0).integers(0, 256, (128, 128), dtype=np.uint8)
        frame = Frame(raster / 255.0)
        env = {**os.environ, "PYTHONPATH": str(src)}
        peaks, written = [], 0
        for count in (100, 400):
            for i in range(written, count):
                write_pgm(frame, tmp_path / f"frame_{i:04d}.pgm")
            written = count
            proc = subprocess.run([sys.executable, "-c", self.PEAK_RSS, str(tmp_path)],
                                  env=env, capture_output=True, text=True, timeout=60,
                                  check=True)
            peaks.append(int(proc.stdout))
        assert abs(peaks[1] - peaks[0]) <= 2 * 2 ** 20, peaks


def test_usable_cpus_without_affinity(monkeypatch):
    """Where the OS has no affinity call, the CPU count (or 1) bounds the ranges."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert flow._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert flow._usable_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
class TestSolverCount:
    """``motion_curve`` on one range (the process pinned to one CPU) and on
    as many as the machine gives it, each in a fresh child interpreter."""

    # scores the directories argv[3:] in a child pinned to one CPU when
    # argv[1] is "pinned". Every _downsample call of every range, and each
    # range's pid and VmHWM in bytes once it is solved, are appended to the
    # file argv[2], which forked children inherit. Prints the raw scores, the
    # CPUs it may use, the threads left alive and whether a child is left.
    CHILD = (
        "import json, os, sys, threading\n"
        "from keysched import flow, ingest\n"
        "if sys.argv[1] == 'pinned':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "log = os.open(sys.argv[2], os.O_WRONLY | os.O_APPEND)\n"
        "downsample, range_scores = flow._downsample, flow._range_scores\n"
        "def counting(img):\n"
        "    os.write(log, b'downsample\\n')\n"
        "    return downsample(img)\n"
        "def measured(*args):\n"
        "    scores = range_scores(*args)\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak = next(int(line.split()[1]) * 1024 for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "    os.write(log, f'range {os.getpid()} {peak}\\n'.encode())\n"
        "    return scores\n"
        "flow._downsample, flow._range_scores = counting, measured\n"
        "scores = [[repr(x) for x in flow.motion_curve(ingest.FrameSource(d),\n"
        "           normalize=False).values.tolist()] for d in sys.argv[3:]]\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    left = True\n"
        "except ChildProcessError:\n"
        "    left = False\n"
        "print(json.dumps({'scores': scores, 'cpus': flow._usable_cpus(),\n"
        "                  'alive': threading.active_count(), 'left': left}))\n"
    )

    def run_child(self, mode, dirs, log):
        """The child's report, with the pyramid levels built and the (pid,
        peak) of each range solved, read from its log."""
        src = Path(ingest.__file__).resolve().parents[1]
        log.write_bytes(b"")
        proc = subprocess.run([sys.executable, "-c", self.CHILD, mode, str(log), *map(str, dirs)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        lines = [line.split() for line in log.read_text().splitlines()]
        report["levels_built"] = sum(line == ["downsample"] for line in lines)
        report["ranges"] = [(int(pid), int(peak)) for kind, *rest in lines if kind == "range"
                            for pid, peak in [rest]]
        return report

    def test_scores_do_not_depend_on_solver_count(self, tmp_path):
        dirs, want, frames = [], [], []
        for name in sorted(GOLDEN_CLIPS):
            d = tmp_path / name
            d.mkdir()
            for i, frame in enumerate(GOLDEN_CLIPS[name]()):
                write_pgm(frame, d / f"frame_{i:04d}.pgm")
            # each pair alone, on the calling thread: the reference bytes
            loaded = ingest.load_frame_sequence(d).frames
            pairwise = [flow.motion_score(flow.estimate_flow(a, b), normalize=False)
                        for a, b in zip(loaded, loaded[1:])]
            dirs.append(d)
            want.append([repr(x) for x in pairwise + pairwise[-1:]])
            frames.append(len(loaded))
        log = tmp_path / "log"
        pinned, free = self.run_child("pinned", dirs, log), self.run_child("free", dirs, log)
        assert pinned["scores"] == free["scores"] == want
        for report in (pinned, free):
            ranges = [min(report["cpus"], n - 1) for n in frames]
            assert len(report["ranges"]) == sum(ranges)
            # each range builds one pyramid of (levels - 1) downsamples per frame it holds
            assert report["levels_built"] == (flow.DEFAULT_PYRAMID_LEVELS - 1) * sum(
                n + k - 1 for n, k in zip(frames, ranges))
            assert report["alive"] == 1 and not report["left"]
        assert pinned["cpus"] == 1 and len({pid for pid, _ in pinned["ranges"]}) == 1
        if free["cpus"] >= 2:
            assert len({pid for pid, _ in free["ranges"]}) > 1  # the children ran

    @pytest.mark.skipif(flow._usable_cpus() < 2, reason="a child forks only with two CPUs")
    def test_each_worker_peaks_near_the_pinned_run(self, tmp_path):
        """At 128x128, no range's process peaks more than 4 MB above one
        process that solves every pair. A child adds one range's pyramids and
        solver buffers to the pages it shares with its parent, and it counts
        a shared library page only once it touches it, so it reads lower
        (about 5 MB on Linux 6.x)."""
        clip = tmp_path / "clip"
        clip.mkdir()
        for i, frame in enumerate(sine_texture_clip(128, 128, 24, seed=24)):
            write_pgm(frame, clip / f"frame_{i:04d}.pgm")
        log = tmp_path / "log"
        (pinned_peak,) = [peak for _, peak in self.run_child("pinned", [clip], log)["ranges"]]
        free = self.run_child("free", [clip], log)
        assert len(free["ranges"]) == min(free["cpus"], 23)
        for _, peak in free["ranges"]:
            assert peak - pinned_peak <= 4 * 2 ** 20, (pinned_peak, free["ranges"])
