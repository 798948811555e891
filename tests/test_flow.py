import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import moving_square_frames, write_pgm
from keysched import errors, flow, ingest
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

    def check(self, shape, iterations, eps):
        a, b, u, v = level_inputs(*shape, seed=shape[0] * 100 + shape[1])
        got = flow._solve_level(a, b, np.stack((u, v)), self.ALPHA, iterations, eps)
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

    def test_at_most_two_pyramids_per_solver_are_live(self, synthetic_clip, monkeypatch):
        """Counted as each pyramid's second level is built. A solver holds
        one pair and drops it before it builds the next pyramid; one that
        held its spent pair would make it three on one solver."""
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
        solvers = min(2, flow._usable_cpus(), len(synthetic_clip) - 1)
        assert len(counts) == len(synthetic_clip)
        assert max(counts) <= 2 * solvers

    def test_many_pairs_under_fast_thread_switching(self, monkeypatch):
        """Tiny pairs with the interpreter switching threads every
        microsecond: a lost update to the shared pair count would put a
        score at the wrong index or skip or repeat a pair."""
        rng = np.random.default_rng(200)
        seq = FrameSequence(frames=[Frame(rng.random((16, 16))) for _ in range(200)])
        params = flow.FlowParams(iterations=2, pyramid_levels=2)
        want = [flow.motion_score(flow.estimate_flow(a, b, params))
                for a, b in zip(seq.frames, seq.frames[1:])]
        calls = []
        downsample = flow._downsample
        monkeypatch.setattr(flow, "_downsample", lambda img: calls.append(1) or downsample(img))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            curve = flow.motion_curve(seq, params)
        finally:
            sys.setswitchinterval(interval)
        assert curve.values.tobytes() == np.array(want + want[-1:]).tobytes()
        assert len(calls) == len(seq)

    def test_earliest_failure_wins(self, synthetic_clip, monkeypatch, capsys):
        """Pair 4 fails first in time, while pair 2 is still being solved;
        the error of pair 2 is the one raised, and no thread outlives it."""
        index = {id(f.pixels): i for i, f in enumerate(synthetic_clip)}
        solve_pair = flow._solve_pair

        def failing(prev, pyr, params):
            i = index[id(prev[0])]
            if i == 2:
                time.sleep(0.2)
            if i in (2, 4):
                raise errors.InvariantViolationError(f"pair {i}")
            return solve_pair(prev, pyr, params)

        monkeypatch.setattr(flow, "_solve_pair", failing)
        threads = threading.active_count()
        with pytest.raises(errors.InvariantViolationError, match="pair 2"):
            flow.motion_curve(synthetic_clip)
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""


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
    """Where the OS has no affinity call, the CPU count (or 1) bounds the solvers."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert flow._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert flow._usable_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
class TestSolverCount:
    """``motion_curve`` on one solver (the process pinned to one CPU) and on
    as many as the machine gives it, each in a fresh child process."""

    # scores the directories argv[2:] in a child pinned to one CPU when
    # argv[1] is "pinned"; prints the raw scores, how many threads ran
    # _solve_level, the threads left alive and the child's peak RSS in bytes
    CHILD = (
        "import json, os, sys, threading\n"
        "from keysched import flow, ingest\n"
        "if sys.argv[1] == 'pinned':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "idents = set()\n"
        "solve_level = flow._solve_level\n"
        "def recording(*args):\n"
        "    idents.add(threading.get_ident())\n"
        "    return solve_level(*args)\n"
        "flow._solve_level = recording\n"
        "scores = [[repr(x) for x in flow.motion_curve(ingest.FrameSource(d),\n"
        "           normalize=False).values.tolist()] for d in sys.argv[2:]]\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(int(line.split()[1]) * 1024 for line in fh\n"
        "                if line.startswith('VmHWM:'))\n"
        "print(json.dumps({'scores': scores, 'threads': len(idents),\n"
        "                  'alive': threading.active_count(), 'peak': peak}))\n"
    )

    def run_child(self, mode, dirs):
        src = Path(ingest.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", self.CHILD, mode, *map(str, dirs)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    def test_scores_do_not_depend_on_solver_count(self, tmp_path):
        dirs, want = [], []
        for name in sorted(GOLDEN_CLIPS):
            d = tmp_path / name
            d.mkdir()
            for i, frame in enumerate(GOLDEN_CLIPS[name]()):
                write_pgm(frame, d / f"frame_{i:04d}.pgm")
            # each pair alone, on the calling thread: the reference bytes
            frames = ingest.load_frame_sequence(d).frames
            pairwise = [flow.motion_score(flow.estimate_flow(a, b), normalize=False)
                        for a, b in zip(frames, frames[1:])]
            dirs.append(d)
            want.append([repr(x) for x in pairwise + pairwise[-1:]])
        pinned, free = self.run_child("pinned", dirs), self.run_child("free", dirs)
        assert pinned["scores"] == free["scores"] == want
        assert pinned["threads"] == 1
        assert pinned["alive"] == free["alive"] == 1
        if flow._usable_cpus() >= 2:
            assert free["threads"] >= 2  # the helper ran

    @pytest.mark.skipif(flow._usable_cpus() < 2, reason="the helper starts only with two CPUs")
    def test_helper_adds_little_peak_memory(self, tmp_path):
        """The helper's own pyramid and solver buffers, at 128x128: about
        3 MB, whatever the clip length. How much of them the allocator holds
        at the moment the two solvers peak together varies with thread
        timing (3.1 to 4.3 MB over 30 runs on a 2-CPU VM), so the smallest
        of up to three runs is compared."""
        for i, frame in enumerate(sine_texture_clip(128, 128, 24, seed=24)):
            write_pgm(frame, tmp_path / f"frame_{i:04d}.pgm")
        added = []
        for _ in range(3):
            pinned = self.run_child("pinned", [tmp_path])
            free = self.run_child("free", [tmp_path])
            assert free["threads"] == 2
            added.append(free["peak"] - pinned["peak"])
            if added[-1] <= 4 * 2 ** 20:
                break
        assert min(added) <= 4 * 2 ** 20, added
