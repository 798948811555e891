import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_pgm_bytes, make_wav_bytes, moving_square_frames, write_pgm, write_wav
from keysched import audiofeat, cli, errors, flow, ingest, motion, schedule, selection
from keysched.cli import main
from keysched.motion import MotionCurve


def run(argv):
    return main([str(a) for a in argv])


class TestScoreCommand:
    def test_writes_one_row_per_frame(self, pgm_dir, tmp_path):
        out = tmp_path / "scores.csv"
        assert run(["score", "--frames", pgm_dir, "--fps", "24",
                    "--normalize", "--out", out]) == 0
        curve = ingest.read_scores_csv(out)
        assert len(curve) == 16

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "scores.csv"
        assert run(["score", "--frames", empty, "--out", out]) == 2
        assert not out.exists()
        assert "keysched score" in capsys.readouterr().err

    def test_normalize_divides_by_pixel_count(self, pgm_dir, tmp_path):
        raw_out = tmp_path / "raw.csv"
        norm_out = tmp_path / "norm.csv"
        run(["score", "--frames", pgm_dir, "--out", raw_out])
        run(["score", "--frames", pgm_dir, "--normalize", "--out", norm_out])
        raw = ingest.read_scores_csv(raw_out).values
        norm = ingest.read_scores_csv(norm_out).values
        assert np.allclose(raw, norm * 32 * 48, rtol=1e-6)


def black_pgm(width, height, maxval=255):
    return make_pgm_bytes(width, height, bytes(width * height), maxval)


# frame payloads in filename order, and the error that loading every frame
# and then solving raises; at 3 pyramid levels, 16x16 is too small
SCORE_ERRORS = {
    "empty": ([], errors.EmptyDirectoryError),
    "malformed_in_too_small": ([black_pgm(4, 4), black_pgm(4, 4, maxval=254), black_pgm(4, 4)],
                               errors.MalformedPgmError),
    "mismatch": ([black_pgm(32, 32), black_pgm(16, 16), black_pgm(32, 32)],
                 errors.DimensionMismatchError),
    "mismatch_then_malformed": ([black_pgm(32, 32), black_pgm(16, 16),
                                 make_pgm_bytes(32, 32, bytes(5))],
                                errors.MalformedPgmError),
    "single_frame": ([black_pgm(32, 32)], errors.TooShortError),
    "too_small": ([black_pgm(16, 16)] * 3, errors.TooSmallError),
}


class TestScoreErrorOrder:
    """``score`` streams its frames, yet fails as loading them all first
    would, and before any raster is decoded or any level solved."""

    @pytest.mark.parametrize("name", sorted(SCORE_ERRORS))
    def test_same_error_as_loading_first(self, name, tmp_path, monkeypatch, capsys):
        payloads, expected = SCORE_ERRORS[name]
        frames = tmp_path / "frames"
        frames.mkdir()
        for i, data in enumerate(payloads):
            (frames / f"frame_{i:04d}.pgm").write_bytes(data)
        with pytest.raises(errors.KeyschedError) as loaded_first:
            flow.motion_curve(ingest.load_frame_sequence(frames))
        assert loaded_first.type is expected

        raised, decoded, solved = [], [], []
        score, read_pgm = cli.cmd_score, ingest.read_pgm

        def recording_score(args):
            try:
                return score(args)
            except errors.KeyschedError as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(cli, "cmd_score", recording_score)
        monkeypatch.setattr(ingest, "read_pgm", lambda path: decoded.append(path) or read_pgm(path))
        monkeypatch.setattr(flow, "_solve_level", lambda *args: solved.append(args))
        out = tmp_path / "scores.csv"
        assert run(["score", "--frames", frames, "--out", out]) == expected.exit_code
        assert raised == [expected]
        assert decoded == solved == []
        assert not out.exists()
        assert capsys.readouterr().err.startswith("keysched score: ")

    # frames are read in order whatever the solver count, so the error of
    # frame 3 ends the run before frame 6 is reached
    @pytest.mark.parametrize("resized", [(3,), (3, 6)], ids=["frame3", "frames3and6"])
    def test_frame_resized_while_scoring_exits_2(self, resized, pgm_dir, tmp_path,
                                                 monkeypatch, capsys):
        motion_curve = flow.motion_curve

        def resize_then_solve(source, *args, **kwargs):
            for i in resized:
                (pgm_dir / f"frame_{i:04d}.pgm").write_bytes(black_pgm(24, 32))
            return motion_curve(source, *args, **kwargs)

        monkeypatch.setattr(flow, "motion_curve", resize_then_solve)
        threads = threading.active_count()
        out = tmp_path / "scores.csv"
        assert run(["score", "--frames", pgm_dir, "--out", out]) == 2
        assert threading.active_count() == threads
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("keysched score: frame 3 is 32x24, expected 32x48")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Exception in thread" not in err


class TestSelectCommand:
    def _scores_csv(self, tmp_path, values):
        from keysched.motion import MotionCurve
        path = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.asarray(values, float)), path)
        return path

    def test_flat_scores_give_uniform_schedule(self, tmp_path):
        path = self._scores_csv(tmp_path, np.ones(48))
        out = tmp_path / "schedule.json"
        assert run(["select", "--scores", path, "--k", "12", "--out", out]) == 0
        sched = ingest.read_schedule_json(out)
        assert sched.keyframes == list(range(0, 48, 4))

    def test_k_two(self, tmp_path):
        path = self._scores_csv(tmp_path, np.ones(48))
        out = tmp_path / "schedule.json"
        assert run(["select", "--scores", path, "--k", "2", "--out", out]) == 0
        sched = ingest.read_schedule_json(out)
        assert sched.keyframes[0] == 0 and len(sched.keyframes) == 2

    def test_oversized_k_exits_4(self, tmp_path):
        path = self._scores_csv(tmp_path, np.ones(48))
        out = tmp_path / "schedule.json"
        assert run(["select", "--scores", path, "--k", "60", "--out", out]) == 4
        assert not out.exists()

    def test_seeded_random_mode_is_reproducible(self, tmp_path):
        rng = np.random.default_rng(123)
        path = self._scores_csv(tmp_path, rng.random(64))
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        run(["select", "--scores", path, "--k", "12", "--random", "--seed", "7",
             "--out", out1])
        run(["select", "--scores", path, "--k", "12", "--random", "--seed", "7",
             "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_scores_summing_past_the_float_range(self, tmp_path):
        # every score is finite, but their running sum overflows a float
        path = tmp_path / "scores.csv"
        path.write_text("index,score\n0,1e308\n1,1e308\n2,1e308\n3,0\n4,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["select", "--scores", path, "--k", "2", "--out", tmp_path / "s.json"]) == 0
            assert run(["plot", "--scores", path, "--out", tmp_path / "c.svg"]) == 0


class TestSpectrogramCommand:
    def test_mel_csv_shape(self, tmp_path):
        wav = tmp_path / "tone.wav"
        t = np.arange(32000) / 16000.0
        write_wav(ingest.AudioClip(samples=0.5 * np.sin(2 * np.pi * 440 * t)), wav)
        out = tmp_path / "mel.csv"
        assert run(["spectrogram", "--wav", wav, "--out", out]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 128
        assert all(len(r.split(",")) == 196 for r in rows)

    def test_wrong_rate_exits_5_without_output(self, tmp_path, capsys):
        wav = tmp_path / "cd.wav"
        write_wav(ingest.AudioClip(samples=np.zeros(1000), sample_rate=44100), wav)
        out = tmp_path / "m.csv"
        assert run(["spectrogram", "--wav", wav, "--out", out]) == 5
        assert not out.exists()
        assert "keysched spectrogram: need 16000 Hz audio, got 44100" in capsys.readouterr().err

    def test_sub_window_clip_exits_5_without_output(self, tmp_path):
        wav = tmp_path / "short.wav"
        write_wav(ingest.AudioClip(samples=np.zeros(300)), wav)
        out = tmp_path / "mel.csv"
        assert run(["spectrogram", "--wav", wav, "--out", out]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", [audiofeat.FRAMED_SAMPLES - 1,
                                           audiofeat.FRAMED_SAMPLES + 1, 96_000])
    def test_framed_prefix_read_matches_whole_clip(self, n_samples, tmp_path):
        """The command reads only the framed samples; its CSV is the one the
        whole clip gives."""
        wav = tmp_path / "noise.wav"
        rng = np.random.default_rng(n_samples)
        write_wav(ingest.AudioClip(samples=rng.uniform(-0.5, 0.5, n_samples)), wav)
        out = tmp_path / "mel.csv"
        assert run(["spectrogram", "--wav", wav, "--out", out]) == 0
        whole = audiofeat.mel_spectrogram(ingest.load_wav(wav))
        assert out.read_text() == audiofeat.mel_csv_text(whole)

    # the child's own peak RSS in bytes (VmHWM; ru_maxrss would also count
    # the parent's peak, which exec carries over) after one spectrogram run
    PEAK_RSS = (
        "import sys\n"
        "from keysched import cli\n"
        "assert cli.main(['spectrogram', '--wav', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(int(line.split()[1]) * 1024 for line in fh\n"
        "               if line.startswith('VmHWM:')))\n"
    )

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc VmHWM")
    def test_peak_memory_does_not_grow_with_clip_length(self, tmp_path):
        """Reading the whole clip would hold 2 + 8 bytes per sample: about
        86 MB more at 600 s than at 60 s, for the same 128 x 196 CSV."""
        src = Path(ingest.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        rng = np.random.default_rng(0)
        peaks = []
        for seconds in (60, 600):
            wav = tmp_path / f"{seconds}s.wav"
            wav.write_bytes(make_wav_bytes(rng.integers(-8000, 8000, seconds * 16000)))
            proc = subprocess.run([sys.executable, "-c", self.PEAK_RSS, str(wav),
                                   str(tmp_path / "mel.csv")],
                                  env=env, capture_output=True, text=True, timeout=60,
                                  check=True)
            peaks.append(int(proc.stdout))
        assert abs(peaks[1] - peaks[0]) <= 2 * 2 ** 20, peaks


class TestPatchesCommand:
    def test_prints_46(self, capsys):
        assert run(["patches", "--t-a", "196", "--kernel", "16", "--stride", "4"]) == 0
        assert capsys.readouterr().out.strip() == "46"

    def test_prints_19(self, capsys):
        assert run(["patches", "--t-a", "196", "--kernel", "16", "--stride", "10"]) == 0
        assert capsys.readouterr().out.strip() == "19"

    def test_kernel_too_large_exits_5(self, capsys):
        assert run(["patches", "--t-a", "8", "--kernel", "16", "--stride", "4"]) == 5

    def test_kernel_zero_exits_2(self, capsys):
        assert run(["patches", "--t-a", "196", "--kernel", "0", "--stride", "4"]) == 2
        assert capsys.readouterr().out == ""


class TestWindowsCommand:
    def test_json_to_stdout(self, capsys):
        assert run(["windows", "--frames", "48", "--window", "12", "--stride", "6"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert len(plan["windows"]) == 7
        assert plan["windows"][0] == [0, 12]

    def test_bad_geometry_exits_6(self):
        assert run(["windows", "--frames", "8", "--window", "12", "--stride", "6"]) == 6

    def test_one_window_in_bounded_memory(self, capsys):
        """A one-window plan costs the same whatever the frame count. The
        bounded 10**6 case runs first, so a regression that allocates per
        frame fails there before 10**400 is tried."""
        for n in (10 ** 6, 10 ** 400):
            tracemalloc.start()
            try:
                assert run(["windows", "--frames", n, "--window", n, "--stride", n]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, (n, peak)
            assert json.loads(capsys.readouterr().out)["windows"] == [[0, n]]

    # runs argv[1:] through the CLI in a child that caps its own address
    # space, so a plan that builds every window fails there, not the machine
    CAPPED = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from keysched.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.skipif(sys.platform != "linux", reason="caps RLIMIT_AS as Linux applies it")
    @pytest.mark.parametrize("frames", [10 ** 8, 10 ** 400], ids=["1e8", "1e400"])
    def test_too_many_windows_exits_6(self, frames):
        """The count is checked before any window is built."""
        src = Path(ingest.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", self.CAPPED, "windows", "--frames", str(frames),
             "--window", "12", "--stride", "1"],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 6, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"keysched windows: ({frames}, 12, 1) makes {frames - 11} "
                               f"windows, more than MAX_WINDOWS = {schedule.MAX_WINDOWS}\n")


class TestEvalApCommand:
    def test_prints_fraction(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("gt:5;20 pred:6;40\n")
        assert run(["eval-ap", "--instances", inst, "--t", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0.500000"

    def test_strict_flag(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("gt:10 pred:13\n")
        run(["eval-ap", "--instances", inst, "--t", "3", "--strict"])
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_two_thousand_interleaved_pairs_match_fully(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        gt = ";".join(str(i) for i in range(0, 4000, 2))
        pred = ";".join(str(i) for i in range(1, 4000, 2))
        inst.write_text(f"gt:{gt} pred:{pred}\n")
        assert run(["eval-ap", "--instances", inst, "--t", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_nan_threshold_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("gt:10 pred:13\n")
        assert run(["eval-ap", "--instances", inst, "--t", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "keysched eval-ap:" in captured.err


class TestPlotCommand:
    def test_svg_is_wellformed_with_one_polyline(self, tmp_path):
        from keysched.motion import MotionCurve
        scores = tmp_path / "scores.csv"
        rng = np.random.default_rng(5)
        ingest.write_scores_csv(MotionCurve(rng.random(48)), scores)
        sched_path = tmp_path / "sched.json"
        run(["select", "--scores", scores, "--k", "8", "--out", sched_path])
        svg_path = tmp_path / "curve.svg"
        assert run(["plot", "--scores", scores, "--schedule", sched_path,
                    "--out", svg_path]) == 0
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        assert len(root.findall(f"{ns}polyline")) == 1

    def test_missing_scores_exits_2(self, tmp_path):
        assert run(["plot", "--scores", tmp_path / "nope.csv",
                    "--out", tmp_path / "c.svg"]) == 2

    @pytest.mark.parametrize("payload", [
        '{"total_frames": 1e400, "keyframes": [0]}',
        '{"total_frames": 8, "keyframes": [0, 1e400]}',
        # past the parser's recursion limit and past Python's int-string digit limit
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param('{"total_frames": ' + "9" * 5000 + ', "keyframes": [0]}',
                     id="long-integer"),
        # not an overflow: a float index that would mark a keyframe the file never listed
        pytest.param('{"total_frames": 8.9, "keyframes": [0, 3.7], "peaks": [3.2], '
                     '"valleys": [], "fill": []}', id="float-index"),
    ])
    def test_overflowing_schedule_exits_2(self, payload, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.linspace(0.0, 1.0, 8)), scores)
        sched = tmp_path / "sched.json"
        sched.write_text(payload)
        out = tmp_path / "c.svg"
        assert run(["plot", "--scores", scores, "--schedule", sched, "--out", out]) == 2
        assert not out.exists()
        assert "keysched plot:" in capsys.readouterr().err

    def test_schedule_longer_than_curve_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.linspace(0.0, 1.0, 20)), scores)
        sched = tmp_path / "sched.json"
        sched.write_text('{"total_frames": 200, "keyframes": [0, 150, 199], "fill": [150, 199]}')
        out = tmp_path / "c.svg"
        assert run(["plot", "--scores", scores, "--schedule", sched, "--out", out]) == 2
        assert not out.exists()
        assert "keysched plot:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_zero_canvas_exits_2(self, flag, tmp_path):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.linspace(0.0, 1.0, 8)), scores)
        out = tmp_path / "c.svg"
        # one below plot.MIN_CANVAS, and past plot.MAX_CANVAS, where the size
        # no longer fits a float
        for size in (0, 48, 10 ** 400):
            assert run(["plot", "--scores", scores, flag, size, "--out", out]) == 2
            assert not out.exists()


class TestDeterminism:
    def test_pipeline_outputs_are_byte_identical(self, pgm_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            scores = tmp_path / f"scores_{tag}.csv"
            sched = tmp_path / f"sched_{tag}.json"
            svg = tmp_path / f"curve_{tag}.svg"
            assert run(["score", "--frames", pgm_dir, "--normalize",
                        "--out", scores]) == 0
            assert run(["select", "--scores", scores, "--k", "8",
                        "--out", sched]) == 0
            assert run(["plot", "--scores", scores, "--schedule", sched,
                        "--out", svg]) == 0
            outs.append((scores.read_bytes(), sched.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]


GOLDEN_SCHEDULES = Path(__file__).parent / "golden" / "select_schedules.json"
SELECT_FLAGS = {"k12": ["--k", "12"], "k24": ["--k", "24"],
                "random7": ["--random", "--seed", "7"]}


def burst_scores(total=2400, bursts=8, seed=2400):
    """Seeded scores: low noise plus Gaussian motion bursts at random frames."""
    rng = np.random.default_rng(seed)
    t = np.arange(total)
    centres = np.sort(rng.choice(total, bursts, replace=False))
    noise = 0.05 * rng.random(total)
    return noise + np.exp(-(((t[:, None] - centres) / 20.0) ** 2)).sum(axis=1)


def write_golden_scores(name, pgm_dir, path):
    if name == "clip":
        assert run(["score", "--frames", pgm_dir, "--normalize", "--out", path]) == 0
    else:
        ingest.write_scores_csv(MotionCurve(burst_scores()), path)


class TestGoldenSchedules:
    """``select`` output pinned byte for byte; null marks a rejected k (exit 4)."""

    @pytest.mark.parametrize("scores", ["clip", "bursts2400"])
    @pytest.mark.parametrize("flags", sorted(SELECT_FLAGS))
    def test_select_bytes_match_golden(self, scores, flags, pgm_dir, tmp_path):
        expected = json.loads(GOLDEN_SCHEDULES.read_text())[f"{scores}/{flags}"]
        path = tmp_path / "scores.csv"
        write_golden_scores(scores, pgm_dir, path)
        out = tmp_path / "schedule.json"
        code = run(["select", "--scores", path, *SELECT_FLAGS[flags], "--out", out])
        if expected is None:
            assert code == 4 and not out.exists()
        else:
            assert code == 0
            assert out.read_text() == expected


# The CLI's exit status for every leaf error class, plus OSError.
EXPECTED_EXIT = {
    "EmptyDirectoryError": 2, "MalformedPgmError": 2, "DimensionMismatchError": 2,
    "UnsupportedEncodingError": 2, "UnsupportedChannelsError": 2,
    "ParseError": 2, "InvariantViolationError": 2,
    "OSError": 2,
    "TooSmallError": 3, "TooShortError": 3,
    "InvalidKError": 4, "InconsistentExtremaError": 4, "BadIntervalError": 4,
    "WrongSampleRateError": 5, "ClipTooShortError": 5, "KernelTooLargeError": 5,
    "ShapeMismatchError": 5, "IndexOutOfRangeError": 5,
    "CountMismatchError": 6, "BadGeometryError": 6, "OddDimError": 6,
    "NoValidInstancesError": 7, "NotDivisibleByThreeError": 7,
    "InvalidWindowError": 1, "NotNormalizedError": 1,
}


class TestExitCodes:
    def test_every_leaf_error_is_pinned(self):
        leaves = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.KeyschedError)
            and not obj.__subclasses__()
        }
        assert leaves == set(EXPECTED_EXIT) - {"OSError"}

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
    def test_error_maps_to_code(self, name, monkeypatch, capsys):
        exc_type = OSError if name == "OSError" else getattr(errors, name)

        def failing_command(args):
            raise exc_type("stub failure")

        monkeypatch.setattr(cli, "cmd_patches", failing_command)
        assert run(["patches", "--t-a", "196", "--stride", "4"]) == EXPECTED_EXIT[name]
        assert "keysched patches: stub failure" in capsys.readouterr().err


class TestParserReuse:
    PATCHES = ["patches", "--t-a", "196", "--stride", "4"]

    def test_two_calls_build_the_parser_once(self, capsys):
        cli.build_parser.cache_clear()
        assert run(self.PATCHES) == 0
        assert run(self.PATCHES) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert capsys.readouterr().out == "46\n46\n"

    def test_command_patched_after_first_call_runs(self, monkeypatch, capsys):
        assert run(self.PATCHES) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_patches", lambda args: seen.append(args.t_a) or 5)
        assert run(self.PATCHES) == 5
        assert seen == [196]


class TestUndecodableInput:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"index,score\n0,0.5\xe9\n")
        return path

    @pytest.mark.parametrize("argv", [
        ["select", "--scores", "{bad}", "--out", "{out}"],
        ["plot", "--scores", "{bad}", "--out", "{out}"],
        ["eval-ap", "--instances", "{bad}", "--t", "3"],
    ])
    def test_exits_2_without_output(self, argv, bad_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(bad=bad_file, out=out) for a in argv]
        assert run(argv) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"keysched {argv[0]}:" in captured.err

    def test_plot_with_undecodable_schedule_exits_2(self, bad_file, tmp_path):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.linspace(0.0, 1.0, 8)), scores)
        out = tmp_path / "c.svg"
        assert run(["plot", "--scores", scores, "--schedule", bad_file,
                    "--out", out]) == 2
        assert not out.exists()


class TestOutputFiles:
    def test_outputs_honour_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            out = tmp_path / "plan.json"
            assert run(["windows", "--frames", "48", "--out", out]) == 0
            lib = tmp_path / "scores.csv"
            ingest.write_scores_csv(MotionCurve(np.ones(4)), lib)
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644
        assert lib.stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json", "scores.csv"]

    def test_missing_directory_error_names_the_output_path(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.ones(48)), scores)
        out = tmp_path / "missing_dir" / "o.json"
        assert run(["select", "--scores", scores, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"keysched select: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n")
        assert sorted(tmp_path.iterdir()) == [scores]

    def test_directory_target_error_names_the_output_path(self, tmp_path, capsys):
        out = tmp_path / "plan"
        out.mkdir()
        assert run(["windows", "--frames", "48", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"keysched windows: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out}'\n")
        assert list(tmp_path.iterdir()) == [out] and not any(out.iterdir())

    def test_failed_write_keeps_target_and_removes_temp_file(self, tmp_path):
        out = tmp_path / "out.txt"
        ingest._atomic_write_text(out, "old\n")
        with pytest.raises(UnicodeEncodeError):
            ingest._atomic_write_text(out, "new \ud800\n")
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]


class TestCliMatchesLibrary:
    def test_score_matches_write_scores_csv(self, pgm_dir, tmp_path):
        out = tmp_path / "cli.csv"
        assert run(["score", "--frames", pgm_dir, "--normalize", "--out", out]) == 0
        seq = ingest.load_frame_sequence(pgm_dir)
        lib = tmp_path / "lib.csv"
        ingest.write_scores_csv(flow.motion_curve(seq, flow.FlowParams()), lib)
        assert out.read_bytes() == lib.read_bytes()

    def test_select_matches_write_schedule_json(self, tmp_path):
        scores = tmp_path / "scores.csv"
        ingest.write_scores_csv(MotionCurve(np.random.default_rng(11).random(96)), scores)
        out = tmp_path / "cli.json"
        assert run(["select", "--scores", scores, "--k", "10", "--out", out]) == 0
        curve = motion.normalize(motion.smooth(ingest.read_scores_csv(scores),
                                               motion.DEFAULT_SMOOTH_WINDOW))
        sched = selection.select_keyframes(curve, motion.detect_extrema(curve),
                                           selection.SelectionParams(target_count=10))
        lib = tmp_path / "lib.json"
        ingest.write_schedule_json(sched, lib)
        assert out.read_bytes() == lib.read_bytes()

    def test_spectrogram_matches_mel_formatter(self, tmp_path):
        wav = tmp_path / "noise.wav"
        rng = np.random.default_rng(3)
        write_wav(ingest.AudioClip(samples=rng.uniform(-0.5, 0.5, 20000)), wav)
        out = tmp_path / "mel.csv"
        assert run(["spectrogram", "--wav", wav, "--out", out]) == 0
        spec = audiofeat.mel_spectrogram(ingest.load_wav(wav))
        assert out.read_bytes() == audiofeat.mel_csv_text(spec).encode("ascii")


# the codes of README's exit-code table
README = Path(__file__).resolve().parents[1] / "README.md"
DOCUMENTED_EXITS = {int(c) for c in re.findall(r"^\| (\d+) \|", README.read_text(), re.M)}

INT, REAL, FLAG, OUT = "int", "real", "flag", "out"
# command -> {flag: what its value is}; any other value names an input_files entry
ARGV_TABLE = {
    "score": {"--frames": "frames", "--fps": REAL, "--normalize": FLAG, "--out": OUT},
    "select": {"--scores": "scores", "--k": INT, "--random": FLAG, "--seed": INT, "--out": OUT},
    "spectrogram": {"--wav": "wav", "--out": OUT},
    "patches": {"--t-a": INT, "--kernel": INT, "--stride": INT},
    "windows": {"--frames": INT, "--window": INT, "--stride": INT, "--out": OUT},
    "eval-ap": {"--instances": "instances", "--t": REAL, "--strict": FLAG},
    "plot": {"--scores": "scores", "--schedule": "schedule", "--width": INT, "--height": INT,
             "--out": OUT},
}

# small values reach the success paths; the whole range, the size checks
INTS = st.one_of(st.integers(-2, 64), st.integers(-2, 10 ** 400)).map(str)
VALUES = {INT: INTS, REAL: st.sampled_from(["nan", "inf", "-inf", "1e400", "3"]),
          FLAG: st.booleans(), OUT: st.sampled_from(["file", "missing", "directory"])}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """One tiny valid input of each kind the commands read."""
    root = tmp_path_factory.mktemp("argv")
    frames = root / "frames"
    frames.mkdir()
    for i, frame in enumerate(moving_square_frames(count=3, width=32)):
        write_pgm(frame, frames / f"{i}.pgm")
    curve = MotionCurve(np.random.default_rng(24).random(24))
    ingest.write_scores_csv(curve, root / "scores.csv")
    curve = motion.normalize(motion.smooth(curve, motion.DEFAULT_SMOOTH_WINDOW))
    sched = selection.select_keyframes(curve, motion.detect_extrema(curve),
                                       selection.SelectionParams(target_count=6))
    ingest.write_schedule_json(sched, root / "schedule.json")
    write_wav(ingest.AudioClip(np.random.default_rng(3).uniform(-0.5, 0.5, 32000)),
              root / "clip.wav")
    (root / "instances.txt").write_text("gt:5;20 pred:6;40\ngt:10 pred:13\n")
    return {"root": root, "frames": frames, "scores": root / "scores.csv",
            "schedule": root / "schedule.json", "wav": root / "clip.wav",
            "instances": root / "instances.txt"}


def run_captured(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


class TestArgvTable:
    """Every command under drawn flag values, each passed as ``--flag=value`` so
    that argparse never reads ``-inf`` as an option. ``MAX_WINDOWS`` and
    ``MAX_CANVAS`` bound what any drawn value can make a command build."""

    def test_readme_lists_every_stage_code(self):
        assert DOCUMENTED_EXITS == {0, 1, *(e.exit_code for e in errors.STAGE_ERRORS)}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("command", sorted(ARGV_TABLE))
    def test_documented_exit_and_one_line_error(self, command, input_files, data):
        drawn = {flag: data.draw(VALUES[kind], label=flag) if kind in VALUES
                 else input_files[kind] for flag, kind in ARGV_TABLE[command].items()}
        out_kind = drawn.pop("--out", "file")

        def argv(out):
            args = [command, f"--out={out}"] if "--out" in ARGV_TABLE[command] else [command]
            for flag, value in drawn.items():
                if value is True:
                    args.append(flag)
                elif value is not False:
                    args.append(f"{flag}={value}")
            return args

        def check(code, err):
            assert code in DOCUMENTED_EXITS
            if code == 0:
                assert err == ""
            else:
                assert err.startswith(f"keysched {command}: ") and err.count("\n") == 1
                assert err.endswith("\n") and "Traceback" not in err

        with tempfile.TemporaryDirectory(dir=input_files["root"]) as tmp:
            tmp = Path(tmp)
            (tmp / "directory").mkdir()
            code, err = run_captured(argv(tmp / "o"))
            check(code, err)
            event(f"exit {code}")
            if out_kind == "file":
                return
            out = tmp / "missing" / "o" if out_kind == "missing" else tmp / "directory"
            bad_code, bad_err = run_captured(argv(out))
            check(bad_code, bad_err)
            assert ".tmp" not in bad_err
            if code == 0:  # only the write fails, and its error names the user's path
                assert bad_code == 2 and bad_err.endswith(f": '{out}'\n")
            else:  # the same failure, before any write
                assert (bad_code, bad_err) == (code, err)
            assert not any((tmp / "directory").iterdir())
            assert sorted(p.name for p in tmp.iterdir()) == ["directory", "o"][:1 + (code == 0)]


# each command's smaller input: curve points, keypoint pairs, frames or WAV samples
SCALE_N = {"select": 4000, "plot": 4000, "eval-ap": 4000, "windows": 4000,
           "spectrogram": 64000, "score": 4}


def scaling_argv(command, n, root):
    """Write a seeded input of size ``n`` for ``command`` under ``root``; its argv."""
    rng = np.random.default_rng(n)
    root.mkdir()
    scores, out = root / "scores.csv", f"--out={root / 'out'}"
    if command in ("select", "plot"):
        ingest.write_scores_csv(MotionCurve(rng.random(n)), scores)
        if command == "select":
            return ["select", f"--scores={scores}", out]
        assert main(["select", f"--scores={scores}", f"--out={root / 'sched.json'}"]) == 0
        return ["plot", f"--scores={scores}", f"--schedule={root / 'sched.json'}", out]
    if command == "eval-ap":  # interleaved pairs, all matched at t = 1
        (root / "inst.txt").write_text(f"gt:{';'.join(map(str, range(0, 2 * n, 2)))} "
                                       f"pred:{';'.join(map(str, range(1, 2 * n, 2)))}\n")
        return ["eval-ap", f"--instances={root / 'inst.txt'}", "--t=1"]
    if command == "windows":
        return ["windows", f"--frames={n}", "--window=12", "--stride=6", out]
    if command == "spectrogram":
        write_wav(ingest.AudioClip(rng.uniform(-0.5, 0.5, n)), root / "clip.wav")
        return ["spectrogram", f"--wav={root / 'clip.wav'}", out]
    texture = rng.random((32, 32))
    (root / "frames").mkdir()
    for i in range(n):
        write_pgm(ingest.Frame(np.roll(texture, i, axis=1)), root / "frames" / f"{i:03d}.pgm")
    return ["score", f"--frames={root / 'frames'}", out]


class TestMemoryScaling:
    """Each command's ``tracemalloc`` peak grows at most 6x when its input
    grows 4x: linear growth gives about 4x, and a quadratic buffer 16x.
    ``score`` streams its frames and ``spectrogram`` reads only the samples
    it frames, so their peaks hardly grow at all."""

    @pytest.mark.parametrize("command", sorted(SCALE_N))
    def test_peak_grows_at_most_6x_per_4x_input(self, command, tmp_path):
        argvs = [scaling_argv(command, n, tmp_path / str(n))
                 for n in (SCALE_N[command], 4 * SCALE_N[command])]
        assert main(argvs[0]) == 0  # caches and lazy imports are not the input's
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 6 * peaks[0], peaks
