import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from keysched.ingest import AudioClip, Frame, FrameSequence

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


def write_pgm(frame: Frame, path) -> None:
    """Write a Frame as binary PGM, quantizing pixels back to 8 bits."""
    raster = np.clip(np.rint(frame.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def make_pgm_bytes(width, height, payload, maxval=255, magic=b"P5"):
    header = magic + f"\n{width} {height}\n{maxval}\n".encode()
    return header + payload


def make_wav_bytes(samples, rate=16000, channels=1, bits=16, audio_format=1) -> bytes:
    """A RIFF/WAVE file holding the int16 ``samples``; the fmt fields are as given."""
    body = np.asarray(samples, dtype="<i2").tobytes()
    out = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    out += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                 rate * channels * bits // 8, channels * bits // 8, bits)
    out += b"data" + struct.pack("<I", len(body)) + body
    return out


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as RIFF/WAVE PCM16 mono."""
    pcm = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    Path(path).write_bytes(make_wav_bytes(pcm, clip.sample_rate))


def moving_square_frames(count=16, height=32, width=48):
    """Deterministic synthetic clip: a bright square sliding right."""
    frames = []
    for t in range(count):
        img = np.full((height, width), 0.2)
        x0 = 4 + 2 * t
        img[10:20, x0:x0 + 8] = 0.9
        frames.append(Frame(img))
    return FrameSequence(frames=frames)


@pytest.fixture
def synthetic_clip():
    return moving_square_frames()


@pytest.fixture
def pgm_dir(tmp_path):
    """Write the synthetic clip out as numbered PGM files."""
    d = tmp_path / "frames"
    d.mkdir()
    seq = moving_square_frames()
    for i, frame in enumerate(seq.frames):
        write_pgm(frame, d / f"frame_{i:04d}.pgm")
    return d
