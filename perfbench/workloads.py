"""The three benchmark workloads and the checks on their outputs.

Each workload makes a different layer do most of the work, so an
optimisation has one workload that exercises it and one that bypasses it:

- clip_pipeline: the per-clip README pipeline; ``flow`` dominates.
- long_schedule: a 24 000-frame curve with no flow; ``motion`` and
  ``selection`` dominate.
- audio_condition: spectrogram CSV plus the in-process conditioning path;
  ``audiofeat``, ``schedule``, ``refops`` and the CLI's text output dominate.

An operation is ``run(i)`` on input ``i``; it calls the program only, and
the harness times it. ``check(i)`` then verifies invariants and returns the
artifact digests, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import inputs


class OpFailed(Exception):
    """The program exited non-zero or an output check failed."""


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(ks, *argv) -> str:
    """Run one keysched command in-process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ks.cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"keysched {argv[0]} exited with {code}")
    return out.getvalue()


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailed(message)


def check_scores(path: Path, frames: int) -> bytes:
    data = path.read_bytes()
    rows = data.decode("ascii").splitlines()
    _expect(rows[0] == "index,score", f"{path.name}: bad header")
    _expect(len(rows) == frames + 1, f"{path.name}: {len(rows) - 1} rows for {frames} frames")
    _expect(all(r.split(",")[0] == str(i) for i, r in enumerate(rows[1:])),
            f"{path.name}: row indices out of order")
    return data


def check_schedule(path: Path, frames: int, k: int) -> bytes:
    data = path.read_bytes()
    sched = json.loads(data)
    keys = sched["keyframes"]
    _expect(sched["total_frames"] == frames, f"{path.name}: total_frames {sched['total_frames']}")
    _expect(len(keys) == k and keys[0] == 0, f"{path.name}: {len(keys)} keyframes from {keys[:1]}")
    _expect(keys == sorted(set(keys)) and keys[-1] < frames, f"{path.name}: bad keyframe order")
    return data


def check_mel(path: Path) -> bytes:
    data = path.read_bytes()
    rows = data.decode("ascii").splitlines()
    _expect(len(rows) == 128, f"{path.name}: {len(rows)} mel rows")
    values = np.array(",".join(rows).split(","), dtype=np.float64)
    _expect(values.size == 128 * inputs.MEL_FRAMES, f"{path.name}: {values.size} mel values")
    _expect(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite mel value")
    return data


def check_svg(path: Path) -> bytes:
    data = path.read_bytes()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise OpFailed(f"{path.name}: {exc}") from exc
    _expect(root.tag.endswith("svg"), f"{path.name}: root is {root.tag}")
    return data


class ClipPipeline:
    name = "clip_pipeline"
    why = ("the everyday per-clip README pipeline (score, select, spectrogram, plot); "
           "flow.estimate_flow does ~98% of the work")

    def __init__(self, ks, work: Path, seed: int, tiny: bool):
        self.ks = ks
        self.params = {"clips": 1, "frames": 8 if tiny else 48, "size": 32 if tiny else 128,
                       "k": 4 if tiny else 12, "wav_samples": inputs.EXACT_SAMPLES,
                       "fps": 24}
        self.dirs = []
        for i in range(self.params["clips"]):
            d = work / f"clip{i}"
            rng = _rng(seed, i)
            inputs.write_clip(d / "frames", inputs.clip_frames(rng, self.params["frames"],
                                                              self.params["size"]))
            inputs.write_wav(d / "audio.wav", inputs.audio_clip(rng, self.params["wav_samples"]))
            self.dirs.append(d)

    @property
    def n_inputs(self) -> int:
        return len(self.dirs)

    def run(self, i: int) -> None:
        d, ks = self.dirs[i], self.ks
        _cli(ks, "score", "--frames", d / "frames", "--fps", self.params["fps"],
             "--normalize", "--out", d / "scores.csv")
        _cli(ks, "select", "--scores", d / "scores.csv", "--k", self.params["k"],
             "--out", d / "schedule.json")
        _cli(ks, "spectrogram", "--wav", d / "audio.wav", "--out", d / "mel.csv")
        _cli(ks, "plot", "--scores", d / "scores.csv", "--schedule", d / "schedule.json",
             "--out", d / "curve.svg")

    def check(self, i: int) -> dict:
        d, p = self.dirs[i], self.params
        return {
            "scores.csv": _digest(check_scores(d / "scores.csv", p["frames"])),
            "schedule.json": _digest(check_schedule(d / "schedule.json", p["frames"], p["k"])),
            "mel.csv": _digest(check_mel(d / "mel.csv")),
            "curve.svg": _digest(check_svg(d / "curve.svg")),
        }

    def finish(self) -> dict:
        return {}


class LongSchedule:
    name = "long_schedule"
    why = ("a 24 000-frame (16.7 min at 24 fps) scores CSV through select and plot; "
           "motion and selection do the work and flow is absent")

    def __init__(self, ks, work: Path, seed: int, tiny: bool):
        self.ks = ks
        self.work = work
        self.params = {"curves": 2, "frames": 600 if tiny else 24000, "major_bursts": 11,
                       "minor_bursts": 66, "k": 24, "eval_t": 3}
        self.dirs, self.centres = [], []
        for i in range(self.params["curves"]):
            d = work / f"curve{i}"
            d.mkdir(parents=True, exist_ok=True)
            curve = inputs.long_curve(_rng(seed, i), self.params["frames"],
                                      self.params["major_bursts"], self.params["minor_bursts"])
            inputs.write_scores(d / "scores.csv", curve.values)
            self.dirs.append(d)
            self.centres.append(curve.centres)

    @property
    def n_inputs(self) -> int:
        return len(self.dirs)

    def run(self, i: int) -> None:
        d, ks = self.dirs[i], self.ks
        _cli(ks, "select", "--scores", d / "scores.csv", "--k", self.params["k"],
             "--out", d / "schedule.json")
        _cli(ks, "plot", "--scores", d / "scores.csv", "--schedule", d / "schedule.json",
             "--out", d / "curve.svg")

    def check(self, i: int) -> dict:
        d, p = self.dirs[i], self.params
        return {
            "schedule.json": _digest(check_schedule(d / "schedule.json", p["frames"], p["k"])),
            "curve.svg": _digest(check_svg(d / "curve.svg")),
        }

    def finish(self) -> dict:
        """Score every schedule against its planted major bursts with eval-ap."""
        lines = []
        for d, centres in zip(self.dirs, self.centres):
            keys = json.loads((d / "schedule.json").read_text())["keyframes"]
            lines.append(f"gt:{';'.join(map(str, centres))} pred:{';'.join(map(str, keys))}\n")
        path = self.work / "instances.txt"
        path.write_text("".join(lines), encoding="ascii")
        printed = _cli(self.ks, "eval-ap", "--instances", path, "--t", self.params["eval_t"])
        ap = float(printed)
        _expect(0.0 <= ap <= 1.0, f"eval-ap printed {ap}, outside [0, 1]")
        return {"eval-ap": _digest(printed.encode("ascii"))}


# 1.0 s clips are zero-padded, exact ones give 196 STFT frames, 60 s ones
# are cropped; the cycle keeps them in a fixed 3:4:1 ratio.
AUDIO_CYCLE = ("short", "exact", "short", "exact", "short", "exact", "exact", "long")

# conditioning geometry: 19 position rows resampled to 46 audio tokens of
# width 768, 48 video steps with 12 keyframes, a 320-wide latent, 64-wide
# queries, and 77 text tokens
GEOMETRY = {"pos_rows": 19, "tokens": 46, "width": 768, "steps": 48, "keys": 12,
            "latent": 320, "query": 64, "text_rows": 77}


class AudioCondition:
    name = "audio_condition"
    why = ("WAVs of 1.0 s, 1.975 s and 60 s (3:4:1) through spectrogram plus the "
           "conditioning path; audiofeat, schedule, refops and CLI text output do the work")

    def __init__(self, ks, work: Path, seed: int, tiny: bool):
        self.ks = ks
        lengths = {"short": inputs.SAMPLE_RATE, "exact": inputs.EXACT_SAMPLES,
                   "long": (6 if tiny else 60) * inputs.SAMPLE_RATE}
        self.params = {"cycle": list(AUDIO_CYCLE), "samples": lengths, **GEOMETRY}
        self.wavs = []
        for i, kind in enumerate(AUDIO_CYCLE):
            path = work / f"audio{i}.wav"
            path.parent.mkdir(parents=True, exist_ok=True)
            inputs.write_wav(path, inputs.audio_clip(_rng(seed, i), lengths[kind]))
            self.wavs.append(path)
        self.cond = inputs.conditioning(_rng(seed, len(AUDIO_CYCLE)), **GEOMETRY)
        self.schedule = ks.selection.KeyframeSchedule(
            total_frames=GEOMETRY["steps"], keyframes=self.cond.keyframes,
            fill=self.cond.keyframes[1:])
        self.outputs: dict[int, tuple] = {}

    @property
    def n_inputs(self) -> int:
        return len(self.wavs)

    def run(self, i: int) -> None:
        ks, c, g = self.ks, self.cond, GEOMETRY
        _cli(ks, "spectrogram", "--wav", self.wavs[i], "--out", self.wavs[i].with_suffix(".csv"))
        af, sch, ref = ks.audiofeat, ks.schedule, ks.refops
        q, lat = g["query"], g["latent"]
        tokens = c.tokens + af.interp_pos_embeddings(c.pos, g["tokens"])
        perstep = af.segment_features(tokens, g["steps"])
        rows = af.gather_keyframe_rows(perstep, self.schedule)
        layout = sch.interpolation_layout(rows, self.schedule)
        frame_emb = sch.frame_index_embedding(range(g["steps"]), lat)
        plan = sch.freenoise_windows(g["steps"])
        f_in = c.f_base + frame_emb
        fused = ref.fuse_features(f_in, c.w_q, (c.text_k, c.text_v),
                                  (tokens[:, :q], tokens[:, :lat]),
                                  (rows[:, :q], rows[:, q:q + lat]))
        guided = ref.cfg_combine(f_in, fused, fused + frame_emb, fused + layout.features[:, :lat])
        self.outputs[i] = (guided, layout.mask, plan)

    def check(self, i: int) -> dict:
        guided, mask, plan = self.outputs.pop(i)
        steps, keys = GEOMETRY["steps"], GEOMETRY["keys"]
        _expect(guided.shape == (steps, GEOMETRY["latent"]) and bool(np.all(np.isfinite(guided))),
                "guidance output is not a finite steps x latent matrix")
        _expect(int(mask.sum()) == keys, f"layout conditions {int(mask.sum())} slots, not {keys}")
        _expect(plan.windows[-1][1] == steps, f"window plan does not reach frame {steps}")
        # rounded so last-ulp differences between BLAS kernels cannot flip the digest
        cond = np.round(guided, 9).tobytes() + mask.tobytes() + json.dumps(plan.to_dict()).encode()
        return {"mel.csv": _digest(check_mel(self.wavs[i].with_suffix(".csv"))),
                "conditioning": _digest(cond)}

    def finish(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ClipPipeline, LongSchedule, AudioCondition)}
