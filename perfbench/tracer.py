"""Per-layer tracing by wrapping keysched's public functions from outside.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
module attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. A name is wrapped where the caller looks it up: a function
that another module imported by name (``selection.detect_valleys``,
``cli.render_plot``) is wrapped in the importing module, and a function that
its own module calls as a global (``flow.estimate_flow``,
``audiofeat.mel_filterbank``) is wrapped in that module.

A span is ``[name, start, end, parent, op]``. Spans stay in memory until
the run writes them out. The run is single-threaded, so a plain stack gives
each span its parent, and child spans never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from inputs import MEL_FRAMES, stft_frames

# (module, attribute, span name); the span name's prefix is the layer
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_score", "cli.cmd_score"),
    ("cli", "cmd_select", "cli.cmd_select"),
    ("cli", "cmd_spectrogram", "cli.cmd_spectrogram"),
    ("cli", "cmd_eval_ap", "cli.cmd_eval_ap"),
    ("cli", "cmd_plot", "cli.cmd_plot"),
    ("cli", "render_plot", "plot.render_plot"),
    ("ingest", "load_frame_sequence", "ingest.load_frame_sequence"),
    ("ingest", "read_scores_csv", "ingest.read_scores_csv"),
    ("ingest", "read_schedule_json", "ingest.read_schedule_json"),
    ("ingest", "load_wav", "ingest.load_wav"),
    ("flow", "motion_curve", "flow.motion_curve"),
    ("flow", "estimate_flow", "flow.estimate_flow"),
    ("motion", "smooth", "motion.smooth"),
    ("motion", "normalize", "motion.normalize"),
    ("motion", "detect_extrema", "motion.detect_extrema"),
    ("selection", "select_keyframes", "selection.select_keyframes"),
    ("selection", "valley_between", "selection.valley_between"),
    ("selection", "detect_valleys", "selection.detect_valleys"),
    ("selection", "peak_prominences", "selection.peak_prominences"),
    ("audiofeat", "mel_spectrogram", "audiofeat.mel_spectrogram"),
    ("audiofeat", "mel_filterbank", "audiofeat.mel_filterbank"),
    ("audiofeat", "interp_pos_embeddings", "audiofeat.interp_pos_embeddings"),
    ("audiofeat", "segment_features", "audiofeat.segment_features"),
    ("audiofeat", "gather_keyframe_rows", "audiofeat.gather_keyframe_rows"),
    ("schedule", "interpolation_layout", "schedule.interpolation_layout"),
    ("schedule", "frame_index_embedding", "schedule.frame_index_embedding"),
    ("schedule", "freenoise_windows", "schedule.freenoise_windows"),
    ("refops", "fuse_features", "refops.fuse_features"),
    ("refops", "cfg_combine", "refops.cfg_combine"),
    ("evaluate", "read_keypoint_instances", "evaluate.read_keypoint_instances"),
    ("evaluate", "average_precision", "evaluate.average_precision"),
]

LAYERS = ("ingest", "flow", "motion", "selection", "plot", "audiofeat",
          "schedule", "refops", "evaluate", "cli")

FINAL = "final"   # op id of the step that runs once after the timed ops

# Counters whose value is computed from input sizes rather than observed.
COMPUTED = {"audiofeat.stft_frames_computed", "audiofeat.stft_frames_kept",
            "refops.fuse_features.flops", "plot.points"}


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.suffix == ".pgm")
    return path.stat().st_size


def _count_stft(counters, args, result):
    computed = stft_frames(len(args[0]))
    counters["audiofeat.stft_frames_computed"] += computed
    counters["audiofeat.stft_frames_kept"] += min(computed, MEL_FRAMES)


def _count_extrema(counters, args, result):
    counters["motion.peaks"] += len(result.peaks)
    counters["motion.valleys"] += len(result.valleys)


def _count_pairs(counters, args, result):
    counters["flow.pairs"] += len(args[0]) - 1
    counters["flow.pixels_per_pair"] = args[0].height * args[0].width


def _count_fusion_flops(counters, args, result):
    f_in, w_q = args[0], args[1]
    rows, width = f_in.shape
    dq = w_q.shape[1]
    flops = 2 * rows * width * dq
    for keys, values in args[2:5]:
        flops += 2 * rows * dq * len(keys) + 2 * rows * len(keys) * values.shape[1]
    counters["refops.fuse_features.flops"] += flops


def _count_points(counters, args, result):
    counters["plot.points"] += len(args[0].curve)


def _count_bytes_read(counters, args, result):
    counters["ingest.bytes_read"] += _file_bytes(args[0])


COUNT_HOOKS = {
    "ingest.load_frame_sequence": _count_bytes_read,
    "ingest.read_scores_csv": _count_bytes_read,
    "ingest.read_schedule_json": _count_bytes_read,
    "ingest.load_wav": _count_bytes_read,
    "flow.motion_curve": _count_pairs,
    "motion.detect_extrema": _count_extrema,
    "audiofeat.mel_spectrogram": _count_stft,
    "refops.fuse_features": _count_fusion_flops,
    "plot.render_plot": _count_points,
}


class Tracer:
    """Records spans and counters while installed; a no-op once uninstalled."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def _count_written(self, fn):
        @functools.wraps(fn)
        def wrapper(path, text):
            self.counters["cli.bytes_written"] += len(text.encode("utf-8"))
            return fn(path, text)

        return wrapper

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        cli = self.modules["cli"]
        self._saved.append((cli, "_atomic_write_text", cli._atomic_write_text))
        cli._atomic_write_text = self._count_written(cli._atomic_write_text)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def op_span(self, op_id):
        """A root span covering one operation; its self time is harness glue."""
        record = ["op", perf_counter(), 0.0, -1, op_id]
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self.op = None

    def totals(self, final: bool) -> tuple[dict, dict, dict]:
        """Per span name: (self seconds, inclusive seconds, calls), over the
        spans of the final step if ``final`` and of the operations if not."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if (op == FINAL) != final:
                continue
            self_s[name] += end - start - child[i]
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
        os.replace(tmp, path)


# Self times reported per operation; evaluate.* are per eval-ap run instead,
# because eval-ap runs once, after the timed operations.
SELF_TIMES = [
    "flow.estimate_flow", "flow.motion_curve",
    "ingest.load_frame_sequence", "ingest.read_scores_csv",
    "ingest.read_schedule_json", "ingest.load_wav",
    "motion.smooth", "motion.normalize", "motion.detect_extrema",
    "selection.select_keyframes", "selection.detect_valleys", "selection.peak_prominences",
    "plot.render_plot",
    "audiofeat.mel_spectrogram", "audiofeat.mel_filterbank",
    "audiofeat.interp_pos_embeddings", "audiofeat.segment_features",
    "audiofeat.gather_keyframe_rows",
    "schedule.interpolation_layout", "schedule.frame_index_embedding",
    "schedule.freenoise_windows",
    "refops.fuse_features", "refops.cfg_combine",
    "evaluate.read_keypoint_instances", "evaluate.average_precision",
]
CALLS = ["flow.estimate_flow", "selection.valley_between", "selection.detect_valleys",
         "audiofeat.mel_filterbank"]
COUNTERS = {"ingest.bytes_read": "B", "motion.peaks": "count", "motion.valleys": "count",
            "plot.points": "count", "audiofeat.stft_frames_computed": "count",
            "audiofeat.stft_frames_kept": "count", "refops.fuse_features.flops": "flop",
            "cli.bytes_written": "B"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, plain_ops_per_s: float,
                  traced_ops_per_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit); all per traced op
    unless stated. A layer a workload does not reach reports 0."""
    self_s, incl_s, calls = tracer.totals(final=False)
    final_self, _, _ = tracer.totals(final=True)
    c = tracer.counters
    m = {}
    for name in SELF_TIMES:
        total = final_self[name] if name.startswith("evaluate.") else self_s[name] / ops
        m[f"{name}.self_s"] = (total, "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls[name] / ops, "count")
    for name, unit in COUNTERS.items():
        m[name] = (c[name] / ops, unit)
    m["cli.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("cli.")) / ops, "s")
    m["flow.pixel_pairs_per_s"] = (
        _ratio(calls["flow.estimate_flow"] * c["flow.pixels_per_pair"],
               incl_s["flow.estimate_flow"]), "1/s")
    m["flow.estimate_flow.calls_per_pair"] = (
        _ratio(calls["flow.estimate_flow"], c["flow.pairs"]), "ratio")
    m["selection.valley_redetections_per_select"] = (
        _ratio(calls["selection.detect_valleys"], calls["selection.select_keyframes"]), "ratio")
    m["audiofeat.mel_filterbank.calls_per_spectrogram"] = (
        _ratio(calls["audiofeat.mel_filterbank"], calls["audiofeat.mel_spectrogram"]), "ratio")
    m["audiofeat.stft_frames_kept_ratio"] = (
        _ratio(c["audiofeat.stft_frames_kept"], c["audiofeat.stft_frames_computed"]), "ratio")
    m["trace.layer_share"] = (1.0 - _ratio(self_s["op"], incl_s["op"]), "ratio")
    m["trace.overhead_ops_per_s"] = (plain_ops_per_s - traced_ops_per_s, "1/s")
    return m


def layer_table(tracer: Tracer, metrics: dict) -> list[str]:
    """Human-readable per-layer breakdown: self time per op and share of op time."""
    self_s, incl_s, _ = tracer.totals(final=False)
    op_time = incl_s["op"]
    per_layer = defaultdict(float)
    for name, value in self_s.items():
        per_layer[name.split(".")[0]] += value
    lines = ["  layer      self share of op time"]
    for layer in LAYERS + ("op",):
        lines.append(f"  {layer:<10} {_ratio(per_layer[layer], op_time):6.1%}")
    lines.append("  (op = harness glue inside an operation, not the program)")
    for name, (value, unit) in metrics.items():
        label = "  computed from input sizes" if name in COMPUTED else ""
        lines.append(f"  {name:<48} {value:.6g} {unit}{label}")
    return lines
