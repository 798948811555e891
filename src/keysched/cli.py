"""Command-line front end wiring the pipeline end to end.

Every command is deterministic for a given flag set. Output files get their
text from the one formatter each artifact has and are written through
``ingest._atomic_write_text`` (temp file plus rename), so failures never leave
partial output. A failure exits with the ``exit_code`` of its error's stage
class in ``keysched.errors``; an OSError exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import audiofeat, evaluate, flow, ingest, motion, schedule, selection
from .errors import STAGE_ERRORS, IngestError, KeyschedError
from .ingest import _atomic_write_text
from .plot import PlotSpec, render_plot


def _prepare_curve(scores_path: str):
    """The smoothed, normalized curve of a scores CSV, and its extrema."""
    raw = ingest.read_scores_csv(scores_path)
    curve = motion.normalize(motion.smooth(raw, motion.DEFAULT_SMOOTH_WINDOW))
    return curve, motion.detect_extrema(curve)


def cmd_score(args) -> int:
    # frames are read as the solver reaches them, one at a time
    curve = flow.motion_curve(ingest.FrameSource(args.frames), flow.FlowParams(),
                              normalize=args.normalize)
    _atomic_write_text(args.out, ingest.scores_csv_text(curve))
    return 0


def cmd_select(args) -> int:
    curve, extrema = _prepare_curve(args.scores)
    params = selection.SelectionParams(
        target_count=args.k,
        mode=selection.MODE_SEEDED_RANDOM if args.random else selection.MODE_BY_PROMINENCE,
        seed=args.seed,
    )
    sched = selection.select_keyframes(curve, extrema, params)
    _atomic_write_text(args.out, ingest.json_text(ingest.schedule_to_dict(sched)))
    return 0


def cmd_spectrogram(args) -> int:
    # later samples never reach the mel, so they are not read
    clip = ingest.load_wav(args.wav, max_samples=audiofeat.FRAMED_SAMPLES)
    spec = audiofeat.mel_spectrogram(clip)
    _atomic_write_text(args.out, audiofeat.mel_csv_text(spec))
    return 0


def cmd_patches(args) -> int:
    print(audiofeat.patch_token_count(args.t_a, args.kernel, args.stride))
    return 0


def cmd_windows(args) -> int:
    plan = schedule.freenoise_windows(args.frames, args.window, args.stride)
    text = ingest.json_text(plan.to_dict())
    if args.out:
        _atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval_ap(args) -> int:
    instances = evaluate.read_keypoint_instances(args.instances)
    ap = evaluate.average_precision(instances, args.t, strict=args.strict)
    print(f"{ap:.6f}")
    return 0


def cmd_plot(args) -> int:
    curve, extrema = _prepare_curve(args.scores)
    sched = ingest.read_schedule_json(args.schedule) if args.schedule else None
    spec = PlotSpec(width=args.width, height=args.height, curve=curve,
                    extrema=extrema, schedule=sched)
    _atomic_write_text(args.out, render_plot(spec))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    codes = "; ".join(f"{e.exit_code}: {e.summary}" for e in (KeyschedError, *STAGE_ERRORS))
    parser = argparse.ArgumentParser(
        prog="keysched",
        description="Motion scoring, keyframe selection, and schedule tooling "
                    "for audio-driven video generation pipelines.",
        epilog=f"Exit codes - 0: success; {codes}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="compute per-frame motion scores from PGM frames")
    p.add_argument("--frames", required=True, help="directory of P5 PGM frames")
    p.add_argument("--fps", type=float, default=24.0, help="accepted but not read")
    p.add_argument("--normalize", action="store_true",
                   help="divide each score by the pixel count")
    p.add_argument("--out", required=True, help="output scores CSV")

    p = sub.add_parser("select", help="select keyframes from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--k", type=int, default=12, help="target keyframe count")
    p.add_argument("--random", action="store_true",
                   help="pick peaks with the seeded sampler instead of by prominence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output schedule JSON")

    p = sub.add_parser("spectrogram", help="log-mel spectrogram CSV from a 16 kHz WAV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("patches", help="print the temporal patch-token count")
    p.add_argument("--t-a", dest="t_a", type=int, required=True,
                   help="spectrogram frame count")
    p.add_argument("--kernel", type=int, default=audiofeat.PATCH_KERNEL)
    p.add_argument("--stride", type=int, required=True)

    p = sub.add_parser("windows", help="emit a FreeNoise window plan as JSON")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--window", type=int, default=schedule.FREENOISE_WINDOW)
    p.add_argument("--stride", type=int, default=schedule.FREENOISE_STRIDE)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("eval-ap", help="average precision of keypoint instances")
    p.add_argument("--instances", required=True,
                   help="file of 'gt:i1;i2 pred:j1;j2' lines")
    p.add_argument("--t", type=float, required=True, help="distance threshold")
    p.add_argument("--strict", action="store_true",
                   help="require distance strictly below the threshold")

    p = sub.add_parser("plot", help="render a scores CSV as an SVG chart")
    p.add_argument("--scores", required=True)
    p.add_argument("--schedule", help="optional schedule JSON to mark keyframes")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=300)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on every call, so a command rebound after the parser
    # was built is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (KeyschedError, OSError) as exc:
        print(f"keysched {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, KeyschedError) else IngestError.exit_code


if __name__ == "__main__":
    sys.exit(main())
