#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; run from the checkout root:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that the traced runs give every layer at least one span and nonzero self
time on the workload that exercises it, that a corrupted golden digest makes
a run fail, and that a checkout without keysched sources fails without
printing a result. Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

# the workload on which each layer must show nonzero self time
HOME = {"flow": "clip_pipeline", "motion": "long_schedule", "selection": "long_schedule",
        "plot": "long_schedule", "evaluate": "long_schedule", "ingest": "audio_condition",
        "audiofeat": "audio_condition", "schedule": "audio_condition",
        "refops": "audio_condition", "cli": "audio_condition"}


def run(script: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_runs(spec: dict) -> list[str]:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems, span_layers = [], set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            code, lines = run(HERE / "run.py", workload, trace)
            if code != 0 or not lines:
                problems.append(f"{where}: exit status {code}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            printed = {tuple(ln.split()[:3:2]) for ln in lines[:-1] if len(ln.split()) >= 3}
            problems += [f"{where}: {name} not printed with unit {unit}"
                         for name, unit in wanted[trace].items() if (name, unit) not in printed]
            if not result["correct"]:
                problems.append(f"{where}: output checks failed")
            if trace == 1:
                spans = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace1-spans.json")
                                   .read_text())["spans"]
                span_layers |= {s[0].split(".")[0] for s in spans}
                for layer in (k for k, v in HOME.items() if v == workload):
                    if not any(v["value"] > 0 for k, v in result["metrics"].items()
                               if k.startswith(layer + ".") and k.endswith("self_s")):
                        problems.append(f"{where}: no nonzero self time in layer {layer}")
    problems += [f"layer {layer} has no span" for layer in LAYERS if layer not in span_layers]
    return problems


def check_failures() -> list[str]:
    """A copy of the benchmark must fail without sources and on a bad digest."""
    problems = []
    tmp_root = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(tmp_root, ignore_errors=True)
    try:
        copy = tmp_root / "perfbench"
        shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(copy / "run.py", "audio_condition", 0)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append("a checkout without src/ did not fail without a result")
        (tmp_root / "src").symlink_to(ROOT / "src", target_is_directory=True)
        golden = json.loads((copy / "golden.json").read_text())
        golden["audio_condition"]["tiny"]["0"]["mel.csv"] = "0" * 64
        (copy / "golden.json").write_text(json.dumps(golden))
        code, lines = run(copy / "run.py", "audio_condition", 0)
        if code == 0 or json.loads(lines[-1])["correct"]:
            problems.append("a corrupted golden digest did not fail the run")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_failures()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
