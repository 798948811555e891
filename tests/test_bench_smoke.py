"""The benchmark runs at tiny sizes and its golden outputs still hold.

``perfbench/run.py`` checks each op against golden digests, drives the CLI
with the flags it names and wraps keysched functions by name, so a moved
output byte, a removed flag or a renamed function fails here. The run works
on a copy of ``src/`` and ``perfbench/`` and leaves the checkout untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("clip_pipeline", "long_schedule", "audio_condition")


def test_tiny_traced_run_is_correct(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
           "--seconds", "0.5", "--tiny", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    # the last stdout line maps each workload to its result, or to null if it crashed
    results = json.loads(proc.stdout.splitlines()[-1])
    for name in WORKLOADS:
        assert results[name] is not None, (name, proc.stderr[-2000:])
        summary = {k: results[name][k] for k in ("correct", "attempted", "failed")}
        assert summary["correct"] is True and summary["failed"] == 0, (name, summary)
    assert proc.returncode == 0, proc.stderr[-2000:]
