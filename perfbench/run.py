#!/usr/bin/env python3
"""keysched benchmark: seeded workloads timed end to end and, traced, per layer.

Run from the root of a keysched checkout:

    python3 perfbench/run.py --workload clip_pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                      # every workload

The program is imported from ``src/`` of the checkout and driven in-process
through ``keysched.cli.main(argv)`` and the public library functions. It is a
closed loop: one client, one process, no threads; ``KEYSCHED_THREADS`` is
unset and OpenBLAS is held to one thread. Inputs are generated from
``--seed`` under ``.bench_work/`` and removed at the end.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
first runs half the time untraced, then half with every public function of
each module wrapped (see tracer.py), and reports the per-layer metrics.
Human-readable lines go to stdout first; the last line is one JSON object.
A full record (environment, parameters, every metric) goes to
``.bench_out/``, and the spans of a traced run next to it.

Exit status is 0 when every output check passed, 1 when any failed, and 2
when the checkout holds no keysched sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
SETUP_IMPORTS = 9      # fresh interpreters timed per run for setup_s
P90_MIN_OPS = 100      # p90 is reported only with at least ten samples above it
PROBE_DUTY = 0.1       # share of a timed phase spent probing machine speed
SETUP_PROBE_DUTY = 0.2 # the same while timing imports, which are few and short

# one process, no threads: fixed before NumPy is first imported
_ENV_BEFORE = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "KEYSCHED_THREADS")}
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("KEYSCHED_THREADS", None)
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (only once the thread settings above are in place)
from speed import REFERENCE_S, Probes  # noqa: E402
from tracer import FINAL, Tracer, layer_metrics, layer_table  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402


def load_program():
    """Import keysched from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "keysched" / "cli.py").is_file():
        print(f"perfbench: no keysched sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import keysched
    from keysched import (audiofeat, cli, evaluate, flow, ingest, motion, refops,
                          schedule, selection)
    if Path(keysched.__file__).resolve().parent != (SRC / "keysched").resolve():
        sys.exit(f"perfbench: keysched imported from {keysched.__file__}, not {SRC}")
    return argparse.Namespace(cli=cli, ingest=ingest, flow=flow, motion=motion,
                              selection=selection, audiofeat=audiofeat, schedule=schedule,
                              refops=refops, evaluate=evaluate)


def measure_setup() -> tuple[list[tuple[float, float]], Probes]:
    """(start, seconds) of fresh interpreters importing keysched.cli, after one
    warm-up, with speed probes between the imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import keysched.cli"]
    timed, probes = [], Probes(SETUP_PROBE_DUTY)
    for _ in range(SETUP_IMPORTS + 1):
        probes.maybe()
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        timed.append((start, perf_counter() - start))
    probes.maybe()
    return timed[1:], probes


def environment(args, params) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": {"run": os.environ["OPENBLAS_NUM_THREADS"],
                                 "caller": _ENV_BEFORE["OPENBLAS_NUM_THREADS"]},
        "KEYSCHED_THREADS": {"run": None, "caller": _ENV_BEFORE["KEYSCHED_THREADS"]},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "params": params,
    }


@dataclass
class Phase:
    """The operations of one timed phase, as (start, program seconds, passed),
    and the speed probes taken between them."""

    ops: list[tuple[float, float, bool]]
    probes: Probes

    def latencies(self) -> list[float]:
        return [secs for _, secs, ok in self.ops if ok]

    def ops_per_s(self) -> float:
        return len(self.latencies()) / sum(secs for _, secs, _ in self.ops)


class Runner:
    """Runs operations of one workload and verifies every output."""

    def __init__(self, wl, golden: dict | None):
        self.wl = wl
        self.golden = golden
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def verify(self, key: str, digests: dict) -> None:
        first = self.seen.setdefault(key, digests)
        if first != digests:
            raise OpFailed(f"input {key}: repeated op gave different bytes")
        if self.golden is not None and self.golden.get(key) != digests:
            raise OpFailed(f"input {key}: digests differ from golden.json")

    def attempt(self, key: str, action, check) -> tuple[float, bool]:
        """Run one op, then check it; return its program time and whether it passed."""
        self.attempted += 1
        start = perf_counter()
        elapsed = 0.0
        try:
            action()
            elapsed = perf_counter() - start
            self.verify(key, check())
            return elapsed, True
        except Exception:  # a failing op is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(limit=3)
            return elapsed or perf_counter() - start, False

    def _run(self, i: int, tracer) -> None:
        if tracer is None:
            self.wl.run(i)
        else:
            with tracer.op_span(self.attempted):
                self.wl.run(i)

    def phase(self, seconds: float, tracer=None) -> "Phase":
        """Whole cycles over the inputs for at least ``seconds`` of wall time,
        with speed probes between the operations."""
        done = Phase([], Probes(PROBE_DUTY))
        deadline = perf_counter() + seconds
        while True:
            for i in range(self.wl.n_inputs):
                done.probes.maybe()
                start = perf_counter()
                elapsed, ok = self.attempt(str(i), lambda: self._run(i, tracer),
                                           lambda: self.wl.check(i))
                done.ops.append((start, elapsed, ok))
            if perf_counter() >= deadline:
                done.probes.maybe()
                return done

    def finish(self, tracer=None) -> None:
        """The workload's one closing step, after the timed operations."""
        if tracer is None:
            self.attempt(FINAL, lambda: None, self.wl.finish)
        else:
            with tracer.op_span(FINAL):
                self.attempt(FINAL, lambda: None, self.wl.finish)


def end_to_end(runner, done: Phase, setup, setup_probes) -> tuple[dict, list[str]]:
    """End-to-end metrics, times at reference speed (see speed.py), and their lines."""
    scaled = done.probes.at_reference([(start, secs) for start, secs, _ in done.ops])
    latencies = [ref for ref, (_, _, ok) in zip(scaled, done.ops) if ok]
    n = len(latencies)
    setup_ref = setup_probes.at_reference(setup)
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = done.latencies()
    lines = [f"  machine speed: {1 / done.probes.slowdown():.3f} of reference "
             f"({len(done.probes.times)} probes), {1 / setup_probes.slowdown():.3f} during "
             "setup; times are at reference speed, raw wall times in brackets",
             f"  setup_s        {metrics['setup_s'][0]:.4f} s    "
             f"[{statistics.median(secs for _, secs in setup):.4f}] (median of {len(setup)} imports)",
             f"  ops_per_s      {metrics['ops_per_s'][0]:.4f} 1/s  [{done.ops_per_s():.4f}] "
             f"({n} ops)",
             f"  latency_p50_s  {metrics['latency_p50_s'][0]:.4f} s    "
             f"[{statistics.median(raw):.4f}] (n={n})"]
    if n >= P90_MIN_OPS:
        p90, raw_p90 = (statistics.quantiles(v, n=10)[-1] for v in (latencies, raw))
        lines.append(f"  latency_p90_s  {p90:.4f} s    [{raw_p90:.4f}] (n={n})")
    else:
        lines.append(f"  latency_p90_s  not reported (n={n} < {P90_MIN_OPS})")
    lines.append(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB")
    rate = runner.failed / runner.attempted
    lines.append(f"  error_rate     {rate:.4f}      ({runner.failed}/{runner.attempted} ops failed)")
    return metrics, lines


def run_workload(args) -> int:
    ks = load_program()
    setup, setup_probes = measure_setup() if args.trace == 0 else ([], None)
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        size = "tiny" if args.tiny else "full"
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(size, {})

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = ROOT / ".bench_out"
    done = None
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](ks, work, args.seed, args.tiny)
        env = environment(args, wl.params)
        runner = Runner(wl, golden)
        print(f"keysched benchmark: {args.workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        print("  why: " + wl.why)
        print("  env: " + json.dumps(env, sort_keys=True))
        if args.record_golden:
            runner.phase(0.0)
            runner.finish()
            return record_golden(args, runner)
        runner.attempt("0", lambda: wl.run(0), lambda: wl.check(0))  # warm-up, untimed
        if args.trace == 0:
            done = runner.phase(args.seconds)
            runner.finish()
            metrics, lines = end_to_end(runner, done, setup, setup_probes)
        else:
            done = runner.phase(args.seconds / 2)
            tracer = Tracer(vars(ks))
            tracer.install()
            try:
                traced = runner.phase(args.seconds / 2, tracer)
                runner.finish(tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced.ops), done.ops_per_s(),
                                    traced.ops_per_s())
            lines = layer_table(tracer, metrics)
            tracer.write(out_dir / f"{stem}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"environment": env, "reference_s": REFERENCE_S, "setup_s": setup,
                    "setup_probes": setup_probes and list(zip(setup_probes.ends, setup_probes.times)),
                    "ops": done and done.ops,
                    "probes": done and list(zip(done.probes.ends, done.probes.times)),
                    **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def record_golden(args, runner) -> int:
    """Store the digests of one pass over every input as the golden ones."""
    if runner.failed:
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.setdefault(args.workload, {})["tiny" if args.tiny else "full"] = runner.seen
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(runner.seen)} digest sets in {GOLDEN.name}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            status = status or 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"store output digests of seed {DEFAULT_SEED} in golden.json")
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--record-golden needs --seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
