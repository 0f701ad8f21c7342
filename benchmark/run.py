"""The icurisk benchmark: one workload, timed or traced, checked, reported.

Run from the repository root::

    python3 benchmark/run.py --workload prep --seed 1 --seconds 20 --trace 0

``--workload`` is ``prep``, ``train`` or ``score`` (see ``workloads.py`` for
why each exists).  The program is imported from ``src/`` next to this
directory; without it the command exits non-zero and prints no result.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing.  With ``--trace 1`` it runs the timed phase twice on the same
inputs, once plain and once with every public function wrapped, and
reports per-layer metrics plus the tracing overhead; the spans are written
to ``.bench_work/traces/``.  Human-readable lines come first and the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output check
passed.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One caller, one BLAS thread: the matrices are small, and extra threads
# only add run-to-run noise.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# setup_s is the median over this process and fresh ones: nine set-ups in
# all, or three when one set-up takes a second or more.
SETUP_TRIALS = (9, 3)
TRACE_ROUNDS = 4  # a traced run alternates this many plain and traced rounds

END_TO_END = {  # metric: unit; every workload reports all of them
    "episodes_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY = {  # reported by the workloads they apply to, outside the JSON line
    "failed_share": "ratio",
    "val_auc": "ratio",
    "final_train_loss": "nats",
}
PER_LAYER_EXTRA = {  # per-layer figures that do not come from the spans
    "cli.bytes_written": "B",
    "train.val_auc": "ratio",
    "train.final_train_loss": "nats",
    "trace.untraced_episodes_per_s": "1/s",
    "trace.traced_episodes_per_s": "1/s",
    "trace.overhead_share": "ratio",
    "trace.spans_per_episode": "count",
}

OPERATION = {  # what one latency sample is
    "prep": "one preprocess command",
    "train": "one train_fold call",
    "score": "one record, parse to risk",
}


def import_program() -> float:
    """Import every ``icurisk`` module from ``src/``; returns the seconds taken."""
    if not (SRC / "icurisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no icurisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import icurisk.cli  # noqa: F401  (pulls in ingest, preprocess, model, train)
    import icurisk.autodiff  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(icurisk.cli.__file__).resolve().parent != SRC / "icurisk":
        raise SystemExit(f"error: imported icurisk from {icurisk.cli.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(w, imports_s: float) -> tuple[float, float]:
    """Run the workload's set-up; returns (raw, scaled) seconds with the imports."""
    from speed import REFERENCE_S, kernel_seconds

    before = kernel_seconds()
    t0 = time.perf_counter()
    w.setup()
    raw = imports_s + time.perf_counter() - t0
    return raw, raw * REFERENCE_S / ((before + kernel_seconds()) / 2)


def probe_setup(args) -> int:
    """A fresh process: time the imports and the workload's set-up, print it."""
    imports_s = import_program()
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(args.probe_setup))
    raw, scaled = timed_setup(w, imports_s)
    print(json.dumps({"raw_s": raw, "setup_s": scaled}))
    return 0


def setup_trials(args, workdir: Path, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(raw, scaled) seconds of every set-up: this process's and fresh ones'."""
    trials = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_TRIALS[first[0] >= 1.0] - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        trials.append((probe["raw_s"], probe["setup_s"]))
    return trials


def measure(args, w, imports_s: float, workdir: Path) -> tuple[dict, object]:
    """The untraced run: set-up trials, the timed phase, the end-to-end metrics."""
    import workloads

    trials = setup_trials(args, workdir, timed_setup(w, imports_s))
    timed = w.run(args.seconds)
    if not timed.rates:
        return {}, timed
    metrics = workloads.summarize(timed)
    metrics["setup_s"] = statistics.median(scaled for _, scaled in trials)
    metrics["peak_rss_mb"] = peak_rss_mb()
    n = len(timed.latencies_s)
    repeats = sum(map(len, timed.latencies_s.values()))
    kernel_ms = [1000 * t for t in w.speed.kernel_times]
    raw = workloads.summarize_raw(timed)
    print(f"operation: {OPERATION[args.workload]}; {n} distinct, {repeats} timed; "
          f"latency is over the distinct operations' medians, {workloads.p95_support(n)} "
          f"above the 95th percentile; episodes_per_s is the median of {len(timed.rates)} windows")
    print(f"calibration kernel: median {statistics.median(kernel_ms):.4f} ms, "
          f"range {min(kernel_ms):.4f}-{max(kernel_ms):.4f} ms over {len(kernel_ms)} timings; "
          "times below are scaled to 1 ms")
    print(f"as measured: latency_p50_ms {raw['latency_p50_ms']:.4f}, "
          f"latency_p95_ms {raw['latency_p95_ms']:.4f}, set-ups "
          + ", ".join(f"{r:.4f}" for r, _ in trials) + " s")
    return metrics, timed


def trace(args, w, tracer) -> tuple[dict, object]:
    """The traced run: plain and traced rounds in turn, on the same inputs.

    Alternating the rounds lets both sides see the same drift in machine
    speed, so their difference is the tracing overhead.
    """
    import workloads
    from tracer import LAYER_METRICS, layer_metrics

    tracer.phase = "setup"
    w.setup()
    tracer.uninstall()
    tracer.phase = "timed"
    plain, traced, both = workloads.Timed(), workloads.Timed(), workloads.Timed()
    for _ in range(TRACE_ROUNDS):
        plain.merge(w.run(args.seconds / TRACE_ROUNDS))
        tracer.install()
        traced.merge(w.run(args.seconds / TRACE_ROUNDS, tracer))
        tracer.uninstall()
    both.merge(plain)
    both.merge(traced)
    if not (plain.rates and traced.rates):
        return {}, both
    metrics = layer_metrics(tracer, {"setup": w.setup_episodes, "timed": traced.episodes})
    for name, value in w.quality().items():
        metrics[f"train.{name}"] = value
    metrics.setdefault("train.val_auc", 0.0)
    metrics.setdefault("train.final_train_loss", 0.0)
    metrics["cli.bytes_written"] = getattr(w, "bytes_per_episode", 0.0)
    untraced_eps = workloads.summarize(plain)["episodes_per_s"]
    traced_eps = workloads.summarize(traced)["episodes_per_s"]
    metrics["trace.untraced_episodes_per_s"] = untraced_eps
    metrics["trace.traced_episodes_per_s"] = traced_eps
    metrics["trace.overhead_share"] = 1.0 - traced_eps / untraced_eps
    metrics["trace.spans_per_episode"] = (
        sum(1 for s in tracer.spans if s.phase == "timed") / traced.episodes)
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update(PER_LAYER_EXTRA)
    path = WORK / "traces" / f"{args.workload}-s{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"missing trace targets (their metrics are left out): {', '.join(tracer.missing)}")
    print(f"{'phase:span':44s} {'calls':>7s} {'total ms':>11s} {'self ms':>11s}")
    for key, row in sorted(tracer.summary().items()):
        print(f"{key:44s} {row['calls']:7d} {1000 * row['total_s']:11.2f} "
              f"{1000 * row['self_s']:11.2f}")
    return {name: (value, units[name]) for name, value in metrics.items()}, both


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("prep", "train", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)

    imports_s = import_program()
    import workloads
    from tracer import Tracer

    env = environment()
    print(f"icurisk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}" + (" tiny" if args.tiny else ""))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.trace:
            tracer = Tracer()
            tracer.phase = "inputs"
            tracer.install()
            w.generate()
            metrics, timed = trace(args, w, tracer)
        else:
            w.generate()
            values, timed = measure(args, w, imports_s, workdir)
            metrics = {name: (v, END_TO_END[name]) for name, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = max(timed.attempted, 1), timed.failed
    correct = failed == 0 and timed.attempted > 0 and bool(metrics)
    if not args.trace:
        quality = {"failed_share": failed / attempted, **w.quality()}
        for name, value in quality.items():
            metrics[name] = (value, QUALITY[name])
    for message in timed.messages:
        print(f"check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed")
    wanted = END_TO_END if not args.trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
