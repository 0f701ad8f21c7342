"""Self-test of the benchmark at tiny size; run from the repository root::

    python3 benchmark/selftest.py

It checks that

* every workload, timed and traced, exits 0 and ends with a JSON line that
  names exactly the metrics ``BENCHMARK.json`` lists, with their units, and
  prints the workload's quality figures (``failed_share``, and ``val_auc``
  and ``final_train_loss`` on ``train``);
* ``prep``'s traced run reads 2.0 for ``preprocess.assemble_per_episode``;
* a ``score`` run with a NaN parameter in its model file (which
  ``load_model`` accepts) fails its output checks and exits non-zero;
* the tracer patches by-name imports and lists a vanished target as
  missing instead of crashing;
* without the program's sources the command exits non-zero, printing no
  result.

It exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELFTEST_DIR = ROOT / ".bench_work" / "selftest"

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def check_metric_names(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run_tiny(workload, trace)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} is correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label} reports every {key} metric with its unit"
                   + ("" if got == wanted else f": got {got}"))
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{label} values are finite")
            if trace == 0:
                names = {"failed_share"} | ({"val_auc", "final_train_loss"}
                                            if workload == "train" else set())
                printed = {line.split()[0] for line in lines[:-1] if line.split()}
                expect(names <= printed, f"{label} prints {sorted(names)}")
            if workload == "prep" and trace == 1:
                ratio = result["metrics"]["preprocess.assemble_per_episode"]["value"]
                expect(ratio == 2.0, f"prep assemble_per_episode reads 2.0 (got {ratio})")


def check_nan_model() -> None:
    """A NaN weight makes every risk NaN; the checks must catch it."""
    import run

    run.import_program()
    import workloads

    original = workloads.Score.generate

    def generate_with_nan(self):
        original(self)
        doc = json.loads(self.model_path.read_text())
        doc["params"]["out.w"]["data"][0] = float("nan")
        self.model_path.write_text(json.dumps(doc))

    workloads.Score.generate = generate_with_nan
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "score", "--seed", "3", "--seconds", "1",
                             "--tiny"])
    finally:
        workloads.Score.generate = original
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    expect(code != 0, "score with a NaN model exits non-zero")
    expect(result["correct"] is False and result["failed"] > 0,
           f"score with a NaN model counts failed records ({result['failed']})")
    expect(any("not finite" in line for line in lines),
           "the failure names the non-finite risk")


def check_tracer() -> None:
    import icurisk.cli
    import icurisk.model
    import icurisk.train
    import tracer as tracing

    t = tracing.Tracer()
    gone = ("test.gone", "icurisk.preprocess", "no_such_function", tracing._nothing)
    tracing.TARGETS = tracing.TARGETS + (gone,)
    try:
        t.install()
        expect(icurisk.train.forward_episode is icurisk.model.forward_episode
               and hasattr(icurisk.train.forward_episode, "__wrapped__"),
               "train's by-name forward_episode is traced")
        expect(hasattr(icurisk.cli.load_model, "__wrapped__"),
               "cli's by-name load_model is traced")
        expect(t.missing == ["test.gone"], f"a vanished target is listed as missing ({t.missing})")
    finally:
        t.uninstall()
        tracing.TARGETS = tracing.TARGETS[:-1]
    expect(not hasattr(icurisk.train.forward_episode, "__wrapped__"),
           "uninstall restores the originals")


def check_without_program() -> None:
    bare = SELFTEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("score", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without src/ the command exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_without_program()
    sys.path.insert(0, str(HERE))
    check_nan_model()
    check_tracer()
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
