"""The full command-line workflow on a generated corpus.

preprocess -> train -> predict -> attention, all inside a temp directory,
showing the files each command leaves behind.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from icurisk.cli import main
from icurisk.ingest import TIME_SERIES_PARAMETERS


def make_corpus(root: Path, n: int = 10) -> tuple[Path, Path]:
    rng = np.random.default_rng(0)
    data = root / "records"
    data.mkdir()
    outcome_lines = ["RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death"]
    for i in range(n):
        rid = 150000 + i
        sick = i % 3 == 0
        lines = ["Time,Parameter,Value", f"00:00,RecordID,{rid}",
                 f"00:00,Age,{rng.integers(40, 90)}", "00:00,Weight,80"]
        for m in sorted(rng.integers(0, 2881, size=30)):
            name = TIME_SERIES_PARAMETERS[int(rng.integers(36))]
            value = rng.normal(80, 10) + (40 if sick and name == "HR" else 0)
            lines.append(f"{m // 60:02d}:{m % 60:02d},{name},{value:.1f}")
        (data / f"{rid}.txt").write_text("\n".join(lines) + "\n")
        outcome_lines.append(f"{rid},9,4,11,-1,{1 if sick else 0}")
    outcomes = root / "outcomes.csv"
    outcomes.write_text("\n".join(outcome_lines) + "\n")
    return data, outcomes


def run(*argv):
    print(f"\n$ icurisk {' '.join(map(str, argv))}")
    code = main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    data_dir, outcomes = make_corpus(root)
    store, run_dir = root / "store", root / "run"

    # The store fixes the interval; every train run on it uses 12-hour bins.
    run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
        "--out", store, "--interval-hours", "12")
    print("store contents:", sorted(p.name for p in store.iterdir()))

    run("train", "--store", store, "--out", run_dir,
        "--folds", "2", "--epochs", "3", "--patience", "3",
        "--hidden", "4", "--heads", "2", "--batch", "4", "--seed", "0")
    print("results.csv:")
    print((run_dir / "results.csv").read_text())

    model = sorted((run_dir / "models").glob("*.json"))[0]
    records = sorted(data_dir.glob("*.txt"))[:3]

    run("predict", "--model", model, "--out", root / "risks.csv", *records)
    print((root / "risks.csv").read_text())

    run("attention", "--model", model, "--out", root / "attention.csv",
        *records)
    print("first attention rows:")
    print("\n".join((root / "attention.csv").read_text().splitlines()[:6]))

    manifest = json.loads((run_dir / "manifest.json").read_text())
    print("\ntrain manifest keys:", sorted(manifest))
    print("rerunning any command with these options reproduces its outputs "
          "byte for byte.")
