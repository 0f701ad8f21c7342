"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criterion 9 needs the public PhysioNet 2012 corpus (4000
record files plus outcomes); point ICURISK_DATA at a directory containing
``set-a/`` and ``Outcomes-a.txt`` to enable it, otherwise it reports as
skipped and the remaining criteria constitute acceptance.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from icurisk.cli import main as cli_main
from icurisk.ingest import join_labels, parse_outcomes, parse_record
from icurisk.model import ModelConfig, grad_check
from icurisk.preprocess import build_features, fit_pipeline
from icurisk.train import TrainConfig, apply_variant, auc, cross_validate, train_fold

from conftest import separable_features, synth_record_text, write_corpus
from test_model import (
    attention_weights,
    candidate_memory,
    cell,
    lstm_cell_oracle,
    lstm_states,
    make_head,
    mean_pool,
    pool,
    random_direction,
    reading,
    run_lstm_oracle,
    set_gate_biases,
    zero_head,
)
from test_train import brute_force_auc


@contextmanager
def report(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _find_dataset():
    """Locate the PhysioNet 2012 corpus, if present."""
    candidates = []
    if os.environ.get("ICURISK_DATA"):
        candidates.append(Path(os.environ["ICURISK_DATA"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        records = root / "set-a"
        if not records.is_dir():
            records = root
        outcomes = None
        for name in ("Outcomes-a.txt", "outcomes-a.txt", "Outcomes-a.csv"):
            if (root / name).is_file():
                outcomes = root / name
        if outcomes and list(records.glob("*.txt")):
            return records, outcomes
    return None


def test_criterion_1_gradient_correctness():
    """Tiny BiLSTM+attention: analytic vs central differences below 1e-4."""
    with report(1, "gradient correctness"):
        cfg = ModelConfig(input_dim=5, hidden=3, heads=2, bidirectional=True,
                          pooling="attention", dropout_in=0.0, dropout_out=0.0)
        error = grad_check(cfg, seed=0)  # 4 intervals, step 1e-5
        assert error < 1e-4, f"max relative error {error}"


def test_criterion_2_forward_oracle_equivalence():
    """Cell and sequence runner match a per-scalar reimplementation to 1e-10."""
    with report(2, "forward oracle equivalence"):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_direction(rng, 2, 3)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=2)
            c_prev = rng.normal(size=2)
            h, c = cell(x, h_prev, c_prev, d)
            h_ref, c_ref = lstm_cell_oracle(list(x), list(h_prev), list(c_prev), d)
            assert np.abs(h - h_ref).max() < 1e-10
            assert np.abs(c - c_ref).max() < 1e-10

            X = rng.normal(size=(4, 3))
            for reverse in (False, True):
                states = lstm_states(X, d, reverse=reverse)
                for s, ref in zip(states, run_lstm_oracle(X, d, reverse=reverse)):
                    assert np.abs(s - ref).max() < 1e-10


def test_criterion_3_memory_gating():
    """Gate biases at +/-100 pin the memory to retention or overwrite."""
    with report(3, "memory gating"):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = random_direction(rng, 3, 4)
            x = rng.normal(size=4)
            h_prev = rng.normal(size=3) * 0.2
            c_prev = rng.normal(size=3)

            set_gate_biases(d, input_gate=-100.0, forget_gate=100.0)
            _, c = cell(x, h_prev, c_prev, d)
            assert np.abs(c - c_prev).max() < 1e-6  # retention

            set_gate_biases(d, input_gate=100.0, forget_gate=-100.0)
            _, c = cell(x, h_prev, c_prev, d)
            assert np.abs(c - candidate_memory(x, h_prev, d)).max() < 1e-6  # overwrite


def test_criterion_4_attention_normalization():
    """1000 random heads: nonnegative weights summing to 1; zero nets uniform."""
    with report(4, "attention normalization"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t = int(rng.integers(1, 13))
            states = rng.normal(size=(t, 4))
            head = make_head(
                M=rng.normal(size=(3, 4)), b=rng.normal(size=3),
                v=rng.normal(size=(1, 3)), c=rng.normal(size=1),
            )
            weights = attention_weights(states, head)
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) <= 1e-6
        for t in (1, 2, 7, 16):
            weights = attention_weights(rng.normal(size=(t, 4)), zero_head(3, 4))
            assert np.array_equal(weights, np.full(t, 1.0 / t))


def test_criterion_5_pooling_identities():
    """Mean pooling equals a uniform reading head; head order cannot matter."""
    with report(5, "pooling identities"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = int(rng.integers(1, 10))
            states = rng.normal(size=(t, 6))
            averaged = mean_pool(states)
            uniform = reading(states, zero_head(2, 6))
            assert np.abs(averaged - uniform).max() <= 1e-12

            readings = [rng.normal(size=6) for _ in range(int(rng.integers(1, 5)))]
            perm = rng.permutation(len(readings))
            pooled = pool(readings)
            shuffled = pool([readings[i] for i in perm])
            assert np.array_equal(pooled, shuffled)


def test_criterion_6_auc_oracle():
    """Rank-sum AUC equals brute-force pair counting exactly, ties included."""
    with report(6, "AUC oracle"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            scores = rng.integers(0, 8, size=n) / 8.0
            assert auc(scores, labels) == brute_force_auc(scores, labels)


def test_criterion_7_overfit_smoke_test():
    """32 separable episodes reach log-loss < 0.05 within 500 epochs at lr 1e-3."""
    with report(7, "overfit smoke test"):
        started = time.time()
        features = separable_features(n=32, intervals=3, dim=8, seed=0,
                                      gap=2.5, noise=0.25)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=500,
                          patience=500, seed=0, folds=2)
        model_cfg = ModelConfig(input_dim=8, hidden=6, heads=1,
                                dropout_in=0.0, dropout_out=0.0)
        result = train_fold(features, features, cfg, model_cfg, seed=0)
        assert len(result.train_losses) <= 500
        best = min(result.train_losses)
        assert best < 0.05, f"best training loss {best}"
        assert time.time() - started < 60.0


def test_criterion_8_preprocessing_shapes(tmp_path):
    """3-hour intervals cap at 16 rows of 185 finite features, corpus-wide."""
    with report(8, "preprocessing shapes"):
        rng = np.random.default_rng(6)
        # A dense 48-hour record, including the exact 2880-minute endpoint.
        full = parse_record(synth_record_text(1, rng, n_measurements=300))
        endpoint = np.array([(2880, 0, 50.0)], dtype=full.measurements.dtype)
        full.measurements = np.concatenate([full.measurements, endpoint])  # stays sorted
        full.label = 0

        dataset = _find_dataset()
        if dataset is not None:
            records_dir, outcomes_path = dataset
            labels = parse_outcomes(outcomes_path.read_text())
            episodes = [parse_record(p.read_text())
                        for p in sorted(records_dir.glob("*.txt"))]
            episodes = join_labels(episodes, labels)
            source = f"PhysioNet corpus ({len(episodes)} episodes)"
        else:
            episodes = [parse_record(synth_record_text(i + 2, rng, sick=i % 3 == 0))
                        for i in range(40)]
            empty = parse_record("Time,Parameter,Value\n00:00,RecordID,9999\n")
            sparse = parse_record(
                "Time,Parameter,Value\n00:00,RecordID,9998\n40:00,HR,1e9\n")
            episodes += [empty, sparse]
            for i, ep in enumerate(episodes):
                ep.label = i % 5 == 0
            source = f"synthetic corpus ({len(episodes)} episodes)"

        stats = fit_pipeline(episodes + [full], interval_minutes=180)
        checked = 0
        for ep in [full] + episodes:
            matrix = build_features(ep, stats).matrix
            assert matrix.shape[0] <= 16
            assert matrix.shape[1] == 185
            assert np.isfinite(matrix).all()
            checked += 1
        full_matrix = build_features(full, stats).matrix
        assert full_matrix.shape == (16, 185)
        print(f"criterion 8 note: scanned {checked} episodes from {source}")


# Reference cross-validated AUC levels for the four named configurations.
AUC_TARGETS = {
    "lr-baseline": 0.791,
    "lstm-mean": 0.825,
    "lstm-attn": 0.833,
    "bilstm-attn": 0.839,
}
AUC_TOLERANCE = 0.03


def test_criterion_9_dataset_reproduction():
    """Full-corpus cross-validation hits the reference AUC of each variant."""
    dataset = _find_dataset()
    if dataset is None:
        print("criterion 9 (dataset reproduction): SKIPPED "
              "(PhysioNet 2012 corpus not present; set ICURISK_DATA)")
        pytest.skip("PhysioNet 2012 corpus not present; set ICURISK_DATA")
    with report(9, "dataset reproduction"):
        records_dir, outcomes_path = dataset
        labels = parse_outcomes(outcomes_path.read_text())
        episodes = [parse_record(p.read_text())
                    for p in sorted(records_dir.glob("*.txt"))]
        episodes = join_labels(episodes, labels)
        assert len(episodes) == 4000

        means = {}
        for variant, target in AUC_TARGETS.items():
            cfg, model_cfg = apply_variant(variant, TrainConfig(seed=0), ModelConfig())
            folds = cross_validate(episodes, cfg, model_cfg)
            means[variant] = float(np.mean([f.val_auc for f in folds]))
            print(f"criterion 9 note: {variant} mean AUC {means[variant]:.4f} "
                  f"(target {target} +/- {AUC_TOLERANCE})")
            assert abs(means[variant] - target) <= AUC_TOLERANCE
        assert means["lstm-mean"] <= means["lstm-attn"]
        assert means["lstm-mean"] <= means["bilstm-attn"]


def test_criterion_10_training_determinism(tmp_path):
    """Identical flags and seed give bit-identical results files."""
    with report(10, "training determinism"):
        data_dir, outcomes = write_corpus(tmp_path, n=10, seed=3)
        store = tmp_path / "store"
        assert cli_main(["preprocess", "--data-dir", str(data_dir),
                         "--outcomes", str(outcomes), "--out", str(store),
                         "--interval-hours", "12"]) == 0
        flags = ["--folds", "2", "--epochs", "2", "--patience", "2",
                 "--hidden", "3", "--heads", "1", "--batch", "4", "--seed", "11"]
        runs = [tmp_path / "run-a", tmp_path / "run-b"]
        for out in runs:
            assert cli_main(["train", "--store", str(store),
                             "--out", str(out)] + flags) == 0
        first = (runs[0] / "results.csv").read_bytes()
        second = (runs[1] / "results.csv").read_bytes()
        assert first == second
