"""Stratified cross-validation comparing pooling strategies on toy data.

Builds a small labeled corpus where sick patients run a high heart rate,
then scores two named configurations with leakage-free 2-fold CV (each
fold refits truncation, imputation, and normalization on its own split).
"""

import numpy as np

from icurisk.ingest import parse_record
from icurisk.model import ModelConfig
from icurisk.train import TrainConfig, apply_variant, auc, cross_validate

rng = np.random.default_rng(1)
episodes = []
for i in range(20):
    sick = i % 2 == 0
    rows = []
    for minutes in sorted(rng.integers(0, 2881, size=18)):
        base = 125.0 if sick else 75.0
        rows.append(f"{minutes // 60:02d}:{minutes % 60:02d},HR,"
                    f"{base + rng.normal() * 4:.1f}")
    text = (f"Time,Parameter,Value\n00:00,RecordID,{5000 + i}\n"
            f"00:00,Age,{rng.integers(40, 90)}\n" + "\n".join(rows) + "\n")
    episode = parse_record(text)
    episode.label = 1 if sick else 0
    episodes.append(episode)

base_cfg = TrainConfig(folds=2, max_epochs=8, patience=8, batch_size=4,
                       seed=0, interval_minutes=720)
base_model = ModelConfig(hidden=4, heads=2, dropout_in=0.1, dropout_out=0.1)

print(f"{'variant':<12} {'fold AUCs':<16} {'mean':>6} {'pooled':>7}")
for variant in ("lstm-mean", "lstm-attn"):
    cfg, model_cfg = apply_variant(variant, base_cfg, base_model)
    folds = list(cross_validate(episodes, cfg, model_cfg))
    per_fold = " ".join(f"{f.val_auc:.3f}" for f in folds)
    pooled = auc(np.concatenate([f.val_scores for f in folds]),
                 np.concatenate([f.val_labels for f in folds]))
    print(f"{variant:<12} {per_fold:<16} {np.mean([f.val_auc for f in folds]):.3f} "
          f"{pooled:7.3f}")

print("\neach fold's preprocessing looked only at that fold's training half;")
print("the kept checkpoints embed those statistics for later scoring.")
