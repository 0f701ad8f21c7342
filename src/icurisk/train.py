"""Optimization loop, cross-validation, and evaluation metrics.

Cross-validation is leakage-free by construction: each fold fits the whole
preprocessing pipeline (truncation bounds, imputation means, normalization)
on its training episodes only, then transforms both splits with those
statistics.  Training itself is mini-batch Adam on the mean log-loss, with
the best-validation-AUC checkpoint kept and patience-based early stopping.
Each training batch is one :func:`~icurisk.model.loss_and_grads` call (a
padded forward pass and one backward sweep, giving one gradient per named
parameter) and one Adam step, which updates the parameter arrays in place;
validation is scored in batches of the same size.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from icurisk.ingest import MAX_MINUTES, RawEpisode
# forward_episode is bound here by name as well: benchmark/selftest.py checks
# that the tracer patches by-name imports through this binding.
from icurisk.model import (  # noqa: F401
    ModelConfig, ModelParams, forward_batch, forward_episode, loss_and_grads)
from icurisk.preprocess import (DEFAULT_INTERVAL_MINUTES, EpisodeFeatures, PipelineStats,
                                 build_features, check_count, check_number, fit_pipeline)


class TrainingDiverged(RuntimeError):
    """Raised when a batch produces a non-finite loss or gradient."""


# The paper's configurations: the TrainConfig and ModelConfig fields each one
# fixes, and the ModelConfig sizes it has no use for.  `icurisk train` refuses
# a flag that sets a ModelConfig field the variant fixes or has no use for.
VARIANTS = {
    "lr-baseline": ({"interval_minutes": MAX_MINUTES},  # statistics over the whole 48 hours
                    {"recurrent": False, "dropout_in": 0.0, "dropout_out": 0.0},
                    ("hidden", "heads")),
    "lstm-mean": ({}, {"recurrent": True, "bidirectional": False, "pooling": "mean"}, ("heads",)),
    "lstm-attn": ({}, {"recurrent": True, "bidirectional": False, "pooling": "attention"}, ()),
    "bilstm-attn": ({}, {"recurrent": True, "bidirectional": True, "pooling": "attention"}, ()),
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    folds: int = 5
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES

    def __post_init__(self):
        check_number("learning_rate", self.learning_rate)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate is {self.learning_rate!r}, not finite and above 0")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 1),
                            ("seed", 0), ("folds", 2), ("interval_minutes", 1)):
            check_count(name, getattr(self, name), least)


@dataclass
class FoldResult:
    fold: int
    train_losses: list[float]
    val_auc: float
    best_epoch: int
    params: ModelParams
    val_scores: np.ndarray
    val_labels: np.ndarray
    pipeline: PipelineStats | None = None


def kfold_split(k: int, seed: int, labels) -> list[np.ndarray]:
    """Stratified k-fold indices: a disjoint partition of 0..n-1, where n
    is the number of labels.

    Positives and negatives are shuffled separately and dealt round-robin
    (positives first), so fold sizes differ by at most one and each fold's
    positive count is within one of an even share.
    """
    labels = np.asarray(labels)
    check_count("k", k, 2)
    if k > len(labels):
        raise ValueError(f"cannot split {len(labels)} items into {k} folds")
    rng = np.random.default_rng(seed)
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels != 1)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    order = np.concatenate([positives, negatives])
    return [np.sort(order[f::k]) for f in range(k)]


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Rank-sum formulation with average ranks for tied scores, so the result
    matches brute-force pair counting exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")

    _, tie_group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based, halves for ties
    pos_rank_sum = float(average_rank[tie_group][labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# Adam's moment decay rates and denominator floor, as in Kingma and Ba.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over named parameter arrays, updating each one in place, so
    views into them (such as :func:`~icurisk.model.v1_arrays`) stay valid.
    The gradient and the moments are one flat vector each, and a step is
    one bias-corrected update over all of them, bit for bit the values of
    the textbook update applied array by array."""

    def __init__(self, named_arrays, lr: float):
        self.named_arrays = list(named_arrays)
        self.lr = lr
        self.t = 0
        self.m = np.zeros(sum(a.size for _, a in self.named_arrays))
        self.v = np.zeros_like(self.m)

    def flatten(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """One gradient per name, concatenated in ``named_arrays`` order."""
        return np.concatenate([grads[name] for name, _ in self.named_arrays], axis=None)

    def step(self, g: np.ndarray) -> None:
        """One update from the flat gradient ``g`` (see :meth:`flatten`),
        which it overwrites."""
        self.t += 1
        self.v *= BETA2
        self.v += (1.0 - BETA2) * g * g
        self.m *= BETA1
        self.m += np.multiply(1.0 - BETA1, g, out=g)
        step = np.multiply(self.lr, self.m / (1.0 - BETA1 ** self.t), out=g)
        step /= np.sqrt(self.v / (1.0 - BETA2 ** self.t)) + EPS
        start = 0
        for _, array in self.named_arrays:
            array -= step[start:start + array.size].reshape(array.shape)
            start += array.size


def _score_all(features: list[EpisodeFeatures], params: ModelParams,
               batch_size: int) -> np.ndarray:
    """Evaluation-mode risks, scored in batches of ``batch_size`` episodes."""
    risks = np.empty(len(features))
    for start in range(0, len(features), batch_size):
        chunk = features[start:start + batch_size]
        risks[start:start + len(chunk)] = forward_batch([f.matrix for f in chunk], params).risks
    return risks


def train_fold(train_features: list[EpisodeFeatures],
               val_features: list[EpisodeFeatures],
               cfg: TrainConfig, model_cfg: ModelConfig,
               fold: int = 0, *, seed: int) -> FoldResult:
    """Train one fold; keeps the checkpoint with the best validation AUC and
    stops ``cfg.patience`` epochs after it.  Epoch 0 always improves, as its
    AUC is a finite rank-sum, and so sets every ``best_*``.

    Expects features already transformed with statistics fitted on the
    training split only.  One generator seeded with the required ``seed``
    drives initialization, shuffling and dropout: a fixed seed, a bit-identical run.
    """
    if not train_features:
        raise ValueError(f"fold {fold}: the training split has no episodes")
    rng = np.random.default_rng(seed)
    params = ModelParams.init(model_cfg, rng)
    optimizer = Adam(params.named_parameters(), cfg.learning_rate)
    val_labels = np.asarray([f.label for f in val_features])

    best_auc = -math.inf
    train_losses: list[float] = []

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(train_features))
        loss_sum = 0.0
        for batch, start in enumerate(range(0, len(perm), cfg.batch_size)):
            chunk = [train_features[i] for i in perm[start:start + cfg.batch_size]]
            batch_loss, grads = loss_and_grads(params, [f.matrix for f in chunk],
                                               [f.label for f in chunk], rng)
            g = optimizer.flatten(grads)
            # Checked before the step, so a NaN never reaches Adam's moments.
            grad_norm = math.sqrt(g @ g)
            if not (math.isfinite(batch_loss) and math.isfinite(grad_norm)):
                raise TrainingDiverged(
                    f"fold {fold}: non-finite training loss {batch_loss} or gradient "
                    f"norm {grad_norm} at epoch {epoch}, batch {batch}"
                )
            optimizer.step(g)
            loss_sum += batch_loss * len(chunk)

        train_losses.append(loss_sum / len(train_features))

        scores = _score_all(val_features, params, cfg.batch_size)
        epoch_auc = auc(scores, val_labels)
        if epoch_auc > best_auc:
            best_auc, best_epoch = epoch_auc, epoch
            best_params, best_scores = params.copy(), scores
        elif epoch - best_epoch >= cfg.patience:
            break

    return FoldResult(
        fold=fold,
        train_losses=train_losses,
        val_auc=best_auc,
        best_epoch=best_epoch,
        params=best_params,
        val_scores=best_scores,
        val_labels=val_labels,
    )


def apply_variant(variant: str, cfg: TrainConfig,
                  model_cfg: ModelConfig) -> tuple[TrainConfig, ModelConfig]:
    """``cfg`` and ``model_cfg`` with the fields ``VARIANTS[variant]`` fixes,
    its architecture and for ``lr-baseline`` also the 48-hour interval and
    zero dropout; every other field passes through."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    train_fixed, model_fixed, _ = VARIANTS[variant]
    return replace(cfg, **train_fixed), replace(model_cfg, **model_fixed)


def cross_validate(episodes: list[RawEpisode], cfg: TrainConfig,
                   model_cfg: ModelConfig,
                   only_fold: int | None = None) -> Iterator[FoldResult]:
    """Stratified k-fold training with per-fold preprocessing fits.

    Every check and every fold's fit run on the call; the returned iterator
    then trains one fold per step and yields its result, ``pipeline`` set, so
    a caller can keep each fold as it finishes.  A fold's matrices are built
    in its train_fold call and freed when it returns.
    """
    labels = [ep.label for ep in episodes]
    if any(label is None for label in labels):
        raise ValueError("cross-validation needs labeled episodes")
    # Two copies of one stay could land in a fold's training and validation splits.
    for record_id, count in Counter(ep.record_id for ep in episodes).items():
        if count > 1:
            raise ValueError(f"record id {record_id} appears {count} times; "
                             "cross-validation takes each stay once")
    if only_fold is not None and not 0 <= only_fold < cfg.folds:
        raise ValueError(f"fold {only_fold} does not exist: k={cfg.folds} folds are "
                         f"numbered 0 to {cfg.folds - 1}")
    folds = kfold_split(cfg.folds, cfg.seed, labels)
    # Validation AUC needs both classes; check every fold before any trains.
    for fold_idx, val_idx in enumerate(folds):
        positives = sum(labels[int(j)] == 1 for j in val_idx)
        if positives in (0, len(val_idx)):
            raise ValueError(
                f"fold {fold_idx} of k={cfg.folds}: validation split has "
                f"{positives} positive and {len(val_idx) - positives} negative "
                "episodes; each fold needs both classes (use fewer folds)"
            )

    # Fit every fold's statistics before any fold trains, so a split whose
    # statistics are not finite fails in seconds, naming its fold.
    splits = {}
    for fold_idx, val_idx in enumerate(folds):
        if only_fold is not None and fold_idx != only_fold:
            continue
        in_val = set(int(i) for i in val_idx)
        train_eps = [ep for j, ep in enumerate(episodes) if j not in in_val]
        try:
            stats = fit_pipeline(train_eps, cfg.interval_minutes)
        except ValueError as exc:
            raise ValueError(f"fold {fold_idx}: {exc}") from exc
        splits[fold_idx] = train_eps, [episodes[int(j)] for j in val_idx], stats

    # A generator expression, not a yield in this body, keeps the above eager.
    return (replace(train_fold([build_features(ep, stats) for ep in train_eps],
                               [build_features(ep, stats) for ep in val_eps], cfg, model_cfg,
                               fold=fold_idx, seed=cfg.seed + fold_idx), pipeline=stats)
            for fold_idx, (train_eps, val_eps, stats) in splits.items())
