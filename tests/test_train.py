"""Folding, Adam, AUC, the training loop, and cross-validation."""

import tracemalloc

import numpy as np
import pytest

from icurisk.ingest import parse_record
from icurisk.model import ModelConfig, ModelParams, load_model, save_model, v1_arrays
from icurisk.preprocess import EpisodeFeatures, build_features
from icurisk.train import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    BETA1,
    BETA2,
    EPS,
    _score_all,
    apply_variant,
    auc,
    cross_validate,
    kfold_split,
    train_fold,
)

from conftest import record_text, separable_features


def brute_force_auc(scores, labels):
    """Pair-counting oracle: concordant pairs count 1, ties count 0.5."""
    total = 0.0
    pairs = 0
    for s_pos, l_pos in zip(scores, labels):
        if l_pos != 1:
            continue
        for s_neg, l_neg in zip(scores, labels):
            if l_neg != 0:
                continue
            pairs += 1
            if s_pos > s_neg:
                total += 1.0
            elif s_pos == s_neg:
                total += 0.5
    return total / pairs


def round_robin_folds(n, k, seed, labels):
    """Reference deal: shuffle each class, then hand out one index per fold in turn."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels != 1)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds = [[] for _ in range(k)]
    for slot, idx in enumerate(np.concatenate([positives, negatives])):
        folds[slot % k].append(int(idx))
    return [np.sort(np.asarray(fold, dtype=np.intp)) for fold in folds]


class TestKfoldSplit:
    def test_matches_round_robin_reference(self):
        rng = np.random.default_rng(2)
        for seed in range(200):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, n + 1))
            labels = rng.integers(0, 2, size=n)
            got = kfold_split(k, seed, labels)
            expected = round_robin_folds(n, k, seed, labels)
            assert len(got) == k
            for fold, ref in zip(got, expected):
                assert fold.dtype == ref.dtype
                np.testing.assert_array_equal(fold, ref)

    def test_even_sizes(self):
        folds = kfold_split(5, seed=0, labels=[0] * 8 + [1] * 2)
        assert [len(f) for f in folds] == [2] * 5

    def test_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, 6))
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            folds = kfold_split(k, seed=int(rng.integers(1000)), labels=labels)
            merged = np.concatenate(folds)
            assert sorted(merged) == list(range(n))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_stratification(self):
        rng = np.random.default_rng(1)
        labels = np.zeros(100, dtype=int)
        labels[rng.choice(100, 18, replace=False)] = 1
        for fold in kfold_split(5, seed=3, labels=labels):
            rate = labels[fold].mean()
            assert abs(rate - 0.18) <= 1.0 / len(fold)

    def test_more_folds_than_items_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(5, seed=0, labels=[0, 1, 0])

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(1, seed=0, labels=[0] * 10)


def adam_step(values, grads, m, v, t, lr):
    """Reference: one bias-corrected Adam update of a single array, as in
    Kingma and Ba; mutates the moment buffers and returns the new values.
    ``Adam.step`` must match it bit for bit, array by array."""
    m[...] = BETA1 * m + (1.0 - BETA1) * grads
    v[...] = BETA2 * v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return values - lr * m_hat / (np.sqrt(v_hat) + EPS)


def adam_over(values, lr):
    """An ``Adam`` over the one array ``values``, which it updates in place."""
    return Adam([("x", values)], lr=lr)


class TestAdam:
    def test_zero_gradient_leaves_values(self):
        values = np.array([1.0, -2.0])
        opt = adam_over(values, lr=1e-3)
        opt.m[...] = 0.5
        opt.v[...] = 0.25
        opt.step(np.zeros(2))
        # Moments decay toward zero but carry momentum into the update.
        np.testing.assert_allclose(opt.m, [0.45, 0.45])
        np.testing.assert_allclose(opt.v, [0.24975, 0.24975])
        assert not np.array_equal(values, [1.0, -2.0])  # nonzero momentum still moves
        fresh = np.array([1.0, -2.0])
        adam_over(fresh, lr=1e-3).step(np.zeros(2))
        np.testing.assert_array_equal(fresh, [1.0, -2.0])  # no momentum, no motion

    def test_first_step_is_signed_learning_rate(self):
        g = np.array([0.3, -4.0, 1e-6])
        out = np.zeros(3)
        adam_over(out, lr=1e-3).step(g.copy())
        expected = -1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_two_steps_match_scripted_oracle(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        g1, g2 = 0.7, -0.2
        theta = 1.0
        # Hand-rolled recurrences, one variable at a time.
        m = b1 * 0.0 + (1 - b1) * g1
        v = b2 * 0.0 + (1 - b2) * g1 * g1
        theta_ref = theta - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m2 = b1 * m + (1 - b1) * g2
        v2 = b2 * v + (1 - b2) * g2 * g2
        theta_ref = theta_ref - lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)

        values = np.array([theta])
        opt = adam_over(values, lr=lr)
        opt.step(np.array([g1]))
        opt.step(np.array([g2]))
        assert opt.t == 2  # Adam counts its own steps
        assert abs(values[0] - theta_ref) < 1e-12

    def test_lr_zero_is_bit_identical(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=50)
        baseline = values.tobytes()
        opt = adam_over(values, lr=0.0)
        for _ in range(3):
            opt.step(rng.normal(size=50))
        assert values.tobytes() == baseline

    def test_optimizer_class_steps_named_arrays_in_place(self):
        array = np.array([1.0])
        opt = Adam([("x", array)], lr=1e-3)
        opt.step(opt.flatten({"x": np.array([2.0])}))
        assert array[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
        opt.step(opt.flatten({"x": np.zeros(1)}))
        assert np.isfinite(array).all()

    def test_step_matches_per_array_adam_step_bit_for_bit(self):
        rng = np.random.default_rng(12)
        shapes = {"W": (4, 3), "b": (4,), "c": (1,), "M": (2, 5)}
        arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        reference = {name: array.copy() for name, array in arrays.items()}
        moments = {name: (np.zeros(shape), np.zeros(shape)) for name, shape in shapes.items()}
        opt = Adam(list(arrays.items()), lr=3e-2)
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) * 10.0 ** -t for name, shape in shapes.items()}
            opt.step(opt.flatten(grads))
            for name, grad in grads.items():
                reference[name] = adam_step(reference[name], grad, *moments[name], t=t, lr=3e-2)
                assert arrays[name].tobytes() == reference[name].tobytes(), (name, t)

    def test_step_keeps_v1_views_valid(self, tmp_path):
        feats = separable_features(n=8, intervals=3, dim=8, seed=6)
        params = train_fold(feats, feats, _quick_cfg(max_epochs=2, patience=2),
                            _small_model(bidirectional=True), seed=0).params
        views = v1_arrays(params)
        before = [view.copy() for _, view in views]
        opt = Adam(params.named_parameters(), lr=1e-2)
        opt.step(opt.flatten(
            {name: np.ones_like(array) for name, array in params.named_parameters()}))
        for (name, view), (_, fresh), old in zip(views, v1_arrays(params), before):
            np.testing.assert_array_equal(view, fresh, err_msg=name)
            assert not np.array_equal(view, old), name
        save_model(tmp_path / "model.json", params)
        loaded, _ = load_model(tmp_path / "model.json")
        for (name, array), (_, again) in zip(params.named_parameters(),
                                             loaded.named_parameters()):
            np.testing.assert_array_equal(array, again, err_msg=name)


class TestAuc:
    def test_hand_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^scores \(3,\) vs labels \(2,\)$"):
            auc([0.1, 0.2, 0.3], [0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            auc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1  # both classes present
            scores = rng.integers(0, 10, size=n) / 10.0  # coarse grid forces ties
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.01, 0.99, size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        logit = np.log(scores / (1 - scores))
        assert auc(scores, labels) == auc(logit, labels)


def _quick_cfg(**overrides):
    base = dict(learning_rate=1e-3, batch_size=8, max_epochs=40, patience=40,
                seed=0, folds=2)
    base.update(overrides)
    return TrainConfig(**base)


def _small_model(**overrides):
    base = dict(input_dim=8, hidden=6, heads=1, dropout_in=0.0, dropout_out=0.0)
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainFold:
    def test_loss_decreases_on_separable_data(self):
        feats = separable_features(n=16, intervals=3, dim=8, seed=1, gap=2.5)
        result = train_fold(feats, feats, _quick_cfg(), _small_model(), seed=0)
        assert result.train_losses[-1] < result.train_losses[0]
        assert result.val_auc == 1.0

    def test_fixed_seed_reproduces_loss_trajectory(self):
        feats = separable_features(n=12, intervals=3, dim=8, seed=2)
        cfg = _quick_cfg(max_epochs=5, patience=5)
        first = train_fold(feats, feats, cfg, _small_model(dropout_in=0.3), seed=9)
        second = train_fold(feats, feats, cfg, _small_model(dropout_in=0.3), seed=9)
        assert first.train_losses == second.train_losses
        np.testing.assert_array_equal(first.val_scores, second.val_scores)

    def test_seed_is_required_and_keyword_only(self):
        feats = separable_features(n=8, intervals=3, dim=8, seed=4)
        cfg = _quick_cfg(max_epochs=1)
        with pytest.raises(TypeError, match="seed"):
            train_fold(feats, feats, cfg, _small_model())
        with pytest.raises(TypeError):
            train_fold(feats, feats, cfg, _small_model(), 0, cfg.seed)

    def test_recorded_auc_matches_reevaluation(self):
        from icurisk.model import forward_episode
        feats = separable_features(n=12, intervals=3, dim=8, seed=3)
        result = train_fold(feats, feats, _quick_cfg(max_epochs=8, patience=8),
                            _small_model(), seed=1)
        rescored = np.array([forward_episode(f.matrix, result.params).risk
                             for f in feats])
        relabeled = np.array([f.label for f in feats])
        assert auc(rescored, relabeled) == result.val_auc
        # The kept best-epoch scores are what scoring the kept parameters gives.
        np.testing.assert_array_equal(result.val_scores, _score_all(feats, result.params, 8))

    def test_empty_training_split_names_the_fold(self):
        feats = separable_features(n=8, intervals=3, dim=8, seed=4)
        with pytest.raises(ValueError, match="fold 4: the training split has no episodes"):
            train_fold([], feats, _quick_cfg(max_epochs=1), _small_model(), fold=4, seed=0)

    def test_empty_validation_split_names_the_auc_problem(self):
        feats = separable_features(n=8, intervals=3, dim=8, seed=4)
        with pytest.raises(ValueError, match="AUC needs at least one positive"):
            train_fold(feats, [], _quick_cfg(max_epochs=1), _small_model(), seed=0)

    def test_divergence_aborts_with_diagnostic(self):
        bad = [EpisodeFeatures(1, np.full((2, 8), np.inf), 1),
               EpisodeFeatures(2, np.full((2, 8), -np.inf), 0)]
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="fold 3"):
            train_fold(bad, bad, _quick_cfg(max_epochs=2, patience=2),
                       _small_model(), fold=3, seed=0)

    def test_divergence_names_the_batch(self):
        feats = separable_features(n=8, intervals=2, dim=8, seed=5)
        feats[1] = EpisodeFeatures(99, np.full((2, 8), np.nan), 1)
        # The seed-0 shuffle puts episode 1 in the second batch of four.
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match=r"fold 0: .* epoch 0, batch 1$"):
            train_fold(feats, feats, _quick_cfg(batch_size=4), _small_model(), seed=0)

    def test_early_stopping_respects_patience(self):
        feats = separable_features(n=10, intervals=2, dim=8, seed=4)
        cfg = _quick_cfg(max_epochs=40, patience=2)
        result = train_fold(feats, feats, cfg, _small_model(), seed=2)
        # AUC saturates at 1.0 almost immediately; patience then cuts the run
        # exactly `patience` epochs after the best one.
        assert len(result.train_losses) < cfg.max_epochs
        assert len(result.train_losses) == result.best_epoch + 1 + cfg.patience


class TestConfigs:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(folds=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(interval_minutes=0)

    def test_variant_presets(self):
        cfg = TrainConfig()
        model_cfg = ModelConfig()
        lr_cfg, lr_model = apply_variant("lr-baseline", cfg, model_cfg)
        assert lr_cfg.interval_minutes == 2880
        assert not lr_model.recurrent
        assert lr_model.dropout_in == lr_model.dropout_out == 0.0

        _, mean_model = apply_variant("lstm-mean", cfg, model_cfg)
        assert mean_model.pooling == "mean" and not mean_model.bidirectional

        _, attn_model = apply_variant("lstm-attn", cfg, model_cfg)
        assert attn_model.pooling == "attention" and not attn_model.bidirectional

        _, bi_model = apply_variant("bilstm-attn", cfg, model_cfg)
        assert bi_model.pooling == "attention" and bi_model.bidirectional

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            apply_variant("gru-mean", TrainConfig(), ModelConfig())


def _toy_episodes(n=14, seed=5):
    """Raw episodes where sick patients run a dramatically higher HR."""
    rng = np.random.default_rng(seed)
    episodes = []
    for i in range(n):
        sick = i % 2 == 0
        rows = []
        for m in np.sort(rng.integers(0, 2881, size=12)):
            base = 140.0 if sick else 70.0
            rows.append((int(m), "HR", float(base + rng.normal() * 2)))
        ep = parse_record(record_text(i + 1, {"Age": 60}, rows))
        ep.label = 1 if sick else 0
        episodes.append(ep)
    return episodes


class TestCrossValidate:
    def test_tiny_end_to_end(self):
        episodes = _toy_episodes()
        cfg = TrainConfig(folds=2, max_epochs=3, patience=3, batch_size=4,
                          seed=0, interval_minutes=720)
        folds = list(cross_validate(episodes, cfg, _small_model(input_dim=185, hidden=3)))
        assert len(folds) == 2
        assert 0.0 <= np.mean([f.val_auc for f in folds]) <= 1.0
        assert folds[0].pipeline is not None
        # Folds fit their own preprocessing on disjoint training splits.
        assert folds[0].pipeline is not folds[1].pipeline

    def test_each_step_trains_one_fold(self, monkeypatch):
        trained = []
        monkeypatch.setattr("icurisk.train.train_fold",
                            lambda *a, **k: trained.append(k["fold"]) or train_fold(*a, **k))
        cfg = TrainConfig(folds=2, max_epochs=1, patience=1, batch_size=4,
                          seed=0, interval_minutes=720)
        folds = cross_validate(_toy_episodes(), cfg, _small_model(input_dim=185, hidden=3))
        assert trained == []
        first = next(folds)
        assert trained == [0]
        assert first.fold == 0 and first.pipeline is not None

    def test_only_fold_restricts_work(self):
        episodes = _toy_episodes()
        cfg = TrainConfig(folds=2, max_epochs=2, patience=2, batch_size=4,
                          seed=0, interval_minutes=720)
        folds = cross_validate(episodes, cfg, _small_model(input_dim=185, hidden=3),
                               only_fold=1)
        assert [f.fold for f in folds] == [1]

    @pytest.mark.parametrize("fold", [2, 7, -1])
    def test_fold_outside_the_split_rejected_before_training(self, fold, monkeypatch):
        monkeypatch.setattr("icurisk.train.fit_pipeline", lambda *a: pytest.fail("fitted"))
        with pytest.raises(ValueError, match=rf"fold {fold} does not exist: k=2"):
            cross_validate(_toy_episodes(), TrainConfig(folds=2), _small_model(input_dim=185),
                           only_fold=fold)

    def test_single_class_fold_rejected_before_training(self):
        episodes = _toy_episodes(n=10)
        for ep, label in zip(episodes, [1, 1] + [0] * 8):
            ep.label = label
        with pytest.raises(ValueError, match=r"fold 2 of k=5: .* 0 positive and 2 negative"):
            cross_validate(episodes, TrainConfig(folds=5), _small_model(input_dim=185))

    def test_non_finite_fit_names_the_fold(self):
        huge = parse_record(record_text(99, {"Age": 60}, [(0, "HR", 1.5e308), (60, "HR", 1.6e308)]))
        huge.label = 0
        cfg = TrainConfig(folds=2, max_epochs=1, patience=1, batch_size=4, seed=0)
        with pytest.raises(ValueError,
                           match=r"^fold [01]: feature HR: fitted imputation mean is inf$"):
            cross_validate(_toy_episodes() + [huge], cfg, _small_model(input_dim=185, hidden=3))

    def test_every_fold_fits_before_any_trains(self, monkeypatch):
        # The overflowing record sits in fold 0's validation split, so only
        # fold 1's fit sees it; it must fail before fold 0 trains.
        huge = parse_record(record_text(99, {"Age": 60}, [(0, "HR", 1.5e308), (60, "HR", 1.6e308)]))
        huge.label = 0
        episodes = _toy_episodes() + [huge]
        labels = [ep.label for ep in episodes]
        seed = next(s for s in range(100)
                    if len(episodes) - 1 in kfold_split(2, s, labels)[0])
        monkeypatch.setattr("icurisk.train.train_fold", lambda *a, **k: pytest.fail("trained"))
        cfg = TrainConfig(folds=2, max_epochs=1, patience=1, batch_size=4, seed=seed)
        with pytest.raises(ValueError, match=r"^fold 1: feature HR: fitted imputation mean is inf$"):
            cross_validate(episodes, cfg, _small_model(input_dim=185, hidden=3))

    def test_unlabeled_episodes_rejected(self):
        episodes = _toy_episodes()
        episodes[0].label = None
        with pytest.raises(ValueError, match="labeled"):
            cross_validate(episodes, TrainConfig(folds=2), _small_model(input_dim=185))

    def test_lr_baseline_separates_toy_data(self):
        episodes = _toy_episodes(n=12, seed=6)
        cfg = TrainConfig(folds=2, max_epochs=20, patience=20, batch_size=4, seed=0)
        cfg, model_cfg = apply_variant("lr-baseline", cfg, ModelConfig())
        folds = list(cross_validate(episodes, cfg, model_cfg))
        assert np.mean([f.val_auc for f in folds]) == 1.0
        # Single 48-hour interval means exactly one row per episode.
        assert folds[0].pipeline.interval_minutes == 2880

    def test_holds_one_fold_of_matrices_at_a_time(self):
        # 10-minute intervals make long matrices, and a one-unit model with
        # batches of 2 keeps training buffers small beside them.  Keeping fold
        # k's matrices alive while fold k+1's were built read about 1.90x one
        # fold's matrices here; freeing them when train_fold returns, about 1.15x.
        episodes = _toy_episodes(n=20)
        cfg = TrainConfig(folds=5, max_epochs=1, patience=1, batch_size=2, seed=0,
                          interval_minutes=10)
        model_cfg = _small_model(input_dim=185, hidden=1, attn_hidden=1)
        tracemalloc.start()
        try:
            folds = list(cross_validate(episodes, cfg, model_cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fold_bytes = sum(build_features(ep, folds[0].pipeline).matrix.nbytes
                         for ep in episodes)
        assert peak < 1.5 * fold_bytes
