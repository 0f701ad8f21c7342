"""End-to-end command tests on a small synthetic corpus."""

import argparse
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from icurisk.cli import _given, build_parser, main
from icurisk.model import ModelConfig, forward_episode, load_model
from icurisk.preprocess import (
    DEFAULT_INTERVAL_MINUTES, PipelineStats, build_features, feature_width, fit_pipeline)
from icurisk.ingest import parse_record
from icurisk.train import TrainConfig

from conftest import record_text


def run(*argv):
    return main([str(a) for a in argv])


def read_store_bytes(store: Path) -> dict[str, bytes]:
    return {str(p.relative_to(store)): p.read_bytes()
            for p in sorted(store.rglob("*")) if p.is_file()}


# TRAIN_FAST less the size flags: lr-baseline refuses both, lstm-mean --heads.
# The interval comes from the store, which the store fixture fits at 12 hours.
TRAIN_BASE = ["--folds", "2", "--epochs", "2", "--patience", "2", "--batch", "4",
              "--seed", "0"]
TRAIN_FAST = TRAIN_BASE + ["--hidden", "3", "--heads", "1"]


def preprocess_into(tiny_corpus, out, *flags):
    data_dir, outcomes = tiny_corpus
    assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
               "--out", out, *flags) == 0
    return out


@pytest.fixture
def default_store(tiny_corpus, tmp_path):
    return preprocess_into(tiny_corpus, tmp_path / "default-store")


@pytest.fixture
def store(tiny_corpus, tmp_path):
    return preprocess_into(tiny_corpus, tmp_path / "store", "--interval-hours", "12")


@pytest.fixture
def trained(store, tmp_path):
    out = tmp_path / "run"
    assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 0
    return out


class TestPreprocess:
    def test_store_layout(self, default_store):
        store = default_store
        assert (store / "stats.json").exists()
        assert (store / "labels.csv").exists()
        assert (store / "manifest.json").exists()
        features = list((store / "features").glob("*.csv"))
        episodes = list((store / "episodes").glob("*.txt"))
        assert len(features) == len(episodes) == 12

    def test_feature_matrices_are_finite_and_capped(self, default_store):
        for path in (default_store / "features").glob("*.csv"):
            lines = path.read_text().splitlines()
            assert len(lines[0].split(",")) == 185
            assert len(lines) - 1 <= 16
            values = np.array([[float(v) for v in line.split(",")]
                               for line in lines[1:]])
            assert np.isfinite(values).all()

    def test_manifest_contents(self, default_store):
        manifest = json.loads((default_store / "manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["options"]["interval_hours"] == 3
        assert len(manifest["dataset_digest"]) == 64

    def test_rerun_is_byte_identical(self, tiny_corpus, tmp_path):
        data_dir, outcomes = tiny_corpus
        out = tmp_path / "s1"
        args = ("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                "--out", out)
        assert run(*args) == 0
        first = read_store_bytes(out)
        assert run(*args) == 0  # replaying the manifest's flags
        assert read_store_bytes(out) == first

    def test_48_hour_interval_single_row(self, tiny_corpus, tmp_path):
        data_dir, outcomes = tiny_corpus
        out = tmp_path / "store48"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out, "--interval-hours", "48") == 0
        for path in (out / "features").glob("*.csv"):
            assert len(path.read_text().splitlines()) == 2  # header + one row

    def test_stored_matrices_round_trip_bit_for_bit(self, default_store):
        stats = PipelineStats.from_dict(json.loads((default_store / "stats.json").read_text()))
        paths = sorted((default_store / "features").glob("*.csv"))
        assert len(paths) == 12
        for path in paths:
            ep = parse_record((default_store / "episodes" / f"{path.stem}.txt").read_text())
            stored = np.array([[float(v) for v in line.split(",")]
                               for line in path.read_text().splitlines()[1:]])
            # int64 views, so that -0.0 against 0.0 counts as a difference
            np.testing.assert_array_equal(
                stored.view(np.int64), build_features(ep, stats).matrix.view(np.int64))

    @pytest.mark.parametrize("hours", ["0", "-3", "1.5", "x"])
    def test_bad_interval_refused_before_any_record_is_read(self, tiny_corpus, tmp_path,
                                                          capsys, hours):
        data_dir, outcomes = tiny_corpus
        (data_dir / "140099.txt").write_text("not a record\n")  # read first, it would fail
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                "--out", out, "--interval-hours", hours)
        assert exc.value.code == 2
        assert (f"argument --interval-hours: '{hours}' is not a whole number of hours above 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_duplicate_record_id_names_both_files(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        first = data_dir / "140005.txt"
        copy = data_dir / "copy-of-140005.txt"
        copy.write_text(first.read_text())
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert (f"error: {copy}: record id 140005 is also the id of {first}"
                in capsys.readouterr().err)
        assert not out.exists()  # rejected before anything is written

    def test_store_with_another_runs_record_refused(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        out = tmp_path / "s"
        args = ("preprocess", "--data-dir", data_dir, "--outcomes", outcomes, "--out", out)
        assert run(*args) == 0
        before = read_store_bytes(out)
        (data_dir / "140005.txt").unlink()
        assert run(*args) == 1
        stale = out / "features" / "140005.csv"
        assert (f"error: {stale}: --out {out} holds a file this run does not write"
                in capsys.readouterr().err)
        assert read_store_bytes(out) == before  # refused before anything is written

    def test_overflowing_statistic_names_the_feature(self, tiny_corpus, tmp_path, capsys):
        # Values near 1e308 parse, but their sum overflows HR's imputation mean.
        data_dir, outcomes = tiny_corpus
        (data_dir / "149999.txt").write_text(
            record_text(149999, {"Age": 70}, [(60, "HR", 1.5e308), (120, "HR", 1.6e308)]))
        outcomes.write_text(outcomes.read_text() + "149999,10,5,12,-1,0\n")
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert ("error: feature HR: fitted imputation mean is inf"
                in capsys.readouterr().err)
        assert not out.exists()  # refused before anything is written

    def test_missing_data_dir_fails(self, tmp_path):
        assert run("preprocess", "--data-dir", tmp_path / "nope",
                   "--outcomes", tmp_path / "o.csv", "--out", tmp_path / "s") == 1

    def test_bad_outcomes_row_names_the_file(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        lines = outcomes.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",x"
        outcomes.write_text("\n".join(lines) + "\n")
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", tmp_path / "s") == 1
        assert f"error: {outcomes}: line 6: bad label 'x'" in capsys.readouterr().err


class TestTrain:
    def test_outputs(self, trained):
        lines = (trained / "results.csv").read_text().splitlines()
        assert lines[0] == "variant,fold,auc,best_epoch,final_train_loss"
        folds = [l for l in lines[1:] if l.split(",")[1].isdigit()]
        assert len(folds) == 2
        tags = {l.split(",")[1] for l in lines[1:]}
        assert {"mean", "std", "pooled"} <= tags
        models = sorted((trained / "models").glob("*.json"))
        assert [m.name for m in models] == ["bilstm-attn-fold0.json",
                                            "bilstm-attn-fold1.json"] or len(models) == 2

    def test_default_variant_name_matches_flags(self, trained):
        first = (trained / "results.csv").read_text().splitlines()[1]
        assert first.startswith("lstm-attn,")  # --variant defaults to lstm-attn

    def test_models_reload(self, trained):
        for path in (trained / "models").glob("*.json"):
            params, stats = load_model(path)
            assert stats is not None
            assert params.config.input_dim == 185

    def test_variant_flag(self, store, tmp_path):
        out = tmp_path / "mean-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lstm-mean", *TRAIN_BASE, "--hidden", "3") == 0
        assert (out / "results.csv").read_text().startswith("variant")
        assert (out / "models" / "lstm-mean-fold0.json").exists()

    def test_lr_baseline_variant(self, store, tmp_path):
        out = tmp_path / "lr-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lr-baseline", *TRAIN_BASE) == 0
        params, stats = load_model(out / "models" / "lr-baseline-fold0.json")
        assert not params.config.recurrent
        assert stats.interval_minutes == 2880

    def test_manifest_records_resolved_configuration(self, store, tmp_path):
        for variant, flags in (("bilstm-attn", TRAIN_FAST), ("lr-baseline", TRAIN_BASE)):
            out = tmp_path / variant
            assert run("train", "--store", store, "--out", out, "--variant", variant,
                       *flags, "--fold", "0") == 0
            options = json.loads((out / "manifest.json").read_text())["options"]
            assert options["variant"] == variant
            if variant == "bilstm-attn":
                assert options["model"]["bidirectional"] is True
                assert options["train"]["interval_minutes"] == 720
            else:
                assert options["model"]["recurrent"] is False
                assert options["model"]["dropout_in"] == options["model"]["dropout_out"] == 0.0
                assert options["train"]["interval_minutes"] == 2880

    def test_single_fold_option(self, store, tmp_path):
        out = tmp_path / "one-fold"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST,
                   "--fold", "1") == 0
        lines = (trained_lines := (out / "results.csv").read_text().splitlines())
        folds = [l.split(",")[1] for l in lines[1:] if l.split(",")[1].isdigit()]
        assert folds == ["1"]

    @pytest.mark.parametrize("fold", ["7", "-1"])
    def test_fold_outside_the_split_fails(self, store, tmp_path, capsys, fold):
        assert run("train", "--store", store, "--out", tmp_path / "out", *TRAIN_FAST,
                   "--fold", fold) == 1
        assert f"fold {fold} does not exist: k=2" in capsys.readouterr().err

    def test_rerun_results_byte_identical(self, store, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 0
        assert (outs[0] / "results.csv").read_bytes() == \
               (outs[1] / "results.csv").read_bytes()

    def test_bad_store_labels_name_the_file(self, store, tmp_path, capsys):
        labels = store / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2"
        labels.write_text("\n".join(lines) + "\n")
        assert run("train", "--store", store, "--out", tmp_path / "out", *TRAIN_FAST) == 1
        assert (f"error: {labels}: line 3: label must be 0 or 1, got 2"
                in capsys.readouterr().err)

    def test_missing_label_names_the_store(self, store, tmp_path, capsys):
        labels = store / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        missing = lines[1].split(",")[0]
        assert run("train", "--store", store, "--out", tmp_path / "out", *TRAIN_FAST) == 1
        assert (f"error: {labels}: no outcome label for record ids: [{missing}]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("variant,flag", [
        ("lr-baseline", "--hidden"), ("lr-baseline", "--heads"), ("lstm-mean", "--heads"),
        ("lr-baseline", "--dropout-in"), ("lr-baseline", "--dropout-out"),
    ])
    def test_size_flag_the_variant_ignores_refused(self, store, tmp_path, capsys,
                                                   variant, flag):
        out = tmp_path / "out"
        value = "0.3" if flag.startswith("--dropout") else "3"  # valid, yet ignored
        assert run("train", "--store", store, "--out", out, "--variant", variant,
                   *TRAIN_BASE, flag, value) == 1
        assert f"error: {flag} has no effect on --variant {variant}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hours", ["3", "12"])
    def test_models_use_the_store_interval(self, tiny_corpus, tmp_path, hours):
        store = preprocess_into(tiny_corpus, tmp_path / "s", "--interval-hours", hours)
        out = tmp_path / "run"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST, "--fold", "0") == 0
        stored = json.loads((store / "stats.json").read_text())["interval_minutes"]
        assert stored == int(hours) * 60
        models = sorted((out / "models").glob("*.json"))
        assert models
        for path in models:
            assert json.loads(path.read_text())["preprocess"]["interval_minutes"] == stored

    @pytest.mark.parametrize("stats", [
        None, "{", "[]", "{}", '{"interval_minutes": 0}', '{"interval_minutes": -180}',
        '{"interval_minutes": 180.0}', '{"interval_minutes": "180"}',
        '{"interval_minutes": true}',
    ], ids=["missing", "not-json", "list", "no-interval", "zero", "negative", "float",
            "string", "bool"])
    def test_bad_store_stats_refused_before_training(self, store, tmp_path, capsys,
                                                     monkeypatch, stats):
        path = store / "stats.json"
        if stats is None:
            path.unlink()
        else:
            path.write_text(stats)
        monkeypatch.setattr("icurisk.train.fit_pipeline", lambda *a: pytest.fail("fitted"))
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "interval_minutes" in err
        assert not out.exists()

    def test_missing_store_fails(self, tmp_path):
        assert run("train", "--store", tmp_path / "nope",
                   "--out", tmp_path / "out", *TRAIN_FAST) == 1


@pytest.fixture
def model_path(trained):
    return sorted((trained / "models").glob("*.json"))[0]


@pytest.mark.parametrize("command", ["predict", "attention"])
def test_model_without_statistics_refused(command, model_path, tiny_corpus, tmp_path,
                                          capsys):
    doc = json.loads(model_path.read_text())
    doc["preprocess"] = None
    bare = tmp_path / "no-stats.json"
    bare.write_text(json.dumps(doc))
    record = sorted(tiny_corpus[0].glob("*.txt"))[0]
    out = tmp_path / "out.csv"
    assert run(command, "--model", bare, "--out", out, record) == 1
    assert (f"error: {bare}: model carries no preprocessing statistics"
            in capsys.readouterr().err)
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("minutes", [1.5, True, "180", 0], ids=["float", "bool", "string", "zero"])
def test_model_interval_must_be_a_positive_int(minutes, model_path, tiny_corpus, tmp_path,
                                               capsys):
    # Read as int() these would score at a 1-minute or 180-minute interval.
    doc = json.loads(model_path.read_text())
    doc["preprocess"]["interval_minutes"] = minutes
    bad = tmp_path / "bad-interval.json"
    bad.write_text(json.dumps(doc))
    record = sorted(tiny_corpus[0].glob("*.txt"))[0]
    out = tmp_path / "risks.csv"
    assert run("predict", "--model", bad, "--out", out, record) == 1
    assert (f"error: {bad}: preprocess: interval_minutes is {minutes!r}, not a positive integer"
            in capsys.readouterr().err)
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


class TestPredict:
    def test_risk_table(self, model_path, tiny_corpus, tmp_path):
        data_dir, _ = tiny_corpus
        records = sorted(data_dir.glob("*.txt"))[:3]
        out = tmp_path / "risks.csv"
        assert run("predict", "--model", model_path, "--out", out, *records) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,risk"
        assert len(lines) == 4
        for line in lines[1:]:
            _, risk = line.split(",")
            assert 0.0 < float(risk) < 1.0
        assert Path(str(out) + ".manifest.json").exists()

    def test_deterministic(self, model_path, tiny_corpus, tmp_path):
        data_dir, _ = tiny_corpus
        records = sorted(data_dir.glob("*.txt"))[:2]
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run("predict", "--model", model_path, "--out", out, *records) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_width_mismatch_rejected(self, model_path, tiny_corpus, tmp_path):
        doc = json.loads(model_path.read_text())
        doc["config"]["input_dim"] = 42
        bad = tmp_path / "bad-model.json"
        bad.write_text(json.dumps(doc))
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        assert run("predict", "--model", bad, "--out", tmp_path / "r.csv", record) == 1

    def test_statistics_width_mismatch_names_the_file(self, model_path, tiny_corpus,
                                                      tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["preprocess"]["feature_names"].pop()
        bad = tmp_path / "narrow-stats.json"
        bad.write_text(json.dumps(doc))
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        assert run("predict", "--model", bad, "--out", tmp_path / "r.csv", record) == 1
        assert (f"error: {bad}: feature width mismatch: model expects 185, "
                "statistics provide 184" in capsys.readouterr().err)

    def _predict_with_nan(self, model_path, tiny_corpus, tmp_path, capsys, poison):
        doc = json.loads(model_path.read_text())
        poison(doc)
        bad = tmp_path / "nan-model.json"
        bad.write_text(json.dumps(doc))
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        out = tmp_path / "risks.csv"
        assert run("predict", "--model", bad, "--out", out, record) == 1
        assert not out.exists()
        return capsys.readouterr().err, bad

    def test_non_finite_feature_rejected(self, model_path, tiny_corpus, tmp_path, capsys):
        def poison(doc):
            doc["preprocess"]["normalization"]["mean"][0] = float("nan")
        err, _ = self._predict_with_nan(model_path, tiny_corpus, tmp_path, capsys, poison)
        assert "record 140000" in err
        assert "feature Albumin_min" in err

    def test_non_finite_risk_rejected(self, model_path, tiny_corpus, tmp_path, capsys):
        def poison(doc):
            doc["params"]["out.w"]["data"][0] = float("nan")
        err, bad = self._predict_with_nan(model_path, tiny_corpus, tmp_path, capsys, poison)
        assert "record 140000" in err
        assert str(bad) in err

    def test_wrong_magic_rejected(self, tiny_corpus, tmp_path):
        bad = tmp_path / "not-model.json"
        bad.write_text('{"magic": "nope", "version": 1}')
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        assert run("predict", "--model", bad, "--out", tmp_path / "r.csv", record) == 1


class TestAttention:
    def test_trace_table(self, model_path, tiny_corpus, tmp_path):
        data_dir, _ = tiny_corpus
        records = sorted(data_dir.glob("*.txt"))[:2]
        out = tmp_path / "attn.csv"
        assert run("attention", "--model", model_path, "--out", out, *records) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,head,interval,probability"

        params, stats = load_model(model_path)
        rows_per_episode = {}
        sums = {}
        for line in lines[1:]:
            rid, head, interval, prob = line.split(",")
            rows_per_episode[rid] = rows_per_episode.get(rid, 0) + 1
            sums[(rid, head)] = sums.get((rid, head), 0.0) + float(prob)
        for (rid, head), total in sums.items():
            assert abs(total - 1.0) <= 1e-6
        # heads x intervals rows per episode
        for path in records:
            ep = parse_record(path.read_text())
            feats = build_features(ep, stats)
            expected = params.config.heads * feats.matrix.shape[0]
            assert rows_per_episode[str(ep.record_id)] == expected

    def test_matches_forward_trace_exactly(self, model_path, tiny_corpus, tmp_path):
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        out = tmp_path / "attn.csv"
        assert run("attention", "--model", model_path, "--out", out, record) == 0

        params, stats = load_model(model_path)
        ep = parse_record(record.read_text())
        trace = forward_episode(build_features(ep, stats).matrix, params,
                                record_id=ep.record_id).trace
        for line in out.read_text().splitlines()[1:]:
            rid, head, interval, prob = line.split(",")
            assert float(prob) == trace.weights[int(head), int(interval)]

    def test_states_flag_appends_vectors(self, model_path, tiny_corpus, tmp_path):
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        out = tmp_path / "attn.csv"
        assert run("attention", "--model", model_path, "--out", out,
                   "--states", record) == 0
        header = out.read_text().splitlines()[0].split(",")
        params, _ = load_model(model_path)
        assert header[4:] == [f"state_{i}" for i in range(params.config.state_dim)]

    @pytest.mark.parametrize("name", ["head0.M", "fw.Wi"])
    def test_nan_weight_refused_before_writing(self, model_path, tiny_corpus, tmp_path,
                                               capsys, name):
        doc = json.loads(model_path.read_text())
        doc["params"][name]["data"][0] = float("nan")
        bad = tmp_path / "nan-model.json"
        bad.write_text(json.dumps(doc))
        records = sorted(tiny_corpus[0].glob("*.txt"))[:2]
        out = tmp_path / "attn.csv"
        assert run("attention", "--model", bad, "--out", out, "--states", *records) == 1
        assert (f"error: record 140000: model {bad} gives a non-finite risk (nan)"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_mean_pooling_model_rejected(self, store, tmp_path, capsys):
        out = tmp_path / "mean-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lstm-mean", *TRAIN_BASE, "--hidden", "3") == 0
        model = out / "models" / "lstm-mean-fold0.json"
        record = next((store / "episodes").glob("*.txt"))
        assert run("attention", "--model", model,
                   "--out", tmp_path / "t.csv", record) == 1
        assert "attention" in capsys.readouterr().err


def _subparser(name: str) -> argparse.ArgumentParser:
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return commands.choices[name]


def test_each_default_has_one_source():
    """Every train flag's default is its config field's, and preprocess's
    interval default is the one constant that TrainConfig and fit_pipeline use;
    --help and the README flag table show those same values."""
    config_of = {f.name: config for config in (TrainConfig, ModelConfig)
                 for f in fields(config)}
    train = _subparser("train")
    args = train.parse_args(["--store", "s", "--out", "o"])
    flags = {}
    for action in train._actions:
        if action.dest not in config_of:
            continue
        config = config_of[action.dest]
        default = getattr(config, action.dest)
        # ModelConfig flags stay None unless given, so train can refuse them.
        assert getattr(args, action.dest) == (None if config is ModelConfig else default)
        assert f"(default {default})" in action.help
        flags[action.option_strings[0]] = default
    assert sorted(flags) == ["--batch", "--dropout-in", "--dropout-out", "--epochs",
                             "--folds", "--heads", "--hidden", "--lr", "--patience", "--seed"]
    assert _given(args, ModelConfig) == {}
    assert TrainConfig(**_given(args, TrainConfig)) == TrainConfig()

    hours = _subparser("preprocess").parse_args(
        ["--data-dir", "d", "--outcomes", "o", "--out", "s"]).interval_hours
    assert hours * 60 == DEFAULT_INTERVAL_MINUTES == TrainConfig.interval_minutes
    assert inspect.signature(fit_pipeline).parameters["interval_minutes"].default == \
        DEFAULT_INTERVAL_MINUTES
    assert ModelConfig.input_dim == feature_width()

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = [line.split("|")[1:3] for line in readme.splitlines()
            if line.startswith("| `--")]
    table = {flag: cell.strip() for names, cell in rows
             for flag in re.findall(r"`(--[a-z-]+)`", names)}
    for flag, default in flags.items():
        assert float(table[flag]) == default, flag
    assert table["--variant"] == f"`{args.variant}`"
    assert table["--fold"] == "all" and args.fold is None
    assert table["--store"] == table["--out"] == "required"
    # One row per flag, and no --interval-hours: the store sets train's interval.
    assert sorted(table) == sorted(a.option_strings[0] for a in train._actions[1:])


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--store", "s", "--out", "o", "--bidirectional"],
        ["train", "--store", "s", "--out", "o", "--pooling", "mean"],
        ["preprocess", "--data-dir", "d", "--outcomes", "o", "--out", "s", "--seed", "0"],
        ["predict", "--model", "m", "--out", "o", "--seed", "0", "r.txt"],
        ["train", "--store", "s", "--out", "o", "--interval-hours", "12"],
    ], ids=["bidirectional", "pooling", "preprocess-seed", "predict-seed",
            "train-interval-hours"])
    def test_removed_flags_rejected(self, argv):
        # --variant alone picks the architecture; only train draws random numbers;
        # the store alone sets the interval.
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--store", tmp_path, "--out", tmp_path,
                "--variant", "gru-mean")
        assert exc.value.code == 2
