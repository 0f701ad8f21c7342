"""End-to-end command tests on a small synthetic corpus."""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from icurisk import ingest
from icurisk.cli import _digest_files, _given, build_parser, main
from icurisk.model import ModelConfig, ModelParams, forward_episode, load_model, save_model
from icurisk.preprocess import (
    DEFAULT_INTERVAL_MINUTES, EpisodeFeatures, PipelineStats, build_features, feature_width,
    fit_pipeline)
from icurisk.ingest import parse_record
from icurisk.train import TrainConfig, train_fold

from conftest import record_text, write_corpus


def run(*argv):
    return main([str(a) for a in argv])


def undecodable(path: Path, err: str) -> bool:
    """Whether ``err`` refuses ``path`` for a leading byte 0xff, not UTF-8."""
    return err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err


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
        """A whole number below 1 fails ``check_count``; anything else fails
        argparse's ``int``."""
        data_dir, outcomes = tiny_corpus
        (data_dir / "140099.txt").write_text("not a record\n")  # read first, it would fail
        out = tmp_path / "s"
        argv = ("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                "--out", out, "--interval-hours", hours)
        if hours in ("0", "-3"):
            assert run(*argv) == 1
            assert (capsys.readouterr().err
                    == f"error: interval_hours is {hours}, not a positive integer\n")
        else:
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 2
            assert (f"argument --interval-hours: invalid int value: '{hours}'"
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
        stale = out / "episodes" / "140005.txt"
        assert (f"error: {stale}: --out {out} holds a file this run does not write"
                in capsys.readouterr().err)
        assert read_store_bytes(out) == before  # refused before anything is written

    def test_out_a_train_run_refused(self, tiny_corpus, trained, capsys):
        """A store written over a train run would sit beside its models and
        results under preprocess's manifest."""
        before = read_store_bytes(trained)
        data_dir, outcomes = tiny_corpus
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", trained) == 1
        stale = trained / "models" / "lstm-attn-fold0.json"
        assert (f"error: {stale}: --out {trained} holds a file this run does not write; "
                "preprocess into a new directory" in capsys.readouterr().err)
        assert read_store_bytes(trained) == before

    def test_failed_rerun_leaves_no_manifest(self, tiny_corpus, tmp_path, capsys,
                                             monkeypatch):
        """A rerun at another interval that fails after its first write must
        not leave the finished store's manifest beside its new statistics."""
        data_dir, outcomes = tiny_corpus
        out = preprocess_into(tiny_corpus, tmp_path / "s", "--interval-hours", "12")
        serialize, calls = ingest.serialize_record, []

        def fail_third(ep):
            calls.append(ep.record_id)
            if len(calls) == 3:
                raise OSError("disk full")
            return serialize(ep)

        monkeypatch.setattr("icurisk.ingest.serialize_record", fail_third)
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert json.loads((out / "stats.json").read_text())["interval_minutes"] == 180
        assert not (out / "manifest.json").exists()
        capsys.readouterr()
        assert run("train", "--store", out, "--out", tmp_path / "run", *TRAIN_BASE) == 1
        assert (f"error: {out / 'manifest.json'}: not found, so {out} is not a finished "
                "store" in capsys.readouterr().err)

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

    @pytest.mark.parametrize("name, value", [("Gender", 2), ("ICUType", 7)])
    def test_static_outside_its_codes_names_the_file(self, tiny_corpus, tmp_path, capsys,
                                                     name, value):
        data_dir, outcomes = tiny_corpus
        bad = data_dir / "149999.txt"
        bad.write_text(record_text(149999, {"Age": 70, name: value}, [(60, "HR", 80.0)]))
        outcomes.write_text(outcomes.read_text() + "149999,10,5,12,-1,0\n")
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert (f"error: {bad}: {name} is {float(value)!r}, not one of"
                in capsys.readouterr().err)
        assert not out.exists()  # refused before anything is written

    def test_unobserved_parameter_warned_with_open_bounds(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        for path in data_dir.glob("*.txt"):
            path.write_text("".join(line for line in path.read_text().splitlines(True)
                                    if ",DiasABP," not in line))
        out = preprocess_into(tiny_corpus, tmp_path / "s")
        assert ("warning: no observations for DiasABP; bounds left open\n"
                in capsys.readouterr().err)
        assert json.loads((out / "stats.json").read_text())["truncation"]["unobserved"] == [
            "DiasABP"]

    def test_missing_data_dir_fails(self, tmp_path):
        assert run("preprocess", "--data-dir", tmp_path / "nope",
                   "--outcomes", tmp_path / "o.csv", "--out", tmp_path / "s") == 1

    def test_empty_data_dir_named(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        for path in data_dir.glob("*.txt"):
            path.unlink()
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"error: no record files (*.txt) under {data_dir}\n"
        assert not out.exists()

    def test_bad_outcomes_row_names_the_file(self, tiny_corpus, tmp_path, capsys):
        data_dir, outcomes = tiny_corpus
        lines = outcomes.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",x"
        outcomes.write_text("\n".join(lines) + "\n")
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", tmp_path / "s") == 1
        assert f"error: {outcomes}: line 6: bad label 'x'" in capsys.readouterr().err

    def test_outcomes_field_over_csv_limit_names_the_file(self, tiny_corpus, tmp_path,
                                                          capsys):
        data_dir, outcomes = tiny_corpus
        lines = outcomes.read_text().splitlines()
        lines[5] += "x" * 131_073
        outcomes.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert (capsys.readouterr().err
                == f"error: {outcomes}: line 6: field larger than field limit (131072)\n")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["record", "outcomes"])
    def test_undecodable_input_names_the_file(self, tiny_corpus, tmp_path, capsys, which):
        data_dir, outcomes = tiny_corpus
        bad = sorted(data_dir.glob("*.txt"))[3] if which == "record" else outcomes
        bad.write_bytes(b"\xff" + bad.read_bytes())
        out = tmp_path / "s"
        assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
                   "--out", out) == 1
        assert undecodable(bad, capsys.readouterr().err)
        assert not out.exists()


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

    def test_out_a_file_refused_before_any_fold_trains(self, store, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("icurisk.train.train_fold", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "file"
        out.write_text("kept\n")
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert f"Not a directory: '{out / 'models'}'" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_other_runs_model_refused_before_any_fold_trains(self, store, trained, capsys,
                                                            monkeypatch):
        """``--fold 0`` over a finished 2-fold run would leave fold 1's model
        beside results that list fold 0 alone."""
        before = read_store_bytes(trained)
        monkeypatch.setattr("icurisk.train.train_fold", lambda *a, **k: pytest.fail("trained"))
        assert run("train", "--store", store, "--out", trained, *TRAIN_FAST, "--fold", "0") == 1
        stale = trained / "models" / "lstm-attn-fold1.json"
        assert (f"error: {stale}: --out {trained} holds a file this run does not write; "
                "train into a new directory" in capsys.readouterr().err)
        assert read_store_bytes(trained) == before

    def test_out_the_store_refused(self, store, capsys, monkeypatch):
        """Training into the store would replace its manifest with train's."""
        before = read_store_bytes(store)
        monkeypatch.setattr("icurisk.cli._store_stats", lambda *a: pytest.fail("read"))
        same = store / ".." / store.name
        assert run("train", "--store", store, "--out", same, *TRAIN_FAST) == 1
        assert (f"error: --out {same} is --store {store}; train into a new directory"
                in capsys.readouterr().err)
        assert read_store_bytes(store) == before

    def test_out_another_store_refused(self, store, tiny_corpus, tmp_path, capsys):
        """Training into another store would replace its manifest with train's,
        and ``train --store`` would then take it for a finished store."""
        other = preprocess_into(tiny_corpus, tmp_path / "other-store")
        before = read_store_bytes(other)
        assert run("train", "--store", store, "--out", other, *TRAIN_FAST) == 1
        stale = other / "episodes" / "140000.txt"
        assert (f"error: {stale}: --out {other} holds a file this run does not write; "
                "train into a new directory" in capsys.readouterr().err)
        assert read_store_bytes(other) == before

    @pytest.mark.parametrize("finished_before", [False, True], ids=["new", "over-finished"])
    def test_divergence_keeps_finished_folds(self, store, tmp_path, capsys, monkeypatch,
                                             finished_before):
        """Fold 1 trains on NaN matrices: fold 0's model and row stay, and no
        manifest marks the run finished, not even an earlier run's."""
        out = tmp_path / "run"
        if finished_before:
            assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 0
            finished = (out / "results.csv").read_text().splitlines()
            capsys.readouterr()

        def nan_fold_1(train_features, *args, **kwargs):
            if kwargs["fold"] == 1:
                train_features = [EpisodeFeatures(f.record_id, np.full_like(f.matrix, np.nan),
                                                  f.label) for f in train_features]
            return train_fold(train_features, *args, **kwargs)

        monkeypatch.setattr("icurisk.train.train_fold", nan_fold_1)
        with np.errstate(all="ignore"):
            assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert capsys.readouterr().err.startswith("error: fold 1: non-finite training loss")
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("lstm-attn,0,")
        assert load_model(out / "models" / "lstm-attn-fold0.json")[1] is not None
        assert not (out / "manifest.json").exists()
        if finished_before:
            assert lines == finished[:2]
        else:
            assert not (out / "models" / "lstm-attn-fold1.json").exists()

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

    @pytest.mark.parametrize("name", ["episodes/140003.txt", "labels.csv", "stats.json"])
    def test_undecodable_store_file_named(self, store, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr("icurisk.train.fit_pipeline", lambda *a: pytest.fail("fitted"))
        bad = store / name
        bad.write_bytes(b"\xff" + bad.read_bytes())
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert undecodable(bad, capsys.readouterr().err)
        assert not out.exists()

    def test_store_labels_parsed_once(self, store, tmp_path, monkeypatch):
        parsed = []
        parse_outcomes = ingest.parse_outcomes
        monkeypatch.setattr(ingest, "parse_outcomes",
                            lambda text: parsed.append(text) or parse_outcomes(text))
        assert run("train", "--store", store, "--out", tmp_path / "out", *TRAIN_FAST) == 0
        assert parsed == [(store / "labels.csv").read_text()]

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

    @pytest.mark.parametrize("stats, message", [
        (None, "No such file or directory"),
        ("{", "Expecting property name enclosed in double quotes"),
        ("[]", "list indices must be integers or slices, not str"),
        ("{}", "missing field 'interval_minutes'"),
        ({"interval_minutes": 0}, "interval_minutes is 0, not a positive integer"),
        ({"interval_minutes": -180}, "interval_minutes is -180, not a positive integer"),
        ({"interval_minutes": 180.0}, "interval_minutes is 180.0, not a positive integer"),
        ({"interval_minutes": "180"}, "interval_minutes is '180', not a positive integer"),
        ({"interval_minutes": True}, "interval_minutes is True, not a positive integer"),
        ({"feature_names": ["Bogus"]}, "feature_names[0] is 'Bogus', expected 'Albumin_min'"),
        ({"imputation": {"series_means": [10**400]}}, "too large"),
    ], ids=["missing", "not-json", "list", "no-interval", "zero", "negative", "float",
            "string", "bool", "feature-names", "huge-int"])
    def test_bad_store_stats_refused_before_training(self, store, tmp_path, capsys,
                                                     monkeypatch, stats, message):
        """A text, or fields set inside the statistics preprocess wrote."""
        path = store / "stats.json"
        if stats is None:
            path.unlink()
        elif isinstance(stats, str):
            path.write_text(stats)
        else:
            path.write_text(json.dumps(json.loads(path.read_text()) | stats))
        monkeypatch.setattr("icurisk.train.fit_pipeline", lambda *a: pytest.fail("fitted"))
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        err = capsys.readouterr().err
        assert message in err
        # A missing file's OSError names the path in its own text.
        assert f"'{path}'" in err if stats is None else err.startswith(f"error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "nan"], "learning_rate is nan, not finite and above 0"),
        (["--lr", "inf"], "learning_rate is inf, not finite and above 0"),
        (["--seed", "-1"], "seed is -1, not an integer of at least 0"),
        (["--batch", "0"], "batch_size is 0, not a positive integer"),
        (["--dropout-in", "1.5"], "dropout_in is 1.5, not in [0, 1)"),
    ], ids=["nan-lr", "inf-lr", "negative-seed", "zero-batch", "dropout-above-1"])
    def test_bad_config_refused_before_any_record_is_parsed(self, store, tmp_path, capsys,
                                                            monkeypatch, flags, message):
        monkeypatch.setattr("icurisk.ingest.parse_record", lambda *a: pytest.fail("parsed"))
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST, *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_half_written_store_refused(self, tmp_path, capsys):
        """What an interrupted preprocess leaves: half the episode files and
        no manifest.  Training on the rest would pass for a finished run."""
        store = preprocess_into(write_corpus(tmp_path / "data", n=40), tmp_path / "store")
        for path in sorted((store / "episodes").glob("*.txt"))[20:]:
            path.unlink()
        (store / "manifest.json").unlink()
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_BASE) == 1
        assert (f"error: {store / 'manifest.json'}: not found, so {store} is not a "
                "finished store" in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_episode_file_named(self, store, tmp_path, capsys):
        episodes = sorted((store / "episodes").glob("*.txt"))
        for path in episodes[3:]:
            path.unlink()
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert (f"error: {episodes[3]}: missing, though listed in {store / 'labels.csv'}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_extra_episode_file_named(self, store, tmp_path, capsys):
        """A file whose name is not its labeled record's id, here a renamed one."""
        extra = store / "episodes" / "0.txt"
        (store / "episodes" / "140000.txt").rename(extra)
        assert run("train", "--store", store, "--out", tmp_path / "out", *TRAIN_FAST) == 1
        assert (f"error: {extra}: extra: not listed in {store / 'labels.csv'}"
                in capsys.readouterr().err)

    def test_record_in_two_store_files_refused(self, store, tmp_path, capsys, monkeypatch):
        """Both files' names are listed, so only their ids show the defect:
        one stay would enter cross-validation twice."""
        monkeypatch.setattr("icurisk.train.train_fold", lambda *a, **k: pytest.fail("trained"))
        first, copy = store / "episodes" / "140001.txt", store / "episodes" / "140002.txt"
        copy.write_bytes(first.read_bytes())
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert (capsys.readouterr().err
                == f"error: {copy}: record id 140001 is also the id of {first}\n")
        assert not out.exists()

    def test_store_without_episodes_refused(self, store, tmp_path, capsys):
        for path in (store / "episodes").glob("*.txt"):
            path.unlink()
        out = tmp_path / "out"
        assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 1
        assert (capsys.readouterr().err
                == f"error: no record files (*.txt) under {store / 'episodes'}\n")
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


@pytest.mark.parametrize("command", ["predict", "attention"])
@pytest.mark.parametrize("where", ["a-directory", "in-no-directory"])
def test_bad_out_refused_before_the_model_loads(command, where, model_path, tiny_corpus,
                                                tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("icurisk.cli.load_model", lambda *a: pytest.fail("loaded"))
    monkeypatch.setattr("icurisk.cli.forward_episode", lambda *a, **k: pytest.fail("scored"))
    out = tmp_path / "dir" if where == "a-directory" else tmp_path / "nodir" / "p.csv"
    if where == "a-directory":
        out.mkdir()
    record = sorted(tiny_corpus[0].glob("*.txt"))[0]
    assert run(command, "--model", model_path, "--out", out, record) == 1
    assert (capsys.readouterr().err
            == f"error: --out {out} is not a file in an existing directory\n")
    assert not any(out.iterdir()) if out.is_dir() else not out.parent.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("command", ["predict", "attention"])
@pytest.mark.parametrize("overwritten", ["record", "model", "manifest", "hard-link"])
def test_out_over_an_input_refused_before_the_model_loads(command, overwritten, model_path,
                                                          tiny_corpus, tmp_path, capsys,
                                                          monkeypatch):
    """The risks, or their manifest, would replace a record or the model,
    which ``--out`` names by another path or is a hard link to."""
    monkeypatch.setattr("icurisk.cli.load_model", lambda *a: pytest.fail("loaded"))
    records = sorted(tiny_corpus[0].glob("*.txt"))[:2]
    role, path = ("--model", model_path) if overwritten == "model" else ("record", records[1])
    out = path.parent / ".." / path.parent.name / path.name
    if overwritten == "manifest":
        out = tmp_path / "risks.csv"
        records[1] = path = path.rename(f"{out}.manifest.json")
    elif overwritten == "hard-link":
        out = tmp_path / "risks.csv"
        os.link(path, out)
    inputs = {p: p.read_bytes() for p in [model_path, *records]}
    assert run(command, "--model", model_path, "--out", out, *records) == 1
    assert (capsys.readouterr().err
            == f"error: --out {out} would overwrite {role} {path}; {command} into a new file\n")
    assert {p: p.read_bytes() for p in inputs} == inputs
    assert not (out if overwritten == "manifest" else Path(f"{out}.manifest.json")).exists()


@pytest.mark.parametrize("command", ["predict", "attention"])
def test_rerun_removes_the_old_manifest_once_every_risk_is_finite(
        command, model_path, tiny_corpus, tmp_path, capsys, monkeypatch):
    """A refused rerun keeps the earlier run's files; one whose write fails
    leaves no manifest beside its partial output."""
    records = sorted(tiny_corpus[0].glob("*.txt"))[:2]
    out = tmp_path / "out.csv"
    manifest = Path(str(out) + ".manifest.json")
    assert run(command, "--model", model_path, "--out", out, *records) == 0
    before = out.read_bytes(), manifest.read_bytes()

    doc = json.loads(model_path.read_text())
    doc["params"]["out.w"]["data"][0] = float("nan")
    bad = tmp_path / "nan-model.json"
    bad.write_text(json.dumps(doc))
    assert run(command, "--model", bad, "--out", out, *records) == 1
    assert "gives a non-finite risk (nan)" in capsys.readouterr().err
    assert (out.read_bytes(), manifest.read_bytes()) == before

    write_text = Path.write_text

    def disk_full(path, text, *args, **kwargs):
        if path == out:
            write_text(path, text[:20])
            raise OSError(28, "No space left on device")
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert run(command, "--model", model_path, "--out", out, *records) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not manifest.exists()


@pytest.mark.parametrize("command", ["predict", "attention"])
def test_undecodable_record_named(command, model_path, tiny_corpus, tmp_path, capsys):
    records = sorted(tiny_corpus[0].glob("*.txt"))[:2]
    records[1].write_bytes(b"\xff" + records[1].read_bytes())
    out = tmp_path / "out.csv"
    assert run(command, "--model", model_path, "--out", out, *records) == 1
    assert undecodable(records[1], capsys.readouterr().err)
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
        _, stats = load_model(model_path)
        bad = tmp_path / "narrow-model.json"
        save_model(bad, ModelParams.init(ModelConfig(input_dim=184, hidden=3),
                                         np.random.default_rng(0)), stats)
        data_dir, _ = tiny_corpus
        record = sorted(data_dir.glob("*.txt"))[0]
        assert run("predict", "--model", bad, "--out", tmp_path / "r.csv", record) == 1
        assert (f"error: {bad}: feature width mismatch: model expects 184, "
                "statistics provide 185" in capsys.readouterr().err)

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
        # Refused at load, before any record is read: the error names the
        # file, the statistic and the feature.
        err, bad = self._predict_with_nan(model_path, tiny_corpus, tmp_path, capsys, poison)
        assert (f"error: {bad}: preprocess: feature Albumin_min: fitted normalization mean "
                "is nan") in err

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


def test_digest_depends_on_names_and_bytes_not_directories_or_order(tmp_path):
    # Two trees holding the same files: the model sorts before data/ by full
    # path in one and after it in the other.
    files = {"bilstm-attn-fold0.json": b'{"weights": []}\n', "140000.txt": b"00:00,HR,70\n"}
    digests = []
    for model_dir, data_dir in (("a/models", "b/data"), ("z/models", "b/data")):
        paths = []
        for name, directory in zip(files, (model_dir, data_dir)):
            path = tmp_path / directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(files[name])
            paths.append(path)
        digests += [_digest_files(paths), _digest_files(paths[::-1])]
    assert len(set(digests)) == 1
    renamed = tmp_path / "b/data/140001.txt"
    renamed.write_bytes(files["140000.txt"])
    assert _digest_files([paths[0], renamed]) != digests[0]
    paths[1].write_bytes(b"00:00,HR,71\n")
    assert _digest_files(paths) != digests[0]


def test_module_entry_point_runs():
    """``python -m icurisk`` is the console script's ``main``."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "icurisk", "--help"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "{preprocess,train,predict,attention}" in done.stdout


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
