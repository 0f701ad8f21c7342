"""End-to-end command tests on a small synthetic corpus."""

import json
from pathlib import Path

import numpy as np
import pytest

from icurisk.cli import main
from icurisk.model import forward_episode, load_model
from icurisk.preprocess import build_features
from icurisk.ingest import parse_record


def run(*argv):
    return main([str(a) for a in argv])


def read_store_bytes(store: Path) -> dict[str, bytes]:
    return {str(p.relative_to(store)): p.read_bytes()
            for p in sorted(store.rglob("*")) if p.is_file()}


TRAIN_FAST = ["--folds", "2", "--epochs", "2", "--patience", "2",
              "--hidden", "3", "--heads", "1", "--batch", "4",
              "--interval-hours", "12", "--seed", "0"]


@pytest.fixture
def store(tiny_corpus, tmp_path):
    data_dir, outcomes = tiny_corpus
    out = tmp_path / "store"
    assert run("preprocess", "--data-dir", data_dir, "--outcomes", outcomes,
               "--out", out) == 0
    return out


@pytest.fixture
def trained(store, tmp_path):
    out = tmp_path / "run"
    assert run("train", "--store", store, "--out", out, *TRAIN_FAST) == 0
    return out


class TestPreprocess:
    def test_store_layout(self, store):
        assert (store / "stats.json").exists()
        assert (store / "labels.csv").exists()
        assert (store / "manifest.json").exists()
        features = list((store / "features").glob("*.csv"))
        episodes = list((store / "episodes").glob("*.txt"))
        assert len(features) == len(episodes) == 12

    def test_feature_matrices_are_finite_and_capped(self, store):
        for path in (store / "features").glob("*.csv"):
            lines = path.read_text().splitlines()
            assert len(lines[0].split(",")) == 185
            assert len(lines) - 1 <= 16
            values = np.array([[float(v) for v in line.split(",")]
                               for line in lines[1:]])
            assert np.isfinite(values).all()

    def test_manifest_contents(self, store):
        manifest = json.loads((store / "manifest.json").read_text())
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
        assert first.startswith("lstm-attn,")  # no --bidirectional flag

    def test_models_reload(self, trained):
        for path in (trained / "models").glob("*.json"):
            params, stats = load_model(path)
            assert stats is not None
            assert params.config.input_dim == 185

    def test_variant_flag(self, store, tmp_path):
        out = tmp_path / "mean-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lstm-mean", *TRAIN_FAST) == 0
        assert (out / "results.csv").read_text().startswith("variant")
        assert (out / "models" / "lstm-mean-fold0.json").exists()

    def test_lr_baseline_variant(self, store, tmp_path):
        out = tmp_path / "lr-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lr-baseline", *TRAIN_FAST) == 0
        params, stats = load_model(out / "models" / "lr-baseline-fold0.json")
        assert not params.config.recurrent
        assert stats.interval_minutes == 2880

    def test_manifest_records_resolved_configuration(self, store, tmp_path):
        for variant in ("bilstm-attn", "lr-baseline"):
            out = tmp_path / variant
            assert run("train", "--store", store, "--out", out, "--variant", variant,
                       *TRAIN_FAST, "--fold", "0") == 0
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

    def test_missing_store_fails(self, tmp_path):
        assert run("train", "--store", tmp_path / "nope",
                   "--out", tmp_path / "out", *TRAIN_FAST) == 1


@pytest.fixture
def model_path(trained):
    return sorted((trained / "models").glob("*.json"))[0]


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

    def test_mean_pooling_model_rejected(self, store, tmp_path, capsys):
        out = tmp_path / "mean-run"
        assert run("train", "--store", store, "--out", out,
                   "--variant", "lstm-mean", *TRAIN_FAST) == 0
        model = out / "models" / "lstm-mean-fold0.json"
        record = next((store / "episodes").glob("*.txt"))
        assert run("attention", "--model", model,
                   "--out", tmp_path / "t.csv", record) == 1
        assert "attention" in capsys.readouterr().err


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--store", tmp_path, "--out", tmp_path,
                "--variant", "gru-mean")
        assert exc.value.code == 2
