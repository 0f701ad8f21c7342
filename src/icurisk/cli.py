"""Command-line surface: preprocess, train, predict, attention.

Every command resolves its flags into a run manifest (JSON) written next to
its outputs, including a content digest of the inputs; rerunning a command
with the same flags and seed reproduces its outputs byte for byte.

The preprocess command builds a feature store::

    store/
      manifest.json     resolved flags, seed, input digest
      stats.json        fitted truncation/imputation/normalization statistics
      labels.csv        RecordID,In-hospital_death rows
      features/<id>.csv final interval-by-feature matrices (fit on all episodes)
      episodes/<id>.txt canonical copies of the parsed records

The train command reads the canonical episodes (not the matrices) so each
cross-validation fold can refit preprocessing on its own training split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import icurisk
from icurisk import ingest, preprocess
from icurisk.model import (
    ModelConfig,
    ModelFormatError,
    ModelParams,
    forward_episode,
    load_model,
    save_model,
)
from icurisk.train import (
    TrainConfig,
    VARIANTS,
    apply_variant,
    cross_validate,
    describe_variant,
)


def _digest_files(paths: list[Path]) -> str:
    """Order-independent content digest over a set of input files."""
    parts = []
    for path in sorted(paths):
        file_hash = hashlib.sha256(path.read_bytes()).hexdigest()
        parts.append(f"{path.name}:{file_hash}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _write_manifest(path: Path, command: str, options: dict, seed: int,
                    dataset_digest: str) -> None:
    manifest = {
        "command": command,
        "options": options,
        "seed": seed,
        "dataset_digest": dataset_digest,
        "artifact_version": icurisk.__version__,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_file(path: Path, parse):
    """``parse`` of a file's text; an ingest error names the file."""
    try:
        return parse(path.read_text())
    except ingest.IngestError as exc:
        raise ingest.IngestError(f"{path}: {exc}") from exc


def _read_records(paths: list[Path]) -> list[ingest.RawEpisode]:
    return [_parse_file(path, ingest.parse_record) for path in paths]


def _load_store(store: Path) -> list[ingest.RawEpisode]:
    episode_files = sorted((store / "episodes").glob("*.txt"))
    if not episode_files:
        raise FileNotFoundError(f"no episodes found under {store / 'episodes'}")
    episodes = _read_records(episode_files)
    labels = _parse_file(store / "labels.csv", ingest.parse_outcomes)
    return ingest.join_labels(episodes, labels)


# -- preprocess ---------------------------------------------------------------


def cmd_preprocess(args) -> int:
    data_dir = Path(args.data_dir)
    record_files = sorted(data_dir.glob("*.txt"))
    if not record_files:
        raise FileNotFoundError(f"no record files (*.txt) under {data_dir}")
    outcomes_path = Path(args.outcomes)

    episodes = _read_records(record_files)
    labels = _parse_file(outcomes_path, ingest.parse_outcomes)
    episodes = ingest.join_labels(episodes, labels)

    interval_minutes = args.interval_hours * 60
    stats = preprocess.fit_pipeline(episodes, interval_minutes)

    out = Path(args.out)
    (out / "features").mkdir(parents=True, exist_ok=True)
    (out / "episodes").mkdir(parents=True, exist_ok=True)

    (out / "stats.json").write_text(json.dumps(stats.to_dict()) + "\n")
    with open(out / "labels.csv", "w") as fh:
        fh.write("RecordID,In-hospital_death\n")
        for ep in episodes:
            fh.write(f"{ep.record_id},{ep.label}\n")
    header = ",".join(stats.feature_names)
    for ep in episodes:
        features = preprocess.build_features(ep, stats)
        rows = [",".join(repr(float(v)) for v in row) for row in features.matrix]
        (out / "features" / f"{ep.record_id}.csv").write_text(
            header + "\n" + "\n".join(rows) + "\n"
        )
        (out / "episodes" / f"{ep.record_id}.txt").write_text(
            ingest.serialize_record(ep)
        )

    _write_manifest(
        out / "manifest.json", "preprocess",
        {"data_dir": str(data_dir), "outcomes": str(outcomes_path),
         "interval_hours": args.interval_hours, "out": str(out)},
        seed=args.seed,
        dataset_digest=_digest_files(record_files + [outcomes_path]),
    )
    for name in stats.truncation.unobserved:
        print(f"warning: no observations for {name}; bounds left open", file=sys.stderr)
    print(f"preprocessed {len(episodes)} episodes into {out}")
    return 0


# -- train --------------------------------------------------------------------


def _model_config_from_args(args) -> ModelConfig:
    return ModelConfig(
        input_dim=preprocess.feature_width(),
        hidden=args.hidden,
        heads=args.heads,
        bidirectional=args.bidirectional,
        pooling=args.pooling,
        dropout_in=args.dropout_in,
        dropout_out=args.dropout_out,
    )


def cmd_train(args) -> int:
    store = Path(args.store)
    episodes = _load_store(store)

    cfg = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        folds=args.folds,
        interval_minutes=args.interval_hours * 60,
    )
    model_cfg = _model_config_from_args(args)
    if args.variant:
        cfg, model_cfg = apply_variant(args.variant, cfg, model_cfg)
    variant = args.variant or describe_variant(model_cfg)

    result = cross_validate(episodes, cfg, model_cfg, only_fold=args.fold)

    out = Path(args.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    lines = ["variant,fold,auc,best_epoch,final_train_loss"]
    for fold_result in result.folds:
        lines.append(
            f"{variant},{fold_result.fold},{fold_result.val_auc!r},"
            f"{fold_result.best_epoch},{fold_result.train_losses[-1]!r}"
        )
        save_model(out / "models" / f"{variant}-fold{fold_result.fold}.json",
                   fold_result.params, fold_result.pipeline)
    lines.append(f"{variant},mean,{result.mean_auc!r},,")
    lines.append(f"{variant},std,{result.std_auc!r},,")
    lines.append(f"{variant},pooled,{result.pooled_auc!r},,")
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    store_files = sorted((store / "episodes").glob("*.txt")) + [store / "labels.csv"]
    _write_manifest(
        out / "manifest.json", "train",
        {"store": str(store), "out": str(out), "variant": variant, "fold": args.fold,
         "train": asdict(cfg), "model": asdict(model_cfg)},
        seed=args.seed,
        dataset_digest=_digest_files(store_files),
    )
    print(f"{variant}: mean AUC {result.mean_auc:.4f} "
          f"(+/- {result.std_auc:.4f}) over {len(result.folds)} fold(s)")
    return 0


# -- predict / attention --------------------------------------------------------


def _load_scoring_model(path: Path) -> tuple[ModelParams, preprocess.PipelineStats]:
    params, stats = load_model(path)
    if stats is None:
        raise ModelFormatError(
            f"{path}: model carries no preprocessing statistics; cannot score raw records"
        )
    width = len(stats.feature_names)
    if params.config.input_dim != width:
        raise ModelFormatError(
            f"{path}: feature width mismatch: model expects {params.config.input_dim}, "
            f"statistics provide {width}"
        )
    return params, stats


def _features_for(paths: list[Path], stats) -> list[preprocess.EpisodeFeatures]:
    episodes = _read_records(paths)
    return [preprocess.build_features(ep, stats) for ep in episodes]


def cmd_predict(args) -> int:
    model_path = Path(args.model)
    params, stats = _load_scoring_model(model_path)
    record_paths = [Path(p) for p in args.records]
    features = _features_for(record_paths, stats)

    lines = ["record_id,risk"]
    for feat in features:
        result = forward_episode(feat.matrix, params, record_id=feat.record_id)
        if not np.isfinite(result.risk):
            raise ValueError(f"record {feat.record_id}: model {model_path} "
                             f"gives a non-finite risk ({result.risk})")
        lines.append(f"{feat.record_id},{result.risk!r}")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")

    _write_manifest(
        Path(str(out) + ".manifest.json"), "predict",
        {"model": str(model_path), "records": [str(p) for p in record_paths],
         "out": str(out)},
        seed=args.seed,
        dataset_digest=_digest_files(record_paths + [model_path]),
    )
    print(f"scored {len(features)} episode(s) into {out}")
    return 0


def cmd_attention(args) -> int:
    model_path = Path(args.model)
    params, stats = _load_scoring_model(model_path)
    cfg = params.config
    if not cfg.recurrent or cfg.pooling != "attention":
        raise ValueError(
            "attention traces need an attention-pooling model; this model "
            f"uses {'mean pooling' if cfg.recurrent else 'no recurrence'} "
            "and has no attention weights to export"
        )
    record_paths = [Path(p) for p in args.records]
    features = _features_for(record_paths, stats)

    header = "record_id,head,interval,probability"
    if args.states:
        header += "," + ",".join(f"state_{i}" for i in range(cfg.state_dim))
    lines = [header]
    for feat in features:
        result = forward_episode(feat.matrix, params, record_id=feat.record_id)
        trace = result.trace
        heads, intervals = trace.weights.shape
        for head in range(heads):
            for t in range(intervals):
                row = f"{feat.record_id},{head},{t},{float(trace.weights[head, t])!r}"
                if args.states:
                    row += "," + ",".join(repr(float(v)) for v in trace.states[t])
                lines.append(row)
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")

    _write_manifest(
        Path(str(out) + ".manifest.json"), "attention",
        {"model": str(model_path), "records": [str(p) for p in record_paths],
         "out": str(out), "states": args.states},
        seed=args.seed,
        dataset_digest=_digest_files(record_paths + [model_path]),
    )
    print(f"exported attention for {len(features)} episode(s) into {out}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icurisk",
        description="ICU mortality risk prediction from irregular time-series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("preprocess", help="build a feature store from record files")
    pre.add_argument("--data-dir", required=True, help="directory of record .txt files")
    pre.add_argument("--outcomes", required=True, help="outcomes file with labels")
    pre.add_argument("--out", required=True, help="feature store directory to create")
    pre.add_argument("--interval-hours", type=int, default=3)
    pre.add_argument("--seed", type=int, default=0)
    pre.set_defaults(func=cmd_preprocess)

    tr = sub.add_parser("train", help="cross-validated training from a feature store")
    tr.add_argument("--store", required=True, help="feature store from 'preprocess'")
    tr.add_argument("--out", required=True, help="output directory for models and results")
    tr.add_argument("--variant", choices=VARIANTS, default=None,
                    help="named configuration; overrides architecture flags")
    tr.add_argument("--interval-hours", type=int, default=3)
    tr.add_argument("--hidden", type=int, default=32)
    tr.add_argument("--heads", type=int, default=2)
    tr.add_argument("--bidirectional", action="store_true")
    tr.add_argument("--pooling", choices=("attention", "mean"), default="attention")
    tr.add_argument("--dropout-in", type=float, default=0.5)
    tr.add_argument("--dropout-out", type=float, default=0.5)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--batch", type=int, default=32)
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--patience", type=int, default=10)
    tr.add_argument("--folds", type=int, default=5)
    tr.add_argument("--fold", type=int, default=None,
                    help="train only this fold of the k-fold split")
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="score raw record files with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("records", nargs="+", help="record files to score")
    pr.set_defaults(func=cmd_predict)

    at = sub.add_parser("attention", help="export per-head attention probabilities")
    at.add_argument("--model", required=True)
    at.add_argument("--out", required=True)
    at.add_argument("--states", action="store_true",
                    help="append per-interval state vectors to each row")
    at.add_argument("--seed", type=int, default=0)
    at.add_argument("records", nargs="+", help="record files to trace")
    at.set_defaults(func=cmd_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as exit status, per the CLI contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
