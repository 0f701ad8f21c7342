"""Command-line surface: preprocess, train, predict, attention.

Every command resolves its flags into a run manifest (JSON) written next to
its outputs, including a content digest of the inputs; rerunning a command
with the same flags reproduces its outputs byte for byte.  Only ``train``
draws random numbers, all from its ``--seed``, and only ``--variant``
chooses its architecture.

The preprocess command builds a feature store that holds exactly the
records of one run::

    store/
      manifest.json     resolved flags, input digest
      stats.json        fitted truncation/imputation/normalization statistics
      labels.csv        RecordID,In-hospital_death rows
      features/<id>.csv final interval-by-feature matrices (fit on all episodes)
      episodes/<id>.txt canonical copies of the parsed records

Each feature cell is the ``repr`` of its float, formatted once per distinct
value of the matrix; the bytes are those of formatting every cell.

Preprocess and train claim ``--out`` through ``_claim`` after every check and
fit, before the first write: it refuses any file under ``--out`` that the run
does not write and removes a stale ``manifest.json``, which each writes last,
so only a finished run has one.  Train reads the store's ``stats.json``
through ``PipelineStats`` alone, builds its configs, then parses the
episodes, and refits preprocessing per fold.  Each train flag sets a config
field, whose default is the flag's, and is refused where the variant ignores
it.  Train writes each fold's model and ``results.csv`` row as the fold
finishes; a run that fails keeps the folds it finished.
Predict and attention share one scoring body, ``_score``, and differ only in
their header and rows; neither writes anything unless every risk is finite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

import icurisk
from icurisk import ingest, preprocess
from icurisk.model import (
    ModelConfig, ModelFormatError, forward_episode, load_model, save_model)
from icurisk.train import TrainConfig, VARIANTS, apply_variant, auc, cross_validate


def _digest_files(paths: list[Path]) -> str:
    """Content digest of a set of input files by file name and bytes, the same
    in any order and from any directories."""
    parts = sorted(f"{path.name}:{hashlib.sha256(path.read_bytes()).hexdigest()}"
                   for path in paths)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _write_manifest(path: Path, command: str, options: dict, dataset_digest: str,
                    seed: int | None = None) -> None:
    manifest = {
        "command": command,
        "options": options,
        "dataset_digest": dataset_digest,
        "artifact_version": icurisk.__version__,
    }
    if seed is not None:
        manifest["seed"] = seed
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@contextmanager
def _naming(path: Path):
    """An ingest error raised inside names ``path``."""
    try:
        yield
    except ingest.IngestError as exc:
        raise ingest.IngestError(f"{path}: {exc}") from exc


def _parse_file(path: Path, parse):
    """``parse`` of a file's text; an ingest error names the file."""
    with _naming(path):
        return parse(path.read_text())


def _read_records(paths: list[Path]) -> list[ingest.RawEpisode]:
    return [_parse_file(path, ingest.parse_record) for path in paths]


def _labeled(episodes: list[ingest.RawEpisode],
             labels_path: Path) -> tuple[list[ingest.RawEpisode], dict[int, int]]:
    """``episodes`` with their outcome labels from ``labels_path``, read
    once, and those labels by record id; a bad or missing label names that
    file."""
    labels = _parse_file(labels_path, ingest.parse_outcomes)
    with _naming(labels_path):
        return ingest.join_labels(episodes, labels), labels


def _store_stats(store: Path) -> preprocess.PipelineStats:
    """A finished store's fitted statistics, refusing what no fit writes, named
    by file; preprocess writes ``manifest.json`` last, to finish a store."""
    if not (store / "manifest.json").is_file():
        raise FileNotFoundError(f"{store / 'manifest.json'}: not found, so {store} is not "
                                "a finished store; preprocess into it again")
    stats_path = store / "stats.json"
    try:
        return preprocess.PipelineStats.from_dict(json.loads(stats_path.read_text()))
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{stats_path}: {exc}") from exc


def _store_episodes(store: Path) -> list[ingest.RawEpisode]:
    """A store's labeled episodes; ``labels.csv`` must name exactly the
    ``episodes/*.txt`` files."""
    episode_files = sorted((store / "episodes").glob("*.txt"))
    if not episode_files:
        raise FileNotFoundError(f"no episodes found under {store / 'episodes'}")
    labels_path = store / "labels.csv"
    episodes, labels = _labeled(_read_records(episode_files), labels_path)
    listed = {f"{record_id}.txt" for record_id in labels}
    found = {path.name for path in episode_files}
    if differ := sorted(listed ^ found):
        why = "missing, though" if differ[0] in listed else "extra: not"
        raise ValueError(f"{store / 'episodes' / differ[0]}: {why} listed in "
                         f"{labels_path}; preprocess into a new directory")
    return episodes


def _claim(out: Path, command: str, ours: list[str]) -> None:
    """Make ``out`` this run's before its first write: refuse any file under
    ``out`` that ``ours`` (every path the run writes, relative to ``out``) does
    not name, which a reader would take for this run's, then make the folders
    and remove a stale ``manifest.json``."""
    names = set(ours)
    for path in sorted(out.rglob("*")):
        if not path.is_dir() and path.relative_to(out).as_posix() not in names:
            raise ValueError(f"{path}: --out {out} holds a file this run does "
                             f"not write; {command} into a new directory")
    for folder in dict.fromkeys(name.rpartition("/")[0] for name in ours):
        (out / folder).mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)


# -- preprocess ---------------------------------------------------------------


def _csv_rows(matrix: np.ndarray) -> list[str]:
    """``",".join(map(repr, row))`` for each row, from one ``repr`` per distinct
    value, keyed by its bits because float ``np.unique`` merges -0.0 and 0.0."""
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)  # numpy 1.x: inverse is flat
    text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return [",".join(row) for row in text[inverse.reshape(matrix.shape)].tolist()]


def cmd_preprocess(args) -> int:
    preprocess.check_count("interval_hours", args.interval_hours)
    data_dir = Path(args.data_dir)
    record_files = sorted(data_dir.glob("*.txt"))
    if not record_files:
        raise FileNotFoundError(f"no record files (*.txt) under {data_dir}")
    outcomes_path = Path(args.outcomes)

    episodes = _read_records(record_files)
    first_file: dict[int, Path] = {}
    for path, ep in zip(record_files, episodes):
        other = first_file.setdefault(ep.record_id, path)
        if other != path:
            raise ValueError(f"{path}: record id {ep.record_id} is also the id of {other}")
    episodes, _ = _labeled(episodes, outcomes_path)

    stats = preprocess.fit_pipeline(episodes, args.interval_hours * 60)

    out = Path(args.out)
    _claim(out, "preprocess", [f"{folder}/{ep.record_id}{suffix}" for folder, suffix in
                               (("features", ".csv"), ("episodes", ".txt")) for ep in episodes]
           + ["stats.json", "labels.csv", "manifest.json"])
    (out / "stats.json").write_text(json.dumps(stats.to_dict()) + "\n")
    with open(out / "labels.csv", "w") as fh:
        fh.write("RecordID,In-hospital_death\n")
        for ep in episodes:
            fh.write(f"{ep.record_id},{ep.label}\n")
    header = ",".join(stats.feature_names)
    for ep in episodes:
        matrix = preprocess.build_features(ep, stats).matrix
        (out / "features" / f"{ep.record_id}.csv").write_text(
            header + "\n" + "\n".join(_csv_rows(matrix)) + "\n"
        )
        (out / "episodes" / f"{ep.record_id}.txt").write_text(
            ingest.serialize_record(ep)
        )

    _write_manifest(
        out / "manifest.json", "preprocess",
        {"data_dir": str(data_dir), "outcomes": str(outcomes_path),
         "interval_hours": args.interval_hours, "out": str(out)},
        dataset_digest=_digest_files(record_files + [outcomes_path]),
    )
    for name in stats.truncation.unobserved:
        print(f"warning: no observations for {name}; bounds left open", file=sys.stderr)
    print(f"preprocessed {len(episodes)} episodes into {out}")
    return 0


# -- train --------------------------------------------------------------------

def _given(args, config) -> dict:
    """The flags given for fields of the ``config`` class; None is not given."""
    return {f.name: value for f in fields(config)
            if (value := getattr(args, f.name, None)) is not None}


def cmd_train(args) -> int:
    variant = args.variant
    sizes = _given(args, ModelConfig)
    _, fixed, unused = VARIANTS[variant]
    for name in sizes:
        if name in fixed or name in unused:
            raise ValueError(f"--{name.replace('_', '-')} has no effect on --variant "
                             f"{variant}; leave it out")

    store, out = Path(args.store), Path(args.out)
    if out.resolve() == store.resolve():
        raise ValueError(f"--out {out} is --store {store}; train into a new directory")
    interval_minutes = _store_stats(store).interval_minutes
    cfg, model_cfg = apply_variant(
        variant, TrainConfig(interval_minutes=interval_minutes, **_given(args, TrainConfig)),
        ModelConfig(**sizes))

    folds = cross_validate(_store_episodes(store), cfg, model_cfg, only_fold=args.fold)

    _claim(out, "train", [f"models/{variant}-fold{k}.json" for k in
                          (range(cfg.folds) if args.fold is None else [args.fold])]
           + ["results.csv", "manifest.json"])
    aucs, scores, labels = [], [], []
    with open(out / "results.csv", "w") as fh:
        fh.write("variant,fold,auc,best_epoch,final_train_loss\n")
        for fold in folds:
            save_model(out / "models" / f"{variant}-fold{fold.fold}.json",
                       fold.params, fold.pipeline)
            fh.write(f"{variant},{fold.fold},{fold.val_auc!r},"
                     f"{fold.best_epoch},{fold.train_losses[-1]!r}\n")
            fh.flush()
            aucs.append(fold.val_auc)
            scores.append(fold.val_scores)
            labels.append(fold.val_labels)
        mean_auc, std_auc = float(np.mean(aucs)), float(np.std(aucs))
        pooled_auc = auc(np.concatenate(scores), np.concatenate(labels))
        fh.write(f"{variant},mean,{mean_auc!r},,\n{variant},std,{std_auc!r},,\n"
                 f"{variant},pooled,{pooled_auc!r},,\n")

    store_files = sorted((store / "episodes").glob("*.txt")) + [
        store / "labels.csv", store / "stats.json"]
    _write_manifest(
        out / "manifest.json", "train",
        {"store": str(store), "out": str(out), "variant": variant, "fold": args.fold,
         "train": asdict(cfg), "model": asdict(model_cfg)},
        dataset_digest=_digest_files(store_files),
        seed=args.seed,
    )
    print(f"{variant}: mean AUC {mean_auc:.4f} (+/- {std_auc:.4f}) over {len(aucs)} fold(s)")
    return 0


# -- predict / attention --------------------------------------------------------


def _score(args, command: str, done: str, header, rows, **options) -> int:
    """Write ``header(config)``, which may refuse the model, then ``rows(record_id,
    result)`` for each record, scored alone.  A model without statistics or a
    non-finite risk fails before anything is written; a NaN in any weight or
    state reaches the risk through ``sigmoid(w . max(readings))``."""
    model_path = Path(args.model)
    params, stats = load_model(model_path)
    if stats is None:
        raise ModelFormatError(
            f"{model_path}: model carries no preprocessing statistics; cannot score raw records"
        )
    lines = [header(params.config)]
    record_paths = [Path(p) for p in args.records]
    for ep in _read_records(record_paths):
        result = forward_episode(preprocess.build_features(ep, stats).matrix, params,
                                 record_id=ep.record_id)
        if not np.isfinite(result.risk):
            raise ValueError(f"record {ep.record_id}: model {model_path} "
                             f"gives a non-finite risk ({result.risk})")
        lines += rows(ep.record_id, result)
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")

    _write_manifest(
        Path(str(out) + ".manifest.json"), command,
        {"model": str(model_path), "records": [str(p) for p in record_paths],
         "out": str(out), **options},
        dataset_digest=_digest_files(record_paths + [model_path]),
    )
    print(f"{done} {len(record_paths)} episode(s) into {out}")
    return 0


def cmd_predict(args) -> int:
    return _score(args, "predict", "scored", lambda cfg: "record_id,risk",
                  lambda record_id, result: [f"{record_id},{result.risk!r}"])


def cmd_attention(args) -> int:
    def header(cfg: ModelConfig) -> str:
        if not cfg.recurrent or cfg.pooling != "attention":
            raise ValueError(
                "attention traces need an attention-pooling model; this model "
                f"uses {'mean pooling' if cfg.recurrent else 'no recurrence'} "
                "and has no attention weights to export"
            )
        states = [f"state_{i}" for i in range(cfg.state_dim)] if args.states else []
        return ",".join(["record_id", "head", "interval", "probability", *states])

    def rows(record_id: int, result) -> list[str]:
        weights = result.trace.weights.tolist()  # heads x intervals
        states = result.trace.states.tolist() if args.states else [[]] * len(weights[0])
        return [",".join(map(repr, [record_id, head, t, w, *states[t]]))
                for head, head_weights in enumerate(weights)
                for t, w in enumerate(head_weights)]

    return _score(args, "attention", "exported attention for", header, rows,
                  states=args.states)


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
    pre.add_argument("--interval-hours", type=int,
                     default=preprocess.DEFAULT_INTERVAL_MINUTES // 60,
                     help="interval length; train reads it from the store (default %(default)s)")
    pre.set_defaults(func=cmd_preprocess)

    tr = sub.add_parser("train", help="cross-validated training from a feature store")
    tr.add_argument("--store", required=True, help="feature store, which sets the interval")
    tr.add_argument("--out", required=True, help="output directory for models and results")
    tr.add_argument("--variant", choices=VARIANTS, default="lstm-attn",
                    help="the architecture, which may fix other fields (default %(default)s)")
    # A flag's default is its field's; ModelConfig's stay None, to be refusable.
    for flag, config, name in (
            ("--hidden", ModelConfig, "hidden"),
            ("--heads", ModelConfig, "heads"),
            ("--dropout-in", ModelConfig, "dropout_in"),
            ("--dropout-out", ModelConfig, "dropout_out"),
            ("--lr", TrainConfig, "learning_rate"),
            ("--batch", TrainConfig, "batch_size"),
            ("--epochs", TrainConfig, "max_epochs"),
            ("--patience", TrainConfig, "patience"),
            ("--folds", TrainConfig, "folds"),
            ("--seed", TrainConfig, "seed")):
        default = getattr(config, name)
        tr.add_argument(flag, dest=name, type=type(default), help=f"(default {default})",
                        default=default if config is TrainConfig else None)
    tr.add_argument("--fold", type=int,
                    help="train only this fold of the k-fold split (default all)")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="score raw record files with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("records", nargs="+", help="record files to score")
    pr.set_defaults(func=cmd_predict)

    at = sub.add_parser("attention", help="export per-head attention probabilities")
    at.add_argument("--model", required=True)
    at.add_argument("--out", required=True)
    at.add_argument("--states", action="store_true",
                    help="append per-interval state vectors to each row")
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
