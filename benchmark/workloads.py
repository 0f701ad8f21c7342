"""The three workloads: ``prep``, ``train`` and ``score``.

Each workload writes its seeded inputs to a work directory, does the
program's set-up (which the benchmark times, several times over), runs a
closed loop with one caller for a given number of seconds, and checks every
output it gets.  The program is reached only through the public functions
of ``icurisk.ingest``, ``preprocess``, ``model``, ``train`` and ``cli``,
always looked up on the module at call time so that the tracer's wrappers
are seen.

Why these three:

* ``prep`` runs ``icurisk preprocess`` over full 48-hour stays.  Ingest,
  preprocess and the command's file output do nearly all the work; the
  model, autodiff and train layers do none.  ``fit_pipeline`` builds every
  matrix and ``build_features`` builds it again, which the traced run shows
  as ``preprocess.assemble_per_episode``.
* ``train`` runs ``train_fold`` for ``bilstm-attn`` with dropout on and
  early stopping off, over matrices built in set-up.  Autodiff, model and
  train do all the work; preprocess only moves ``setup_s``.  Most stays are
  48 hours (T = 16) with a tail of shorter ones, so padding or masking
  costs would show.
* ``score`` takes one record at a time from text to risk with a saved
  ``bilstm-attn`` model, the attention trace included.  Preprocess runs
  transform-only on one episode and the model runs forward-only at batch
  size 1, so a change that batches across episodes to speed up ``prep`` or
  ``train`` but slows single-record latency shows here.  About 2% of the
  records are malformed and must be rejected with ``IngestError``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import icurisk.cli
import icurisk.ingest as ingest
import icurisk.model as model
import icurisk.preprocess as preprocess
import icurisk.train as train

import synth
from speed import Speed

INTERVAL_MINUTES = synth.INTERVAL_MINUTES
FEATURE_WIDTH = 185


@dataclass
class Timed:
    """What one timed phase measured and how its outputs fared.

    Latencies are kept per distinct operation (a record, or the one repeated
    pass of ``prep`` and ``train``), scaled to the reference speed (see
    ``speed.py``); ``raw_s`` keeps them as measured.
    """

    latencies_s: dict = field(default_factory=dict)  # operation -> [seconds]
    raw_s: dict = field(default_factory=dict)
    rates: list[float] = field(default_factory=list)  # episodes/s per window
    episodes: int = 0  # the unit of episodes_per_s
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def operation(self, key, seconds: float, scale: float) -> float:
        """Record one run of operation ``key``; returns its scaled time."""
        self.latencies_s.setdefault(key, []).append(seconds * scale)
        self.raw_s.setdefault(key, []).append(seconds)
        return seconds * scale

    def merge(self, other: "Timed") -> None:
        for key, values in other.latencies_s.items():
            self.latencies_s.setdefault(key, []).extend(values)
        for key, values in other.raw_s.items():
            self.raw_s.setdefault(key, []).extend(values)
        self.rates += other.rates
        self.episodes += other.episodes
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages[:20 - len(self.messages)]

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.messages) < 20:
            self.messages.append(message)


def _no_span(name, episode=None):
    return contextlib.nullcontext()


def _bilstm_attn(seed: int, epochs: int) -> tuple[train.TrainConfig, model.ModelConfig]:
    cfg = train.TrainConfig(max_epochs=epochs, patience=epochs, seed=seed,
                            interval_minutes=INTERVAL_MINUTES)
    return train.apply_variant("bilstm-attn", cfg, model.ModelConfig())


def _write_records(directory: Path, records: list[synth.Record]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for r in records:
        (directory / f"{r.record_id}.txt").write_text(r.text)


# -- prep ---------------------------------------------------------------------


class Prep:
    """``icurisk preprocess`` over a directory of full-stay records."""

    name = "prep"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.n_records = 6 if tiny else 60
        self.records: list[synth.Record] = []
        self.reference: dict[str, bytes] = {}
        self.bytes_per_episode = 0.0
        self.speed = Speed()

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.records = synth.stay_corpus(rng, self.n_records)
        _write_records(self.workdir / "records", self.records)
        (self.workdir / "outcomes.csv").write_text(synth.outcomes_text(self.records))

    setup_episodes = 0

    def setup(self) -> None:
        """Nothing beyond the imports: the command does all its own work."""

    def _preprocess(self, out: Path) -> tuple[int, str]:
        argv = ["preprocess", "--data-dir", str(self.workdir / "records"),
                "--outcomes", str(self.workdir / "outcomes.csv"), "--out", str(out)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = icurisk.cli.main(argv)
        return code, captured.getvalue()

    def run(self, seconds: float, tracer=None) -> Timed:
        span = tracer.span if tracer else _no_span
        timed = Timed()
        if not self.reference:  # untimed warm-up pass, checked in full
            out = self.workdir / "store-ref"
            code, log = self._preprocess(out)
            self._check_reference(out, code, log, timed)
            shutil.rmtree(out, ignore_errors=True)
        n = len(self.records)
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            out = self.workdir / f"store-{k}"
            k += 1
            before = self.speed.scale()
            t0 = time.perf_counter()
            with span("cli.main"):
                code, log = self._preprocess(out)
            elapsed = time.perf_counter() - t0
            scaled = timed.operation("pass", elapsed, (before + self.speed.scale()) / 2)
            timed.rates.append(n / scaled)
            timed.episodes += n
            timed.attempted += n
            if code != 0:
                timed.fail(f"preprocess exited {code}: {log.strip()[:200]}", n)
            else:
                self._check_same(out, timed)
            shutil.rmtree(out, ignore_errors=True)
        return timed

    def _check_reference(self, store: Path, code: int, log: str, timed: Timed) -> None:
        """Check one store in full and keep its bytes for later passes."""
        timed.attempted += len(self.records)
        if code != 0:
            timed.fail(f"warm-up preprocess exited {code}: {log.strip()[:200]}",
                       len(self.records))
            return
        labels = (store / "labels.csv").read_text().splitlines()[1:]
        if sorted(labels) != sorted(f"{r.record_id},{r.label}" for r in self.records):
            timed.fail("labels.csv does not list every record with its outcome")
        for r in self.records:
            try:
                problem = self._check_episode(store, r)
            except (OSError, ValueError, ingest.IngestError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                timed.fail(f"record {r.record_id}: {problem}")
        self.reference = {str(p.relative_to(store)): p.read_bytes()
                          for p in sorted(store.rglob("*")) if p.is_file()}
        self.bytes_per_episode = sum(map(len, self.reference.values())) / len(self.records)
        # The manifest names the output directory, which differs per pass.
        self.reference.pop("manifest.json", None)

    def _check_episode(self, store: Path, r: synth.Record) -> str | None:
        lines = (store / "features" / f"{r.record_id}.csv").read_text().splitlines()
        if len(lines[0].split(",")) != FEATURE_WIDTH:
            return f"feature header is not {FEATURE_WIDTH} wide"
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if matrix.shape != (r.intervals, FEATURE_WIDTH):
            return f"matrix {matrix.shape}, expected ({r.intervals}, {FEATURE_WIDTH})"
        if not np.isfinite(matrix).all():
            return "matrix has non-finite values"
        episode = ingest.parse_record(r.text)
        stored = ingest.parse_record((store / "episodes" / f"{r.record_id}.txt").read_text())
        if stored != episode or ingest.parse_record(ingest.serialize_record(episode)) != episode:
            return "serialize/parse round trip changed the episode"
        return None

    def _check_same(self, store: Path, timed: Timed) -> None:
        """A later pass must write the warm-up pass's bytes exactly."""
        def same(rel: str) -> bool:
            path = store / rel
            return path.is_file() and path.read_bytes() == self.reference.get(rel)

        for rel in ("labels.csv", "stats.json"):
            if not same(rel):
                timed.fail(f"{rel} differs from the first pass")
        for r in self.records:
            for rel in (f"features/{r.record_id}.csv", f"episodes/{r.record_id}.txt"):
                if not same(rel):
                    timed.fail(f"record {r.record_id}: {rel} differs from the first pass")
                    break

    def quality(self) -> dict[str, float]:
        return {}


# -- train ----------------------------------------------------------------------


class Train:
    """``train_fold`` for ``bilstm-attn`` over matrices built in set-up."""

    name = "train"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Short folds, so that the speed kernel, timed between folds, follows
        # the machine's drift closely.
        self.n_train, self.n_val = (12, 6) if tiny else (64, 16)
        self.epochs = 1 if tiny else 2
        self.train_features = []
        self.val_features = []
        self.first = None
        self.speed = Speed()

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        # Fixed positive counts per split, so validation always holds both
        # outcomes and AUC is defined.
        labels = [synth.stratified_labels(rng, n) for n in (self.n_train, self.n_val)]
        records = synth.stay_corpus(rng, self.n_train + self.n_val,
                                    labels=np.concatenate(labels))
        _write_records(self.workdir / "records", records)
        (self.workdir / "outcomes.csv").write_text(synth.outcomes_text(records))
        val = [r.record_id for r in records[self.n_train:]]
        (self.workdir / "split.json").write_text(json.dumps({"val": val}))

    def setup(self) -> None:
        """Per-fold preprocessing, as ``cross_validate`` does it."""
        episodes = [ingest.parse_record(p.read_text())
                    for p in sorted((self.workdir / "records").glob("*.txt"))]
        labels = ingest.parse_outcomes((self.workdir / "outcomes.csv").read_text())
        episodes = ingest.join_labels(episodes, labels)
        val_ids = set(json.loads((self.workdir / "split.json").read_text())["val"])
        train_eps = [ep for ep in episodes if ep.record_id not in val_ids]
        val_eps = [ep for ep in episodes if ep.record_id in val_ids]
        stats = preprocess.fit_pipeline(train_eps, INTERVAL_MINUTES)
        self.train_features = [preprocess.build_features(ep, stats) for ep in train_eps]
        self.val_features = [preprocess.build_features(ep, stats) for ep in val_eps]

    @property
    def setup_episodes(self) -> int:
        return self.n_train + self.n_val

    def run(self, seconds: float, tracer=None) -> Timed:
        if tracer:
            for f in self.train_features + self.val_features:
                tracer.matrix_episode[id(f.matrix)] = f.record_id
        cfg, model_cfg = _bilstm_attn(self.seed, self.epochs)
        n_train, n_val = len(self.train_features), len(self.val_features)
        passes = self.epochs * n_train + (self.epochs + 1) * n_val
        timed = Timed()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            timed.attempted += 1
            before = self.speed.scale()
            t0 = time.perf_counter()
            try:
                result = train.train_fold(self.train_features, self.val_features,
                                          cfg, model_cfg, fold=0, seed=self.seed)
            except Exception as exc:  # a failed fold is counted, the loop goes on
                timed.fail(f"train_fold raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            scaled = timed.operation("pass", elapsed, (before + self.speed.scale()) / 2)
            timed.rates.append(passes / scaled)
            timed.episodes += passes
            problem = self._check(result)
            if problem:
                timed.fail(problem)
        return timed

    def _check(self, result) -> str | None:
        losses = np.asarray(result.train_losses)
        if len(losses) != self.epochs or not np.isfinite(losses).all():
            return f"training losses {result.train_losses} are not {self.epochs} finite values"
        scores = np.asarray(result.val_scores)
        if not (np.isfinite(scores).all() and ((scores > 0) & (scores < 1)).all()):
            return "validation risks are not all finite and in (0, 1)"
        if self.first is None:
            self.first = result
        elif (result.train_losses != self.first.train_losses
              or result.val_auc != self.first.val_auc):
            return "a rerun with the same seed gave different losses or AUC"
        return None

    def quality(self) -> dict[str, float]:
        if self.first is None:
            return {}
        return {"val_auc": float(self.first.val_auc),
                "final_train_loss": float(self.first.train_losses[-1])}


# -- score ----------------------------------------------------------------------


class Score:
    """One record at a time, text to risk, with a saved ``bilstm-attn`` model."""

    name = "score"
    window = 50  # records per throughput window

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.n_records = 40 if tiny else 800
        self.records: list[synth.Record] = []
        self.params = None
        self.stats = None
        self.warmed = False
        self.speed = Speed()

    setup_episodes = 0

    @property
    def model_path(self) -> Path:
        return self.workdir / "model.json"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.records = synth.snapshot_corpus(
            rng, self.n_records, malformed_share=0.2 if self.tiny else 0.02)
        # The model: statistics fitted on whole stays, weights from a seeded
        # initialisation.  Training it would not change the cost of scoring.
        stays = [ingest.parse_record(r.text) for r in synth.stay_corpus(rng, 8 if self.tiny else 40)]
        stats = preprocess.fit_pipeline(stays, INTERVAL_MINUTES)
        _, model_cfg = _bilstm_attn(self.seed, 1)
        params = model.ModelParams.init(model_cfg, rng)
        model.save_model(self.model_path, params, stats)

    def setup(self) -> None:
        self.params, self.stats = model.load_model(self.model_path)
        if self.stats is None:
            raise ValueError(f"{self.model_path} carries no preprocessing statistics")

    def _score(self, record: synth.Record, span) -> tuple[float, object]:
        t0 = time.perf_counter()
        with span("score.record", record.record_id):
            try:
                episode = ingest.parse_record(record.text)
                features = preprocess.build_features(episode, self.stats)
                outcome = model.forward_episode(features.matrix, self.params,
                                                record_id=episode.record_id)
            except ingest.IngestError as exc:
                outcome = exc
            except Exception as exc:  # counted as a wrong outcome, the loop goes on
                outcome = exc
        return time.perf_counter() - t0, outcome

    def run(self, seconds: float, tracer=None) -> Timed:
        span = tracer.span if tracer else _no_span
        if not self.warmed:  # untimed; its outputs are checked in the loop below
            for record in self.records[:20]:
                self._score(record, _no_span)
            self.warmed = True
        timed = Timed()
        window_s, window_n = 0.0, 0
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i % self.window:
            record = self.records[i % len(self.records)]
            i += 1
            before = self.speed.scale()
            elapsed, outcome = self._score(record, span)
            scale = (before + self.speed.scale()) / 2
            timed.attempted += 1
            window_s += elapsed * scale
            problem = self._check(record, outcome)
            if problem:
                timed.fail(f"record {record.record_id}: {problem}")
            if record.malformed is None:
                timed.operation(record.record_id, elapsed, scale)
                timed.episodes += 1
                window_n += 1
            if i % self.window == 0:
                timed.rates.append(window_n / window_s)
                window_s, window_n = 0.0, 0
        return timed

    def _check(self, record: synth.Record, outcome) -> str | None:
        if record.malformed is not None:
            if isinstance(outcome, ingest.IngestError):
                return None
            return f"malformed ({record.malformed}) record was not rejected with IngestError"
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        risk = outcome.risk
        if not (math.isfinite(risk) and 0.0 < risk < 1.0):
            return f"risk {risk!r} is not finite and in (0, 1)"
        trace = outcome.trace
        if trace is None or trace.record_id != record.record_id or trace.risk != risk:
            return "no attention trace for this record"
        if trace.weights.shape[1] != record.intervals:
            return f"{trace.weights.shape[1]} intervals, expected {record.intervals}"
        if not np.all(np.abs(trace.weights.sum(axis=1) - 1.0) <= 1e-12):
            return "attention rows do not sum to 1 within 1e-12"
        return None

    def quality(self) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Prep, Train, Score)}


# -- summary statistics -----------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the value at rank ceil(q * n)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def p95_support(n: int) -> int:
    """How many samples lie above the nearest-rank 95th percentile."""
    return n - max(1, math.ceil(0.95 * n))


def _latencies_ms(per_operation: dict) -> dict[str, float]:
    """Percentiles across distinct operations of each one's median time.

    Repeats of one operation differ only by machine noise, so they are
    summarised by their median; the percentiles describe how latency varies
    across inputs.
    """
    ms = [1000.0 * statistics.median(v) for v in per_operation.values()]
    return {"latency_p50_ms": statistics.median(ms),
            "latency_p95_ms": nearest_rank(ms, 0.95)}


def summarize(timed: Timed) -> dict[str, float]:
    return {"episodes_per_s": statistics.median(timed.rates),
            **_latencies_ms(timed.latencies_s)}


def summarize_raw(timed: Timed) -> dict[str, float]:
    """The latency figures as measured, before scaling."""
    return _latencies_ms(timed.raw_s)
