"""Span tracing around the program's public functions, from outside it.

The tracer replaces each target function with a wrapper that records a
span: name, start, end, parent span, episode id and the benchmark phase.
A name is patched in every ``icurisk`` module that binds the same object,
so ``train``'s by-name import of ``forward_episode`` and ``cli``'s by-name
import of ``load_model`` are traced too.  A target that no longer exists is
listed in ``missing`` and its metrics are left out; nothing crashes.

Spans stay in memory and are written once, by :meth:`Tracer.write`, when
the run ends.  The wrappers cost a few microseconds per call, which the
traced run reports as its overhead against an untraced run of the same
inputs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    episode: int | None
    phase: str
    count: int | None = None  # a size the span handled, e.g. tape entries
    tag: str | None = None  # "train" or "eval" for forward passes
    error: str | None = None


class Tracer:
    """Records spans for the functions named in :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.phase = "setup"
        # Matrices and tapes carry no record id; the benchmark registers the
        # matrices it builds, and each forward pass registers its tape.
        self.matrix_episode: dict[int, int] = {}
        self._tape_episode: dict[int, int | None] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, episode: int | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if episode is None and parent is not None:
            episode = parent.episode
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent.span_id if parent else None, episode, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, episode: int | None = None):
        """A span around a block of benchmark code, e.g. one scored record."""
        s = self._open(name, episode)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name: str, fn, describe):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            describe(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ``icurisk`` module that binds it."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "icurisk" or n.startswith("icurisk.")) and m is not None]
        for name, module_name, path, describe in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, describe)
            if owner_path:  # a method: patching the class covers every caller
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name and phase: calls, inclusive and self seconds."""
        own = self.self_times()
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, own):
            row = table[f"{s.phase}:{s.name}"]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += self_s
        return dict(table)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "episode": s.episode,
                    "phase": s.phase, "count": s.count, "tag": s.tag,
                    "error": s.error,
                }) + "\n")


# -- what each traced call records ---------------------------------------------


def _nothing(tracer, span, args, kwargs, result):
    pass


def _parsed(tracer, span, args, kwargs, result):
    span.episode = result.record_id
    span.count = len(result.measurements)


def _first_arg_episode(tracer, span, args, kwargs, result):
    span.episode = getattr(args[0], "record_id", None) if args else None


def _built(tracer, span, args, kwargs, result):
    span.episode = result.record_id
    span.count = int(result.matrix.shape[0])


def _forward(tracer, span, args, kwargs, result):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    span.tag = "train" if train else "eval"
    episode = kwargs.get("record_id")
    if episode is None and args:
        episode = tracer.matrix_episode.get(id(args[0]))
    if episode is not None:
        span.episode = episode
    span.count = len(result.tape.entries)
    tracer._tape_episode[id(result.tape)] = span.episode


def _backward(tracer, span, args, kwargs, result):
    span.episode = tracer._tape_episode.pop(id(args[0]), span.episode)


# (span name, module, attribute path in that module, describe)
TARGETS = (
    ("ingest.parse_record", "icurisk.ingest", "parse_record", _parsed),
    ("ingest.serialize_record", "icurisk.ingest", "serialize_record", _first_arg_episode),
    ("preprocess.fit_pipeline", "icurisk.preprocess", "fit_pipeline", _nothing),
    ("preprocess.build_features", "icurisk.preprocess", "build_features", _built),
    ("preprocess.apply_truncation", "icurisk.preprocess", "apply_truncation", _first_arg_episode),
    ("preprocess.assemble_matrix", "icurisk.preprocess", "assemble_matrix", _first_arg_episode),
    ("preprocess.impute", "icurisk.preprocess", "impute", _nothing),
    ("preprocess.normalize", "icurisk.preprocess", "normalize", _nothing),
    ("model.forward_episode", "icurisk.model", "forward_episode", _forward),
    ("model.load_model", "icurisk.model", "load_model", _nothing),
    ("model.save_model", "icurisk.model", "save_model", _nothing),
    ("autodiff.backward", "icurisk.autodiff", "Tape.backward", _backward),
    ("train.train_fold", "icurisk.train", "train_fold", _nothing),
    ("train.adam_step", "icurisk.train", "Adam.step", _nothing),
    ("train.auc", "icurisk.train", "auc", _nothing),
    ("cli.cmd_preprocess", "icurisk.cli", "cmd_preprocess", _nothing),
)


# -- per-layer metrics -----------------------------------------------------------

# metric: (unit, aggregation, target, tag).  ``per_episode`` divides a
# phase's total by the episodes that phase handled: distinct episodes in
# set-up, the workload's episode count (as in episodes_per_s) in the timed
# phase.  Spans made while generating inputs count only for ``per_call``.
LAYER_METRICS = {
    "ingest.parse_ms": ("ms", "per_episode", "ingest.parse_record", None),
    "ingest.measurements": ("count", "mean_count", "ingest.parse_record", None),
    "ingest.rejected": ("count", "errors", "ingest.parse_record", None),
    "ingest.serialize_ms": ("ms", "per_episode", "ingest.serialize_record", None),
    "preprocess.fit_ms": ("ms", "per_episode", "preprocess.fit_pipeline", None),
    "preprocess.build_ms": ("ms", "per_episode", "preprocess.build_features", None),
    "preprocess.truncate_ms": ("ms", "per_episode", "preprocess.apply_truncation", None),
    "preprocess.assemble_ms": ("ms", "per_episode", "preprocess.assemble_matrix", None),
    "preprocess.impute_ms": ("ms", "per_episode", "preprocess.impute", None),
    "preprocess.normalize_ms": ("ms", "per_episode", "preprocess.normalize", None),
    "preprocess.intervals": ("count", "mean_count", "preprocess.build_features", None),
    "preprocess.assemble_per_episode": ("ratio", "calls_per_episode",
                                        "preprocess.assemble_matrix", None),
    "autodiff.backward_ms": ("ms", "per_episode", "autodiff.backward", None),
    "autodiff.tape_entries": ("count", "mean_count", "model.forward_episode", None),
    "model.forward_train_ms": ("ms", "per_episode", "model.forward_episode", "train"),
    "model.forward_eval_ms": ("ms", "per_episode", "model.forward_episode", "eval"),
    "model.load_ms": ("ms", "per_call", "model.load_model", None),
    "model.save_ms": ("ms", "per_call", "model.save_model", None),
    "train.adam_step_ms": ("ms", "per_call", "train.adam_step", None),
    "train.steps": ("count", "calls_per_fold", "train.adam_step", None),
    "train.auc_ms": ("ms", "per_call", "train.auc", None),
    "cli.preprocess_self_ms": ("ms", "self_per_episode", "cli.cmd_preprocess", None),
}


def layer_metrics(tracer: Tracer, episodes: dict[str, int]) -> dict[str, float]:
    """Per-layer figures from the recorded spans; see :data:`LAYER_METRICS`."""
    own = tracer.self_times()
    folds = sum(1 for s in tracer.spans if s.name == "train.train_fold")
    out = {}
    for metric, (_, how, target, tag) in LAYER_METRICS.items():
        if target in tracer.missing:
            continue
        spans = [(s, own[s.span_id]) for s in tracer.spans
                 if s.name == target and (tag is None or s.tag == tag)]
        if how == "per_call":
            out[metric] = 1000.0 * statistics.fmean(
                [s.end - s.start for s, _ in spans]) if spans else 0.0
            continue
        spans = [(s, o) for s, o in spans if episodes.get(s.phase)]
        if how == "mean_count":
            counts = [s.count for s, _ in spans if s.count is not None]
            out[metric] = statistics.fmean(counts) if counts else 0.0
        elif how == "errors":
            out[metric] = float(sum(1 for s, _ in spans if s.error))
        elif how == "calls_per_fold":
            out[metric] = len(spans) / folds if folds else 0.0
        else:
            total: dict[str, float] = defaultdict(float)
            for s, self_s in spans:
                total[s.phase] += {"per_episode": 1000.0 * (s.end - s.start),
                                   "self_per_episode": 1000.0 * self_s,
                                   "calls_per_episode": 1.0}[how]
            out[metric] = float(sum(v / episodes[phase] for phase, v in total.items()))
    return out
