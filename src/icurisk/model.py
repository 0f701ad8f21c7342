"""The risk model: (bi)LSTM state tracking, attention pooling, logistic output.

Per interval t the LSTM cell computes its four gates as one affine map,

    z = W x + U h_prev + b                    W 4h x d, U 4h x h, b 4h
    i, f, o = sigmoid(z[0:h]), sigmoid(z[h:2h]), sigmoid(z[2h:3h])
    c_cand = tanh(z[3h:4h])                   input, forget, output gate; candidate
    c = f * c_prev + i * c_cand
    h = o * tanh(c)

with both states starting at zero.  A bidirectional model runs a second
cell over the reversed sequence and concatenates the two states per
interval.  Each of R reading heads scores every state with a small tanh
network, softmax-normalizes the scores over time, and forms a convex
combination of the states; the head readings are max-pooled elementwise
into the classifier feature z, and the risk is sigmoid(w . z + b).

An LSTM direction and an attention head each work on the whole episode at
once and record one tape entry with a hand-written backward rule, so a
forward pass records about ten entries whatever the episode length.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass, asdict

import numpy as np

from icurisk.autodiff import (
    ShapeMismatchError,
    Tape,
    Tensor,
    check_gradients,
    sigmoid,
    softmax,
)
from icurisk.preprocess import PipelineStats


class ModelFormatError(ValueError):
    """Raised when a model file has the wrong magic, version, or contents."""


MODEL_MAGIC = "icurisk-model"
MODEL_FORMAT_VERSION = 1

POOLING_MODES = ("attention", "mean")


@dataclass
class ModelConfig:
    """Architecture switches; a ``train`` flag sets each field except
    ``input_dim`` (the feature width), ``recurrent`` (``--variant``) and
    ``attn_hidden``."""

    input_dim: int = 185
    hidden: int = 32
    heads: int = 2
    bidirectional: bool = False
    pooling: str = "attention"
    recurrent: bool = True  # False: classify the single interval directly
    attn_hidden: int = 16
    dropout_in: float = 0.5
    dropout_out: float = 0.5

    def __post_init__(self):
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.hidden < 1 or self.heads < 1 or self.attn_hidden < 1 or self.input_dim < 1:
            raise ValueError("model dimensions must be positive")
        for rate in (self.dropout_in, self.dropout_out):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rates must be in [0, 1), got {rate}")

    @property
    def state_dim(self) -> int:
        """Width of the pooled feature the classifier consumes."""
        if not self.recurrent:
            return self.input_dim
        return self.hidden * (2 if self.bidirectional else 1)


@dataclass
class LstmDirection:
    """One direction's four gates as one affine map: W (4h x d), U (4h x h)
    and b (4h), each with the gate blocks stacked in i, f, o, c order."""

    W: Tensor
    U: Tensor
    b: Tensor


@dataclass
class AttentionHead:
    """One reading head's scoring net: score = v . tanh(M s + b) + c."""

    M: Tensor
    b: Tensor
    v: Tensor
    c: Tensor

    FIELDS = ("M", "b", "v", "c")


@dataclass
class Classifier:
    w: Tensor
    b: Tensor


@dataclass
class AttentionTrace:
    """Per-head attention probabilities and states for one scored episode."""

    record_id: int | None
    weights: np.ndarray  # heads x intervals, rows sum to 1
    states: np.ndarray   # intervals x state_dim
    risk: float


@dataclass
class ForwardResult:
    risk: float
    trace: AttentionTrace | None
    tape: Tape
    output: Tensor  # probability node, for attaching a loss


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_direction(cfg: ModelConfig, rng: np.random.Generator) -> LstmDirection:
    d, h = cfg.input_dim, cfg.hidden
    # Glorot per gate block, drawn W then U for each of i, f, o, c.
    W, U = zip(*((_glorot(rng, h, d), _glorot(rng, h, h)) for _ in range(4)))
    b = np.zeros(4 * h)
    b[h:2 * h] = 1.0  # forget gate at +1 favors memory retention early on
    return LstmDirection(Tensor(np.vstack(W)), Tensor(np.vstack(U)), Tensor(b))


def _init_head(cfg: ModelConfig, rng: np.random.Generator) -> AttentionHead:
    a, s = cfg.attn_hidden, cfg.state_dim
    return AttentionHead(
        M=Tensor(_glorot(rng, a, s)),
        b=Tensor(np.zeros(a)),
        v=Tensor(_glorot(rng, 1, a)),
        c=Tensor(np.zeros(1)),
    )


class ModelParams:
    """All learnable tensors plus the configuration that shaped them."""

    def __init__(self, config: ModelConfig,
                 forward_lstm: LstmDirection | None,
                 backward_lstm: LstmDirection | None,
                 heads: list[AttentionHead],
                 classifier: Classifier):
        self.config = config
        self.forward_lstm = forward_lstm
        self.backward_lstm = backward_lstm
        self.heads = heads
        self.classifier = classifier

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        """Fresh parameters: Glorot weights, zero biases but the forget gate's +1."""
        forward_lstm = _init_direction(config, rng) if config.recurrent else None
        backward_lstm = (
            _init_direction(config, rng)
            if config.recurrent and config.bidirectional else None
        )
        heads = (
            [_init_head(config, rng) for _ in range(config.heads)]
            if config.recurrent and config.pooling == "attention" else []
        )
        classifier = Classifier(
            w=Tensor(_glorot(rng, 1, config.state_dim)),
            b=Tensor(np.zeros(1)),
        )
        return cls(config, forward_lstm, backward_lstm, heads, classifier)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All tensors in a fixed order (also the serialization order)."""
        out: list[tuple[str, Tensor]] = []
        for prefix, direction in (("fw", self.forward_lstm), ("bw", self.backward_lstm)):
            if direction is not None:
                out += [(f"{prefix}.W", direction.W), (f"{prefix}.U", direction.U),
                        (f"{prefix}.b", direction.b)]
        for r, head in enumerate(self.heads):
            out.extend((f"head{r}.{name}", getattr(head, name))
                       for name in AttentionHead.FIELDS)
        out.append(("out.w", self.classifier.w))
        out.append(("out.b", self.classifier.b))
        return out

    def zero_grads(self) -> None:
        for _, tensor in self.named_parameters():
            tensor.zero_grad()

    def scale_grads(self, factor: float) -> None:
        for _, tensor in self.named_parameters():
            if tensor.grad is not None:
                tensor.grad *= factor

    def copy(self) -> "ModelParams":
        clone = deepcopy(self)
        clone.zero_grads()
        return clone


# -- forward operations -----------------------------------------------------


def lstm_cell(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One memory/state update from the stacked gate pre-activations.

    ``z`` is W x + U h_prev + b with the gates stacked in i, f, o, c order.
    Returns (h, c, acts), acts being the four activated gates as 4 x h rows.
    """
    z = z.reshape(4, -1)
    acts = np.vstack([sigmoid(z[:3]), np.tanh(z[3:])])
    i, f, o, c_cand = acts
    c = f * c_prev + i * c_cand
    return o * np.tanh(c), c, acts


def run_lstm(tape: Tape, X: np.ndarray, d: LstmDirection, reverse: bool = False) -> Tensor:
    """States of one direction for every interval, from zero states.

    With ``reverse`` the rows are consumed last-to-first and the states
    re-reversed, so state row t always belongs to input row t.  ``X`` is a
    plain array: the entry's inputs are W, U and b, and no gradient flows
    back into the episode's features.
    """
    steps = X.shape[0]
    if steps < 1:
        raise ValueError("run_lstm: need at least one interval")
    W, U, b = d.W.data, d.U.data, d.b.data
    n = U.shape[1]
    rows = X[::-1] if reverse else X
    pre = rows @ W.T + b
    H = np.zeros((steps + 1, n))  # row 0 holds the zero initial state,
    C = np.zeros((steps + 1, n))  # row t + 1 the state after step t
    acts = np.empty((steps, 4, n))
    for t in range(steps):
        H[t + 1], C[t + 1], acts[t] = lstm_cell(pre[t] + U @ H[t], C[t])

    def backward(g):  # backprop through time, last step first
        G = g[::-1] if reverse else g
        dZ = np.empty((steps, 4 * n))
        gates = dZ.reshape(steps, 4, n)  # the same memory, one row per gate
        dh, dc = np.zeros(n), np.zeros(n)  # carried back from step t + 1
        for t in reversed(range(steps)):
            i, f, o, c_cand = acts[t]
            tanh_c = np.tanh(C[t + 1])
            dh = dh + G[t]
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            gates[t] = (dc * c_cand * i * (1.0 - i),
                        dc * C[t] * f * (1.0 - f),
                        dh * tanh_c * o * (1.0 - o),
                        dc * i * (1.0 - c_cand * c_cand))
            dh = U.T @ dZ[t]
            dc = dc * f
        return dZ.T @ rows, dZ.T @ H[:-1], dZ.sum(axis=0)

    states = H[:0:-1] if reverse else H[1:]
    return tape.record("lstm", (d.W, d.U, d.b), states, backward)


def attend(tape: Tape, H: Tensor, head: AttentionHead) -> tuple[Tensor, np.ndarray]:
    """One reading head over the states H (intervals x state_dim).

    Scores every state, softmax-normalizes the scores over time and returns
    the convex combination of the states under those weights, with the
    weights themselves.
    """
    S = H.data
    M, v = head.M.data, head.v.data[0]
    hidden = np.tanh(S @ M.T + head.b.data)
    weights = softmax(hidden @ v + head.c.data[0])

    def backward(g):
        d_weights = S @ g
        d_score = weights * (d_weights - weights @ d_weights)
        d_pre = np.outer(d_score, v) * (1.0 - hidden * hidden)
        return (np.outer(weights, g) + d_pre @ M, d_pre.T @ S, d_pre.sum(axis=0),
                (d_score @ hidden)[None, :], np.array([d_score.sum()]))

    reading = tape.record("attention", (H, head.M, head.b, head.v, head.c),
                          weights @ S, backward)
    return reading, weights


def pool_heads(tape: Tape, readings: list[Tensor]) -> Tensor:
    """Elementwise maximum across head readings."""
    if not readings:
        raise ValueError("pool_heads: need at least one reading")
    pooled = readings[0]
    for reading in readings[1:]:
        pooled = tape.maximum(pooled, reading)
    return pooled


def classify(tape: Tape, z: Tensor, classifier: Classifier) -> Tensor:
    """Risk probability sigmoid(w . z + b), as a one-element tensor."""
    return tape.sigmoid(tape.add(tape.matmul(classifier.w, z), classifier.b))


def forward_episode(X: np.ndarray, params: ModelParams, train: bool = False,
                    rng: np.random.Generator | None = None,
                    record_id: int | None = None) -> ForwardResult:
    """Score one episode's feature matrix.

    In training mode, inverted dropout is applied to the input matrix and
    to the pooled feature z, drawing from ``rng``.  Evaluation mode is fully
    deterministic.  The attention trace is populated only for attention
    pooling.
    """
    cfg = params.config
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ShapeMismatchError(
            f"episode matrix {X.shape} does not match input width {cfg.input_dim}"
        )
    if X.shape[0] < 1:
        raise ValueError("episode must have at least one interval")
    if not cfg.recurrent and X.shape[0] != 1:
        raise ValueError(
            f"non-recurrent model expects a single interval, got {X.shape[0]}"
        )

    tape = Tape()
    x = Tensor(X)
    if train:
        x = tape.dropout(x, cfg.dropout_in, rng)

    weights = []
    if not cfg.recurrent:
        z = tape.mean(x)
    else:
        states = run_lstm(tape, x.data, params.forward_lstm)
        if cfg.bidirectional:
            states = tape.concat(states, run_lstm(tape, x.data, params.backward_lstm,
                                                  reverse=True))
        if cfg.pooling == "attention":
            readings, weights = zip(*(attend(tape, states, head) for head in params.heads))
            z = pool_heads(tape, list(readings))
        else:
            z = tape.mean(states)

    if train:
        z = tape.dropout(z, cfg.dropout_out, rng)
    p = classify(tape, z, params.classifier)

    trace = None
    if weights:
        trace = AttentionTrace(
            record_id=record_id,
            weights=np.stack(weights),
            states=states.data.copy(),
            risk=float(p.data[0]),
        )
    return ForwardResult(risk=float(p.data[0]), trace=trace, tape=tape, output=p)


def grad_check(config: ModelConfig, seed: int, intervals: int = 4,
               step: float = 1e-5) -> float:
    """Max relative error of tape gradients vs central finite differences.

    Builds a randomly initialized model and episode from ``seed`` and checks
    every parameter entry.  Dropout must be disabled: the check needs a
    deterministic forward pass.
    """
    if config.dropout_in > 0 or config.dropout_out > 0:
        raise ValueError("gradient check requires dropout rates of 0")
    rng = np.random.default_rng(seed)
    params = ModelParams.init(config, rng)
    t = intervals if config.recurrent else 1
    X = rng.standard_normal((t, config.input_dim))
    y = 1

    def build() -> tuple[Tape, Tensor]:
        result = forward_episode(X, params, train=False)
        return result.tape, result.tape.binary_cross_entropy(result.output, y)

    return check_gradients(build, [t for _, t in params.named_parameters()], step)


# -- persistence ------------------------------------------------------------


def v1_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The parameter arrays under format v1's names, in its key order.

    Version 1 files keep each LSTM gate's blocks apart (``fw.Wi, fw.Ui,
    fw.bi, fw.Wf, ...``, gates in i, f, o, c order); those entries are views
    into the stacked W, U and b, so writing to them fills the model.  Heads
    and classifier keep their own names.
    """
    out: list[tuple[str, np.ndarray]] = []
    for prefix, d in (("fw", params.forward_lstm), ("bw", params.backward_lstm)):
        if d is not None:
            for g, W, U, b in zip("ifoc", *(np.split(t.data, 4) for t in (d.W, d.U, d.b))):
                out += [(f"{prefix}.W{g}", W), (f"{prefix}.U{g}", U), (f"{prefix}.b{g}", b)]
    return out + [(name, tensor.data) for name, tensor in params.named_parameters()
                  if not name.startswith(("fw.", "bw."))]


def save_model(path, params: ModelParams, preprocess_stats: PipelineStats | None = None) -> None:
    """Write a self-describing model file (JSON container, format version 1).

    The fitted preprocessing statistics are embedded so a saved model can
    score raw record files on its own.
    """
    doc = {
        "magic": MODEL_MAGIC,
        "version": MODEL_FORMAT_VERSION,
        "config": asdict(params.config),
        "preprocess": preprocess_stats.to_dict() if preprocess_stats else None,
        "params": {
            name: {"shape": list(array.shape), "data": array.ravel().tolist()}
            for name, array in v1_arrays(params)
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> tuple[ModelParams, PipelineStats | None]:
    """Load a model file; a malformed one raises ``ModelFormatError`` naming
    the file and the field or parameter at fault.  NaN values load: they are
    caught where risks come out."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("magic") != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file: magic {doc.get('magic')!r}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version {doc.get('version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    for key in ("config", "params"):
        if not isinstance(doc.get(key), dict):
            raise ModelFormatError(f"{path}: missing {key!r} object")
    try:
        config = ModelConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: config: {exc}") from exc
    params = ModelParams.init(config, np.random.default_rng(0))
    saved, arrays = doc["params"], v1_arrays(params)
    odd = sorted(set(saved) ^ {name for name, _ in arrays})
    if odd:
        raise ModelFormatError(f"{path}: parameters {odd} do not match the configuration")
    for name, array in arrays:
        entry = saved[name] if isinstance(saved[name], dict) else {}
        data = entry.get("data")
        if entry.get("shape") != list(array.shape):
            problem = f"shape {entry.get('shape')} does not match {array.shape}"
        elif not isinstance(data, list) or not {type(v) for v in data} <= {int, float}:
            problem = "data must be a list of numbers"
        elif len(data) != array.size:
            problem = f"{len(data)} values, expected {array.size}"
        else:
            array[...] = np.reshape(data, array.shape)
            continue
        raise ModelFormatError(f"{path}: parameter {name}: {problem}")
    return params, PipelineStats.from_dict(doc["preprocess"]) if doc.get("preprocess") else None
