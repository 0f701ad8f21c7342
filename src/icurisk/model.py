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

The model runs on a batch of episodes at once: their feature matrices are
padded at the end to the longest (batch x intervals x features) and each
episode's length is kept.  The parameters are plain arrays, one set per
layer with the directions and heads stacked on a leading axis.  Each layer
works on the whole batch, every direction or head at once, returns its
output array and appends one hand-written backward rule to the tape's
list, so a forward pass is a chain of at most four rules (LSTM, attention
or mean, output dropout, classifier) whatever the batch size and episode
lengths.  :func:`loss_and_grads` adds the mean log-loss and sweeps those
rules back, last layer first; the parameter gradients come out in the
order of :meth:`ModelParams.named_parameters`, which names them.  Padding
never reaches a real state, weight or reading, and gets zero gradient.
Scoring one episode is the batch of one, run on a view of its matrix: with
nothing to pad and no dropout to apply, it needs no padded copy.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from icurisk.autodiff import Tape
from icurisk.preprocess import PipelineStats, check_count, check_number, feature_width


class ModelFormatError(ValueError):
    """Raised when a model file has the wrong magic, version, or contents."""


class ShapeMismatchError(ValueError):
    """Raised when an operation's input shapes are incompatible."""


MODEL_MAGIC = "icurisk-model"
MODEL_FORMAT_VERSION = 1

POOLING_MODES = ("attention", "mean")


@dataclass
class ModelConfig:
    """Architecture switches, and the one place their defaults live.
    ``icurisk train --variant`` fixes some fields (``train.VARIANTS``), and
    ``--hidden``, ``--heads``, ``--dropout-in`` and ``--dropout-out`` set
    the fields they name.  ``input_dim`` is the preprocess feature width.
    A size ``check_count`` refuses, a switch not a bool, or a dropout rate
    ``check_number`` refuses or outside [0, 1) raises ValueError."""

    input_dim: int = feature_width()
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
        for name in ("input_dim", "hidden", "heads", "attn_hidden"):
            check_count(name, getattr(self, name))
        for name in ("bidirectional", "recurrent"):
            if type(value := getattr(self, name)) is not bool:
                raise ValueError(f"{name} is {value!r}, not true or false")
        for name in ("dropout_in", "dropout_out"):
            check_number(name, rate := getattr(self, name))
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} is {rate!r}, not in [0, 1)")

    @property
    def state_dim(self) -> int:
        """Width of the pooled feature the classifier consumes."""
        if not self.recurrent:
            return self.input_dim
        return self.hidden * (2 if self.bidirectional else 1)


@dataclass
class Lstm:
    """Every direction's four gates as one affine map each: W (D x 4h x d),
    U (D x 4h x h) and b (D x 4h), gate blocks stacked in i, f, o, c order.
    Direction 0 reads forward; direction 1 (D = 2, bidirectional) reads
    each episode last to first."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray


@dataclass
class Attention:
    """R reading heads' scoring nets, score_r = v_r . tanh(M_r s + b_r) + c_r:
    M (R x a x s), b (R x a), v (R x a) and c (R).  ``c`` gets a zero gradient,
    as a softmax is unchanged by a shift; it is kept only for format v1."""

    M: np.ndarray
    b: np.ndarray
    v: np.ndarray
    c: np.ndarray


@dataclass
class Classifier:
    w: np.ndarray
    b: np.ndarray


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


@dataclass
class BatchResult:
    """Risks of a padded batch, with the tape that computed them."""

    risks: np.ndarray  # one per episode
    weights: np.ndarray | None  # batch x heads x intervals, 0 past each length
    states: np.ndarray | None  # batch x intervals x state_dim
    tape: Tape


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function that stays finite for any finite input."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


class ModelParams:
    """All learnable arrays, one set per layer, plus the configuration that
    shaped them; a layer the configuration does not use is None."""

    def __init__(self, config: ModelConfig, lstm: Lstm | None,
                 attention: Attention | None, classifier: Classifier):
        self.config = config
        self.lstm = lstm
        self.attention = attention
        self.classifier = classifier

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        """Fresh parameters: Glorot weights, zero biases but the forget gate's +1."""
        return cls._build(config, lambda rows, cols: _glorot(rng, rows, cols))

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """Parameters shaped by ``config`` with zero weights, to be filled in."""
        return cls._build(config, lambda rows, cols: np.zeros((rows, cols)))

    @classmethod
    def _build(cls, config: ModelConfig, weight) -> "ModelParams":
        """Every array the configuration needs; ``weight(rows, cols)`` makes
        each weight block, in a fixed order: per direction, each gate's W
        then U; per head, M then v; then the classifier's w."""
        lstm = attention = None
        if config.recurrent:
            D, d, h = 2 if config.bidirectional else 1, config.input_dim, config.hidden
            W, U = zip(*((weight(h, d), weight(h, h)) for _ in range(4 * D)))
            b = np.zeros((D, 4 * h))
            b[:, h:2 * h] = 1.0  # forget gate at +1 favors memory retention early on
            lstm = Lstm(np.concatenate(W).reshape(D, 4 * h, d),
                        np.concatenate(U).reshape(D, 4 * h, h), b)
        if config.recurrent and config.pooling == "attention":
            R, a = config.heads, config.attn_hidden
            M, v = zip(*((weight(a, config.state_dim), weight(1, a)) for _ in range(R)))
            attention = Attention(np.stack(M), np.zeros((R, a)), np.concatenate(v), np.zeros(R))
        classifier = Classifier(w=weight(1, config.state_dim), b=np.zeros(1))
        return cls(config, lstm, attention, classifier)

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """All arrays in a fixed order: ``lstm.W/U/b``, ``attn.M/b/v/c``,
        ``out.w/b``, the order in which the layers' backward rules give
        their gradients; the one place the names are formed."""
        layers = (("lstm", self.lstm), ("attn", self.attention), ("out", self.classifier))
        return [(f"{prefix}.{name}", array) for prefix, layer in layers if layer is not None
                for name, array in vars(layer).items()]

    def copy(self) -> "ModelParams":
        """An independent copy: every array copied, the configuration shared."""
        lstm, attention, classifier = (
            None if layer is None else type(layer)(*(a.copy() for a in vars(layer).values()))
            for layer in (self.lstm, self.attention, self.classifier))
        return ModelParams(self.config, lstm, attention, classifier)


# -- forward operations -----------------------------------------------------


def lstm_cell(z: np.ndarray, c_prev: np.ndarray, c: np.ndarray, h: np.ndarray,
              tanh_c: np.ndarray) -> None:
    """One memory/state update, written in place.

    ``z`` is W x + U h_prev + b for a batch, with the gates stacked in i,
    f, o, c order on its first axis (4 x any shape of ``c_prev``); it is
    overwritten with the four activated gates.  One tanh activates all
    four, as sigmoid(x) = (1 + tanh(x / 2)) / 2.  The new memory goes to
    ``c``, its tanh to ``tanh_c`` and the new state to ``h``.
    """
    ifo = z[:3]
    ifo *= 0.5
    np.tanh(z, out=z)
    ifo *= 0.5
    ifo += 0.5
    i, f, o, c_cand = z
    np.multiply(f, c_prev, out=c)
    np.multiply(i, c_cand, out=tanh_c)  # i * c_cand, until tanh(c) replaces it
    c += tanh_c
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _direction_major(a: np.ndarray, width: int) -> np.ndarray:
    """``a`` (D x ... x width) copied in C order to D x rows x width: matmul and
    sum traverse a strided view in another order, and so round differently."""
    return np.ascontiguousarray(a).reshape(a.shape[0], -1, width)


def run_lstm(rules: list, X: np.ndarray, lengths: np.ndarray, lstm: Lstm) -> np.ndarray:
    """States of every direction for every interval of a padded batch.

    ``X`` is batch x intervals x features, each episode padded at the end
    to the longest; ``lengths`` gives each episode's own interval count.
    Returns batch x intervals x Dh, each interval's direction states side
    by side, forward first; state row t always belongs to input row t.
    Direction 1 consumes each episode last-to-first within its own length.
    States at padding rows are computed but feed no real state; their
    gradient must be zero.  No gradient flows back into the features.
    """
    batch, steps, _ = X.shape
    if steps < 1 or lengths.min() < 1:
        raise ValueError("run_lstm: need at least one interval per episode")
    W, U, b = lstm.W, lstm.U, lstm.b
    D, n = U.shape[0], U.shape[2]
    # Step t of episode e in direction k reads input row rows[t, k, e]: row
    # t, or in direction 1 row lengths[e] - 1 - t within its own length;
    # padding rows keep their place after it, so the padding never feeds a
    # real state.  The arrays below are step-major, gathered once (acts is
    # steps x 4 x D x batch x h), so each step's gates are contiguous blocks.
    step = np.arange(steps)[:, None, None]
    dirs = np.arange(D)[:, None]
    rows = np.where((step < lengths) & (dirs == 1), lengths - 1 - step, step)
    cols = np.arange(batch)
    acts = (X.reshape(batch * steps, -1) @ W.reshape(D * 4 * n, -1).T).reshape(
        batch, steps, D, 4, n)[cols, rows[:, None], dirs, np.arange(4)[:, None, None]]
    acts += b.reshape(D, 4, n).transpose(1, 0, 2)[:, :, None]  # each step adds U h_prev
    H = np.zeros((steps + 1, D, batch, n))  # H[0] is the zero initial state,
    C = np.zeros((steps + 1, D, batch, n))  # H[t + 1] the state after step t
    tanh_C = np.empty((steps, D, batch, n))
    UT = U.transpose(0, 2, 1)
    HU = np.empty((D, batch, 4 * n))  # each step's U h_prev, added gate-major
    hu = HU.reshape(D, batch, 4, n).transpose(2, 0, 1, 3)
    for z, h_prev, c_prev, h, c, tanh_c in zip(acts, H, C, H[1:], C[1:], tanh_C):
        np.matmul(h_prev, UT, out=HU)
        z += hu
        lstm_cell(z, c_prev, c, h, tanh_c)
    states = np.empty((batch, steps, D, n))
    states[cols, rows, dirs] = H[1:]

    def backward(g):  # backprop through time, last step first
        nonlocal acts
        i, f, o, c_cand = acts.transpose(1, 0, 2, 3, 4)
        f = f.copy()  # the loop still reads f; the other activations are dead
        d_tanh = o * (1.0 - tanh_C * tanh_C)
        ic = c_cand * i
        # dZ starts as each gate's local derivative, written over its
        # activation; step t scales it by the gradient reaching the gate, dc
        # for i, f and c_cand, dh for o.
        dZ, acts = acts, None
        di, df, do, dc_cand = dZ.transpose(1, 0, 2, 3, 4)
        np.multiply(tanh_C * o, 1.0 - o, out=do)
        np.multiply(i, 1.0 - c_cand * c_cand, out=dc_cand)
        np.multiply(ic, 1.0 - i, out=di)
        np.multiply(C[:-1] * f, 1.0 - f, out=df)
        g = g.reshape(batch, steps, D, n)[cols, rows, dirs]  # in step order
        dh, dc = np.zeros((D, batch, n)), np.zeros((D, batch, n))  # from step t + 1
        for t in reversed(range(steps)):
            dh += g[t]
            dc += dh * d_tanh[t]
            dZ[t, :2] *= dc
            dZ[t, 2] *= dh
            dZ[t, 3] *= dc
            dh = _direction_major(dZ[t].transpose(1, 2, 0, 3), 4 * n) @ U
            dc *= f[t]
        del i, f, o, c_cand, di, df, do, dc_cand, d_tanh, ic, g  # before the copy of dZ
        dz, dZ = _direction_major(dZ.transpose(2, 0, 3, 1, 4), 4 * n), None  # D x rows x 4h
        dU = dz.transpose(0, 2, 1) @ _direction_major(H[:-1].transpose(1, 0, 2, 3), n)
        db = dz.sum(axis=1)
        dZ_rows = np.empty((batch, steps, D, 4 * n))  # back to input order, against X
        dZ_rows[cols, rows, dirs] = dz.reshape(D, steps, batch, 4 * n).transpose(1, 0, 2, 3)
        dW = dZ_rows.reshape(batch * steps, D * 4 * n).T @ X.reshape(batch * steps, -1)
        return None, dW.reshape(W.shape), dU, db

    rules.append(backward)
    return states.reshape(batch, steps, D * n)


def attend(rules: list, states: np.ndarray, lengths: np.ndarray,
           attention: Attention) -> tuple[np.ndarray, np.ndarray]:
    """Every reading head over padded states (batch x intervals x width),
    max-pooled.

    Each head scores every state, softmax-normalizes each episode's scores
    over its own intervals (padding scores are -inf, so their weight is 0)
    and reads each episode's convex combination of its states under those
    weights.  Returns the elementwise maximum of the R readings (batch x
    width) and the weights (batch x R x intervals).  An element's gradient
    goes to the first head that holds its maximum.  The hidden layer is
    formed in its matmul's result and the weights in the scores' array, each
    step in place.
    """
    batch, steps, width = states.shape
    M, v = attention.M, attention.v
    R, a = v.shape
    flat = states.reshape(batch * steps, width)
    hidden = (flat @ M.reshape(R * a, width).T).reshape(batch, steps, R, a)
    hidden += attention.b
    np.tanh(hidden, out=hidden)
    weights = (hidden * v).sum(axis=-1)  # batch x steps x R: the scores, then
    weights += attention.c               # their softmax, in place
    if (lengths < steps).any():
        weights[np.arange(steps) >= lengths[:, None]] = -np.inf
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    readings = weights.transpose(0, 2, 1) @ states  # batch x R x width

    def backward(g):
        winner = readings.argmax(axis=1)[:, None, :]
        g = g[:, None, :] * (winner == np.arange(R)[:, None])  # to each reading
        d_weights = states @ g.transpose(0, 2, 1)
        d_score = weights * (d_weights - (weights * d_weights).sum(axis=1, keepdims=True))
        d_pre = (d_score[..., None] * v * (1.0 - hidden * hidden)).reshape(batch * steps, R * a)
        d_states = (d_pre @ M.reshape(R * a, width)).reshape(states.shape)
        d_states += weights @ g
        return (d_states, (d_pre.T @ flat).reshape(M.shape), d_pre.sum(axis=0).reshape(R, a),
                np.einsum("btr,btra->ra", d_score, hidden), d_score.sum(axis=(0, 1)))

    rules.append(backward)
    return readings.max(axis=1), weights.transpose(0, 2, 1)


def mean_rows(rules: list, states: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each episode's mean over its own rows of padded states (batch x
    intervals x width)."""
    real = (np.arange(states.shape[1]) < lengths[:, None])[..., None]
    n = lengths[:, None].astype(np.float64)
    rules.append(lambda g: ((g / n)[:, None, :] * real,))
    return (states * real).sum(axis=1) / n


def classify(rules: list, z: np.ndarray, classifier: Classifier) -> np.ndarray:
    """Risk probabilities sigmoid(w . z + b), one per row of z (batch x width)."""
    w, b = classifier.w[0], classifier.b[0]
    p = sigmoid(z @ w + b)

    def backward(g):
        d_logit = g * p * (1.0 - p)
        return np.outer(d_logit, w), (d_logit @ z)[None, :], np.array([d_logit.sum()])

    rules.append(backward)
    return p


def _draw_dropout(X: np.ndarray, lengths: np.ndarray, cfg: ModelConfig,
                  rng: np.random.Generator) -> np.ndarray | None:
    """Inverted dropout masks from one draw for the whole batch, laid out
    episode by episode, input mask then output mask: the numbers that scoring
    the episodes one at a time draws, as ``rng.random(a + b)`` gives those of
    ``rng.random(a)`` and then ``rng.random(b)``.  The input mask multiplies
    ``X`` in place (no gradient flows into the features, so it is not kept);
    the output masks are returned, one row per episode, or None at rate 0.
    A rate of 0 draws nothing.
    """
    if not (cfg.dropout_in or cfg.dropout_out):
        return None
    width, out_width = X.shape[2], cfg.state_dim if cfg.dropout_out else 0
    sizes = lengths * width * bool(cfg.dropout_in) + out_width
    ends = np.cumsum(sizes)
    u = rng.random(ends[-1])
    if cfg.dropout_in:
        keep = (u >= cfg.dropout_in) / (1.0 - cfg.dropout_in)
        for row, (steps, start) in enumerate(zip(lengths, ends - sizes)):
            X[row, :steps] *= keep[start:start + steps * width].reshape(steps, width)
    last = ends[:, None] - out_width + np.arange(out_width)  # each episode's final draws
    return (u[last] >= cfg.dropout_out) / (1.0 - cfg.dropout_out) if out_width else None


def forward_batch(matrices, params: ModelParams,
                  rng: np.random.Generator | None = None) -> BatchResult:
    """Score a batch of episodes' feature matrices in one pass.

    The matrices are padded at the end to the longest and run as one
    batch; each layer appends one backward rule for the whole batch.  Given a
    generator, the pass is in training mode: inverted dropout is applied to
    the inputs and to the pooled features z, from one draw of ``rng`` laid
    out episode by episode.  Without one it is in evaluation mode, fully
    deterministic, and a single matrix runs unpadded, as a batch-of-one view
    of itself (of a C-ordered float64 copy, if it is not one already).  The
    pass never writes into the caller's matrices.
    """
    cfg = params.config
    for X in matrices:
        if X.ndim != 2 or X.shape[1] != cfg.input_dim:
            raise ShapeMismatchError(
                f"episode matrix {X.shape} does not match input width {cfg.input_dim}"
            )
    lengths = np.array([X.shape[0] for X in matrices])
    if len(lengths) == 0 or lengths.min() < 1:
        raise ValueError("every episode must have at least one interval")
    if not cfg.recurrent and lengths.max() != 1:
        raise ValueError(
            f"non-recurrent model expects a single interval, got {lengths.max()}"
        )
    if len(matrices) == 1 and rng is None:  # nothing to pad, nothing written
        batch = np.ascontiguousarray(matrices[0], dtype=np.float64)[None]
    else:
        batch = np.zeros((len(lengths), lengths.max(), cfg.input_dim))
        for row, X in zip(batch, matrices):
            row[:len(X)] = X
    out_mask = None if rng is None else _draw_dropout(batch, lengths, cfg, rng)

    tape = Tape()
    rules = tape.entries
    states, weights = None, None
    if not cfg.recurrent:
        z = batch[:, 0]  # the single interval, classified directly
    else:
        states = run_lstm(rules, batch, lengths, params.lstm)
        if cfg.pooling == "attention":
            z, weights = attend(rules, states, lengths, params.attention)
        else:
            z = mean_rows(rules, states, lengths)

    if out_mask is not None:
        rules.append(lambda g: (g * out_mask,))
        z = z * out_mask
    p = classify(rules, z, params.classifier)
    return BatchResult(risks=p, weights=weights, states=states, tape=tape)


def forward_episode(X: np.ndarray, params: ModelParams, *,
                    record_id: int | None = None) -> ForwardResult:
    """Score one episode's feature matrix: :func:`forward_batch` on a batch
    of one, in evaluation mode; training passes go through :func:`forward_batch`.

    The attention trace is populated only for attention pooling; its
    weights and states are the batch's own rows, not copies.
    """
    batch = forward_batch([np.asarray(X, dtype=np.float64)], params)
    risk = float(batch.risks[0])
    trace = None
    if batch.weights is not None:
        trace = AttentionTrace(record_id=record_id, weights=batch.weights[0],
                               states=batch.states[0], risk=risk)
    return ForwardResult(risk=risk, trace=trace, tape=batch.tape)


def loss_and_grads(params: ModelParams, matrices, labels,
                   rng: np.random.Generator | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean log-loss of a batch and its gradient, one array per named parameter.

    The loss of an episode is -[y log p + (1-y) log(1-p)], p clipped to
    [1e-12, 1-1e-12].  With a generator the pass is in training mode and
    draws its dropout masks from ``rng`` as :func:`forward_batch` does;
    without one it is in evaluation mode.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = len(matrices)
    if labels.shape != (n,):
        raise ShapeMismatchError(f"{labels.size} labels for {n} episodes")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError(f"labels must be 0 or 1, got {labels}")
    result = forward_batch(matrices, params, rng)
    p = result.risks
    clipped = np.clip(p, 1e-12, 1.0 - 1e-12)
    losses = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped))
    inside = (p > 1e-12) & (p < 1.0 - 1e-12)
    d_p = 1.0 / n * inside * (clipped - labels) / (clipped * (1.0 - clipped))
    names = (name for name, _ in params.named_parameters())
    return float(losses.sum() / n), dict(zip(names, result.tape.backward(d_p), strict=True))


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-8) over all entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(evaluate, parameters) -> float:
    """Compare analytic gradients with central finite differences.

    ``evaluate()`` returns the loss and one gradient per parameter name
    for the parameters' current values, as :func:`loss_and_grads` does; it
    must be deterministic, so dropout must be off.  Each of the (name,
    array) ``parameters`` is perturbed in place, one entry at a time, by
    1e-5 each way.  Returns the max relative error over every entry.
    """
    step = 1e-5
    _, analytic = evaluate()
    worst = 0.0
    for name, array in parameters:
        flat = array.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up, _ = evaluate()
            flat[i] = original - step
            down, _ = evaluate()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, max_relative_error(
                np.array([analytic[name].reshape(-1)[i]]), np.array([numeric])))
    return worst


def grad_check(config: ModelConfig, seed: int) -> float:
    """Max relative error of the model's gradients vs central finite differences.

    Builds a randomly initialized model and a 4-interval episode (1 for a
    non-recurrent model) from ``seed`` and checks every parameter entry.
    Dropout must be disabled: the check needs a deterministic forward pass.
    """
    if config.dropout_in > 0 or config.dropout_out > 0:
        raise ValueError("gradient check requires dropout rates of 0")
    rng = np.random.default_rng(seed)
    params = ModelParams.init(config, rng)
    X = rng.standard_normal((4 if config.recurrent else 1, config.input_dim))
    return check_gradients(lambda: loss_and_grads(params, [X], [1]),
                           params.named_parameters())


# -- persistence ------------------------------------------------------------


def v1_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The parameter arrays under format v1's names, in its key order.

    Version 1 files keep each direction's LSTM gate blocks apart (``fw.Wi,
    fw.Ui, fw.bi, fw.Wf, ...``, gates in i, f, o, c order, then ``bw.*``)
    and each head's arrays apart (``head0.M``, ``head0.b``, ``head0.v`` as
    1 x a, ``head0.c`` as 1, ``head1.M``, ...); every entry is a view into
    the stacked arrays, so writing to it fills the model.
    """
    out: list[tuple[str, np.ndarray]] = []
    if params.lstm is not None:
        for prefix, *direction in zip(("fw", "bw"), params.lstm.W, params.lstm.U, params.lstm.b):
            for g, W, U, b in zip("ifoc", *(np.split(a, 4) for a in direction)):
                out += [(f"{prefix}.W{g}", W), (f"{prefix}.U{g}", U), (f"{prefix}.b{g}", b)]
    heads = params.attention
    if heads is not None:
        for r in range(len(heads.c)):
            out += [(f"head{r}.M", heads.M[r]), (f"head{r}.b", heads.b[r]),
                    (f"head{r}.v", heads.v[r:r + 1]), (f"head{r}.c", heads.c[r:r + 1])]
    return out + [("out.w", params.classifier.w), ("out.b", params.classifier.b)]


def save_model(path, params: ModelParams, preprocess_stats: PipelineStats | None = None) -> None:
    """Write a self-describing model file (JSON container, format version 1).

    The fitted preprocessing statistics are embedded so a saved model can
    score raw record files on its own.  The text is streamed into the
    sibling ``<path>.part``, which then replaces ``path`` in one rename: a
    save that fails, or a process killed mid-write, leaves the old file (or
    none), and no text is held whole in memory.  A symlinked ``path`` stays a
    link, whose target gets the new bytes; an existing file keeps its
    permission bits.  A fixed sibling name rather than ``tempfile.mkstemp``
    keeps the mode ``open`` gives a new file.
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
    path = os.path.realpath(path)
    part = Path(f"{path}.part")
    try:
        with open(part, "w") as fh:
            json.dump(doc, fh)
        if os.path.isfile(path):
            shutil.copymode(path, part)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def load_model(path) -> tuple[ModelParams, PipelineStats | None]:
    """Load a model file; a malformed one raises ``ModelFormatError`` naming
    the file and the field or parameter at fault, as do statistics that
    :meth:`PipelineStats.check` refuses, naming the statistic and the
    feature, and statistics whose feature count differs from the model's
    ``input_dim``.  Non-finite parameters load: they are caught where risks
    come out."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ModelFormatError(f"{path}: not a JSON model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"{path}: not a model file: top level is a JSON {type(doc).__name__}, "
            "expected an object"
        )
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
    params = ModelParams.zeros(config)
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
    if not doc.get("preprocess"):
        return params, None
    try:
        stats = PipelineStats.from_dict(doc["preprocess"])
    except (OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: preprocess: {exc}") from exc
    if len(stats.feature_names) != config.input_dim:
        raise ModelFormatError(
            f"{path}: feature width mismatch: model expects {config.input_dim}, "
            f"statistics provide {len(stats.feature_names)}"
        )
    return params, stats
