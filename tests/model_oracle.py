"""The per-episode model: the reference the batched forward pass must match.

This is the chain as it ran one episode at a time, each layer on a ``T x d``
matrix and each example on its own tape: input dropout, the LSTM
direction(s) with backprop through time, the attention heads, max pooling,
output dropout and the logistic output.  A mini-batch's gradient is the
mean of its episodes' gradients, each from its own backward sweep, and
every episode draws its input mask and then its output mask from the one
generator, episode by episode.  Each layer records itself on the general
engine in ``tape_oracle.py``, with the parameters wrapped as its tensors.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from icurisk.model import AttentionTrace
from tape_oracle import Tape, Tensor, sigmoid, softmax


@dataclass
class EpisodeResult:
    risk: float
    trace: AttentionTrace | None
    tape: Tape
    output: Tensor  # probability node, for attaching a loss


def as_tensors(params):
    """The same parameter arrays, each direction and head apart as the
    layers below read them, each wrapped in a tensor that collects its
    gradient."""
    lstm, attention, c = params.lstm, params.attention, params.classifier
    directions = [] if lstm is None else [
        SimpleNamespace(W=Tensor(W), U=Tensor(U), b=Tensor(b))
        for W, U, b in zip(lstm.W, lstm.U, lstm.b)]
    heads = [] if attention is None else [
        SimpleNamespace(M=Tensor(attention.M[r]), b=Tensor(attention.b[r]),
                        v=Tensor(attention.v[r:r + 1]), c=Tensor(attention.c[r:r + 1]))
        for r in range(len(attention.c))]
    classifier = SimpleNamespace(w=Tensor(c.w), b=Tensor(c.b))
    forward_lstm, backward_lstm = (directions + [None, None])[:2]
    return SimpleNamespace(config=params.config, forward_lstm=forward_lstm,
                           backward_lstm=backward_lstm, heads=heads,
                           classifier=classifier,
                           layers={"lstm": directions, "attn": heads, "out": [classifier]})


def lstm_cell(z, c_prev):
    """One step from the stacked gate pre-activations of one episode."""
    z = z.reshape(4, -1)
    acts = np.vstack([sigmoid(z[:3]), np.tanh(z[3:])])
    i, f, o, c_cand = acts
    c = f * c_prev + i * c_cand
    return o * np.tanh(c), c, acts


def run_lstm(tape, X, d, reverse=False):
    """States of one direction for one episode, as one tape entry."""
    steps = X.shape[0]
    W, U, b = d.W.data, d.U.data, d.b.data
    n = U.shape[1]
    rows = X[::-1] if reverse else X
    pre = rows @ W.T + b
    H = np.zeros((steps + 1, n))
    C = np.zeros((steps + 1, n))
    acts = np.empty((steps, 4, n))
    for t in range(steps):
        H[t + 1], C[t + 1], acts[t] = lstm_cell(pre[t] + U @ H[t], C[t])

    def backward(g):
        G = g[::-1] if reverse else g
        dZ = np.empty((steps, 4 * n))
        gates = dZ.reshape(steps, 4, n)
        dh, dc = np.zeros(n), np.zeros(n)
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


def attend(tape, H, head):
    """One reading head over one episode's states (intervals x width)."""
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


def forward_episode(X, params, train=False, rng=None, record_id=None):
    """Score one episode with the per-episode layers above; ``params``
    holds tensors (see :func:`as_tensors`)."""
    cfg = params.config
    tape = Tape()
    x = Tensor(np.asarray(X, dtype=np.float64))
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
            z = readings[0]
            for reading in readings[1:]:
                z = tape.maximum(z, reading)
        else:
            z = tape.mean(states)

    if train:
        z = tape.dropout(z, cfg.dropout_out, rng)
    c = params.classifier
    p = tape.sigmoid(tape.add(tape.matmul(c.w, z), c.b))

    trace = None
    if weights:
        trace = AttentionTrace(record_id, np.stack(weights), states.data.copy(),
                               float(p.data[0]))
    return EpisodeResult(risk=float(p.data[0]), trace=trace, tape=tape, output=p)


def batch_gradients(matrices, labels, params, train=False, rng=None):
    """Per-episode forward and backward, gradients averaged over the batch.

    Returns (results, mean loss, {parameter name: gradient}); a parameter
    no episode reached gets a zero gradient.
    """
    tensors = as_tensors(params)
    results, losses = [], []
    for X, y in zip(matrices, labels):
        result = forward_episode(X, tensors, train=train, rng=rng)
        loss = result.tape.binary_cross_entropy(result.output, y)
        result.tape.backward(loss)
        results.append(result)
        losses.append(float(loss.data[0]))

    def gradient(name, shape):  # the directions' or heads' gradients, stacked
        layer, field = name.split(".")
        parts = [getattr(part, field) for part in tensors.layers[layer]]
        return np.concatenate([(np.zeros_like(t.data) if t.grad is None else t.grad).ravel()
                               for t in parts]).reshape(shape) / len(matrices)

    grads = {name: gradient(name, array.shape) for name, array in params.named_parameters()}
    return results, float(np.mean(losses)), grads
