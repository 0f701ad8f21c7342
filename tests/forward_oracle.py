"""Reference scoring pass: attention and the batch of one as they ran with
temporaries and padding.

:func:`attend` is :func:`icurisk.model.attend` as it was before it worked in
place: ``tanh`` of a new sum, new arrays for the shifted scores, their
``exp`` and the weights.  :func:`forward_batch` is
:func:`icurisk.model.forward_batch` copying every batch, one episode
included, into a zero-padded array, with the LSTM of ``lstm_oracle.py``
and a sigmoid that adds ``1 + e`` twice.  The production pass must give the
same readings, weights, states and risks, bit for bit: every matmul and
every sum sees the same matrices in the same memory order, and the
elementwise math is the same per element.
"""

import numpy as np

from icurisk.autodiff import Tape
from icurisk.model import BatchResult, mean_rows

import lstm_oracle


def sigmoid(v):
    """Logistic function that stays finite for any finite input."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def attend(rules, states, lengths, attention):
    """The max-pooled readings (batch x width) and the weights (batch x R x
    intervals) of every head over padded states; appends the backward rule."""
    batch, steps, width = states.shape
    M, v = attention.M, attention.v
    R, a = v.shape
    flat = states.reshape(batch * steps, width)
    hidden = np.tanh((flat @ M.reshape(R * a, width).T).reshape(batch, steps, R, a)
                     + attention.b)
    scores = (hidden * v).sum(axis=-1) + attention.c  # batch x steps x R
    if (lengths < steps).any():
        scores[np.arange(steps) >= lengths[:, None]] = -np.inf
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
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


def forward_batch(matrices, params):
    """Risks, weights and states of a batch in evaluation mode, the episodes
    always copied into a zero-padded array."""
    cfg = params.config
    lengths = np.array([X.shape[0] for X in matrices])
    batch = np.zeros((len(lengths), lengths.max(), cfg.input_dim))
    for row, X in zip(batch, matrices):
        row[:len(X)] = X
    tape = Tape()
    states, weights = None, None
    if not cfg.recurrent:
        z = batch[:, 0]
    else:
        states, _ = lstm_oracle.run_lstm(batch, lengths, params.lstm)
        if cfg.pooling == "attention":
            z, weights = attend(tape.entries, states, lengths, params.attention)
        else:
            z = mean_rows(tape.entries, states, lengths)
    risks = sigmoid(z @ params.classifier.w[0] + params.classifier.b[0])
    return BatchResult(risks=risks, weights=weights, states=states, tape=tape)
