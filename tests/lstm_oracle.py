"""Reference LSTM layer: the direction-major layout the step-major one replaced.

This is :func:`icurisk.model.run_lstm` and its backward rule as they ran
with every buffer direction-major (``D x steps x batch x ...``) and the four
gates side by side on the last axis.  The step-major layout must give the
same states and the same gradients, bit for bit: every matmul and every sum
sees the same matrices in the same memory order, and the elementwise gate
math is the same per element.
"""

import numpy as np


def gates(stacked):
    """The i, f, o, c blocks along the last axis of a ... x 4h array, as views."""
    n = stacked.shape[-1] // 4
    return [stacked[..., k * n:(k + 1) * n] for k in range(4)]


def lstm_cell(z, c_prev, c, h, tanh_c):
    """One memory/state update in place, the gates on the last axis of z."""
    ifo = z[..., :3 * c_prev.shape[-1]]
    ifo *= 0.5
    np.tanh(z, out=z)
    ifo *= 0.5
    ifo += 0.5
    i, f, o, c_cand = gates(z)
    np.multiply(f, c_prev, out=c)
    c += i * c_cand
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def run_lstm(X, lengths, lstm):
    """States (batch x intervals x Dh) and the backward rule, which maps the
    states' gradient to (None, dW, dU, db)."""
    batch, steps, _ = X.shape
    W, U, b = lstm.W, lstm.U, lstm.b
    D, n = U.shape[0], U.shape[2]
    step = np.arange(steps)[:, None]
    dirs = np.arange(D)[:, None, None]
    rows = np.where((step < lengths) & (dirs == 1), lengths - 1 - step, step)
    cols = np.arange(batch)
    acts = (X.reshape(batch * steps, -1) @ W.reshape(D * 4 * n, -1).T).reshape(
        batch, steps, D, 4 * n)[cols, rows, dirs]
    acts += b[:, None, None]
    H = np.zeros((D, steps + 1, batch, n))
    C = np.zeros((D, steps + 1, batch, n))
    tanh_C = np.empty((D, steps, batch, n))
    UT = U.transpose(0, 2, 1)
    for t in range(steps):
        acts[:, t] += H[:, t] @ UT
        lstm_cell(acts[:, t], C[:, t], C[:, t + 1], H[:, t + 1], tanh_C[:, t])
    states = np.empty((batch, steps, D, n))
    states[cols, rows, dirs] = H[:, 1:]

    def backward(g):
        i, f, o, c_cand = gates(acts)
        f = f.copy()
        d_tanh = o * (1.0 - tanh_C * tanh_C)
        ic = c_cand * i
        dZ = acts
        di, df, do, dc_cand = gates(dZ)
        np.multiply(tanh_C * o, 1.0 - o, out=do)
        np.multiply(i, 1.0 - c_cand * c_cand, out=dc_cand)
        np.multiply(ic, 1.0 - i, out=di)
        np.multiply(C[:, :-1] * f, 1.0 - f, out=df)
        g = g.reshape(batch, steps, D, n)[cols, rows, dirs]
        dh, dc = np.zeros((D, batch, n)), np.zeros((D, batch, n))
        for t in reversed(range(steps)):
            dh += g[:, t]
            dc += dh * d_tanh[:, t]
            di[:, t] *= dc
            df[:, t] *= dc
            do[:, t] *= dh
            dc_cand[:, t] *= dc
            dh = dZ[:, t] @ U
            dc *= f[:, t]
        dz = dZ.reshape(D, steps * batch, 4 * n)
        dU = dz.transpose(0, 2, 1) @ H[:, :-1].reshape(D, steps * batch, n)
        db = dz.sum(axis=1)
        dZ_rows = np.empty((batch, steps, D, 4 * n))
        dZ_rows[cols, rows, dirs] = dZ
        dW = dZ_rows.reshape(batch * steps, D * 4 * n).T @ X.reshape(batch * steps, -1)
        return None, dW.reshape(W.shape), dU, db

    return states.reshape(batch, steps, D * n), backward
