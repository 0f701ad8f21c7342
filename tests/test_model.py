"""LSTM cell and layer, attention pooling, classifier, and model persistence."""

import json
import math
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icurisk.model import (
    Attention,
    Classifier,
    Lstm,
    ModelConfig,
    ModelFormatError,
    ModelParams,
    ShapeMismatchError,
    attend,
    classify,
    forward_batch,
    forward_episode,
    grad_check,
    load_model,
    loss_and_grads,
    lstm_cell,
    mean_rows,
    run_lstm,
    save_model,
    v1_arrays,
)
from icurisk.preprocess import PipelineStats, assemble_matrix, fit_pipeline
from icurisk.ingest import parse_record
from icurisk.train import TrainConfig, VARIANTS, apply_variant

import model_oracle as oracle
from conftest import synth_record_text
from sweep_oracle import layer
from test_golden import ARCHITECTURES


# -- independent per-scalar oracle, pure Python loops ------------------------


def _sig(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _dot_row(matrix, row, vector):
    return sum(matrix[row][k] * vector[k] for k in range(len(vector)))


def gate_blocks(array):
    """The i, f, o, c blocks of a one-direction Lstm array, as views."""
    return np.split(array[0], 4)


def lstm_cell_oracle(x, h_prev, c_prev, d):
    """Unit-by-unit recomputation of the cell with plain Python arithmetic."""
    hidden = len(h_prev)
    Wi, Wf, Wo, Wc = gate_blocks(d.W)
    Ui, Uf, Uo, Uc = gate_blocks(d.U)
    bi, bf, bo, bc = gate_blocks(d.b)
    h_new, c_new = [], []
    for j in range(hidden):
        i = _sig(_dot_row(Wi, j, x) + _dot_row(Ui, j, h_prev) + bi[j])
        f = _sig(_dot_row(Wf, j, x) + _dot_row(Uf, j, h_prev) + bf[j])
        o = _sig(_dot_row(Wo, j, x) + _dot_row(Uo, j, h_prev) + bo[j])
        cand = math.tanh(_dot_row(Wc, j, x) + _dot_row(Uc, j, h_prev) + bc[j])
        c = f * c_prev[j] + i * cand
        c_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, c_new


def run_lstm_oracle(X, d, reverse=False):
    hidden = d.U.shape[-1]
    h, c = [0.0] * hidden, [0.0] * hidden
    states = []
    rows = list(X)[::-1] if reverse else list(X)
    for x in rows:
        h, c = lstm_cell_oracle(list(x), h, c, d)
        states.append(h)
    return states[::-1] if reverse else states


def random_direction(rng, hidden, dim, scale=0.5):
    """A one-direction Lstm: each gate's W, U and b drawn in turn (i, f, o,
    c), then stacked."""
    shapes = ((hidden, dim), (hidden, hidden), (hidden,))
    gates = [[rng.normal(0, scale, size=shape) for shape in shapes] for _ in range(4)]
    return Lstm(*(np.concatenate(blocks)[None] for blocks in zip(*gates)))


def zero_direction(hidden, dim):
    return Lstm(np.zeros((1, 4 * hidden, dim)), np.zeros((1, 4 * hidden, hidden)),
                np.zeros((1, 4 * hidden)))


def direction(lstm, k):
    """Direction k of an Lstm, as a one-direction Lstm of views."""
    return Lstm(lstm.W[k:k + 1], lstm.U[k:k + 1], lstm.b[k:k + 1])


def set_gate_biases(d, input_gate, forget_gate):
    b_i, b_f, _, _ = gate_blocks(d.b)
    b_i[...] = input_gate
    b_f[...] = forget_gate


def candidate_memory(x, h_prev, d):
    W_c, U_c, b_c = (gate_blocks(t)[3] for t in (d.W, d.U, d.b))
    return np.tanh(W_c @ x + U_c @ h_prev + b_c)


def cell(x, h_prev, c_prev, d):
    """One cell update from raw input and previous states, run as a batch
    of one with the gates on the first axis (4 x 1 x h); returns (h, c)."""
    z = d.W[0] @ x + d.U[0] @ h_prev + d.b[0]
    h, c, tanh_c = np.empty((3, 1, len(c_prev)))
    lstm_cell(z.reshape(4, 1, -1), c_prev[None], c, h, tanh_c)
    return h[0], c[0]


def lstm_states(X, d, reverse=False):
    """One episode's states from a one-direction Lstm, run as a batch of
    one; in reverse, as direction 1 of a two-direction Lstm."""
    if reverse:
        d = Lstm(*(np.concatenate([a, a]) for a in (d.W, d.U, d.b)))
    return run_lstm([], X[None], np.array([len(X)]), d)[0, :, -d.U.shape[-1]:]


class TestLstmCell:
    def test_zero_parameters_give_zero_states(self):
        d = zero_direction(3, 4)
        h, c = cell(np.ones(4), np.zeros(3), np.zeros(3), d)
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))

    def test_saturated_gates_retain_memory(self):
        rng = np.random.default_rng(0)
        d = random_direction(rng, 3, 4)
        set_gate_biases(d, input_gate=-100.0, forget_gate=100.0)
        c_prev = rng.normal(size=3)
        _, c = cell(rng.normal(size=4), rng.normal(size=3) * 0.1, c_prev, d)
        assert np.abs(c - c_prev).max() < 1e-6

    def test_saturated_gates_overwrite_memory(self):
        rng = np.random.default_rng(1)
        d = random_direction(rng, 3, 4)
        set_gate_biases(d, input_gate=100.0, forget_gate=-100.0)
        x = rng.normal(size=4)
        h_prev = rng.normal(size=3) * 0.1
        _, c = cell(x, h_prev, rng.normal(size=3), d)
        assert np.abs(c - candidate_memory(x, h_prev, d)).max() < 1e-6

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_direction(rng, 2, 3)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=2)
            c_prev = rng.normal(size=2)
            h, c = cell(x, h_prev, c_prev, d)
            h_ref, c_ref = lstm_cell_oracle(list(x), list(h_prev), list(c_prev), d)
            np.testing.assert_allclose(h, h_ref, atol=1e-10)
            np.testing.assert_allclose(c, c_ref, atol=1e-10)

    def test_gates_on_the_first_axis_of_any_batch_shape(self):
        """A 4 x D x B x h block gives each (direction, episode) slice the
        bits it gets on its own."""
        rng = np.random.default_rng(27)
        z = rng.normal(size=(4, 2, 5, 3))
        c_prev = rng.normal(size=(2, 5, 3))
        h, c, tanh_c = np.empty((3, 2, 5, 3))
        lstm_cell(z.copy(), c_prev, c, h, tanh_c)
        for k in range(2):
            for e in range(5):
                h1, c1, t1 = np.empty((3, 3))
                lstm_cell(z[:, k, e].copy(), c_prev[k, e], c1, h1, t1)
                np.testing.assert_array_equal(h[k, e], h1)
                np.testing.assert_array_equal(c[k, e], c1)
                np.testing.assert_array_equal(tanh_c[k, e], t1)


class TestRunLstm:
    def test_single_interval_equals_cell_from_zero(self):
        rng = np.random.default_rng(3)
        d = random_direction(rng, 3, 4)
        x = rng.normal(size=4)
        states = lstm_states(x[None, :], d)
        h, _ = cell(x, np.zeros(3), np.zeros(3), d)
        assert states.shape == (1, 3)
        np.testing.assert_array_equal(states[0], h)

    def test_zero_parameters_all_states_zero(self):
        states = lstm_states(np.ones((5, 3)), zero_direction(2, 3))
        np.testing.assert_array_equal(states, np.zeros((5, 2)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            run_lstm([], np.zeros((1, 0, 3)), np.array([0]), zero_direction(2, 3))

    def test_reverse_on_palindrome_reverses_states(self):
        rng = np.random.default_rng(4)
        d = random_direction(rng, 3, 4)
        half = rng.normal(size=(3, 4))
        X = np.vstack([half, half[::-1]])  # palindromic rows
        fwd = lstm_states(X, d)
        bwd = lstm_states(X, d, reverse=True)
        np.testing.assert_allclose(bwd, fwd[::-1], atol=1e-12)

    def test_matches_sequence_oracle(self):
        rng = np.random.default_rng(5)
        d = random_direction(rng, 2, 3)
        X = rng.normal(size=(6, 3))
        for s, r in zip(lstm_states(X, d), run_lstm_oracle(X, d)):
            np.testing.assert_allclose(s, r, atol=1e-10)

    def test_reverse_matches_sequence_oracle(self):
        rng = np.random.default_rng(26)
        d = random_direction(rng, 2, 3)
        X = rng.normal(size=(5, 3))
        for s, r in zip(lstm_states(X, d, reverse=True), run_lstm_oracle(X, d, reverse=True)):
            np.testing.assert_allclose(s, r, atol=1e-10)


def bilstm_model(rng, dim=4, hidden=3):
    cfg = ModelConfig(input_dim=dim, hidden=hidden, heads=1, bidirectional=True,
                      dropout_in=0.0, dropout_out=0.0)
    return ModelParams.init(cfg, rng)


class TestBiLstm:
    def test_width_and_forward_half(self):
        rng = np.random.default_rng(6)
        params = bilstm_model(rng)
        X = rng.normal(size=(5, 4))
        joint = forward_episode(X, params).trace.states
        assert joint.shape == (5, 6)
        np.testing.assert_array_equal(joint[:, :3], lstm_states(X, direction(params.lstm, 0)))

    def test_single_interval_uses_same_input_both_ways(self):
        rng = np.random.default_rng(7)
        params = bilstm_model(rng, dim=3, hidden=2)
        X = rng.normal(size=(1, 3))
        joint = forward_episode(X, params).trace.states
        f = lstm_states(X, direction(params.lstm, 0))
        b = lstm_states(X, direction(params.lstm, 1))
        np.testing.assert_array_equal(joint, np.hstack([f, b]))

    def test_zeroed_backward_reproduces_unidirectional(self):
        rng = np.random.default_rng(8)
        params = bilstm_model(rng)
        for array in (params.lstm.W, params.lstm.U, params.lstm.b):
            array[1] = 0.0
        X = rng.normal(size=(4, 4))
        joint = forward_episode(X, params).trace.states
        np.testing.assert_array_equal(joint[:, :3], lstm_states(X, direction(params.lstm, 0)))
        np.testing.assert_array_equal(joint[:, 3:], np.zeros((4, 3)))


def make_head(M, b, v, c):
    """A one-head Attention from the head's M (a x s), b (a), v (1 x a) and c (1)."""
    M, b, v, c = (np.asarray(a, dtype=np.float64) for a in (M, b, v, c))
    return Attention(M[None], b[None], v.reshape(1, -1), c.reshape(1))


def zero_head(attn_hidden, width):
    return make_head(np.zeros((attn_hidden, width)), np.zeros(attn_hidden),
                     np.zeros((1, attn_hidden)), np.zeros(1))


def attention_weights(states, head):
    """One episode's weights over its states, run as a batch of one."""
    return attend([], states[None], np.array([len(states)]), head)[1][0, 0]


def reading(states, head):
    return attend([], states[None], np.array([len(states)]), head)[0][0]


def pool(readings):
    """The elementwise max of ``readings`` as attend pools its heads: over
    states ``[reading r, unit vector r]``, head r scores the unit vector and
    reads state r alone."""
    readings = np.asarray(readings, dtype=np.float64)
    R, width = readings.shape
    M = np.zeros((R, 1, width + R))
    M[np.arange(R), 0, width + np.arange(R)] = 1.0
    heads = Attention(M, np.zeros((R, 1)), np.full((R, 1), 1e4), np.zeros(R))
    states = np.hstack([readings, np.eye(R)])
    z, weights = attend([], states[None], np.array([R]), heads)
    np.testing.assert_array_equal(weights[0], np.eye(R))  # one-hot heads
    return z[0, :width]


def mean_pool(states):
    """One episode's mean over its states, run as a batch of one."""
    return mean_rows([], states[None], np.array([len(states)]))[0]


class TestAttention:
    def test_zero_scoring_net_is_uniform(self):
        rng = np.random.default_rng(9)
        weights = attention_weights(rng.normal(size=(5, 4)), zero_head(2, 4))
        np.testing.assert_array_equal(weights, np.full(5, 0.2))

    def test_hand_softmax_scores(self):
        # Scores (ln 2, 0, 0) via a 1-unit scoring net on 1-d states.
        states = np.array([[math.atanh(math.log(2))], [0.0], [0.0]])
        head = make_head(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
        np.testing.assert_allclose(attention_weights(states, head), [0.5, 0.25, 0.25],
                                   atol=1e-12)

    def test_single_interval_gets_full_weight(self):
        rng = np.random.default_rng(10)
        head = make_head(rng.normal(size=(3, 2)), rng.normal(size=3),
                         rng.normal(size=(1, 3)), rng.normal(size=1))
        weights = attention_weights(rng.normal(size=(1, 2)), head)
        np.testing.assert_array_equal(weights, [1.0])

    def test_read_head_one_hot_selects_state(self):
        states = np.array([[float(t), -float(t)] for t in range(5)])
        # tanh(t - 2.5) + tanh(3.5 - t) peaks at t = 3; a large v makes the
        # softmax one-hot there.
        head = make_head(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-2.5, 3.5]),
                         np.full((1, 2), 1e4), np.zeros(1))
        np.testing.assert_array_equal(attention_weights(states, head), [0, 0, 0, 1, 0])
        np.testing.assert_array_equal(reading(states, head), states[3])

    def test_read_head_uniform_identical_states(self):
        rng = np.random.default_rng(27)
        states = np.tile([2.0, -1.0], (4, 1))
        head = make_head(rng.normal(size=(3, 2)), rng.normal(size=3),
                         rng.normal(size=(1, 3)), rng.normal(size=1))
        np.testing.assert_array_equal(attention_weights(states, head), np.full(4, 0.25))
        np.testing.assert_allclose(reading(states, head), [2.0, -1.0], atol=1e-15)

    def test_read_head_hand_weighted_sum(self):
        # Scores (0, ln 3) give weights (1/4, 3/4) over two unit states.
        states = np.eye(2)
        head = make_head(np.array([[0.0, 1.0]]), np.zeros(1),
                         np.array([[math.log(3) / math.tanh(1.0)]]), np.zeros(1))
        weights = attention_weights(states, head)
        np.testing.assert_allclose(weights, [0.25, 0.75], atol=1e-12)
        np.testing.assert_array_equal(reading(states, head), weights)


class TestPooling:
    def test_single_head_identity(self):
        reading = np.array([1.0, 2.0])
        np.testing.assert_array_equal(pool([reading]), reading)

    def test_elementwise_max(self):
        out = pool([np.array([1.0, -2.0]), np.array([0.0, 5.0])])
        np.testing.assert_array_equal(out, [1.0, 5.0])

    def test_identical_heads(self):
        out = pool([np.array([3.0, 4.0]), np.array([3.0, 4.0])])
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_head_permutation_invariance(self):
        rng = np.random.default_rng(11)
        readings = [rng.normal(size=6) for _ in range(3)]
        forward = pool(readings)
        shuffled = pool(readings[::-1])
        np.testing.assert_array_equal(forward, shuffled)

    def test_tied_heads_send_the_whole_gradient_to_the_first(self):
        rng = np.random.default_rng(34)
        states = rng.normal(size=(1, 5, 3))
        one = make_head(rng.normal(size=(2, 3)), rng.normal(size=2),
                        rng.normal(size=(1, 2)), rng.normal(size=1))
        tied = Attention(*(np.concatenate([a, a]) for a in vars(one).values()))
        g = rng.normal(size=(1, 3))

        def backward(heads):  # the gradients of the states and of M, b, v, c
            rules = []
            attend(rules, states, np.array([5]), heads)
            return rules[0](g)

        (d_single, *single), (d_tied, *both) = backward(one), backward(tied)
        np.testing.assert_allclose(d_tied, d_single, rtol=0, atol=ORACLE_TOLERANCE)
        for alone, pair in zip(single, both):
            np.testing.assert_allclose(pair[0], alone[0], rtol=0, atol=ORACLE_TOLERANCE)
            assert not pair[1].any()  # exactly 0 to head 1

    def test_mean_pool_values(self):
        np.testing.assert_array_equal(mean_pool(np.array([[2.0, 0.0], [0.0, 2.0]])), [1.0, 1.0])
        np.testing.assert_array_equal(mean_pool(np.array([[5.0, 6.0]])), [5.0, 6.0])

    def test_mean_pool_equals_uniform_read_head(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            states = rng.normal(size=(int(rng.integers(1, 9)), 5))
            averaged = mean_pool(states)
            uniform = reading(states, zero_head(3, 5))
            assert np.abs(averaged - uniform).max() <= 1e-12


class TestClassifier:
    def test_zero_weights_give_half(self):
        cls = Classifier(w=np.zeros((1, 4)), b=np.zeros(1))
        assert classify([], np.ones((1, 4)), cls)[0] == 0.5

    def test_log3_bias_gives_three_quarters(self):
        cls = Classifier(w=np.zeros((1, 2)), b=np.array([math.log(3)]))
        assert classify([], np.zeros((1, 2)), cls)[0] == pytest.approx(0.75)

    def test_monotone_in_score(self):
        cls = Classifier(w=np.ones((1, 1)), b=np.zeros(1))
        probs = [classify([], np.array([[z]]), cls)[0] for z in np.linspace(-3, 3, 25)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_log_loss_values(self):
        # A zero-weight logistic model scores sigmoid(b) whatever the input.
        params = ModelParams.zeros(ModelConfig(input_dim=2, recurrent=False,
                                               dropout_in=0.0, dropout_out=0.0))
        X = np.ones((1, 2))
        assert loss_and_grads(params, [X], [1])[0] == pytest.approx(math.log(2))
        params.classifier.b[0] = math.log(9)  # p = 0.9
        assert loss_and_grads(params, [X], [0])[0] == pytest.approx(2.302585, abs=1e-6)

    def test_log_loss_rejects_bad_labels(self):
        params = ModelParams.zeros(ModelConfig(input_dim=2, recurrent=False,
                                               dropout_in=0.0, dropout_out=0.0))
        with pytest.raises(ShapeMismatchError, match="1 labels for 2 episodes"):
            loss_and_grads(params, [np.ones((1, 2))] * 2, [1])
        with pytest.raises(ValueError, match="0 or 1"):
            loss_and_grads(params, [np.ones((1, 2))], [2])


class TestForwardEpisode:
    def _model(self, **overrides):
        defaults = dict(input_dim=6, hidden=3, heads=2, bidirectional=True,
                        pooling="attention", dropout_in=0.0, dropout_out=0.0)
        defaults.update(overrides)
        cfg = ModelConfig(**defaults)
        return cfg, ModelParams.init(cfg, np.random.default_rng(13))

    def test_eval_mode_is_deterministic(self):
        cfg, params = self._model()
        X = np.random.default_rng(14).normal(size=(5, 6))
        assert forward_episode(X, params).risk == forward_episode(X, params).risk

    def test_trace_rows_sum_to_one(self):
        cfg, params = self._model()
        X = np.random.default_rng(15).normal(size=(5, 6))
        trace = forward_episode(X, params, record_id=3).trace
        assert trace.record_id == 3
        assert trace.weights.shape == (2, 5)
        np.testing.assert_allclose(trace.weights.sum(axis=1), 1.0, atol=1e-6)
        assert (trace.weights >= 0).all()
        assert trace.states.shape == (5, 6)

    def test_states_inside_unit_box(self):
        cfg, params = self._model()
        X = np.random.default_rng(16).normal(size=(8, 6)) * 3
        trace = forward_episode(X, params).trace
        assert (np.abs(trace.states) < 1.0).all()  # h = o * tanh(c)

    def test_attention_output_within_state_envelope(self):
        cfg, params = self._model()
        rng = np.random.default_rng(17)
        for _ in range(10):
            X = rng.normal(size=(6, 6))
            result = forward_episode(X, params)
            states = result.trace.states
            readings = result.trace.weights @ states
            z = readings.max(axis=0)
            assert (z <= states.max(axis=0) + 1e-12).all()
            assert (z >= states.min(axis=0) - 1e-12).all()

    def test_head_order_does_not_change_risk(self):
        cfg, params = self._model()
        X = np.random.default_rng(18).normal(size=(4, 6))
        before = forward_episode(X, params).risk
        params.attention = Attention(*(a[::-1] for a in vars(params.attention).values()))
        assert forward_episode(X, params).risk == before

    def test_mean_pooling_has_no_trace(self):
        cfg, params = self._model(pooling="mean")
        X = np.random.default_rng(19).normal(size=(4, 6))
        assert forward_episode(X, params).trace is None

    def test_non_recurrent_requires_single_interval(self):
        cfg, params = self._model(recurrent=False)
        X = np.random.default_rng(20).normal(size=(2, 6))
        with pytest.raises(ValueError, match="single interval"):
            forward_episode(X, params)

    def test_width_mismatch_rejected(self):
        cfg, params = self._model()
        with pytest.raises(ShapeMismatchError, match="width"):
            forward_episode(np.zeros((3, 5)), params)

    def test_eval_mode_skips_dropout(self):
        cfg, params = self._model(dropout_in=0.5, dropout_out=0.5)
        X = np.random.default_rng(28).normal(size=(4, 6))
        result = forward_episode(X, params)  # always evaluation mode
        assert "forward_batch" not in [layer(rule) for rule in result.tape.entries]

    def test_a_generator_is_refused(self):
        """``record_id`` is keyword-only, so a generator cannot pass as it."""
        cfg, params = self._model(dropout_in=0.5, dropout_out=0.5)
        X = np.random.default_rng(28).normal(size=(4, 6))
        with pytest.raises(TypeError):
            forward_episode(X, params, np.random.default_rng(0))

    def test_one_tape_entry_per_layer(self):
        cfg, params = self._model(dropout_in=0.5, dropout_out=0.5)
        X = np.random.default_rng(29).normal(size=(16, 6))
        result = forward_batch([X], params, np.random.default_rng(0))
        assert [layer(rule) for rule in result.tape.entries] == [  # dropout: forward_batch
            "run_lstm", "attend", "forward_batch", "classify"]

    def test_train_mode_same_rng_same_output(self):
        cfg, params = self._model(dropout_in=0.4, dropout_out=0.4)
        X = np.random.default_rng(21).normal(size=(4, 6))
        first = forward_batch([X], params, np.random.default_rng(5)).risks[0]
        second = forward_batch([X], params, np.random.default_rng(5)).risks[0]
        assert first == second
        assert first != forward_episode(X, params).risk  # dropout drew masks

    def test_zero_model_gradients_finite(self):
        cfg, params = self._model()
        for _, array in params.named_parameters():
            array[...] = 0.0
        X = np.random.default_rng(22).normal(size=(4, 6))
        _, grads = loss_and_grads(params, [X], [1])
        for grad in grads.values():
            assert np.isfinite(grad).all()


ORACLE_TOLERANCE = 1e-12


def batch_against_oracle(arch, lengths, train, seed, rates=(0.3, 0.4)):
    """One padded batch against the per-episode oracle, on the same model,
    episodes, labels and generator seed: risks, attention weights and
    states, the mean loss, every parameter gradient and the generator state
    afterwards must agree.  ``rates`` are the input and output dropout."""
    cfg = ModelConfig(input_dim=4, hidden=3, heads=2, attn_hidden=3,
                      dropout_in=rates[0], dropout_out=rates[1], **ARCHITECTURES[arch])
    rng = np.random.default_rng(seed)
    params = ModelParams.init(cfg, rng)
    for _, array in params.named_parameters():  # no zero biases
        array[...] = rng.normal(0.0, 0.7, size=array.shape)
    matrices = [rng.normal(0.0, 1.5, size=(t, cfg.input_dim)) for t in lengths]
    labels = rng.integers(0, 2, size=len(lengths))

    reference_rng, batch_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    reference, reference_loss, reference_grads = oracle.batch_gradients(
        matrices, labels, params, train, reference_rng)
    batch = forward_batch(matrices, params, np.random.default_rng(seed + 1) if train else None)
    loss, grads = loss_and_grads(params, matrices, labels, batch_rng if train else None)

    assert batch_rng.bit_generator.state == reference_rng.bit_generator.state
    np.testing.assert_allclose(batch.risks, [r.risk for r in reference],
                               rtol=0, atol=ORACLE_TOLERANCE)
    assert abs(loss - reference_loss) <= ORACLE_TOLERANCE
    for row, (t, r) in enumerate(zip(lengths, reference)):
        if r.trace is None:
            assert batch.weights is None
            continue
        np.testing.assert_allclose(batch.weights[row, :, :t], r.trace.weights,
                                   rtol=0, atol=ORACLE_TOLERANCE)
        assert not batch.weights[row, :, t:].any()  # padding gets no weight
        np.testing.assert_allclose(batch.states[row, :t], r.trace.states,
                                   rtol=0, atol=ORACLE_TOLERANCE)
    assert list(grads) == list(reference_grads)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, reference_grads[name],
                                   rtol=0, atol=ORACLE_TOLERANCE, err_msg=name)


# Input and output dropout rates per mode; the batch's one dropout draw is
# laid out by which of the two masks are drawn.
MODE_RATES = {"eval": (0.3, 0.4), "train": (0.3, 0.4),
              "train-output-only": (0.0, 0.4), "train-input-only": (0.3, 0.0)}


class TestForwardBatch:
    @pytest.mark.parametrize("mode", list(MODE_RATES))
    @pytest.mark.parametrize("arch", list(ARCHITECTURES))
    def test_matches_per_episode_oracle(self, arch, mode):
        # Lengths 1 to 16 in one batch, the longest neither first nor last.
        lengths = [1] * 5 if arch == "lr-baseline" else [7, 1, 16, 2, 16, 11, 4]
        batch_against_oracle(arch, lengths, mode != "eval", seed=sum(map(ord, arch + mode)),
                             rates=MODE_RATES[mode])

    def test_one_tape_entry_per_layer_whatever_the_batch(self):
        cfg = ModelConfig(input_dim=6, hidden=3, heads=2, bidirectional=True)
        params = ModelParams.init(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        one = forward_batch([rng.normal(size=(16, 6))], params, rng)
        many = forward_batch([rng.normal(size=(t, 6)) for t in (3, 16, 1, 9)], params, rng)
        assert ([rule.__qualname__ for rule in many.tape.entries]
                == [rule.__qualname__ for rule in one.tape.entries])

    def test_caller_matrices_are_never_written(self):
        # One matrix without a generator runs unpadded, on a view of it; input
        # dropout multiplies the batch in place, so with a generator it must
        # be a copy, for one matrix as for several.
        cfg = ModelConfig(input_dim=6, hidden=3, heads=2, bidirectional=True,
                          dropout_in=0.5, dropout_out=0.5)
        params = ModelParams.init(cfg, np.random.default_rng(33))
        rng = np.random.default_rng(34)
        matrices = [rng.normal(size=(t, 6)) for t in (5, 2)]
        kept = [X.copy() for X in matrices]
        for batch, generator in (([matrices[0]], None), ([matrices[0]], rng),
                                 (matrices, None), (matrices, rng)):
            forward_batch(batch, params, generator)
            for X, before in zip(matrices, kept):
                assert np.array_equal(X.view(np.int64), before.view(np.int64))

    def test_empty_batch_rejected(self):
        params = ModelParams.init(ModelConfig(input_dim=6, hidden=3), np.random.default_rng(32))
        with pytest.raises(ValueError, match="interval"):
            forward_batch([], params)


class TestGradCheck:
    def test_tiny_bilstm_attention(self):
        cfg = ModelConfig(input_dim=5, hidden=3, heads=2, bidirectional=True,
                          pooling="attention", dropout_in=0.0, dropout_out=0.0)
        assert grad_check(cfg, seed=0) < 1e-4

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant(self, variant):
        _, cfg = apply_variant(variant, TrainConfig(), ModelConfig(
            input_dim=5, hidden=3, heads=2, attn_hidden=4, dropout_in=0.0, dropout_out=0.0))
        assert grad_check(cfg, seed=1) < 1e-4

    def test_requires_dropout_off(self):
        cfg = ModelConfig(input_dim=5, hidden=3, dropout_in=0.5, dropout_out=0.0)
        with pytest.raises(ValueError, match="dropout"):
            grad_check(cfg, seed=0)


class TestPersistence:
    def _fitted_stats(self):
        rng = np.random.default_rng(23)
        eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(3)]
        return fit_pipeline(eps, 180)

    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(input_dim=185, hidden=4, heads=2, bidirectional=True)
        params = ModelParams.init(cfg, np.random.default_rng(24))
        stats = self._fitted_stats()
        path = tmp_path / "model.json"
        save_model(path, params, stats)
        loaded, loaded_stats = load_model(path)
        assert loaded.config == cfg
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded_stats.normalization.mean,
                                      stats.normalization.mean)

    def test_statistics_width_must_match_input_dim(self, tmp_path):
        cfg = ModelConfig(input_dim=4, hidden=2)
        path = tmp_path / "narrow.json"
        save_model(path, ModelParams.init(cfg, np.random.default_rng(0)), self._fitted_stats())
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == (f"{path}: feature width mismatch: model expects 4, "
                                  "statistics provide 185")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "something-else", "version": 1}')
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        cfg = ModelConfig(input_dim=4, hidden=2, dropout_in=0.0, dropout_out=0.0)
        params = ModelParams.init(cfg, np.random.default_rng(0))
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_zeros_has_the_shapes_init_draws(self):
        cfg = ModelConfig(input_dim=5, hidden=3, heads=2, bidirectional=True)
        drawn = ModelParams.init(cfg, np.random.default_rng(0))
        blank = ModelParams.zeros(cfg)
        assert [(n, a.shape) for n, a in blank.named_parameters()] == [
            (n, a.shape) for n, a in drawn.named_parameters()]
        assert not any(a.any() for n, a in blank.named_parameters()
                       if n.endswith((".W", ".U", ".M", ".v", ".w")))

    def test_failed_save_leaves_no_file_or_the_old_bytes(self, tmp_path):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        params.config.hidden = np.int64(2)  # set after construction, so never checked
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_bytes(b"earlier model")
        for path in (fresh, kept):
            with pytest.raises(TypeError, match="int64 is not JSON serializable"):
                save_model(path, params)
        assert kept.read_bytes() == b"earlier model"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]  # no .part

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["OSError", "KeyboardInterrupt"])
    def test_save_failing_midway_leaves_the_old_bytes(self, tmp_path, monkeypatch, error):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_bytes(b"earlier model")

        def dump_half(doc, fh):
            text = json.dumps(doc)
            fh.write(text[:len(text) // 2])
            fh.flush()
            raise error
        monkeypatch.setattr(json, "dump", dump_half)
        for path in (fresh, kept):
            with pytest.raises(type(error)):
                save_model(path, params)
        assert kept.read_bytes() == b"earlier model"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]

    def test_failed_rename_leaves_no_part_file(self, tmp_path):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        target = tmp_path / "model.json"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            save_model(target, params)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"] and target.is_dir()

    def test_save_over_an_old_file_matches_a_fresh_save(self, tmp_path):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        path, fresh = tmp_path / "model.json", tmp_path / "fresh.json"
        path.write_text("an earlier model, longer than the new one " * 100)
        save_model(path, params)
        save_model(fresh, params)
        assert path.read_bytes() == fresh.read_bytes()
        reference = tmp_path / "reference"
        reference.write_text("")  # the mode a plain open gives, not mkstemp's 0600
        assert path.stat().st_mode == fresh.stat().st_mode == reference.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json", "model.json", "reference"]

    def test_save_through_a_link_writes_its_target(self, tmp_path):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        (tmp_path / "models").mkdir()
        target, link, fresh = (tmp_path / "models" / "model.json", tmp_path / "link.json",
                               tmp_path / "fresh.json")
        target.write_text("an earlier model")
        link.symlink_to(target)
        save_model(link, params)
        save_model(fresh, params)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "link.json", "models"]
        assert [p.name for p in target.parent.iterdir()] == ["model.json"]  # no .part

    def test_save_over_a_file_keeps_its_mode(self, tmp_path):
        params = ModelParams.init(ModelConfig(input_dim=4, hidden=2), np.random.default_rng(0))
        path, fresh = tmp_path / "model.json", tmp_path / "fresh.json"
        path.write_text("an earlier model")
        path.chmod(0o600)
        save_model(path, params)
        save_model(fresh, params)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == fresh.read_bytes()

    def test_save_memory_is_bounded_by_the_arrays_not_their_text(self, tmp_path):
        """Streamed, a default bilstm-attn save peaks at about 1.9 MB under
        tracemalloc; building the whole text first peaked at about 7 MB."""
        cfg = ModelConfig(**VARIANTS["bilstm-attn"][1])
        params = ModelParams.init(cfg, np.random.default_rng(0))
        assert sum(a.size for _, a in params.named_parameters()) > 55_000
        tracemalloc.start()
        try:
            save_model(tmp_path / "model.json", params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_copy_is_independent(self):
        cfg = ModelConfig(input_dim=4, hidden=2, bidirectional=True)
        params = ModelParams.init(cfg, np.random.default_rng(25))
        clone = params.copy()
        assert clone.config == cfg
        for (name, copied), (original_name, original) in zip(clone.named_parameters(),
                                                             params.named_parameters()):
            assert name == original_name
            np.testing.assert_array_equal(copied, original)
            copied[...] = 99.0
            assert not (original == 99.0).any(), name


def _edit_saved_model(tmp_path, edit):
    cfg = ModelConfig(input_dim=4, hidden=2, dropout_in=0.0, dropout_out=0.0)
    path = tmp_path / "model.json"
    save_model(path, ModelParams.init(cfg, np.random.default_rng(0)))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


class TestMalformedModelFile:
    @pytest.mark.parametrize("edit, names", [
        (lambda doc: doc["params"]["fw.Wi"]["data"].pop(), "parameter fw.Wi: 7 values"),
        (lambda doc: doc.pop("params"), "'params'"),
        (lambda doc: doc.pop("config"), "'config'"),
        (_set("config", "depth", 3), "config: .*'depth'"),
        (_set("params", "out.b", "data", 0, "0.5"), "parameter out.b: data"),
        (_set("params", "fw.bc", "data", 1, None), "parameter fw.bc: data"),
        (lambda doc: doc["params"].pop("out.b"),
         r"parameters \['out.b'\] do not match the configuration"),
        (_set("params", "bw.Wi", {"shape": [2, 4], "data": [0.0] * 8}),
         r"parameters \['bw.Wi'\] do not match the configuration"),
    ], ids=["short-data", "no-params", "no-config", "unknown-config-field",
            "string-value", "null-value", "missing-parameter", "extra-parameter"])
    def test_rejected_naming_file_and_field(self, tmp_path, edit, names):
        path = _edit_saved_model(tmp_path, edit)
        with pytest.raises(ModelFormatError, match=names) as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text, names", [
        ("[1, 2, 3]", "top level is a JSON list"),
        ('{"magic": "icurisk-model", "version": 1, "config": {', "not a JSON model file"),
    ], ids=["json-array", "truncated"])
    def test_unreadable_file_rejected_naming_file(self, tmp_path, text, names):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=names) as info:
            load_model(path)
        assert str(path) in str(info.value)

    @staticmethod
    def _edit_saved_stats(tmp_path, edit):
        """A model file with statistics fitted on 3 stays, ``edit`` applied
        to its preprocess block."""
        rng = np.random.default_rng(33)
        stats = fit_pipeline([parse_record(synth_record_text(i + 1, rng)) for i in range(3)], 180)
        cfg = ModelConfig(input_dim=185, hidden=2, heads=1)
        path = tmp_path / "model.json"
        save_model(path, ModelParams.init(cfg, rng), stats)
        doc = json.loads(path.read_text())
        edit(doc["preprocess"])
        path.write_text(json.dumps(doc))
        return path

    def test_preprocess_block_without_truncation_rejected(self, tmp_path):
        path = self._edit_saved_stats(tmp_path, lambda stats: stats.pop("truncation"))
        with pytest.raises(ModelFormatError, match="preprocess: missing field 'truncation'") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_fields_are_read_in_the_block_order(self, tmp_path):
        """With both gone, the field written first is the one named."""
        def drop(stats):
            del stats["interval_minutes"], stats["truncation"]
        path = self._edit_saved_stats(tmp_path, drop)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: preprocess: missing field 'interval_minutes'"

    @pytest.mark.parametrize("keys, value, message", [
        (("truncation", "lower", 0), math.nan, "feature Albumin: fitted truncation lower is nan"),
        (("truncation", "upper", 1), math.nan, "feature ALP: fitted truncation upper is nan"),
        (("imputation", "series_means", 14), math.inf,
         "feature HR: fitted imputation mean is inf"),
        (("imputation", "static_means", 4), math.nan,
         "feature Weight: fitted imputation mean is nan"),
        (("normalization", "mean", 2), -math.inf,
         "feature Albumin_mean: fitted normalization mean is -inf"),
        (("normalization", "std", 0), math.inf,
         "feature Albumin_min: fitted normalization std is inf"),
        (("normalization", "std", 184), -0.5, "feature Weight: fitted normalization std is -0.5"),
        (("feature_names", 0), "Bogus", "feature_names[0] is 'Bogus', expected 'Albumin_min'"),
        (("feature_names", 1), 7, "feature_names[1] is 7, expected 'Albumin_max'"),
        (("interval_minutes",), 0, "interval_minutes is 0, not a positive integer"),
        (("normalization", "mean", 0), 10**400, "int too large to convert to float"),
    ], ids=["nan-lower", "nan-upper", "inf-series-mean", "nan-static-mean", "inf-norm-mean",
            "inf-std", "negative-std", "bogus-feature-name", "number-feature-name",
            "zero-interval", "huge-int"])
    def test_statistic_no_fit_gives_rejected_naming_file_array_and_feature(
            self, tmp_path, keys, value, message):
        def plant(stats):
            for key in keys[:-1]:
                stats = stats[key]
            stats[keys[-1]] = value
        path = self._edit_saved_stats(tmp_path, plant)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: preprocess: {message}"

    def test_statistic_of_the_wrong_length_rejected(self, tmp_path):
        path = self._edit_saved_stats(tmp_path, lambda stats: stats["normalization"]["std"].pop())
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: preprocess: fitted normalization std has shape "
                                   "(184,), expected (185,)")

    def test_feature_names_of_the_wrong_length_rejected(self, tmp_path):
        path = self._edit_saved_stats(tmp_path, lambda stats: stats["feature_names"].pop())
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: preprocess: feature_names has 184 names, "
                                   "expected 185")

    def test_unobserved_bounds_and_constant_columns_load(self, tmp_path):
        # A parameter no training stay measured has bounds -inf and +inf, and
        # a column constant over the training intervals has std exactly 0.
        _, stats = load_model(self._edit_saved_stats(tmp_path, lambda stats: None))
        assert stats.truncation.unobserved == ["DiasABP", "Urine"]
        bounds = stats.truncation
        assert np.isinf(bounds.lower).sum() == np.isinf(bounds.upper).sum() == 2
        assert (stats.normalization.std == 0.0).any()

    def test_nan_value_still_loads(self, tmp_path):
        # A parameter's finiteness is checked where risks are produced, not
        # at load.
        path = _edit_saved_model(tmp_path, _set("params", "out.w", "data", 0, float("nan")))
        params, _ = load_model(path)
        assert np.isnan(params.classifier.w[0, 0])


# Every field that preprocess.check_count guards: where it is set, its name
# and the least value it takes.
COUNT_FIELDS = [
    ("TrainConfig", "batch_size", 1), ("TrainConfig", "max_epochs", 1),
    ("TrainConfig", "patience", 1), ("TrainConfig", "seed", 0), ("TrainConfig", "folds", 2),
    ("TrainConfig", "interval_minutes", 1),
    ("ModelConfig", "input_dim", 1), ("ModelConfig", "hidden", 1), ("ModelConfig", "heads", 1),
    ("ModelConfig", "attn_hidden", 1),
    ("PipelineStats", "interval_minutes", 1), ("assemble_matrix", "interval_minutes", 1),
    ("fit_pipeline", "interval_minutes", 1),
]
NOT_A_COUNT = {0: "an integer of at least 0", 1: "a positive integer",
               2: "an integer of at least 2"}


def _set_count(where, name, value):
    """Run the code that sets the field ``name`` of ``where`` to ``value``."""
    rng = np.random.default_rng(23)
    episodes = [parse_record(synth_record_text(i + 1, rng)) for i in range(3)]
    return {
        "TrainConfig": lambda: TrainConfig(**{name: value}),
        "ModelConfig": lambda: ModelConfig(**{name: value}),
        "PipelineStats": lambda: replace(fit_pipeline(episodes, 180), interval_minutes=value),
        "assemble_matrix": lambda: assemble_matrix(episodes[0], value),
        "fit_pipeline": lambda: fit_pipeline(episodes, value),
    }[where]()


class TestCountRule:
    @pytest.mark.parametrize("where, name, least", COUNT_FIELDS,
                             ids=[f"{where}.{name}" for where, name, _ in COUNT_FIELDS])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.int64(3), "3", None],
                             ids=["2.5", "3.0", "True", "int64", "str", "least-1"])
    def test_refused_naming_the_field(self, tmp_path, monkeypatch, where, name, least, bad):
        value = least - 1 if bad is None else bad
        message = f"{name} is {value!r}, not {NOT_A_COUNT[least]}"
        if where == "fit_pipeline":  # refused before any statistic is fitted
            monkeypatch.setattr("icurisk.preprocess.fit_truncation",
                                lambda *a: pytest.fail("fitted"))
        with pytest.raises(ValueError) as info:
            _set_count(where, name, value)
        assert str(info.value) == message
        if where == "ModelConfig" and not isinstance(value, np.integer):  # JSON has none
            path = _edit_saved_model(tmp_path, _set("config", name, value))
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            assert str(info.value) == f"{path}: config: {message}"

    @pytest.mark.parametrize("where, name, least", COUNT_FIELDS,
                             ids=[f"{where}.{name}" for where, name, _ in COUNT_FIELDS])
    def test_least_value_accepted(self, where, name, least):
        _set_count(where, name, least)

    @pytest.mark.parametrize("name", ["bidirectional", "recurrent"])
    @pytest.mark.parametrize("bad", ["no", 0, 1, None])
    def test_switch_must_be_a_bool(self, tmp_path, name, bad):
        message = f"{name} is {bad!r}, not true or false"
        with pytest.raises(ValueError) as info:
            ModelConfig(**{name: bad})
        assert str(info.value) == message
        path = _edit_saved_model(tmp_path, _set("config", name, bad))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: config: {message}"

    def test_numpy_bool_switch_refused(self):
        with pytest.raises(ValueError, match="^bidirectional is .*True.*, not true or false$"):
            ModelConfig(bidirectional=np.bool_(True))

    def test_unknown_pooling_refused(self):
        with pytest.raises(ValueError) as info:
            ModelConfig(pooling="max")
        assert str(info.value) == "pooling must be one of ('attention', 'mean'), got 'max'"


# Every rate that preprocess.check_number guards, and where it is set.
RATE_FIELDS = [("TrainConfig", "learning_rate"), ("ModelConfig", "dropout_in"),
               ("ModelConfig", "dropout_out")]
RATE_RANGE = {"learning_rate": "not finite and above 0", "dropout_in": "not in [0, 1)",
              "dropout_out": "not in [0, 1)"}


def _config(where, name, value):
    return {"TrainConfig": TrainConfig, "ModelConfig": ModelConfig}[where](**{name: value})


class TestRateRule:
    @pytest.mark.parametrize("where, name", RATE_FIELDS, ids=[n for _, n in RATE_FIELDS])
    @pytest.mark.parametrize("bad", [True, False, "0.5", None, np.int64(0)],
                             ids=["True", "False", "str", "None", "int64"])
    def test_not_a_number_refused_naming_the_field(self, tmp_path, where, name, bad):
        message = f"{name} is {bad!r}, not a number"
        with pytest.raises(ValueError) as info:
            _config(where, name, bad)
        assert str(info.value) == message
        if where == "ModelConfig" and not isinstance(bad, np.integer):  # JSON has none
            path = _edit_saved_model(tmp_path, _set("config", name, bad))
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            assert str(info.value) == f"{path}: config: {message}"

    @pytest.mark.parametrize("where, name", RATE_FIELDS, ids=[n for _, n in RATE_FIELDS])
    @pytest.mark.parametrize("bad", [-0.5, 1.0, math.nan, math.inf],
                             ids=["negative", "one", "nan", "inf"])
    def test_out_of_range_refused_naming_the_field(self, where, name, bad):
        if name == "learning_rate" and bad == 1.0:
            bad = 0  # a rate of 1 trains; 0 does not
        with pytest.raises(ValueError) as info:
            _config(where, name, bad)
        assert str(info.value) == f"{name} is {bad!r}, {RATE_RANGE[name]}"

    @pytest.mark.parametrize("where, name", RATE_FIELDS, ids=[n for _, n in RATE_FIELDS])
    @pytest.mark.parametrize("good", [np.float64(0.25), 0.5], ids=["float64", "float"])
    def test_a_float_or_float_subclass_accepted(self, where, name, good):
        assert getattr(_config(where, name, good), name) is good

    def test_int_rates_accepted(self):
        assert TrainConfig(learning_rate=1).learning_rate == 1
        assert ModelConfig(dropout_in=0, dropout_out=0).dropout_in == 0


# Written with the per-gate implementation that introduced format v1; the
# risk was recorded from the same code on V1_EPISODE.
MODEL_V1 = Path(__file__).with_name("model_v1.json")
V1_EPISODE = np.array([[0.5, -1.25, 2.0, 0.0],
                       [1.5, 0.25, -0.75, -2.0],
                       [-0.5, 1.0, 0.125, 1.75],
                       [0.0, -0.5, -1.5, 0.625],
                       [2.25, 0.75, 1.0, -1.0]])
V1_RISK = 0.6693694707218867


class TestFormatV1:
    def test_recorded_file_scores_recorded_risk(self):
        params, stats = load_model(MODEL_V1)
        assert stats is None
        assert forward_episode(V1_EPISODE, params).risk == V1_RISK

    def test_recorded_file_resaves_byte_identically(self, tmp_path):
        params, stats = load_model(MODEL_V1)
        save_model(tmp_path / "again.json", params, stats)
        assert (tmp_path / "again.json").read_bytes() == MODEL_V1.read_bytes()

    def test_gate_entries_are_views_in_v1_order(self):
        cfg = ModelConfig(input_dim=4, hidden=2, heads=2, bidirectional=True)
        params = ModelParams.init(cfg, np.random.default_rng(0))
        arrays = dict(v1_arrays(params))
        assert list(arrays)[:6] == ["fw.Wi", "fw.Ui", "fw.bi", "fw.Wf", "fw.Uf", "fw.bf"]
        assert list(arrays)[24:] == ["head0.M", "head0.b", "head0.v", "head0.c",
                                     "head1.M", "head1.b", "head1.v", "head1.c",
                                     "out.w", "out.b"]
        np.testing.assert_array_equal(arrays["fw.bf"], 1.0)  # forget gate starts at +1
        arrays["bw.Uo"][...] = 7.0
        np.testing.assert_array_equal(params.lstm.U[1, 4:6], 7.0)
        assert arrays["head1.v"].shape == (1, cfg.attn_hidden)
        arrays["head1.v"][...] = 5.0
        np.testing.assert_array_equal(params.attention.v[1], 5.0)
        assert not (params.attention.v[0] == 5.0).any()
