"""The model's tape (named values, one gradient per parameter), the
finite-difference checker, and the general reference engine in
``tape_oracle.py``: its op values, shape errors and gradients."""

import math

import numpy as np
import pytest

from icurisk import autodiff
from icurisk.autodiff import ShapeMismatchError, check_gradients, max_relative_error
from icurisk.model import ModelConfig, ModelParams, forward_batch

from tape_oracle import Tape, Tensor, softmax
from test_golden import ARCHITECTURES


class TestForwardValues:
    def test_sigmoid_zero(self):
        assert Tape().sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = Tape().sigmoid(Tensor([-800.0, 800.0])).data
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] < out[1] <= 1.0

    def test_softmax_hand_value(self):
        out = softmax(np.array([math.log(2), 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-12)

    def test_softmax_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(0, 5, size=rng.integers(1, 12))
            out = softmax(v)
            assert (out >= 0).all()
            assert abs(out.sum() - 1.0) <= 1e-12
            shifted = softmax(v + rng.normal())
            np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_dropout_rate_zero_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert Tape().dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_train_rescales(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(1000))
        out = Tape().dropout(x, 0.25, rng).data
        assert set(np.round(np.unique(out), 12)) <= {0.0, round(1 / 0.75, 12)}

    def test_dropout_matrix_draws_rows_in_order(self):
        # One (T, d) draw is the same random stream as T row draws.
        X = Tensor(np.ones((3, 4)))
        whole = Tape().dropout(X, 0.5, np.random.default_rng(2)).data
        rng = np.random.default_rng(2)
        rows = [Tape().dropout(Tensor(np.ones(4)), 0.5, rng).data for _ in range(3)]
        np.testing.assert_array_equal(whole, np.stack(rows))

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            Tape().dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_dropout_needs_rng_in_train_mode(self):
        with pytest.raises(ValueError, match="generator"):
            Tape().dropout(Tensor([1.0]), 0.5, None)

    def test_bce_values(self):
        tape = Tape()
        assert tape.binary_cross_entropy(Tensor([0.5]), 1).data[0] == pytest.approx(math.log(2))
        assert tape.binary_cross_entropy(Tensor([1.0 - 1e-12]), 1).data[0] == pytest.approx(0.0, abs=1e-9)
        assert tape.binary_cross_entropy(Tensor([0.9]), 0).data[0] == pytest.approx(2.302585, abs=1e-6)

    def test_bce_clips_instead_of_inf(self):
        assert np.isfinite(Tape().binary_cross_entropy(Tensor([0.0]), 1).data).all()

    def test_maximum_values(self):
        out = Tape().maximum(Tensor([1.0, -2.0]), Tensor([0.0, 5.0])).data
        np.testing.assert_array_equal(out, [1.0, 5.0])

    def test_mean_and_weighted_sum_values(self):
        tape = Tape()
        rows = Tensor([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(tape.mean(rows).data, [1.0, 1.0])
        out = tape.matmul(Tensor([[0.25, 0.75]]), rows).data
        np.testing.assert_array_equal(out, [[0.5, 1.5]])

    def test_concat_joins_columns(self):
        out = Tape().concat(Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])).data
        np.testing.assert_array_equal(out, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])


class TestShapeErrors:
    def test_matmul_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2,\)"):
            Tape().matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_add_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2,\).*\(3,\)"):
            Tape().add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_concat_requires_equal_rows(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 2\).*\(3, 2\)"):
            Tape().concat(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeMismatchError):
            Tape().concat(Tensor(np.zeros(2)), Tensor(np.zeros(2)))

    def test_weighted_sum_length_mismatch(self):
        # A weighted sum of rows is a (1, T) @ (T, d) product on the tape.
        with pytest.raises(ShapeMismatchError, match=r"\(1, 3\).*\(2, 4\)"):
            Tape().matmul(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))))

    def test_mean_requires_2d(self):
        with pytest.raises(ShapeMismatchError):
            Tape().mean(Tensor(np.zeros(3)))

    def test_softmax_requires_1d(self):
        with pytest.raises(ShapeMismatchError):
            softmax(np.zeros((2, 2)))

    def test_backward_requires_scalar(self):
        tape = Tape()
        out = tape.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(out)


class TestBackward:
    def test_linear_gradient_is_input(self):
        w = Tensor(np.array([[1.0, -2.0, 0.5]]))
        x = Tensor(np.array([3.0, 1.0, -1.0]))
        tape = Tape()
        tape.backward(tape.matmul(w, x))
        np.testing.assert_array_equal(w.grad, x.data.reshape(1, 3))

    def test_sigmoid_derivative(self):
        z = Tensor([0.3])
        tape = Tape()
        tape.backward(tape.sigmoid(z))
        s = 1.0 / (1.0 + math.exp(-0.3))
        assert z.grad[0] == pytest.approx(s * (1.0 - s), abs=1e-12)

    def test_record_routes_gradients_to_inputs(self):
        # A hand-written op: out = a * b.sum(), recorded as one entry.
        a, b = Tensor([2.0]), Tensor([1.0, 3.0])
        tape = Tape()
        out = tape.record("scale", (a, b), a.data * b.data.sum(),
                          lambda g: (g * b.data.sum(), np.full(2, g[0] * a.data[0])))
        tape.backward(out)
        assert [e.op for e in tape.entries] == ["scale"]
        np.testing.assert_array_equal(a.grad, [4.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_maximum_tie_routes_to_first(self):
        a = Tensor([1.0])
        b = Tensor([1.0])
        tape = Tape()
        tape.backward(tape.maximum(a, b))
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.grad, [0.0])

    def test_shared_subexpression_sums_paths(self):
        # loss = s + s with s = sigmoid(x) computed once: d/dx = 2 s (1 - s).
        x = Tensor([1.5])
        tape = Tape()
        s = tape.sigmoid(x)
        tape.backward(tape.add(s, s))
        sig = 1.0 / (1.0 + math.exp(-1.5))
        np.testing.assert_allclose(x.grad, [2.0 * sig * (1.0 - sig)], atol=1e-12)

    def test_reused_node_matches_path_sum_oracle(self):
        # loss = sigmoid(s) + s with s = a + b shared by both branches.
        a_val, b_val = 0.4, -0.2
        a, b = Tensor([a_val]), Tensor([b_val])
        tape = Tape()
        s = tape.add(a, b)
        tape.backward(tape.add(tape.sigmoid(s), s))

        def loss(av, bv):
            s = av + bv
            return 1 / (1 + math.exp(-s)) + s

        h = 1e-7
        numeric = (loss(a_val + h, b_val) - loss(a_val - h, b_val)) / (2 * h)
        assert a.grad[0] == pytest.approx(numeric, abs=1e-7)
        assert b.grad[0] == pytest.approx(numeric, abs=1e-7)

    def test_gradients_accumulate_across_tapes(self):
        w = Tensor(np.array([[2.0]]))
        for _ in range(2):
            tape = Tape()
            tape.backward(tape.matmul(w, Tensor([3.0])))
        np.testing.assert_array_equal(w.grad, [[6.0]])

    def test_random_graph_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            w1 = Tensor(rng.normal(size=(5, 3)))
            w2 = Tensor(rng.normal(size=(1, 3)))
            w3 = Tensor(rng.normal(size=(1, 6)))
            b = Tensor(rng.normal(size=(2, 3)))
            x = rng.normal(size=(2, 5))
            weights = rng.dirichlet(np.ones(2))[None, :]

            def build():
                tape = Tape()
                hidden = tape.sigmoid(tape.add(tape.matmul(Tensor(x), w1), b))
                gated = tape.sigmoid(tape.add(hidden, hidden))
                mixed = tape.matmul(Tensor(weights), gated)
                pooled = tape.maximum(tape.mean(hidden), tape.mean(mixed))
                joint = tape.mean(tape.concat(hidden, gated))
                score = tape.add(tape.matmul(w2, pooled), tape.matmul(w3, joint))
                return tape, tape.binary_cross_entropy(tape.sigmoid(score), 1)

            named = list(zip(("w1", "w2", "w3", "b"), (w1, w2, w3, b)))

            def loss_and_grads():
                for _, t in named:
                    t.zero_grad()
                tape, loss = build()
                tape.backward(loss)
                return loss.data.item(), {name: t.grad for name, t in named}

            err = check_gradients(loss_and_grads, [(n, t.data) for n, t in named], step=1e-5)
            assert err < 1e-4, f"trial {trial}: {err}"

    def test_dead_branch_leaves_grad_none(self):
        x = Tensor([1.0])
        tape = Tape()
        tape.sigmoid(x)  # never connected to the loss
        loss = tape.add(Tensor([1.0]), Tensor([0.0]))
        tape.backward(loss)
        assert x.grad is None


class TestMaxRelativeError:
    def test_exact_match_is_zero(self):
        assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0

    def test_small_denominator_floor(self):
        # Both near zero: the 1e-8 floor keeps noise from exploding the ratio.
        assert max_relative_error(np.array([1e-12]), np.array([0.0])) == pytest.approx(1e-4)


class TestModelTape:
    @pytest.mark.parametrize("arch", list(ARCHITECTURES))
    def test_backward_gives_one_gradient_per_named_parameter(self, arch):
        cfg = ModelConfig(input_dim=4, hidden=3, heads=2, attn_hidden=3, **ARCHITECTURES[arch])
        params = ModelParams.init(cfg, np.random.default_rng(0))
        lengths = [1, 1] if arch == "lr-baseline" else [3, 1, 5]
        rng = np.random.default_rng(1)
        batch = forward_batch([rng.normal(size=(t, 4)) for t in lengths], params,
                              train=True, rng=rng)
        grads = batch.tape.backward(np.ones(len(lengths)), params.named_parameters())
        assert list(grads) == [name for name, _ in params.named_parameters()]
        for name, array in params.named_parameters():
            assert grads[name].shape == array.shape, name

    def test_backward_pops_every_entry(self):
        # y = 2 w, then out = 3 y: the chain hands 3 g to the first rule.
        tape = autodiff.Tape()
        tape.record("double", ("w",), lambda g: (None, 2.0 * g))
        tape.record("triple", (), lambda g: (3.0 * g,))
        named = [("w", np.ones(2)), ("unused", np.zeros(3))]
        grads = tape.backward(np.ones(2), named)
        np.testing.assert_array_equal(grads["w"], [6.0, 6.0])
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))
        assert tape.entries == []
        with pytest.raises(ValueError, match="no entries"):
            tape.backward(np.ones(2), named)
