"""The autodiff tape, and proof its gradients match finite differences.

First differentiates a tiny expression by hand on the tape, then shows the
few entries a whole-model forward pass records (one per layer, for one
episode or a whole batch), then runs the full-model gradient check used by
the acceptance suite.
"""

import numpy as np

from icurisk.autodiff import Tape, Tensor
from icurisk.model import ModelConfig, ModelParams, forward_batch, forward_episode, grad_check

# loss = sigmoid(w . x): d(loss)/dw should equal sigmoid' * x.
w = Tensor(np.array([[0.2, -0.4, 0.1]]))
x = Tensor(np.array([1.0, 2.0, -1.0]))
tape = Tape()
p = tape.sigmoid(tape.matmul(w, x))
tape.backward(p)

s = p.data[0]
print("forward value:", s)
print("tape gradient for w:   ", w.grad.ravel())
print("hand derivative s(1-s)x:", (s * (1 - s) * x.data))

print(f"\ntape recorded {len(tape.entries)} operations:",
      [e.op for e in tape.entries])

# Every parameter of a small bidirectional attention model, checked against
# central finite differences with step 1e-5.
config = ModelConfig(input_dim=5, hidden=3, heads=2, bidirectional=True,
                     dropout_in=0.0, dropout_out=0.0)

# Each LSTM direction and each attention head is one entry with a
# hand-written backward rule, however many intervals and episodes it covers.
rng = np.random.default_rng(0)
params = ModelParams.init(config, rng)
episode = forward_episode(rng.normal(size=(16, 5)), params)
print(f"\na 16-interval forward pass recorded {len(episode.tape.entries)} operations:",
      [e.op for e in episode.tape.entries])
batch = forward_batch([rng.normal(size=(t, 5)) for t in (16, 3, 9, 1)], params)
print(f"a batch of 4 episodes of 1 to 16 intervals, padded to 16, recorded "
      f"{len(batch.tape.entries)}")
error = grad_check(config, seed=0, intervals=4)
print(f"\nfull-model gradient check, max relative error: {error:.2e}")
print("under the 1e-4 acceptance threshold:", error < 1e-4)
