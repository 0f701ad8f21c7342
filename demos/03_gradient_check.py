"""The model's backward pass, and proof its gradients match finite differences.

Every layer computes a plain array and records one hand-written backward
rule on the tape, with the names of the parameters it reads; the layers
form a chain, each taking the previous one's output.  The demo lists the
layers one forward pass records, for one episode and for a mixed batch (the
same list), then sweeps one batch back to one gradient per named
parameter, and finally runs the full-model gradient check used by the
acceptance suite.
"""

import numpy as np

from icurisk.model import (ModelConfig, ModelParams, forward_batch, forward_episode,
                           grad_check, loss_and_grads)

config = ModelConfig(input_dim=5, hidden=3, heads=2, bidirectional=True,
                     dropout_in=0.0, dropout_out=0.0)
rng = np.random.default_rng(0)
params = ModelParams.init(config, rng)


def layers(tape):
    return [f"{e.op}: {', '.join(e.params)}" for e in tape.entries]


# The LSTM (both directions) and the attention (both heads and their max)
# are one entry each, however many intervals and episodes they cover.
episode = forward_episode(rng.normal(size=(16, 5)), params)
print(f"a 16-interval forward pass recorded {len(episode.tape.entries)} layers:")
print("\n".join("  " + line for line in layers(episode.tape)))
matrices = [rng.normal(size=(t, 5)) for t in (16, 3, 9, 1)]
batch = forward_batch(matrices, params)
print(f"a batch of 4 episodes of 1 to 16 intervals, padded to 16, recorded the same "
      f"{len(batch.tape.entries)}: {layers(batch.tape) == layers(episode.tape)}")

loss, grads = loss_and_grads(params, matrices, [1, 0, 0, 1])
print(f"\nthat batch's mean log-loss {loss:.4f}, one gradient per named parameter:")
for name, grad in grads.items():
    print(f"  {name:8s} {str(grad.shape):10s} |grad| {np.linalg.norm(grad):.4f}")

# Every parameter of the model, checked against central finite differences
# with step 1e-5.
error = grad_check(config, seed=0, intervals=4)
print(f"\nfull-model gradient check, max relative error: {error:.2e}")
print("under the 1e-4 acceptance threshold:", error < 1e-4)
