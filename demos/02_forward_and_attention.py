"""Scoring an episode: BiLSTM states, reading-head attention, risk output.

Runs a randomly initialized two-head bidirectional model over a synthetic
feature matrix and prints where each head places its attention.
"""

import numpy as np

from icurisk.model import ModelConfig, ModelParams, forward_batch, forward_episode

config = ModelConfig(input_dim=12, hidden=8, heads=2, bidirectional=True,
                     pooling="attention", dropout_in=0.5, dropout_out=0.5)
rng = np.random.default_rng(42)
params = ModelParams.init(config, rng)

# Ten intervals; intervals 6 and 7 carry a strong synthetic "event".
X = rng.normal(0, 0.4, size=(10, 12))
X[6:8, :] += 2.5

result = forward_episode(X, params, record_id=777)
print(f"risk probability: {result.risk:.4f}")

trace = result.trace
print(f"\nattention over {trace.weights.shape[1]} intervals "
      f"({trace.weights.shape[0]} heads):")
for head in range(trace.weights.shape[0]):
    bar = "  ".join(f"{w:.3f}" for w in trace.weights[head])
    print(f"  head {head}: {bar}")
    print(f"  head {head} peak interval: {int(trace.weights[head].argmax())}")

print("\neach head's probabilities sum to",
      [round(float(s), 12) for s in trace.weights.sum(axis=1)])
print("joint state width (2 x hidden):", trace.states.shape[1])

# Scoring is always in evaluation mode and deterministic.  A training pass
# is forward_batch given a generator: it draws its dropout masks from it.
again = forward_episode(X, params, record_id=777)
print("\neval mode reproduces the risk exactly:", again.risk == result.risk)
noisy = forward_batch([X], params, np.random.default_rng(1)).risks[0]
print(f"train mode with dropout gives a different draw: {noisy:.4f}")
