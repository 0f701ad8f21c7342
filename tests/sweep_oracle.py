"""Reference gradient sweep: the tape as it named the gradients per layer.

Each layer used to record its backward rule with the names of the
parameters it reads, and the tape's sweep keyed every gradient by those
names.  :func:`loss_and_grads` is :func:`icurisk.model.loss_and_grads` with
that sweep, the names written per layer in :data:`LAYER_PARAMS`.  The
production sweep, which names the gradients in chain order from
``ModelParams.named_parameters``, must give the same arrays under the same
names, bit for bit.
"""

import numpy as np

from icurisk.model import forward_batch

# The names of the parameters each layer's rule reads, keyed by the function
# that made the rule; forward_batch makes the output dropout's rule.
LAYER_PARAMS = {
    "run_lstm": ("lstm.W", "lstm.U", "lstm.b"),
    "attend": ("attn.M", "attn.b", "attn.v", "attn.c"),
    "mean_rows": (),
    "forward_batch": (),
    "classify": ("out.w", "out.b"),
}


def layer(rule) -> str:
    """The function whose pass made ``rule``."""
    return rule.__qualname__.split(".")[0]


def backward(rules: list, grad: np.ndarray) -> dict[str, np.ndarray]:
    """Pop the rules last to first; one gradient per name each layer reads,
    in the order the layers recorded them."""
    grads: list[tuple[str, np.ndarray]] = []
    while rules:
        rule = rules.pop()
        grad, *param_grads = rule(grad)
        grads[:0] = zip(LAYER_PARAMS[layer(rule)], param_grads)
    return dict(grads)


def loss_and_grads(params, matrices, labels, rng=None):
    """Mean log-loss of a batch and its gradients, keyed by the names the
    layers read."""
    labels = np.asarray(labels, dtype=np.float64)
    n = len(matrices)
    result = forward_batch(matrices, params, rng)
    p = result.risks
    clipped = np.clip(p, 1e-12, 1.0 - 1e-12)
    losses = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped))
    inside = (p > 1e-12) & (p < 1.0 - 1e-12)
    d_p = 1.0 / n * inside * (clipped - labels) / (clipped * (1.0 - clipped))
    return float(losses.sum() / n), backward(result.tape.entries, d_p)
