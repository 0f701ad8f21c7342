"""The tape that carries the model's gradient back through its layers.

The layers run as one chain, each taking the previous one's output, and
each appends one hand-written backward rule to the tape's ``entries``.  A
rule maps the gradient of its layer's output to the gradient of the
layer's input (None where none flows, as into the features), followed by
one gradient per parameter the layer reads.  A mini-batch is one tape: the
layers work on the whole padded batch, so one sweep gives its gradient.
"""

import numpy as np


class Tape:
    """The backward rules of one forward pass's layers, in the order they ran."""

    def __init__(self):
        self.entries: list = []

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        """Gradients of a loss whose gradient with respect to the last
        layer's output is ``grad``: each rule's parameter gradients, first
        layer first, which is the order of ``ModelParams.named_parameters``.

        Empties the tape: each rule, and the activations it keeps, goes as
        soon as it has run.
        """
        if not self.entries:
            raise ValueError("backward: the tape has no entries (already swept?)")
        grads: list[np.ndarray] = []
        while self.entries:
            grad, *param_grads = self.entries.pop()(grad)
            grads[:0] = param_grads
        return grads
