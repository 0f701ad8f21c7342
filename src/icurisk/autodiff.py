"""The tape that carries the model's gradient back through its layers.

The model's layers compute plain numpy arrays and run as one chain: each
takes the previous layer's output.  Each layer also records one
:class:`TapeEntry` on a :class:`Tape`: the names of the parameters it
reads and a hand-written backward rule that maps the gradient of its output
to the gradient of its input (None where none flows, as into the features)
followed by one gradient per parameter name.

:meth:`Tape.backward` pops the entries last to first, handing each rule
the input gradient of the layer after it, and returns one gradient per
parameter the caller names.  A mini-batch is one tape: the layers work on
the whole padded batch, so one sweep gives the batch's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when an operation's input shapes are incompatible."""


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function that stays finite for any finite input."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# A backward rule maps the gradient of a layer's output to the gradient of
# its input (None if none flows) followed by one gradient per parameter.
BackwardRule = Callable[[np.ndarray], tuple]


@dataclass
class TapeEntry:
    op: str
    params: tuple[str, ...]
    backward: BackwardRule


class Tape:
    """The layers of one forward pass, in the order they ran, each taking
    the previous one's output."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def record(self, op: str, params: Sequence[str], backward: BackwardRule) -> None:
        """Append one layer reading the named parameters; ``backward``
        returns its input's gradient, then one gradient per name."""
        self.entries.append(TapeEntry(op, tuple(params), backward))

    def backward(self, grad: np.ndarray,
                 parameters: Sequence[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """Gradients of a loss whose gradient with respect to the last
        entry's output is ``grad``: one per named parameter array, zero
        where none flowed.

        Empties the tape: each entry, and the activations its rule keeps,
        goes as soon as the rule has run.
        """
        if not self.entries:
            raise ValueError("backward: the tape has no entries (already swept?)")
        grads: dict[str, np.ndarray] = {}
        while self.entries:
            entry = self.entries.pop()
            grad, *param_grads = entry.backward(grad)
            grads.update(zip(entry.params, param_grads))
        return {name: grads[name] if name in grads else np.zeros_like(array)
                for name, array in parameters}


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-8) over all entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(loss_and_grads: Callable[[], tuple[float, dict[str, np.ndarray]]],
                    parameters: Sequence[tuple[str, np.ndarray]],
                    step: float = 1e-5) -> float:
    """Compare analytic gradients with central finite differences.

    ``loss_and_grads`` returns the loss and one gradient per parameter name
    for the parameters' current values; it must be deterministic, so
    dropout must be off.  Each named array is perturbed in place, one entry
    at a time.  Returns the max relative error over every entry.
    """
    _, analytic = loss_and_grads()
    worst = 0.0
    for name, array in parameters:
        flat = array.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up, _ = loss_and_grads()
            flat[i] = original - step
            down, _ = loss_and_grads()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, max_relative_error(
                np.array([analytic[name].reshape(-1)[i]]), np.array([numeric])))
    return worst
