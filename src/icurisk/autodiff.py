"""The tape that carries the model's gradient back through its layers.

The model's layers compute plain numpy arrays.  Each layer also records one
:class:`TapeEntry` on a :class:`Tape`: the name of the value it writes, the
names of the values and parameters it reads, and a hand-written backward
rule that maps the gradient of what it wrote to one gradient per name it
read.  Values are named as the variables of the forward pass are, so a
layer may rewrite a name it read (``z = dropout(z)``).

:meth:`Tape.backward` sweeps the entries last to first, popping each one as
its rule runs, and keeps only the gradients still waiting for their
producer plus the parameter gradients summed so far.  It returns one
gradient per parameter the caller names.  A mini-batch is one tape:
the layers work on the whole padded batch, so one sweep gives the batch's
gradient.
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


# A backward rule maps the gradient of the value an entry wrote to one
# gradient per name it read (None for a name that gets no gradient).
BackwardRule = Callable[[np.ndarray], tuple]


@dataclass
class TapeEntry:
    op: str
    writes: str
    reads: tuple[str, ...]
    backward: BackwardRule


class Tape:
    """The layers of one forward pass, in the order they ran."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def record(self, op: str, writes: str, reads: Sequence[str],
               backward: BackwardRule) -> None:
        """Append one layer; ``backward`` returns one gradient per name in ``reads``."""
        self.entries.append(TapeEntry(op, writes, tuple(reads), backward))

    def backward(self, grad: np.ndarray,
                 parameters: Sequence[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """Gradients of a loss whose gradient with respect to the last
        entry's value is ``grad``: one per named parameter array, zero where
        none flowed.

        Empties the tape: each entry, and the activations its rule keeps,
        goes as soon as the rule has run.
        """
        if not self.entries:
            raise ValueError("backward: the tape has no entries (already swept?)")
        pending = {self.entries[-1].writes: grad}
        while self.entries:
            entry = self.entries.pop()
            g = pending.pop(entry.writes, None)
            if g is None:  # nothing downstream read this value
                continue
            for name, grad_in in zip(entry.reads, entry.backward(g)):
                if grad_in is not None:
                    pending[name] = pending[name] + grad_in if name in pending else grad_in
        return {name: pending[name] if name in pending else np.zeros_like(array)
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
