"""A general reverse-mode engine on numpy arrays: the engine of the
per-episode reference model in ``model_oracle.py``.

The package's model differentiates its own fixed chain of layers
(``icurisk.model``, swept by the tape in ``icurisk.autodiff``); this engine
is the general one it grew from, kept as the independent reference those
layers are checked against.

Each forward call on a :class:`Tape` produces a fresh :class:`Tensor` and
appends an entry holding the inputs, the output, and a backward rule.
Entries are therefore already in topological order, and
:meth:`Tape.backward` is a single reverse sweep that accumulates gradients
into ``Tensor.grad`` (summing over all paths, so shared subexpressions and
shared parameters come out right).  The tape has a few generic ops (no
broadcasting, double precision throughout); a layer with its own
hand-written backward rule records itself as one entry through
:meth:`Tape.record`.

Gradients also accumulate across tapes, so a sweep per episode adds up to
the batch's gradient, and callers zero parameter grads between batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from icurisk.model import sigmoid


def _require_same_shape(op: str, a: "Tensor", b: "Tensor") -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} differ"
        )


def softmax(v: np.ndarray) -> np.ndarray:
    """Softmax of a 1-D array, computed with max subtraction."""
    if v.ndim != 1:
        raise ValueError(f"softmax: expected 1-D, got {v.shape}")
    shifted = np.exp(v - v.max())
    return shifted / shifted.sum()


class Tensor:
    """An array value in the graph; ``grad`` is filled by backward passes."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


# A backward rule maps the output gradient to one gradient per input
# (None for inputs that need no gradient).
BackwardRule = Callable[[np.ndarray], tuple]


@dataclass
class TapeEntry:
    op: str
    inputs: tuple
    output: Tensor
    backward: BackwardRule


class Tape:
    """Ordered record of forward operations for one computation."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def record(self, op: str, inputs: Sequence[Tensor], data: np.ndarray,
               backward: BackwardRule) -> Tensor:
        """Append one entry; ``backward`` returns one gradient per input."""
        out = Tensor(data)
        self.entries.append(TapeEntry(op, tuple(inputs), out, backward))
        return out

    # -- arithmetic ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product of a 2-D ``a`` with a 1-D or 2-D ``b``."""
        if a.data.ndim != 2 or b.data.ndim not in (1, 2):
            raise ValueError(
                f"matmul: need 2-D @ 1-D/2-D, got {a.data.shape} and {b.data.shape}"
            )
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul: inner dimensions of {a.data.shape} and {b.data.shape} differ"
            )

        def backward(g):
            if b.data.ndim == 1:
                return np.outer(g, b.data), a.data.T @ g
            return g @ b.data.T, a.data.T @ g

        return self.record("matmul", (a, b), a.data @ b.data, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        _require_same_shape("add", a, b)
        return self.record("add", (a, b), a.data + b.data, lambda g: (g, g))

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Join two tensors of at least 2-D along their last axis; every
        other dimension must agree."""
        if a.data.ndim < 2 or a.data.shape[:-1] != b.data.shape[:-1]:
            raise ValueError(
                f"concat: need tensors of 2 or more dimensions that differ only in "
                f"the last, got {a.data.shape} and {b.data.shape}"
            )
        split = a.data.shape[-1]
        return self.record("concat", (a, b), np.concatenate([a.data, b.data], axis=-1),
                           lambda g: (g[..., :split], g[..., split:]))

    # -- nonlinearities -----------------------------------------------------

    def sigmoid(self, x: Tensor) -> Tensor:
        out = sigmoid(x.data)
        return self.record("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))

    # -- reductions ---------------------------------------------------------

    def maximum(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise max; on ties the gradient routes to the first input."""
        _require_same_shape("maximum", a, b)
        first_wins = a.data >= b.data

        def backward(g):
            return g * first_wins, g * ~first_wins

        return self.record("maximum", (a, b), np.maximum(a.data, b.data), backward)

    def mean(self, x: Tensor) -> Tensor:
        """Mean over the rows of a 2-D tensor (over time, for an episode)."""
        if x.data.ndim != 2:
            raise ValueError(f"mean: expected a 2-D tensor, got {x.data.shape}")
        n = x.data.shape[0]
        return self.record("mean", (x,), x.data.sum(axis=0) / n,
                           lambda g: (np.broadcast_to(g / n, x.data.shape),))

    # -- stochastic and loss ops --------------------------------------------

    def dropout(self, x: Tensor, rate: float,
                rng: np.random.Generator | None = None) -> Tensor:
        """Inverted dropout: keep with probability 1-rate and rescale.

        Identity at rate 0.  The caller owns the generator; no ambient
        global randomness.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if rate == 0.0:
            return x
        if rng is None:
            raise ValueError("dropout in training mode needs a random generator")
        keep = 1.0 - rate
        mask = (rng.random(x.data.shape) >= rate) / keep
        return self.record("dropout", (x,), x.data * mask, lambda g: (g * mask,))

    def binary_cross_entropy(self, p: Tensor, y) -> Tensor:
        """Mean over a batch of -[y log p + (1-y) log(1-p)], p clipped to
        [1e-12, 1-1e-12].

        ``p`` holds one probability per example, ``y`` one label each (or
        one label for all); the result is a one-element tensor.
        """
        if p.data.ndim != 1:
            raise ValueError(
                f"binary_cross_entropy: probabilities must be 1-D, got {p.data.shape}"
            )
        labels = np.asarray(y, dtype=np.float64)
        if labels.ndim > 1 or labels.size not in (1, p.data.size):
            raise ValueError(
                f"binary_cross_entropy: {labels.size} labels for {p.data.size} probabilities"
            )
        if not np.isin(labels, (0.0, 1.0)).all():
            raise ValueError(f"label must be 0 or 1, got {y}")
        n = p.data.size
        clipped = np.clip(p.data, 1e-12, 1.0 - 1e-12)
        losses = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped))

        def backward(g):
            inside = (p.data > 1e-12) & (p.data < 1.0 - 1e-12)
            return (g / n * inside * (clipped - labels) / (clipped * (1.0 - clipped)),)

        return self.record("bce", (p,), np.array([losses.sum() / n]), backward)

    # -- reverse sweep ------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every tensor's ``grad``."""
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for entry in reversed(self.entries):
            g = entry.output.grad
            if g is None:
                continue
            for tensor, grad in zip(entry.inputs, entry.backward(g)):
                if grad is not None:
                    tensor._accumulate(grad)

