"""Activation functions of Table 1 (sigmoid, tanh, ReLU, softmax).

Each activation exposes ``forward`` and ``backward`` (the local gradient
composed with the incoming upstream gradient).  Softmax's backward assumes
it is paired with categorical cross-entropy, where the combined gradient is
``probs - targets`` and is produced by the loss itself; using softmax
mid-network therefore raises.

The ``*_inplace`` variants back the fused layer kernels: they replay the
exact elementwise op sequence of their out-of-place counterparts into the
caller's buffer, so for any given input the results are bitwise identical
— only the allocations disappear.
"""

from __future__ import annotations

import numpy as np


class Activation:
    """Base class: stateless elementwise nonlinearity."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Elementwise activation of the pre-activations *z*."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        """Upstream *grad* times the local derivative (given the forward output)."""
        raise NotImplementedError

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        """Activate *x* writing into *x* itself; defaults to :meth:`forward`.

        Subclasses override with a buffer-reusing op sequence that is
        bitwise identical to ``forward``; the default fallback simply
        allocates.
        """
        return self.forward(x)

    def backward_inplace(
        self, grad: np.ndarray, output: np.ndarray, buffer=None
    ) -> np.ndarray:
        """Like :meth:`backward` but may overwrite *grad*; defaults to it.

        *buffer*, when given, is the owning layer's ``_buffer`` allocator
        — activations are stateless singletons shared across layers, so
        any scratch they need must live on the layer that calls them.
        """
        return self.backward(grad, output)


class Sigmoid(Activation):
    """delta(z) = 1 / (1 + e^-z)."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad * output * (1.0 - output)

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        np.clip(x, -60.0, 60.0, out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.divide(1.0, x, out=x)
        return x

    def backward_inplace(
        self, grad: np.ndarray, output: np.ndarray, buffer=None
    ) -> np.ndarray:
        complement = 1.0 - output
        np.multiply(grad, output, out=grad)
        grad *= complement
        return grad


class Tanh(Activation):
    """delta(z) = tanh(z)."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad * (1.0 - output * output)

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        np.tanh(x, out=x)
        return x

    def backward_inplace(
        self, grad: np.ndarray, output: np.ndarray, buffer=None
    ) -> np.ndarray:
        np.multiply(grad, 1.0 - output * output, out=grad)
        return grad


class ReLU(Activation):
    """delta(z) = max(0, z)."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, x)

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad * (output > 0.0)

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        np.maximum(x, 0.0, out=x)
        return x

    def backward_inplace(
        self, grad: np.ndarray, output: np.ndarray, buffer=None
    ) -> np.ndarray:
        if buffer is not None:
            # np.multiply(grad, mask) with a preallocated bool mask is
            # bitwise identical to multiplying by a fresh ``output > 0``
            # array — only the per-batch allocation disappears.
            mask = buffer("relu_mask", output.shape, np.bool_)
            np.greater(output, 0.0, out=mask)
            np.multiply(grad, mask, out=grad)
            return grad
        np.multiply(grad, output > 0.0, out=grad)
        return grad


class Softmax(Activation):
    """delta(z)_i = e^{z_i} / sum_j e^{z_j} along the last axis."""

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exps = np.exp(shifted)
        return exps / np.sum(exps, axis=-1, keepdims=True)

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            "softmax backward is fused into CategoricalCrossEntropy; "
            "use softmax only as the final activation"
        )

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        peak = np.max(x, axis=-1, keepdims=True)
        np.subtract(x, peak, out=x)
        np.exp(x, out=x)
        total = np.sum(x, axis=-1, keepdims=True)
        np.divide(x, total, out=x)
        return x


class Identity(Activation):
    """Linear pass-through."""

    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad


ACTIVATIONS = {
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "relu": ReLU,
    "softmax": Softmax,
    "linear": Identity,
    None: Identity,
}


def get_activation(name) -> Activation:
    """Resolve an activation by name (or pass an instance through)."""
    if isinstance(name, Activation):
        return name
    if name not in ACTIVATIONS:
        raise KeyError(f"unknown activation: {name!r}")
    return ACTIVATIONS[name]()
