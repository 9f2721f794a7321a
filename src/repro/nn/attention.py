"""Single-head self-attention — the §6 future-work direction, in numpy.

The paper's conclusion plans to adopt transformer encoders (BERT, XLNet,
ALBERT, ELECTRA) "to take advantage of contextual information".  Full
pretrained transformers are out of scope offline, but the mechanism that
powers them is not: this module implements scaled dot-product
self-attention with a complete backward pass, so an attention-based
classifier (`build_attention_network`) can be compared against the
paper's MLP/CNN on the same datasets.

Shapes follow the Conv1D convention: per-sample input is
``(length, channels)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .activations import Softmax
from .initializers import get_initializer
from .layers import Dense, Layer, Reshape
from .network import Sequential


class SelfAttention(Layer):
    """Scaled dot-product self-attention with learned Q/K/V projections.

    y = softmax(Q K^T / sqrt(d)) V,  Q = x W_q, K = x W_k, V = x W_v.

    A single head is enough to demonstrate (and test, via finite
    differences) the mechanism; stacking multiple ``SelfAttention``
    layers composes depth the way encoder blocks do.
    """

    def __init__(
        self,
        key_dim: int,
        initializer: str = "glorot_uniform",
    ) -> None:
        super().__init__()
        if key_dim < 1:
            raise ValueError("key_dim must be >= 1")
        self.key_dim = key_dim
        self.initializer = initializer
        self.Wq: Optional[np.ndarray] = None
        self.Wk: Optional[np.ndarray] = None
        self.Wv: Optional[np.ndarray] = None
        self.dWq: Optional[np.ndarray] = None
        self.dWk: Optional[np.ndarray] = None
        self.dWv: Optional[np.ndarray] = None
        self._cache: Optional[Tuple] = None

    def build(self, input_shape, rng) -> None:
        if len(input_shape) != 2:
            raise ValueError(
                f"SelfAttention expects (length, channels) input, got {input_shape}"
            )
        _length, channels = input_shape
        init = get_initializer(self.initializer)
        self.Wq = init((channels, self.key_dim), rng, dtype=self.dtype)
        self.Wk = init((channels, self.key_dim), rng, dtype=self.dtype)
        self.Wv = init((channels, self.key_dim), rng, dtype=self.dtype)
        self.dWq = np.zeros_like(self.Wq)
        self.dWk = np.zeros_like(self.Wk)
        self.dWv = np.zeros_like(self.Wv)
        self.built = True

    def output_shape(self, input_shape):
        return (input_shape[0], self.key_dim)

    def forward(self, x, training=False):
        Q = x @ self.Wq                       # (b, L, d)
        K = x @ self.Wk
        V = x @ self.Wv
        scale = 1.0 / np.sqrt(self.key_dim)
        scores = np.einsum("bld,bmd->blm", Q, K) * scale   # (b, L, L)
        attn = Softmax().forward(scores)
        out = np.einsum("blm,bmd->bld", attn, V)
        self._cache = (x, Q, K, V, attn, scale)
        return out

    def backward(self, grad):
        x, Q, K, V, attn, scale = self._cache

        # out = attn @ V
        d_attn = np.einsum("bld,bmd->blm", grad, V)          # (b, L, L)
        dV = np.einsum("blm,bld->bmd", attn, grad)           # (b, L, d)

        # Softmax backward along the last axis:
        # d_scores = attn * (d_attn - sum(d_attn * attn, keepdims))
        inner = np.sum(d_attn * attn, axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner)

        dQ = np.einsum("blm,bmd->bld", d_scores, K) * scale
        dK = np.einsum("blm,bld->bmd", d_scores, Q) * scale

        batch = x.shape[0]
        x_flat = x.reshape(-1, x.shape[2])
        self.dWq[...] = x_flat.T @ dQ.reshape(-1, self.key_dim)
        self.dWk[...] = x_flat.T @ dK.reshape(-1, self.key_dim)
        self.dWv[...] = x_flat.T @ dV.reshape(-1, self.key_dim)

        dx = (
            dQ @ self.Wq.T
            + dK @ self.Wk.T
            + dV @ self.Wv.T
        )
        return dx

    def parameters(self):
        return [
            ("Wq", self.Wq, self.dWq),
            ("Wk", self.Wk, self.dWk),
            ("Wv", self.Wv, self.dWv),
        ]


class MeanPool1D(Layer):
    """Mean over the length axis: (length, channels) -> (channels,).

    The standard pooling for attention encoders feeding a classifier.
    """

    def __init__(self) -> None:
        super().__init__()
        self._length: Optional[int] = None

    def output_shape(self, input_shape):
        return (input_shape[1],)

    def forward(self, x, training=False):
        self._length = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad):
        expanded = np.repeat(grad[:, np.newaxis, :], self._length, axis=1)
        return expanded / self._length


def build_attention_network(
    input_dim: int,
    n_classes: int = 3,
    tokens: int = 20,
    key_dim: int = 32,
    dense_units: int = 64,
    seed: int = 0,
) -> Sequential:
    """An attention-based classifier over a flat feature vector.

    The input vector is reshaped into *tokens* pseudo-tokens of width
    input_dim / tokens (padding is the caller's concern: input_dim must
    be divisible by tokens), passed through self-attention, mean-pooled,
    and classified — the minimal "transformer-flavoured" counterpart of
    the paper's Figure-2/3 networks.
    """
    if input_dim % tokens != 0:
        raise ValueError(
            f"input_dim {input_dim} must be divisible by tokens {tokens}"
        )
    channels = input_dim // tokens
    model = Sequential(seed=seed)
    model.add(Reshape((tokens, channels)))
    model.add(SelfAttention(key_dim))
    model.add(MeanPool1D())
    model.add(Dense(dense_units, activation="relu"))
    model.add(Dense(n_classes, activation="softmax"))
    model.build((input_dim,))
    return model
