"""Layers for the numpy NN framework (Dense, Conv1D, MaxPool1D, ...).

The paper's two architectures (Figures 2–3) need: fully connected layers
with the Table-1 activations, a 1-D convolution + max-pooling pair, flatten
and dropout.  Each layer implements ``forward(x, training)`` and
``backward(grad)`` (returning the gradient w.r.t. its input and stashing
parameter gradients), and exposes ``parameters()`` as (name, param, grad)
triples for the optimizer.

Forward and backward are fused kernels: each layer writes its matmuls
and ufuncs into per-layer buffers reused across batches, so
small-batch training does not churn through per-batch allocations.
``tests/golden/training.json`` pins the float64 results.

Parameters are allocated in the dtype ``Sequential.build`` threads in
(``layer.dtype``, float64 by default; see :mod:`repro.nn.dtypes`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from . import contracts
from .activations import Activation, Softmax, get_activation
from .dtypes import FAST_DTYPE
from .initializers import get_initializer


class Layer:
    """Base layer.

    Every subclass is automatically instrumented with the runtime
    shape/dtype contracts of :mod:`repro.nn.contracts` (active under
    pytest, toggleable via ``REPRO_CONTRACTS``).

    ``handle`` is the stable identity ``Sequential.build`` assigns
    (``m<uid>.g<generation>.L<index>``); optimizers key per-parameter
    state by it so state cannot silently attach to the wrong array when
    ``id()`` values are reused.  ``dtype`` is the compute dtype build
    threads in.  ``_buffers`` holds the reusable scratch arrays, keyed
    by role and reallocated only on shape/dtype change.
    ``need_input_grad`` (set by ``Sequential.build``) is False when no
    trainable layer sits below this one, letting backward skip
    producing an input gradient nothing will consume; it defaults to
    True so standalone layers keep full behaviour.
    """

    def __init__(self) -> None:
        self.built = False
        self.handle: Optional[str] = None
        self.dtype: np.dtype = np.dtype(np.float64)
        self.need_input_grad = True
        self._buffers: Dict[str, np.ndarray] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        """Contract-wrap the ``forward``/``backward`` the subclass defines."""
        super().__init_subclass__(**kwargs)
        contracts.instrument_layer(cls)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters given the per-sample *input_shape*."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given the per-sample input shape."""
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Batched forward pass; *training* toggles train-time behaviour."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """(name, parameter, gradient) triples; empty for stateless layers."""
        return []

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(p.size for _n, p, _g in self.parameters())

    def _buffer(self, role: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch array for *role*, reallocated on shape change."""
        buf = self._buffers.get(role)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[role] = buf
        return buf


class Dense(Layer):
    """Fully connected layer: y = activation(x W + b).

    This is the perceptron stack of §3.5: ``units`` processing units, each
    computing delta(sum_j w_ij x_ij + b).
    """

    def __init__(
        self,
        units: int,
        activation=None,
        initializer: str = "glorot_uniform",
    ) -> None:
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = units
        self.activation: Activation = get_activation(activation)
        self.initializer = initializer
        self.W: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        self.dW: Optional[np.ndarray] = None
        self.db: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    def build(self, input_shape, rng) -> None:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        init = get_initializer(self.initializer)
        self.W = init((input_shape[0], self.units), rng, dtype=self.dtype)
        self.b = np.zeros(self.units, dtype=self.dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.built = True

    def output_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, training=False):
        self._x = x
        # Matmul into the reusable pre-activation buffer, add the bias
        # and activate in place: no intermediate temporaries.
        z = self._buffer("z", (x.shape[0], self.units), self.W.dtype)
        np.matmul(x, self.W, out=z)
        z += self.b
        self._out = self.activation.forward_inplace(z)
        return self._out

    def backward(self, grad):
        # A softmax grad already includes the fused softmax+CE derivative.
        if not isinstance(self.activation, Softmax):
            grad = self.activation.backward_inplace(
                grad, self._out, buffer=self._buffer
            )
        np.matmul(self._x.T, grad, out=self.dW)
        grad.sum(axis=0, out=self.db)
        if not self.need_input_grad:
            # Bottom of the trainable stack: dx = grad @ W.T would be
            # discarded, and it is the same-size matmul as dW.
            return None
        dx = self._buffer("dx", self._x.shape, self.W.dtype)
        np.matmul(grad, self.W.T, out=dx)
        return dx

    def parameters(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]


class Conv1D(Layer):
    """1-D convolution over (length, channels) inputs, 'valid' padding.

    Implemented with an im2col unroll so the heavy lifting is one matmul —
    important for the Table-10 scalability bench where CNN epoch time must
    scale smoothly with input size.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        activation=None,
        stride: int = 1,
        initializer: str = "glorot_uniform",
    ) -> None:
        super().__init__()
        if filters < 1 or kernel_size < 1 or stride < 1:
            raise ValueError("filters, kernel_size and stride must be >= 1")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.activation: Activation = get_activation(activation)
        self.initializer = initializer
        self.W: Optional[np.ndarray] = None  # (kernel, in_ch, filters)
        self.b: Optional[np.ndarray] = None
        self.dW: Optional[np.ndarray] = None
        self.db: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._out: Optional[np.ndarray] = None

    def build(self, input_shape, rng) -> None:
        if len(input_shape) != 2:
            raise ValueError(
                f"Conv1D expects (length, channels) input, got {input_shape}"
            )
        length, channels = input_shape
        if length < self.kernel_size:
            raise ValueError("input shorter than kernel")
        init = get_initializer(self.initializer)
        self.W = init(
            (self.kernel_size, channels, self.filters), rng, dtype=self.dtype
        )
        self.b = np.zeros(self.filters, dtype=self.dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.built = True

    def _out_length(self, length: int) -> int:
        return (length - self.kernel_size) // self.stride + 1

    def output_shape(self, input_shape):
        return (self._out_length(input_shape[0]), self.filters)

    def forward(self, x, training=False):
        self._x_shape = x.shape
        x = np.ascontiguousarray(x)
        batch, length, channels = x.shape
        out_len = self._out_length(length)
        # im2col into the reusable unroll buffer.  One big slice copy per
        # kernel offset beats a single 4D strided copyto, whose innermost
        # loop is only ``channels`` elements wide.
        cols = self._buffer(
            "cols", (batch, out_len, self.kernel_size * channels), self.W.dtype
        )
        cols4 = cols.reshape(batch, out_len, self.kernel_size, channels)
        span = (out_len - 1) * self.stride + 1
        for k in range(self.kernel_size):
            cols4[:, :, k] = x[:, k : k + span : self.stride]
        self._cols = cols
        kernel = self.W.reshape(self.kernel_size * channels, self.filters)
        z = self._buffer("z", (batch, out_len, self.filters), self.W.dtype)
        # One flat GEMM over (batch*out_len) rows.
        np.matmul(
            cols.reshape(-1, self.kernel_size * channels),
            kernel,
            out=z.reshape(-1, self.filters),
        )
        z += self.b
        self._out = self.activation.forward_inplace(z)
        return self._out

    def backward(self, grad):
        batch, length, channels = self._x_shape
        out_len = grad.shape[1]
        kernel = self.W.reshape(self.kernel_size * channels, self.filters)
        positions = np.arange(out_len) * self.stride
        grad = self.activation.backward_inplace(
            grad, self._out, buffer=self._buffer
        )
        cols_flat = self._cols.reshape(-1, self.kernel_size * channels)
        grad_flat = grad.reshape(-1, self.filters)
        np.matmul(
            cols_flat.T, grad_flat,
            out=self.dW.reshape(self.kernel_size * channels, self.filters),
        )
        grad_flat.sum(axis=0, out=self.db)
        if not self.need_input_grad:
            # No trainable layer below: skip the dcols matmul and the
            # whole window scatter (the most expensive part of backward).
            return None
        dcols = self._buffer(
            "dcols", (batch, out_len, self.kernel_size * channels), self.W.dtype
        )
        np.matmul(grad, kernel.T, out=dcols)
        dcols4 = dcols.reshape(batch, out_len, self.kernel_size, channels)
        dx = self._buffer("dx", (batch, length, channels), self.W.dtype)
        dx.fill(0.0)
        # Scatter each window's contribution back.  For a fixed kernel
        # offset k the target positions are unique, so plain fancy-index
        # addition applies (np.add.at would be ~50x slower).
        for k in range(self.kernel_size):
            dx[:, positions + k] += dcols4[:, :, k]
        return dx

    def parameters(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]


class MaxPool1D(Layer):
    """Max pooling over the length axis (pool_size == stride)."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._argmax: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape):
        length, channels = input_shape
        return (length // self.pool_size, channels)

    def forward(self, x, training=False):
        self._x_shape = x.shape
        batch, length, channels = x.shape
        out_len = length // self.pool_size
        trimmed = x[:, : out_len * self.pool_size]
        windows = trimmed.reshape(batch, out_len, self.pool_size, channels)
        out = self._buffer("out", (batch, out_len, channels), x.dtype)
        if self.pool_size == 2:
            # argmax over a size-2 strided axis is one of numpy's worst
            # code paths (an elementwise reduce over a non-contiguous
            # middle axis dominated the whole CNN epoch); a single
            # comparison computes the same thing.  ``w1 > w0`` matches
            # argmax's first-max-on-ties rule exactly: ties pick index 0.
            w0 = windows[:, :, 0]
            w1 = windows[:, :, 1]
            winner = self._buffer("winner", (batch, out_len, channels), np.bool_)
            np.greater(w1, w0, out=winner)
            self._argmax = winner
            np.maximum(w0, w1, out=out)
            return out
        argmax = self._buffer("argmax", (batch, out_len, channels), np.intp)
        windows.argmax(axis=2, out=argmax)
        self._argmax = argmax
        windows.max(axis=2, out=out)
        return out

    def backward(self, grad):
        batch, length, channels = self._x_shape
        out_len = length // self.pool_size
        dx = self._buffer(
            "dx", (batch, out_len, self.pool_size, channels), grad.dtype
        )
        if self._argmax.dtype == np.bool_:
            # pool_size == 2: route grad to the winning slot
            # with three elementwise passes instead of the (much slower)
            # put_along_axis scatter.  ``grad * winner`` parks ``-0.0``
            # in losing slots when grad is negative, so ``+ 0.0``
            # normalises every zero to ``+0.0`` — after which the result
            # is bitwise identical to the scatter (verified down to the
            # uint32 view), including the untouched-slot zeros.
            winner = self._argmax
            dx0 = dx[:, :, 0]
            dx1 = dx[:, :, 1]
            np.multiply(grad, winner, out=dx1)
            np.subtract(grad, dx1, out=dx0)  # winners: grad-grad = +0.0
            np.add(dx1, 0.0, out=dx1)
        else:
            dx.fill(0.0)  # the scatter only writes the winning slots
            np.put_along_axis(
                dx,
                self._argmax[:, :, np.newaxis, :],
                grad[:, :, np.newaxis, :],
                axis=2,
            )
        dx = dx.reshape(batch, out_len * self.pool_size, channels)
        if out_len * self.pool_size < length:
            pad = np.zeros(
                (batch, length - out_len * self.pool_size, channels),
                dtype=dx.dtype,
            )
            dx = np.concatenate([dx, pad], axis=1)
        return dx


class Flatten(Layer):
    """Collapse all per-sample axes into one."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape):
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)

    def forward(self, x, training=False):
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._x_shape)


class Reshape(Layer):
    """Reshape per-sample data, e.g. (308,) -> (308, 1) for Conv1D input."""

    def __init__(self, target_shape: Tuple[int, ...]) -> None:
        super().__init__()
        self.target_shape = tuple(target_shape)
        self._x_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape):
        in_size = 1
        for dim in input_shape:
            in_size *= dim
        out_size = 1
        for dim in self.target_shape:
            out_size *= dim
        if in_size != out_size:
            raise ValueError(
                f"cannot reshape {input_shape} (size {in_size}) "
                f"to {self.target_shape} (size {out_size})"
            )
        return self.target_shape

    def forward(self, x, training=False):
        self._x_shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad):
        return grad.reshape(self._x_shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    With ``seed=None`` (the default) the layer derives its mask stream
    from the build-time model rng via ``Generator.spawn`` — every
    Dropout in a stack gets an *independent* stream tied to the model
    seed, and spawning does not advance the parent stream, so the
    weight initialisation of later layers is unaffected.  An explicit
    integer ``seed`` pins the stream directly (legacy behaviour, used
    by tests that exercise a lone layer without a surrounding model).
    """

    def __init__(self, rate: float, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must lie in [0, 1)")
        self.rate = rate
        self.seed = seed
        self._rng = np.random.default_rng(0 if seed is None else seed)
        self._mask: Optional[np.ndarray] = None

    def build(self, input_shape, rng) -> None:
        if self.seed is None:
            self._rng = rng.spawn(1)[0]
        else:
            self._rng = np.random.default_rng(self.seed)
        self.built = True

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        if x.dtype == FAST_DTYPE:
            # Single-precision fast path (tolerance-only, never pinned):
            # keep the mask as booleans with a separate 1/keep scale — no
            # float mask materialisation.  The uniforms are still drawn
            # in float64 exactly like the reference path, so the mask
            # stream is *dtype-invariant*: a float32 model drops the same
            # units as its float64 twin and the parity gap stays pure
            # arithmetic, not resampling noise.
            r = self._buffer("rand", x.shape, np.float64)
            self._rng.random(out=r)
            mask = self._buffer("mask", x.shape, np.bool_)
            np.less(r, keep, out=mask)
            self._mask = mask
            out = self._buffer("out", x.shape, x.dtype)
            np.multiply(x, mask, out=out)
            out *= 1.0 / keep
            return out
        # float64 reference: this exact draw/compare/divide sequence is
        # what the determinism pins and the golden values are stated
        # against — do not reorder.
        mask = ((self._rng.random(x.shape) < keep) / keep).astype(
            x.dtype, copy=False
        )
        self._mask = mask
        out = self._buffer("out", x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad):
        if self._mask is None:
            return grad
        if self._mask.dtype == np.bool_:
            np.multiply(grad, self._mask, out=grad)
            grad *= 1.0 / (1.0 - self.rate)
            return grad
        np.multiply(grad, self._mask, out=grad)
        return grad
