"""Sequential model: the Keras-like training loop of the reproduction.

Ties layers, loss, and optimizer together with mini-batch training, early
stopping, validation tracking, and epoch timing (the Table-10 scalability
study reports milliseconds per epoch).

Two training paths share the same weights and contracts:

* the default float64 path — the bitwise-deterministic reference every
  pin is stated against, including the committed values in
  ``tests/golden/training.json``;
* the opt-in float32 path (``Sequential(dtype="float32")`` or
  ``REPRO_NN_DTYPE=float32``) — tolerance-comparable to float64 and
  never pinned bitwise.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .callbacks import EarlyStopping, History
from .contracts import check_fit, check_predict
from .dtypes import resolve_dtype
from .layers import Layer
from .losses import Loss, get_loss
from .metrics import accuracy
from .optimizers import Optimizer, get_optimizer


class Sequential:
    """A stack of layers trained end-to-end.

    >>> model = Sequential([Dense(16, activation="relu"),
    ...                     Dense(3, activation="softmax")])
    >>> model.compile(optimizer=SGD(0.5), loss="categorical_crossentropy")
    >>> model.fit(X, Y, epochs=100, batch_size=32)      # doctest: +SKIP
    """

    _uids = itertools.count()

    def __init__(
        self,
        layers: Optional[Sequence[Layer]] = None,
        seed: int = 0,
        dtype=None,
    ) -> None:
        self.layers: List[Layer] = list(layers) if layers else []
        self.seed = seed
        self.dtype = resolve_dtype(dtype)
        self.loss: Optional[Loss] = None
        self.optimizer: Optional[Optimizer] = None
        self._input_shape: Optional[Tuple[int, ...]] = None
        self._uid = next(Sequential._uids)
        self._build_generation = 0

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        self.layers.append(layer)
        return self

    # -- lifecycle -----------------------------------------------------------

    def compile(self, optimizer="sgd", loss="categorical_crossentropy") -> "Sequential":
        """Attach the optimizer and loss (names or instances)."""
        self.optimizer = get_optimizer(optimizer)
        self.loss = get_loss(loss)
        return self

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Allocate every layer's parameters for per-sample *input_shape*.

        Rebuilding reallocates the parameter arrays, so any optimizer
        state attached to this model's previous build is pruned — stale
        momentum must never apply to freshly initialised weights.
        """
        if self.optimizer is not None:
            self.optimizer.forget(f"m{self._uid}.")
        self._build_generation += 1
        rng = np.random.default_rng(self.seed)
        shape = tuple(input_shape)
        params_below = False
        for index, layer in enumerate(self.layers):
            layer.handle = f"m{self._uid}.g{self._build_generation}.L{index}"
            layer.dtype = self.dtype
            # A layer only has to produce an input gradient if some
            # trainable layer below it will consume it; the bottom of
            # the stack skips that work.
            layer.need_input_grad = params_below
            layer.build(shape, rng)
            shape = layer.output_shape(shape)
            params_below = params_below or layer.num_parameters > 0
        self._input_shape = tuple(input_shape)

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    # -- forward / backward ------------------------------------------------------

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape for a per-sample *input_shape*."""
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = tuple(layer.output_shape(shape))
        return shape

    @check_predict
    def predict(
        self,
        X: np.ndarray,
        batch_size: int = 1024,
        pad_to: Optional[int] = None,
    ) -> np.ndarray:
        """Forward pass in inference mode (dropout disabled).

        With ``pad_to=m`` every forward pass runs on exactly *m* rows:
        each chunk of up to *m* samples is padded (repeating its last
        row) to *m* before the layer stack and trimmed afterwards.  BLAS
        matmul kernels differ by row count, so the same sample can
        produce ULP-different outputs depending on how many neighbours
        share its batch; a fixed shape makes ``predict`` bitwise
        invariant to request batching — the serving layer relies on this
        for online/offline parity (``batch_size`` is forced to *m*).
        """
        X = np.asarray(X, dtype=self.dtype)
        obs.counter("nn.predict_calls").inc()
        obs.counter("nn.predict_rows").inc(len(X))
        if pad_to is not None:
            if pad_to < 1:
                raise ValueError("pad_to must be >= 1")
            batch_size = pad_to
        if len(X) == 0:
            # Empty input: no forward pass, but the output must still
            # carry the model's per-sample shape (e.g. (0, n_classes))
            # so downstream concatenation/argmax code stays total.
            return np.zeros((0,) + self.output_shape(X.shape[1:]), dtype=self.dtype)
        outputs = []
        for start in range(0, len(X), batch_size):
            batch = X[start:start + batch_size]
            n_rows = len(batch)
            if pad_to is not None and n_rows < pad_to:
                batch = np.concatenate(
                    [batch, np.repeat(batch[-1:], pad_to - n_rows, axis=0)]
                )
            for layer in self.layers:
                batch = layer.forward(batch, training=False)
            # Copy: the fused layers return views of reusable buffers
            # that the next chunk's forward pass overwrites.
            outputs.append(batch[:n_rows].copy())
        return np.concatenate(outputs, axis=0)

    def predict_classes(self, X: np.ndarray) -> np.ndarray:
        """Argmax class labels."""
        return np.argmax(self.predict(X), axis=1)

    def _forward(self, X: np.ndarray) -> np.ndarray:
        out = X
        for layer in self.layers:
            out = layer.forward(out, training=True)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            if grad is None:
                # The layer skipped its input gradient (no trainable
                # layer below it) — nothing left to propagate.
                break

    def train_on_batch(self, X: np.ndarray, Y: np.ndarray) -> float:
        """One optimization step on a batch; returns the batch loss."""
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("model not compiled")
        obs.counter("nn.train_batches").inc()
        predicted = self._forward(X)
        loss_value = self.loss.value(predicted, Y)
        self._backward(self.loss.gradient(predicted, Y))
        for layer in self.layers:
            params = layer.parameters()
            if params:
                self.optimizer.step(params, owner=layer.handle)
        return loss_value

    # -- fit ----------------------------------------------------------------------

    @check_fit
    def fit(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        early_stopping: Optional[EarlyStopping] = None,
        shuffle: bool = True,
        verbose: bool = False,
        track_accuracy: bool = True,
    ) -> History:
        """Mini-batch training with optional validation and early stopping.

        The returned :class:`History` records per-epoch ``loss``,
        ``accuracy``, ``epoch_ms``, and (when validation data is given)
        ``val_loss`` / ``val_accuracy``.  The reported ``loss`` is the
        sample-weighted epoch mean, so a ragged final batch contributes
        in proportion to its size.  Pass ``track_accuracy=False`` to
        skip the per-epoch full-train accuracy pass — the scalability
        benchmarks do this so ``epoch_ms`` measures training alone.
        """
        X = np.asarray(X, dtype=self.dtype)
        Y = np.asarray(Y, dtype=self.dtype)
        if len(X) != len(Y):
            raise ValueError("X and Y lengths differ")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if self._input_shape is None:
            self.build(X.shape[1:])

        rng = np.random.default_rng(self.seed + 7)
        history = History()
        indices = np.arange(len(X))
        with obs.span("nn.fit") as fit_span:
            for epoch in range(epochs):
                started = time.perf_counter()
                if shuffle:
                    rng.shuffle(indices)
                epoch_loss = 0.0
                for start in range(0, len(X), batch_size):
                    batch_idx = indices[start:start + batch_size]
                    batch_loss = self.train_on_batch(X[batch_idx], Y[batch_idx])
                    epoch_loss += batch_loss * len(batch_idx)
                elapsed_ms = (time.perf_counter() - started) * 1000.0

                record = {
                    "loss": epoch_loss / len(X),
                    "epoch_ms": elapsed_ms,
                }
                if track_accuracy:
                    record["accuracy"] = accuracy(Y, self.predict(X))
                if validation_data is not None:
                    vx, vy = validation_data
                    vp = self.predict(np.asarray(vx, dtype=self.dtype))
                    record["val_loss"] = self.loss.value(
                        vp, np.asarray(vy, dtype=self.dtype)
                    )
                    record["val_accuracy"] = accuracy(vy, vp)
                history.record(**record)
                if verbose:
                    msg = ", ".join(f"{k}={v:.4f}" for k, v in record.items())
                    print(f"epoch {epoch + 1}/{epochs}: {msg}")
                if early_stopping is not None and early_stopping.update(history):
                    break
            fit_span.annotate(
                epochs=history.epochs,
                samples=len(X),
                batch_size=batch_size,
                parameters=self.num_parameters,
                final_loss=history.last("loss"),
            )
        return history

    def evaluate(self, X: np.ndarray, Y: np.ndarray) -> Tuple[float, float]:
        """(loss, accuracy) on a dataset."""
        if self.loss is None:
            raise RuntimeError("model not compiled")
        predicted = self.predict(np.asarray(X, dtype=self.dtype))
        Y = np.asarray(Y, dtype=self.dtype)
        return self.loss.value(predicted, Y), accuracy(Y, predicted)

    # -- checkpointing (§4.9: training continues from checkpoints) -----------------

    def get_weights(self) -> List[np.ndarray]:
        """Copies of every parameter array, in layer order."""
        weights: List[np.ndarray] = []
        for layer in self.layers:
            for _name, param, _grad in layer.parameters():
                weights.append(param.copy())
        return weights

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        flat = [param for layer in self.layers for _n, param, _g in layer.parameters()]
        if len(flat) != len(weights):
            raise ValueError(
                f"weight count mismatch: model has {len(flat)}, got {len(weights)}"
            )
        for param, value in zip(flat, weights):
            if param.shape != value.shape:
                raise ValueError(
                    f"shape mismatch: {param.shape} vs {value.shape}"
                )
            param[...] = value

    def save_checkpoint(self, path: str) -> None:
        """Persist weights — and optimizer state, if any — to ``.npz``.

        Optimizer slots are stored under position-based keys
        (``opt.L<layer>.<param>.<entry>``) plus scalar extras under
        ``optx.<name>``, so a resumed run continues with the exact
        momentum/accumulator state of the interrupted one.
        """
        arrays = {f"w{i}": w for i, w in enumerate(self.get_weights())}
        if self.optimizer is not None:
            for index, layer in enumerate(self.layers):
                if layer.handle is None:
                    continue
                for name, _param, _grad in layer.parameters():
                    for entry, value in self.optimizer.peek(
                        layer.handle, name
                    ).items():
                        arrays[f"opt.L{index}.{name}.{entry}"] = value
            for name, value in self.optimizer.extra_state().items():
                arrays[f"optx.{name}"] = np.asarray(value)
        np.savez(path, **arrays)

    def load_checkpoint(self, path: str) -> None:
        """Restore weights (and optimizer state) from :meth:`save_checkpoint`.

        The model must already be built with matching layer shapes.
        Checkpoints written before optimizer state was persisted load
        fine — they simply leave the optimizer state untouched.
        """
        data = np.load(path)
        n_weights = sum(
            1 for f in data.files if f.startswith("w") and f[1:].isdigit()
        )
        weights = [data[f"w{i}"] for i in range(n_weights)]
        self.set_weights(weights)
        if self.optimizer is None:
            return
        for index, layer in enumerate(self.layers):
            if layer.handle is None:
                continue
            for name, param, _grad in layer.parameters():
                prefix = f"opt.L{index}.{name}."
                entries: Dict[str, np.ndarray] = {
                    f[len(prefix):]: data[f]
                    for f in data.files
                    if f.startswith(prefix)
                }
                if entries:
                    self.optimizer.restore(layer.handle, name, param, entries)
        extras = {
            f[len("optx."):]: data[f] for f in data.files if f.startswith("optx.")
        }
        if extras:
            self.optimizer.load_extra_state(extras)
