"""Optimizers: SGD with momentum (Eqs 13–14), ADAGRAD (Eq 15),
ADADELTA (Eq 16) and Adam.

The paper's best configurations are SGD(lr=0.5) and ADADELTA(lr=2) —
Keras's ADADELTA applies the learning rate as a multiplier on the Eq-16
update, which we replicate so those hyperparameters transfer.

Per-parameter state (momentum, accumulators) is keyed by a stable
``(owner handle, parameter name)`` pair supplied by the caller
(``Sequential`` passes each layer's build handle).  Keying by
``id(param)`` — the original scheme — is unsound: ids are reused after
garbage collection and ``Sequential.build()`` reallocates parameter
arrays, so state could silently attach to the wrong parameter and stale
slots leaked forever.  Callers without a handle (direct ``step`` calls
in tests) fall back to identity keys whose slot pins a strong reference
to the array, which both prevents id reuse and lets the slot detect a
mismatched array.

All updates run **in place** through per-slot scratch buffers, so a
step allocates no temporaries; ``tests/golden/training.json`` pins the
float64 results of each optimizer.  Slot entries whose name starts with
an underscore (scratch, the pinned ``__param__`` ref) are transient and
excluded from checkpoints.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

_EPS = 1e-7


class Optimizer:
    """Base optimizer: per-parameter state keyed by stable handles."""

    def __init__(self) -> None:
        self._state: Dict[Tuple[Hashable, str], Dict[str, np.ndarray]] = {}

    def _slot(
        self, key: Tuple[Hashable, str], param: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """The state dict for *key*, reset if it no longer matches *param*.

        Every slot pins the array it belongs to under ``__param__``; if
        the same key comes back with a *different* array (an identity
        key whose id was reused, or a rebuilt layer reusing a handle),
        the stale state is discarded rather than silently applied.
        """
        slot = self._state.get(key)
        if slot is None or slot.get("__param__") is not param:
            slot = {"__param__": param}
            self._state[key] = slot
        return slot

    @staticmethod
    def _slot_state(
        slot: Dict[str, np.ndarray], name: str, param: np.ndarray
    ) -> np.ndarray:
        """Persistent state array *name* in *slot*, zero-initialised."""
        arr = slot.get(name)
        if arr is None or arr.shape != param.shape or arr.dtype != param.dtype:
            arr = np.zeros_like(param)
            slot[name] = arr
        return arr

    @staticmethod
    def _slot_buffer(
        slot: Dict[str, np.ndarray], name: str, param: np.ndarray
    ) -> np.ndarray:
        """Transient scratch array *name* in *slot* (uninitialised)."""
        buf = slot.get(name)
        if buf is None or buf.shape != param.shape or buf.dtype != param.dtype:
            buf = np.empty_like(param)
            slot[name] = buf
        return buf

    def step(
        self,
        parameters: Iterable[Tuple[str, np.ndarray, np.ndarray]],
        owner: Optional[str] = None,
    ) -> None:
        """Update every (name, param, grad) triple in place.

        *owner* is the stable handle of the layer that owns the
        parameters; without one, state falls back to identity keys.
        """
        for name, param, grad in parameters:
            if owner is not None:
                key: Tuple[Hashable, str] = (owner, name)
            else:
                key = (id(param), name)
            self._update(self._slot(key, param), param, grad)

    def forget(self, owner_prefix: str) -> int:
        """Drop state for owners whose handle starts with *owner_prefix*.

        ``Sequential.build`` calls this on rebuild so slots belonging to
        the replaced parameter arrays are pruned instead of leaking.
        Returns the number of slots dropped.
        """
        stale = [
            key
            for key in self._state
            if isinstance(key[0], str) and key[0].startswith(owner_prefix)
        ]
        for key in stale:
            del self._state[key]
        return len(stale)

    def peek(self, owner: str, name: str) -> Dict[str, np.ndarray]:
        """The persistable state entries for (*owner*, *name*), if any.

        Transient entries (leading underscore, the ``__param__`` pin)
        are excluded — this is the checkpoint view of the slot.
        """
        slot = self._state.get((owner, name), {})
        return {
            entry: value
            for entry, value in slot.items()
            if not entry.startswith("_")
        }

    def restore(
        self,
        owner: str,
        name: str,
        param: np.ndarray,
        entries: Dict[str, np.ndarray],
    ) -> None:
        """Install checkpointed state *entries* for (*owner*, *name*)."""
        slot = {"__param__": param}
        for entry, value in entries.items():
            value = np.asarray(value)
            if value.shape != param.shape:
                raise ValueError(
                    f"optimizer state {entry!r} for {owner}.{name} has shape "
                    f"{value.shape}, parameter has {param.shape}"
                )
            slot[entry] = np.array(value, dtype=param.dtype)
        self._state[(owner, name)] = slot

    def extra_state(self) -> Dict[str, float]:
        """Scalar optimizer state to checkpoint (e.g. Adam's step count)."""
        return {}

    def load_extra_state(self, extra: Dict[str, np.ndarray]) -> None:
        """Restore scalars produced by :meth:`extra_state`."""

    def _update(
        self, slot: Dict[str, np.ndarray], param: np.ndarray, grad: np.ndarray
    ) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with exponential-decay momentum.

    Eq 14: Δw(t) = α Δw(t-1) - η γ_t, with α the decay factor and η the
    global learning rate.
    """

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum

    def _update(self, slot, param, grad):
        scratch = self._slot_buffer(slot, "_scratch", param)
        np.multiply(grad, self.learning_rate, out=scratch)
        if self.momentum > 0.0:
            velocity = self._slot_state(slot, "velocity", param)
            velocity *= self.momentum
            velocity -= scratch
            param += velocity
        else:
            param -= scratch


class Adagrad(Optimizer):
    """ADAGRAD (Eq 15): per-dimension step scaled by accumulated grad norm."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate

    def _update(self, slot, param, grad):
        accum = self._slot_state(slot, "accumulator", param)
        s1 = self._slot_buffer(slot, "_scratch", param)
        s2 = self._slot_buffer(slot, "_scratch2", param)
        np.multiply(grad, grad, out=s1)
        accum += s1
        np.sqrt(accum, out=s1)
        s1 += _EPS
        np.multiply(grad, self.learning_rate, out=s2)
        s2 /= s1
        param -= s2


class Adadelta(Optimizer):
    """ADADELTA (Eq 16): RMS-ratio update, no hand-tuned base rate needed.

    Δw(t) = -(RMS[Δw]_{t-1} / RMS[γ]_t) γ_t.  The *learning_rate* is a
    final multiplier (Keras semantics), enabling the paper's lr=2 setting.
    """

    def __init__(self, learning_rate: float = 1.0, rho: float = 0.95) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        self.learning_rate = learning_rate
        self.rho = rho

    def _update(self, slot, param, grad):
        accum_grad = self._slot_state(slot, "accum_grad", param)
        accum_update = self._slot_state(slot, "accum_update", param)
        s1 = self._slot_buffer(slot, "_scratch", param)
        s2 = self._slot_buffer(slot, "_scratch2", param)
        accum_grad *= self.rho
        np.multiply(grad, 1.0 - self.rho, out=s1)
        s1 *= grad
        accum_grad += s1
        np.add(accum_update, _EPS, out=s1)
        np.sqrt(s1, out=s1)
        np.add(accum_grad, _EPS, out=s2)
        np.sqrt(s2, out=s2)
        s1 /= s2
        s1 *= grad  # s1 is now the Eq-16 update
        accum_update *= self.rho
        np.multiply(s1, 1.0 - self.rho, out=s2)
        s2 *= s1
        accum_update += s2
        np.multiply(s1, self.learning_rate, out=s2)
        param -= s2


class Adam(Optimizer):
    """Adam — not in the paper, included as the modern reference point
    for the optimizer ablation bench."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
    ) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self._t = 0

    def step(self, parameters, owner=None):
        self._t += 1
        super().step(list(parameters), owner=owner)

    def extra_state(self):
        return {"t": float(self._t)}

    def load_extra_state(self, extra):
        if "t" in extra:
            self._t = int(np.asarray(extra["t"]).item())

    def _update(self, slot, param, grad):
        m = self._slot_state(slot, "m", param)
        v = self._slot_state(slot, "v", param)
        s1 = self._slot_buffer(slot, "_scratch", param)
        s2 = self._slot_buffer(slot, "_scratch2", param)
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad
        v += s1
        np.divide(m, 1.0 - self.beta1 ** self._t, out=s1)  # m_hat
        np.divide(v, 1.0 - self.beta2 ** self._t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += _EPS
        np.multiply(s1, self.learning_rate, out=s1)
        s1 /= s2
        param -= s1


OPTIMIZERS = {
    "sgd": SGD,
    "adagrad": Adagrad,
    "adadelta": Adadelta,
    "adam": Adam,
}


def get_optimizer(name, **kwargs) -> Optimizer:
    """Resolve an optimizer by name (instances pass through)."""
    if isinstance(name, Optimizer):
        return name
    if name not in OPTIMIZERS:
        raise KeyError(f"unknown optimizer: {name!r}")
    return OPTIMIZERS[name](**kwargs)
