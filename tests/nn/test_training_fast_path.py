"""The raw-speed training pass: the dtype knob and float32 parity.

Two contracts from the training fast path land here (the float64
results themselves are pinned by ``test_training_golden.py``):

* dtype resolution — explicit ``Sequential(dtype=...)`` beats
  ``REPRO_NN_DTYPE`` beats the float64 default, and float32 threads
  through parameters, activations and predictions;
* float32 training tracks the float64 reference within tolerance at
  Table-8 scale (it is never pinned bitwise).

Plus regression tests for the three bugfixes shipped with the pass:
optimizer state survives neither rebuilds nor id reuse, stacked
Dropouts draw distinct masks, and the epoch loss is sample-weighted.
"""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.nn import (
    DEFAULT_DTYPE,
    Dense,
    Dropout,
    Sequential,
    build_paper_network,
    one_hot,
    resolve_dtype,
)
from repro.nn.dtypes import DTYPE_ENV
from repro.nn.optimizers import SGD


def _data(seed=3, n=96, dim=12, classes=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)).astype(dtype)
    Y = one_hot(rng.integers(0, classes, size=n), classes).astype(dtype)
    return X, Y


def _mlp(seed=5, dtype=None, dropout=0.0):
    layers = [Dense(16, activation="relu")]
    if dropout > 0.0:
        layers.append(Dropout(dropout))
    layers.append(Dense(3, activation="softmax"))
    model = Sequential(layers, seed=seed, dtype=dtype)
    model.compile(optimizer=SGD(0.1, momentum=0.9), loss="categorical_crossentropy")
    return model


def _weights(model):
    return [p.copy() for layer in model.layers for _n, p, _g in layer.parameters()]


class TestDtypeResolution:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        assert resolve_dtype() == DEFAULT_DTYPE == np.dtype("float64")

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_dtype() == np.dtype("float32")

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_dtype("float64") == np.dtype("float64")

    @pytest.mark.parametrize("bad", ["float16", "int64", "bogus"])
    def test_rejects_unsupported(self, bad):
        with pytest.raises(ValueError):
            resolve_dtype(bad)

    def test_config_validates_nn_dtype(self):
        assert PipelineConfig(nn_dtype="float32").nn_dtype == "float32"
        assert PipelineConfig().nn_dtype is None
        with pytest.raises(ValueError, match="nn_dtype"):
            PipelineConfig(nn_dtype="float16")

    def test_float32_threads_through_model(self):
        X, Y = _data(dtype=np.float32)
        model = _mlp(dtype="float32", dropout=0.25)
        model.fit(X, Y, epochs=2, batch_size=32)
        for layer in model.layers:
            for _name, param, grad in layer.parameters():
                assert param.dtype == np.float32
                assert grad.dtype == np.float32
        assert model.predict(X).dtype == np.float32

    def test_architectures_accept_dtype(self):
        model = build_paper_network(
            "CNN 1", input_dim=24, n_classes=3, dtype="float32"
        )
        model.fit(*_data(dim=24), epochs=1, batch_size=32)
        assert all(
            p.dtype == np.float32
            for layer in model.layers
            for _n, p, _g in layer.parameters()
        )


class TestOptimizerRebuildState:
    """Bugfix: state keyed by (handle, name), pruned on rebuild."""

    def test_rebuild_starts_from_fresh_state(self):
        X, Y = _data()
        model = _mlp()
        model.fit(X, Y, epochs=3, batch_size=32)

        # Rebuild reallocates parameters; the momentum accumulated above
        # must not leak into the new arrays.
        model.build(X.shape[1:])
        model.train_on_batch(X[:32], Y[:32])
        after_rebuild = _weights(model)

        fresh = _mlp()
        fresh.build(X.shape[1:])
        fresh.train_on_batch(X[:32], Y[:32])
        for a, b in zip(after_rebuild, _weights(fresh)):
            assert np.array_equal(a, b)

    def test_rebuild_prunes_stale_slots(self):
        X, Y = _data()
        model = _mlp()
        model.fit(X, Y, epochs=1, batch_size=32)
        n_before = len(model.optimizer._state)
        assert n_before > 0
        model.build(X.shape[1:])
        # Every slot belonged to this model, so all were pruned.
        assert len(model.optimizer._state) == 0
        model.train_on_batch(X[:32], Y[:32])
        assert len(model.optimizer._state) == n_before

    def test_identity_slot_resets_on_different_array(self):
        # Fallback path (no owner handle): a key whose array no longer
        # matches must discard the stale slot instead of applying it.
        opt = SGD(0.1, momentum=0.9)
        param = np.ones(4)
        grad = np.ones(4)
        opt.step([("w", param, grad)])
        slot = opt._slot((id(param), "w"), param)
        assert np.any(slot["velocity"] != 0.0)
        impostor = np.ones(4)
        fresh_slot = opt._slot((id(param), "w"), impostor)
        assert "velocity" not in fresh_slot


class TestDropoutSeeding:
    """Bugfix: Dropout streams spawn from the build rng, not a fixed seed."""

    def test_stacked_dropouts_draw_distinct_masks(self):
        model = Sequential(
            [
                Dense(32, activation="relu"),
                Dropout(0.5),
                Dense(32, activation="relu"),
                Dropout(0.5),
            ],
            seed=0,
        )
        model.compile()
        model.build((12,))
        X = np.random.default_rng(1).normal(size=(64, 12))
        out = X
        for layer in model.layers:
            out = layer.forward(out, training=True)
        masks = [
            layer._mask for layer in model.layers if isinstance(layer, Dropout)
        ]
        assert len(masks) == 2
        assert masks[0].shape == masks[1].shape
        assert not np.array_equal(masks[0], masks[1])

    def test_masks_are_deterministic_across_models(self):
        X, Y = _data()
        runs = []
        for _ in range(2):
            model = _mlp(seed=11, dropout=0.4)
            model.fit(X, Y, epochs=2, batch_size=32)
            runs.append(_weights(model))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_explicit_seed_still_honoured(self):
        rng = np.random.default_rng(0)
        layers = [Dropout(0.5, seed=123), Dropout(0.5, seed=123)]
        for layer in layers:
            layer.build((8,), rng)
        X = np.ones((16, 8))
        for layer in layers:
            layer.forward(X, training=True)
        assert np.array_equal(layers[0]._mask, layers[1]._mask)


class TestEpochLossWeighting:
    """Bugfix: the reported epoch loss is the sample-weighted mean."""

    def test_two_batch_epoch_loss_is_sample_weighted(self):
        # 48 samples at batch_size 32 -> batches of 32 and 16.
        X, Y = _data(n=48, dim=8)
        model = _mlp(seed=21)
        history = model.fit(X, Y, epochs=1, batch_size=32, shuffle=False)

        # Replay the same two steps by hand on an identical model.
        replay = _mlp(seed=21)
        replay.build(X.shape[1:])
        l1 = replay.train_on_batch(X[:32], Y[:32])
        l2 = replay.train_on_batch(X[32:], Y[32:])

        expected = (l1 * 32 + l2 * 16) / 48
        assert history.metrics["loss"][0] == expected
        # The old per-batch mean is a genuinely different number here.
        assert history.metrics["loss"][0] != (l1 + l2) / 2


class TestFloat32Parity:
    """float32 tracks float64 within tolerance at Table-8 scale."""

    def test_mlp1_parity_at_table8_scale(self):
        rng = np.random.default_rng(17)
        n, dim = 512, 308  # Table-8 scale: 300-d embedding + metadata
        X64 = rng.normal(size=(n, dim))
        labels = rng.integers(0, 3, size=n)
        Y64 = one_hot(labels, 3)

        losses = {}
        preds = {}
        for dtype in ("float64", "float32"):
            model = build_paper_network(
                "MLP 1", input_dim=dim, n_classes=3, seed=31, dtype=dtype
            )
            history = model.fit(X64, Y64, epochs=3, batch_size=256)
            losses[dtype] = history.metrics["loss"][-1]
            preds[dtype] = model.predict_classes(X64)

        gap = abs(losses["float32"] - losses["float64"]) / abs(
            losses["float64"]
        )
        assert gap < 0.01, f"float32 loss diverged {gap:.2%} from float64"
        agreement = float(np.mean(preds["float32"] == preds["float64"]))
        assert agreement >= 0.95, (
            f"float32 class agreement {agreement:.1%} below 95%"
        )
