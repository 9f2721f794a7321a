"""Committed training values: the oracle for the one float64 training path.

``tests/golden/training.json`` holds the final epoch loss and
``predict(X)`` for each case below, produced by the legacy
allocate-per-batch dispatch before it was deleted (the fused kernels
reproduced every value bit for bit). Each case re-trains with the
current code and must match within rtol=1e-9, atol=1e-12: tight
enough that a dropped bias add or a broken optimizer update fails,
loose enough to survive another BLAS build.

Covered: the paper's ``MLP 1`` and ``CNN 1`` (SGD, no dropout), and a
small MLP with Dropout(0.25) under each optimizer (SGD with momentum,
ADAGRAD, ADADELTA, Adam).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Dense, Dropout, Sequential, build_paper_network, one_hot
from repro.nn.optimizers import SGD, Adadelta, Adagrad, Adam

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "golden" / "training.json").read_text()
)
RTOL = GOLDEN["rtol"]
ATOL = GOLDEN["atol"]

OPTIMIZERS = {
    "sgd_momentum": lambda: SGD(0.1, momentum=0.9),
    "adagrad": Adagrad,
    "adadelta": Adadelta,
    "adam": Adam,
}


def _data(seed=3, n=96, dim=12, classes=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    Y = one_hot(rng.integers(0, classes, size=n), classes)
    return X, Y


def _mlp(optimizer, seed=5, dropout=0.25):
    model = Sequential(
        [
            Dense(16, activation="relu"),
            Dropout(dropout),
            Dense(3, activation="softmax"),
        ],
        seed=seed,
    )
    model.compile(optimizer=optimizer, loss="categorical_crossentropy")
    return model


def _check(name, model, X, Y):
    history = model.fit(X, Y, epochs=3, batch_size=32)
    golden = GOLDEN["cases"][name]
    np.testing.assert_allclose(
        history.metrics["loss"][-1], golden["loss"], rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        model.predict(X), np.array(golden["predict"]), rtol=RTOL, atol=ATOL
    )


def test_every_golden_case_is_checked():
    assert set(GOLDEN["cases"]) == {"MLP 1", "CNN 1"} | {
        f"mlp_dropout_{name}" for name in OPTIMIZERS
    }


@pytest.mark.parametrize("network", ["MLP 1", "CNN 1"])
def test_paper_network_matches_golden(network):
    X, Y = _data(n=128, dim=20)
    model = build_paper_network(network, input_dim=20, n_classes=3, seed=9)
    _check(network, model, X, Y)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_dropout_mlp_matches_golden(optimizer):
    X, Y = _data()
    _check(f"mlp_dropout_{optimizer}", _mlp(OPTIMIZERS[optimizer]()), X, Y)
