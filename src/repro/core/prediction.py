"""Audience Interest Prediction module (§4.8, §5.6).

Trains the paper's four network configurations (MLP 1/2, CNN 1/2) on any
of the A1..D2 datasets to predict the Table-2 likes or retweets class, and
runs the full Tables-8/9 experiment grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..datasets import Dataset, train_validation_split
from ..nn import (
    EarlyStopping,
    Sequential,
    accuracy,
    average_accuracy,
    build_paper_network,
    confusion_matrix,
    one_hot,
)

N_CLASSES = 3  # Table 2: three ordinal buckets
PAPER_NETWORKS = ("MLP 1", "MLP 2", "CNN 1", "CNN 2")


@dataclass
class TrainingOutcome:
    """One (dataset, network, target) training run."""

    dataset_name: str
    network_name: str
    target: str
    validation_accuracy: float
    validation_average_accuracy: float
    train_accuracy: float
    n_epochs: int
    epoch_ms_mean: float
    runtime_seconds: float
    confusion: np.ndarray = field(repr=False, default=None)
    model: Sequential = field(repr=False, default=None)


class AudienceInterestPredictor:
    """Train/evaluate harness around the paper's four configurations."""

    def __init__(
        self,
        max_epochs: int = 60,
        batch_size: int = 256,
        validation_fraction: float = 0.2,
        early_stopping_patience: int = 3,
        seed: int = 42,
        dtype: Optional[str] = None,
    ) -> None:
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.max_epochs = max_epochs
        self.batch_size = batch_size
        self.validation_fraction = validation_fraction
        self.early_stopping_patience = early_stopping_patience
        self.seed = seed
        self.dtype = dtype

    def _labels(self, dataset: Dataset, target: str) -> np.ndarray:
        if target == "likes":
            return dataset.y_likes
        if target == "retweets":
            return dataset.y_retweets
        raise ValueError(f"unknown target {target!r}; expected likes|retweets")

    def train(
        self,
        dataset: Dataset,
        network_name: str,
        target: str = "likes",
        keep_model: bool = False,
    ) -> TrainingOutcome:
        """Train one configuration on one dataset; returns the outcome."""
        labels = self._labels(dataset, target)
        split = train_validation_split(
            dataset.n_samples,
            validation_fraction=self.validation_fraction,
            seed=self.seed,
            stratify=labels,
        )
        if len(split.validation) == 0:
            # Degenerate tiny dataset: stratification kept every sample in
            # training; validate on the training set rather than crash.
            split = type(split)(train=split.train, validation=split.train)
        X_train = dataset.X[split.train]
        X_val = dataset.X[split.validation]
        y_train = one_hot(labels[split.train], N_CLASSES)
        y_val_labels = labels[split.validation]
        y_val = one_hot(y_val_labels, N_CLASSES)

        model = build_paper_network(
            network_name, input_dim=dataset.n_features, n_classes=N_CLASSES,
            seed=self.seed, dtype=self.dtype,
        )
        stopper = EarlyStopping(
            monitor="loss", patience=self.early_stopping_patience
        )
        started = time.perf_counter()
        history = model.fit(
            X_train,
            y_train,
            epochs=self.max_epochs,
            batch_size=self.batch_size,
            validation_data=(X_val, y_val),
            early_stopping=stopper,
        )
        runtime = time.perf_counter() - started

        val_pred = model.predict(X_val)
        return TrainingOutcome(
            dataset_name=dataset.name,
            network_name=network_name,
            target=target,
            validation_accuracy=accuracy(y_val_labels, val_pred),
            validation_average_accuracy=average_accuracy(
                y_val_labels, val_pred, N_CLASSES
            ),
            train_accuracy=history.last("accuracy") or 0.0,
            n_epochs=history.epochs,
            epoch_ms_mean=float(np.mean(history.metrics.get("epoch_ms", [0.0]))),
            runtime_seconds=runtime,
            confusion=confusion_matrix(
                y_val_labels, val_pred, N_CLASSES
            ),
            model=model if keep_model else None,
        )

    def run_grid(
        self,
        datasets: Dict[str, Dataset],
        target: str = "likes",
        networks: Sequence[str] = PAPER_NETWORKS,
    ) -> Dict[str, Dict[str, TrainingOutcome]]:
        """The Tables-8/9 grid: every dataset x every network.

        Returns ``{dataset_name: {network_name: outcome}}``.
        """
        grid: Dict[str, Dict[str, TrainingOutcome]] = {}
        for name in sorted(datasets):
            grid[name] = {}
            for network in networks:
                grid[name][network] = self.train(
                    datasets[name], network, target=target
                )
        return grid


def grid_to_accuracy_table(
    grid: Dict[str, Dict[str, TrainingOutcome]]
) -> Dict[str, Dict[str, float]]:
    """Collapse a grid to ``{dataset: {network: accuracy}}`` floats."""
    return {
        dataset: {
            network: outcome.validation_accuracy
            for network, outcome in row.items()
        }
        for dataset, row in grid.items()
    }


def format_accuracy_table(
    table: Dict[str, Dict[str, float]],
    networks: Sequence[str] = PAPER_NETWORKS,
) -> str:
    """Render an accuracy table in the paper's Tables-8/9 layout."""
    lines = ["Dataset  " + "  ".join(f"{n:>6}" for n in networks)]
    for dataset in sorted(table):
        row = table[dataset]
        cells = "  ".join(f"{row.get(n, float('nan')):6.2f}" for n in networks)
        lines.append(f"{dataset:<8} {cells}")
    return "\n".join(lines)
