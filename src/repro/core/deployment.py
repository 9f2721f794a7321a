"""Continuous-deployment simulator — the §4.9 operating mode.

The paper's system "fetch[es] the latest tweets and news every 2 hours";
after each dataset update the algorithms re-run "from checkpoints or from
scratch", and checkpoints "alleviate the need to train the neural models
each time the datasets are updated".

:class:`DeploymentSimulator` replays that loop over a generated world:
each cycle appends the documents created since the previous cutoff to a
:class:`repro.streaming.IncrementalPipeline`, folds them in O(new data),
and (re)trains the audience-interest model — warm-starting from the
previous cycle's weights when available.
The per-cycle reports let callers verify the §4.9 claim that warm starts
converge in fewer epochs than cold starts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..datagen import World
from ..datasets import train_validation_split
from ..datasets.splits import Split
from ..nn import EarlyStopping, accuracy, build_paper_network, one_hot
from ..resilience import faults
from ..resilience.atomic import atomic_write, config_fingerprint
from ..store import Database
from .config import PipelineConfig
from .prediction import N_CLASSES

DEPLOY_STATE_VERSION = 1


@dataclass
class CycleReport:
    """What one refresh cycle saw and produced."""

    cycle: int
    cutoff: datetime
    n_articles: int
    n_tweets: int
    n_trending: int
    n_pairs: int
    n_event_tweets: int
    trained: bool
    warm_start: bool
    n_epochs: int
    validation_accuracy: float
    cycle_seconds: float


@dataclass
class DeploymentReport:
    """All cycles of one simulated deployment."""

    cycles: List[CycleReport] = field(default_factory=list)

    def cold_epochs(self) -> List[int]:
        """Epochs trained in each from-scratch (cold-start) cycle."""
        return [c.n_epochs for c in self.cycles if c.trained and not c.warm_start]

    def warm_epochs(self) -> List[int]:
        """Epochs trained in each checkpoint-resumed (warm-start) cycle."""
        return [c.n_epochs for c in self.cycles if c.trained and c.warm_start]

    def summary(self) -> str:
        lines = [
            f"{'cycle':<6}{'cutoff':<18}{'articles':<10}{'tweets':<8}"
            f"{'trending':<10}{'pairs':<7}{'records':<9}{'epochs':<8}"
            f"{'warm':<6}accuracy"
        ]
        for c in self.cycles:
            epochs = str(c.n_epochs) if c.trained else "-"
            warm = ("yes" if c.warm_start else "no") if c.trained else "-"
            acc = f"{c.validation_accuracy:.3f}" if c.trained else "-"
            lines.append(
                f"{c.cycle:<6}{c.cutoff:%Y-%m-%d %H:%M}  "
                f"{c.n_articles:<10}{c.n_tweets:<8}{c.n_trending:<10}"
                f"{c.n_pairs:<7}{c.n_event_tweets:<9}{epochs:<8}{warm:<6}{acc}"
            )
        return "\n".join(lines)


def _safe_split(
    n_samples: int,
    validation_fraction: float,
    seed: int,
    stratify: Optional[np.ndarray] = None,
) -> Split:
    """A train/validation split that survives the deployment's degenerate
    early-cycle datasets.

    ``train_validation_split`` requires two samples and may return an
    empty validation set (every stratum a singleton); the first cycles
    after startup produce exactly those shapes.  Here a single sample
    trains and validates on itself, and an empty validation set falls
    back to validating on the training set — degraded but defined, so a
    refresh cycle never dies on a thin corpus.
    """
    if n_samples < 2:
        single = np.zeros(n_samples, dtype=int)
        return Split(train=single, validation=single)
    split = train_validation_split(
        n_samples,
        validation_fraction=validation_fraction,
        seed=seed,
        stratify=stratify,
    )
    if len(split.validation) == 0:
        split = Split(train=split.train, validation=split.train)
    return split


def _weight_shapes(model) -> List[tuple]:
    """Parameter shapes of *model* in ``get_weights`` order."""
    return [
        param.shape
        for layer in model.layers
        for _name, param, _grad in layer.parameters()
    ]


def _weights_compatible(model, weights: Optional[Sequence[np.ndarray]]) -> bool:
    """True when *weights* can be loaded into *model* shape-for-shape.

    The warm-start fallback must not rely on ``set_weights`` raising
    halfway through a partial load: an explicit pre-check keeps the
    model untouched when the feature width changed between cycles.
    """
    if weights is None:
        return False
    shapes = _weight_shapes(model)
    return len(shapes) == len(weights) and all(
        expected == actual.shape for expected, actual in zip(shapes, weights)
    )


def _cycle_to_json(report: CycleReport) -> dict:
    """JSON-able form of one cycle report (datetime → isoformat)."""
    data = asdict(report)
    data["cutoff"] = report.cutoff.isoformat()
    return data


def _cycle_from_json(data: dict) -> CycleReport:
    """Rebuild a cycle report persisted by :func:`_cycle_to_json`."""
    data = dict(data)
    data["cutoff"] = datetime.fromisoformat(data["cutoff"])
    return CycleReport(**data)


class DeploymentSimulator:
    """Replays the paper's periodic refresh loop over a world."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        refresh: timedelta = timedelta(hours=2),
        variant: str = "A2",
        network: str = "MLP 1",
        target: str = "likes",
    ) -> None:
        if refresh <= timedelta(0):
            raise ValueError("refresh interval must be positive")
        self.config = config or PipelineConfig()
        self.refresh = refresh
        self.variant = variant
        self.network = network
        self.target = target

    # -- deployment state persistence ---------------------------------------

    def _state_fingerprint(self, world: World) -> str:
        """Fingerprint binding a state file to this simulator's setup."""
        return config_fingerprint(
            self.config,
            world_key=(
                f"deploy:{self.variant}:{self.network}:{self.target}:"
                f"{self.refresh.total_seconds()}:{len(world.news)}:"
                f"{len(world.tweets)}"
            ),
        )

    def _save_state(
        self,
        checkpoint_dir: str,
        world: World,
        report: DeploymentReport,
        cutoff: datetime,
        next_cycle: int,
        previous_weights: Optional[List[np.ndarray]],
    ) -> None:
        """Persist cycle reports + model weights after a completed cycle."""
        os.makedirs(checkpoint_dir, exist_ok=True)
        weights_path = os.path.join(checkpoint_dir, "weights.npz")
        if previous_weights is not None:
            np.savez(
                weights_path,
                **{f"w{i}": w for i, w in enumerate(previous_weights)},
            )
        state = {
            "version": DEPLOY_STATE_VERSION,
            "fingerprint": self._state_fingerprint(world),
            "cycles": [_cycle_to_json(c) for c in report.cycles],
            "cutoff": cutoff.isoformat(),
            "next_cycle": next_cycle,
            "has_weights": previous_weights is not None,
        }
        atomic_write(
            os.path.join(checkpoint_dir, "deployment.json"),
            (json.dumps(state, indent=2) + "\n").encode("utf-8"),
        )
        obs.counter("resilience.deployment.state_saved").inc()

    def _load_state(self, checkpoint_dir: str, world: World) -> Optional[dict]:
        """Load a resumable deployment state, or None when absent/stale."""
        path = os.path.join(checkpoint_dir, "deployment.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if state.get("version") != DEPLOY_STATE_VERSION:
            return None
        if state.get("fingerprint") != self._state_fingerprint(world):
            return None
        if state.get("has_weights"):
            weights_path = os.path.join(checkpoint_dir, "weights.npz")
            try:
                with np.load(weights_path) as data:
                    state["weights"] = [
                        data[f"w{i}"] for i in range(len(data.files))
                    ]
            except (FileNotFoundError, OSError):
                return None
        else:
            state["weights"] = None
        return state

    def _serve_dir(self, serve, checkpoint_dir: Optional[str]) -> Optional[str]:
        """Resolve the ``serve`` argument of :meth:`run` to a directory.

        ``serve=True`` exports under ``<checkpoint_dir>/artifact`` (and
        therefore requires a checkpoint dir); a string is used as the
        artifact directory itself; falsy disables the handoff.
        """
        if not serve:
            return None
        if isinstance(serve, str):
            return serve
        if checkpoint_dir is None:
            raise ValueError(
                "serve=True requires checkpoint_dir (or pass serve=<path>)"
            )
        return os.path.join(checkpoint_dir, "artifact")

    def _export_artifact(
        self,
        serve_dir: str,
        model,
        embeddings,
        cycle: int,
        cutoff: datetime,
        validation_accuracy: float,
    ) -> None:
        """Hand the freshly trained cycle model to the serving layer.

        The export is a full :func:`repro.serving.save_artifact` — a
        running ``repro serve`` process can hot-swap to it via
        ``POST /swap`` as soon as the cycle completes (the paper's
        2-hour refresh feeding the live scorer).
        """
        from ..serving.artifacts import save_artifact

        save_artifact(
            serve_dir,
            model=model,
            embeddings=embeddings,
            variant=self.variant,
            network=self.network,
            config=self.config,
            metadata={
                "cycle": cycle,
                "cutoff": cutoff.isoformat(),
                "target": self.target,
                "validation_accuracy": validation_accuracy,
            },
        )
        obs.counter("serving.artifact_exports").inc()

    @staticmethod
    def _feed_incremental(
        incremental,
        world: World,
        previous_cutoff: Optional[datetime],
        cutoff: datetime,
    ) -> int:
        """Append the documents revealed in ``(previous_cutoff, cutoff]``.

        Source documents are stored in ``created_at`` order, so the fed
        stream arrives time-sorted: after each feed the incremental
        pipeline holds exactly the documents created up to *cutoff*, in
        the order a batch run over that slice would see them.
        """
        fed = 0
        for name, append in (
            ("news", incremental.append_news),
            ("tweets", incremental.append_tweets),
        ):
            fresh = [
                doc
                for doc in world.database[name].find()
                if doc["created_at"] <= cutoff
                and (
                    previous_cutoff is None
                    or doc["created_at"] > previous_cutoff
                )
            ]
            if fresh:
                fed += append(fresh).accepted
        return fed

    def run(
        self,
        world: World,
        n_cycles: int = 3,
        start_fraction: float = 0.6,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        serve=False,
    ) -> DeploymentReport:
        """Simulate *n_cycles* refreshes starting at *start_fraction* of
        the world's timeline (the deployment begins with a backlog).

        With *checkpoint_dir*, completed-cycle state (reports, cutoff,
        model weights) is persisted after every cycle; with *resume*
        also set, a previously killed deployment continues at the first
        unfinished cycle — warm-starting from the persisted weights —
        instead of replaying from cycle 0.  Stale state (different
        config, world, or simulator setup) is ignored, not trusted.

        With *serve* (True, or an artifact directory path), every cycle
        that trains a model also exports a ``repro.serving`` artifact —
        the online half of §4.9 picks it up via hot-swap.
        """
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if not 0.0 < start_fraction <= 1.0:
            raise ValueError("start_fraction must lie in (0, 1]")
        serve_dir = self._serve_dir(serve, checkpoint_dir)
        # Imported lazily: repro.streaming imports repro.core, so a
        # top-level import here would be circular.
        from ..streaming import IncrementalPipeline

        incremental = IncrementalPipeline(
            self.config,
            database=Database(
                "streaming-deploy", shard_count=world.database.shard_count
            ),
        )
        previous_cutoff: Optional[datetime] = None
        report = DeploymentReport()
        total = world.config.end - world.config.start
        cutoff = world.config.start + total * start_fraction
        first_cycle = 0
        previous_weights: Optional[List[np.ndarray]] = None

        if resume and checkpoint_dir is not None:
            state = self._load_state(checkpoint_dir, world)
            if state is not None and state["next_cycle"] > 0:
                report.cycles.extend(
                    _cycle_from_json(c) for c in state["cycles"]
                )
                cutoff = datetime.fromisoformat(state["cutoff"])
                first_cycle = int(state["next_cycle"])
                previous_weights = state["weights"]
                obs.counter("resilience.deployment.resumed").inc()

        for cycle in range(first_cycle, n_cycles):
            with obs.span("deployment.cycle") as cycle_span:
                cycle_span.annotate(cycle=cycle)
                faults.inject("deployment.cycle")
                started = time.perf_counter()
                n_fed = self._feed_incremental(
                    incremental, world, previous_cutoff, cutoff
                )
                cycle_span.annotate(n_fed=n_fed)
                previous_cutoff = cutoff
                result = incremental.cycle()

                trained = False
                warm = False
                n_epochs = 0
                val_accuracy = 0.0
                records = result.event_tweets
                if records and self.variant in result.datasets:
                    dataset = result.datasets[self.variant]
                    labels = (
                        dataset.y_likes
                        if self.target == "likes"
                        else dataset.y_retweets
                    )
                    split = _safe_split(
                        dataset.n_samples,
                        validation_fraction=self.config.validation_fraction,
                        seed=self.config.seed,
                        stratify=labels,
                    )
                    model = build_paper_network(
                        self.network,
                        input_dim=dataset.n_features,
                        seed=self.config.seed,
                    )
                    if _weights_compatible(model, previous_weights):
                        model.set_weights(previous_weights)
                        warm = True
                    history = model.fit(
                        dataset.X[split.train],
                        one_hot(labels[split.train], N_CLASSES),
                        epochs=self.config.max_epochs,
                        batch_size=self.config.batch_size,
                        early_stopping=EarlyStopping(
                            patience=self.config.early_stopping_patience
                        ),
                    )
                    previous_weights = model.get_weights()
                    val_pred = model.predict(dataset.X[split.validation])
                    val_accuracy = accuracy(labels[split.validation], val_pred)
                    n_epochs = history.epochs
                    trained = True
                    if serve_dir is not None:
                        self._export_artifact(
                            serve_dir,
                            model,
                            result.embeddings,
                            cycle,
                            cutoff,
                            val_accuracy,
                        )
                cycle_span.annotate(trained=trained, warm_start=warm)

                report.cycles.append(
                    CycleReport(
                        cycle=cycle,
                        cutoff=cutoff,
                        n_articles=len(incremental.news_ed),
                        n_tweets=len(incremental.twitter_ed),
                        n_trending=len(result.trending),
                        n_pairs=result.correlation.n_pairs,
                        n_event_tweets=len(records),
                        trained=trained,
                        warm_start=warm,
                        n_epochs=n_epochs,
                        validation_accuracy=val_accuracy,
                        cycle_seconds=time.perf_counter() - started,
                    )
                )
                cutoff = min(cutoff + self.refresh, world.config.end)
                if checkpoint_dir is not None:
                    self._save_state(
                        checkpoint_dir,
                        world,
                        report,
                        cutoff,
                        cycle + 1,
                        previous_weights,
                    )
        return report
