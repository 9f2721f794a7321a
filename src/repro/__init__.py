"""repro — reproduction of "A Deep Learning Architecture for Audience
Interest Prediction of News Topic on Social Media" (Truică et al.,
EDBT 2021).

Subpackages
-----------
``repro.core``
    The paper's pipeline: trending-topic extraction, news↔Twitter event
    correlation, feature creation, and audience-interest prediction.
``repro.store``
    Embedded document store (MongoDB substitute).
``repro.text``
    Preprocessing substrate (tokenizer, lemmatizer, NER, stopwords).
``repro.weighting``
    TF/IDF/TFIDF/TFIDF_N and document-term matrices (Eqs 1–5).
``repro.topics``
    NMF (Eqs 6–8) plus LDA/LSA baselines and coherence metrics.
``repro.events``
    MABED event detection (Eqs 9–10).
``repro.embeddings``
    Word2Vec, pretrained-embedding stand-in, Doc2Vec variants, cosine.
``repro.nn``
    Numpy deep-learning framework (layers, Eqs 12–17, Figures 2–3).
``repro.datagen``
    Synthetic news+Twitter world generator (the data substitute).
``repro.datasets``
    Table-2 encodings, metadata vector, the A1..D2 datasets.
``repro.parallel``
    Seeded, order-preserving thread/process maps for the fan-out stages.
``repro.serving``
    Online inference: model registry with hot-swap, micro-batching
    scheduler, feature cache, stdlib HTTP endpoints (``repro serve``).

The names exported here (``build_world``, ``NewsDiffusionPipeline``,
...) are resolved on first use, so ``import repro`` alone — and any
subpackage such as ``repro.serving`` — loads only what it needs.

Quickstart
----------
>>> from repro import build_world, NewsDiffusionPipeline, small_config
>>> world = build_world()                          # doctest: +SKIP
>>> result = NewsDiffusionPipeline(small_config()).run(world)  # doctest: +SKIP
>>> print(result.summary())                        # doctest: +SKIP
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import (
        AudienceInterestPredictor,
        NewsDiffusionPipeline,
        PipelineConfig,
        PipelineResult,
        small_config,
    )
    from .datagen import World, WorldConfig, build_world
    from .parallel import parallel_map

__version__ = "1.0.0"

_LAZY = {
    "parallel_map": "repro.parallel",
    "NewsDiffusionPipeline": "repro.core",
    "PipelineResult": "repro.core",
    "PipelineConfig": "repro.core",
    "small_config": "repro.core",
    "AudienceInterestPredictor": "repro.core",
    "World": "repro.datagen",
    "WorldConfig": "repro.datagen",
    "build_world": "repro.datagen",
}


def __getattr__(name: str):
    """Resolve the lazily exported pipeline names (PEP 562)."""
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "parallel_map",
    "NewsDiffusionPipeline",
    "PipelineResult",
    "PipelineConfig",
    "small_config",
    "AudienceInterestPredictor",
    "World",
    "WorldConfig",
    "build_world",
    "__version__",
]
