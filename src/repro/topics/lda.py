"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The paper's design-choice discussion (§4.9) justifies NMF over LDA by
runtime and comparable quality on short and long texts; this implementation
exists so the `bench_ablation_nmf_vs_lda` benchmark can reproduce that
comparison.  Standard collapsed Gibbs sampler (Griffiths & Steyvers 2004)
with symmetric Dirichlet priors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..text.vocabulary import Vocabulary
from .nmf import Topic


@dataclass
class LDAResult:
    """Sampler output: document-topic and topic-term distributions."""

    doc_topic: np.ndarray  # theta, shape (n_docs, k)
    topic_term: np.ndarray  # phi, shape (k, vocab)
    topics: List[Topic]
    log_likelihood_history: List[float]

    def dominant_topic(self, doc_index: int) -> int:
        return int(np.argmax(self.doc_topic[doc_index]))


class LatentDirichletAllocation:
    """Collapsed Gibbs LDA with symmetric priors alpha and beta."""

    def __init__(
        self,
        n_topics: int,
        alpha: float = 0.1,
        beta: float = 0.01,
        n_iterations: int = 100,
        seed: int = 0,
    ) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.n_iterations = n_iterations
        self.seed = seed

    def fit(
        self,
        documents: Sequence[Sequence[str]],
        vocabulary: Optional[Vocabulary] = None,
        top_terms: int = 10,
    ) -> LDAResult:
        """Run the sampler over tokenized *documents*."""
        vocabulary = vocabulary or Vocabulary.from_documents(documents)
        encoded = [vocabulary.encode(doc) for doc in documents]
        n_docs = len(encoded)
        vocab_size = len(vocabulary)
        k = self.n_topics
        rng = np.random.default_rng(self.seed)

        doc_topic_counts = np.zeros((n_docs, k), dtype=np.int64)
        topic_term_counts = np.zeros((k, vocab_size), dtype=np.int64)
        topic_totals = np.zeros(k, dtype=np.int64)
        assignments: List[np.ndarray] = []

        for d, tokens in enumerate(encoded):
            z = rng.integers(0, k, size=len(tokens))
            assignments.append(z)
            for w, t in zip(tokens, z):
                doc_topic_counts[d, t] += 1
                topic_term_counts[t, w] += 1
                topic_totals[t] += 1

        history: List[float] = []
        for _iteration in range(self.n_iterations):
            for d, tokens in enumerate(encoded):
                z = assignments[d]
                for i, w in enumerate(tokens):
                    t = z[i]
                    doc_topic_counts[d, t] -= 1
                    topic_term_counts[t, w] -= 1
                    topic_totals[t] -= 1
                    # Full conditional p(z=t | rest).
                    weights = (
                        (doc_topic_counts[d] + self.alpha)
                        * (topic_term_counts[:, w] + self.beta)
                        / (topic_totals + self.beta * vocab_size)
                    )
                    weights_sum = weights.sum()
                    t = int(rng.choice(k, p=weights / weights_sum))
                    z[i] = t
                    doc_topic_counts[d, t] += 1
                    topic_term_counts[t, w] += 1
                    topic_totals[t] += 1
            history.append(self._log_likelihood(topic_term_counts, topic_totals, vocab_size))

        theta = (doc_topic_counts + self.alpha).astype(np.float64)
        theta /= theta.sum(axis=1, keepdims=True)
        phi = (topic_term_counts + self.beta).astype(np.float64)
        phi /= phi.sum(axis=1, keepdims=True)

        topics = []
        for t in range(k):
            order = np.argsort(-phi[t])[:top_terms]
            topics.append(
                Topic(
                    index=t,
                    terms=[(vocabulary.term(int(c)), float(phi[t, c])) for c in order],
                )
            )
        return LDAResult(
            doc_topic=theta,
            topic_term=phi,
            topics=topics,
            log_likelihood_history=history,
        )

    def _log_likelihood(
        self, topic_term_counts: np.ndarray, topic_totals: np.ndarray, vocab_size: int
    ) -> float:
        """Collapsed log p(w | z) up to a constant — sampler health metric."""
        from scipy.special import gammaln

        beta = self.beta
        value = 0.0
        for t in range(topic_term_counts.shape[0]):
            value += gammaln(topic_term_counts[t] + beta).sum()
            value -= gammaln(topic_totals[t] + beta * vocab_size)
        return float(value)
