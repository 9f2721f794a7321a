"""Latent Semantic Analysis via truncated SVD.

Listed in §3.2 as the other matrix-factorization topic model; included as a
baseline for the topic-quality ablation.  Topics are derived from the right
singular vectors; because LSA components carry sign, the dominant-magnitude
terms define a topic (the standard convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from ..text.vocabulary import Vocabulary
from ..weighting.matrix import DocumentTermMatrix
from .nmf import Topic


@dataclass
class LSAResult:
    """SVD output: document embeddings, components, singular values."""

    doc_embeddings: np.ndarray  # U * S, shape (n_docs, k)
    components: np.ndarray      # V^T, shape (k, vocab)
    singular_values: np.ndarray
    topics: List[Topic]


class LSA:
    """Truncated-SVD topic model over a document-term matrix."""

    def __init__(self, n_topics: int, seed: int = 0) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        self.n_topics = n_topics
        self.seed = seed

    def fit(
        self,
        matrix: Union[np.ndarray, sparse.spmatrix, DocumentTermMatrix],
        top_terms: int = 10,
    ) -> LSAResult:
        vocabulary: Optional[Vocabulary] = None
        if isinstance(matrix, DocumentTermMatrix):
            vocabulary = matrix.vocabulary
            A = matrix.matrix
        else:
            A = matrix
        A = sparse.csr_matrix(A).astype(np.float64)
        k = min(self.n_topics, min(A.shape) - 1)
        if k < 1:
            raise ValueError("matrix too small for truncated SVD")
        rng = np.random.default_rng(self.seed)
        v0 = rng.random(min(A.shape))
        U, S, Vt = svds(A, k=k, v0=v0)
        # svds returns singular values ascending; flip to descending.
        order = np.argsort(-S)
        U, S, Vt = U[:, order], S[order], Vt[order]

        topics: List[Topic] = []
        for t in range(k):
            row = Vt[t]
            cols = np.argsort(-np.abs(row))[:top_terms]
            terms = []
            for col in cols:
                name = vocabulary.term(int(col)) if vocabulary else str(int(col))
                terms.append((name, float(abs(row[col]))))
            topics.append(Topic(index=t, terms=terms))
        return LSAResult(
            doc_embeddings=U * S,
            components=Vt,
            singular_values=S,
            topics=topics,
        )
