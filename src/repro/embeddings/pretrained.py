"""Pretrained-embedding stand-in for the GoogleNews word2vec model.

§4.9: the paper vectorizes with a word2vec pretrained on Google News
(3M words, 300 dimensions) because it generalizes better than anything
trainable on the collected data.  That 3.6 GB binary is unavailable
offline, so :class:`PretrainedEmbeddings` provides the same *interface*
(fixed word -> 300-d vector lookup with an out-of-vocabulary notion, which
drives the SW/RND/SWM distinction in §4.7) built from one of

* LSA over a background corpus (semantically structured vectors — the
  stand-in both pipelines use, see :meth:`lsa_from_matrix`).  The
  decomposition is one dense ``eigh`` of the V × V term Gram matrix
  (:func:`term_components`), not a truncated SVD of the much wider
  terms × documents matrix, and each component's sign is fixed (its
  largest-magnitude entry is positive), so the vectors are deterministic,
* a trained :class:`Word2Vec` model (:meth:`from_word2vec`), or
* deterministic hash-seeded Gaussian vectors (fast, collision-free, used
  by unit tests and as a filler for background-corpus gaps).

The ``coverage`` knob deliberately marks a slice of words as OOV, because
reproducing the paper's A/B/C dataset differences requires some tweet terms
to be missing from the "pretrained" model.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .word2vec import Word2Vec


def _hash_seed(word: str, salt: int) -> int:
    digest = hashlib.sha256(f"{salt}:{word}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def hash_vector(word: str, dim: int, salt: int = 0) -> np.ndarray:
    """Deterministic unit-norm Gaussian vector for *word*."""
    rng = np.random.default_rng(_hash_seed(word, salt))
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def term_components(matrix, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-*k* left singular pairs ``(U, S)`` of the terms × docs matrix.

    *matrix* is documents × terms (a :class:`DocumentTermMatrix`'s
    ``matrix``).  The left singular vectors of its transpose are the
    eigenvectors of the V × V term Gram matrix ``matrixᵀ · matrix`` and
    the singular values are the square roots of its eigenvalues, so one
    dense ``eigh`` on V × V replaces a truncated SVD.  Eigenvalues at or
    below ``V · eps · λ_max`` are rounding noise of the null space and
    count as zero, so those directions add exactly nothing.  Each
    component's sign is fixed so that its largest-magnitude entry
    (the first one on a tie) is positive.
    """
    gram = (matrix.T @ matrix).toarray()
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    eigenvalues = eigenvalues[::-1][:k]
    U = eigenvectors[:, ::-1][:, :k]
    floor = gram.shape[0] * np.finfo(np.float64).eps * max(eigenvalues[0], 0.0)
    S = np.sqrt(np.where(eigenvalues > floor, eigenvalues, 0.0))
    pivots = U[np.abs(U).argmax(axis=0), np.arange(k)]
    return U * np.where(pivots < 0, -1.0, 1.0), S


class PretrainedEmbeddings:
    """Immutable word -> vector store with explicit OOV behaviour.

    >>> emb = PretrainedEmbeddings.deterministic(["election", "vote"], dim=8)
    >>> "election" in emb
    True
    >>> emb.get("unknown") is None
    True
    """

    def __init__(self, vectors: Dict[str, np.ndarray], dim: int) -> None:
        for word, vector in vectors.items():
            if vector.shape != (dim,):
                raise ValueError(
                    f"vector for {word!r} has shape {vector.shape}, expected ({dim},)"
                )
        self._vectors = dict(vectors)
        self.dim = dim

    # -- constructors ------------------------------------------------------------

    @classmethod
    def deterministic(
        cls,
        words: Iterable[str],
        dim: int = 300,
        salt: int = 0,
    ) -> "PretrainedEmbeddings":
        """Hash-seeded vectors for *words* (unit norm, reproducible)."""
        return cls({w: hash_vector(w, dim, salt) for w in sorted(set(words))}, dim)

    @classmethod
    def from_word2vec(cls, model: Word2Vec) -> "PretrainedEmbeddings":
        """Freeze a trained :class:`Word2Vec` into a lookup store."""
        return cls(model.vectors(), model.vector_size)

    @classmethod
    def train_background_lsa(
        cls,
        corpus: Sequence[Sequence[str]],
        dim: int = 300,
        min_count: int = 2,
        coverage: float = 1.0,
        seed: int = 0,
    ) -> "PretrainedEmbeddings":
        """Fast background embeddings via LSA over a TFIDF term-doc matrix.

        Word2Vec training is the faithful route but costs minutes on large
        corpora; the leading left singular vectors of the term-document
        matrix, taken from an ``eigh`` of its term Gram matrix (see
        :meth:`lsa_from_matrix`), yield word vectors with the same
        property the pipeline needs — terms of the same topic land close
        together — in well under a second.  Vectors are unit-normalized
        and zero-padded up to *dim* when the corpus rank is smaller.
        *seed* only salts the hash-vector fallback for a corpus too small
        to decompose.
        """
        from ..text.vocabulary import Vocabulary
        from ..weighting.matrix import DocumentTermMatrix

        vocabulary = Vocabulary.from_documents(corpus, min_count=min_count)
        dtm = DocumentTermMatrix.from_documents_with_vocabulary(
            corpus, vocabulary, weighting="tfidf"
        )
        return cls.lsa_from_matrix(dtm, dim=dim, coverage=coverage, seed=seed)

    @classmethod
    def lsa_from_matrix(
        cls,
        dtm,
        dim: int = 300,
        coverage: float = 1.0,
        seed: int = 0,
    ) -> "PretrainedEmbeddings":
        """LSA embeddings from a prebuilt TFIDF :class:`DocumentTermMatrix`.

        Both pipelines call this through
        :func:`repro.core.pipeline.background_embeddings`: the batch one
        builds the matrix from documents, the streaming one from cached
        counts, and the decomposition is shared so the two stay bitwise
        equal.  The term components come from :func:`term_components`
        (term Gram matrix plus ``eigh``, each component's sign fixed so
        its largest-magnitude entry is positive), so the result is
        deterministic.  *seed* only salts the hash vectors of the
        fallback used when the matrix is too small to decompose.
        """
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        vocabulary = dtm.vocabulary
        if len(vocabulary) == 0:
            return cls({}, dim)
        # Request one extra component: the dominant singular direction is
        # a corpus-wide "mean" shared by every word, which would make all
        # keyword-set averages nearly parallel (cosine ~ 1 between any two
        # topics).  Dropping it ("all-but-the-top" postprocessing) restores
        # discriminative cosines, as with published word embeddings.
        k = min(dim + 1, min(dtm.matrix.shape) - 1)
        if k < 1:
            vectors = {w: hash_vector(w, dim, seed) for w in vocabulary.terms()}
            return cls(vectors, dim)
        U, S = term_components(dtm.matrix, k)
        if k > 1:
            U, S = U[:, 1:], S[1:]  # drop the dominant shared component
        k = S.size
        word_matrix = U * S
        if k < dim:
            word_matrix = np.hstack(
                [word_matrix, np.zeros((word_matrix.shape[0], dim - k))]
            )
        norms = np.linalg.norm(word_matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        word_matrix = word_matrix / norms
        vectors = {
            vocabulary.term(i): word_matrix[i] for i in range(len(vocabulary))
        }
        if coverage < 1.0:
            ranked = sorted(
                vectors,
                key=lambda w: (vocabulary.term_frequency(w), w),
                reverse=True,
            )
            keep = max(1, int(round(len(ranked) * coverage)))
            vectors = {w: vectors[w] for w in ranked[:keep]}
        return cls(vectors, dim)

    def without(self, words: Iterable[str]) -> "PretrainedEmbeddings":
        """A copy of the store with *words* removed (made OOV).

        The reproduction uses this to simulate GoogleNews's vocabulary
        gaps: platform slang ("lmao", "ngl", ...) never appears in a 2013
        news-corpus model, and those gaps are exactly what separates the
        SW and RND document-embedding variants (§4.7).
        """
        dropped = set(words)
        return PretrainedEmbeddings(
            {w: v for w, v in self._vectors.items() if w not in dropped},
            self.dim,
        )

    # -- lookup -------------------------------------------------------------------

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, word: str) -> np.ndarray:
        return self._vectors[word]

    def get(self, word: str) -> Optional[np.ndarray]:
        """Vector for *word*, or None when out of vocabulary."""
        return self._vectors.get(word)

    def words(self) -> List[str]:
        """All in-vocabulary words."""
        return list(self._vectors.keys())

    def coverage_of(self, tokens: Sequence[str]) -> float:
        """Fraction of *tokens* present in the store (1.0 for empty input)."""
        if not tokens:
            return 1.0
        hits = sum(1 for t in tokens if t in self._vectors)
        return hits / len(tokens)
