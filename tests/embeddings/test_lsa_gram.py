"""LSA from the term Gram matrix agrees with a dense SVD.

``PretrainedEmbeddings.lsa_from_matrix`` takes its term components from
an ``eigh`` of the V × V Gram matrix.  These tests rebuild the same
word vectors from ``np.linalg.svd`` of the dense terms × docs matrix,
with the same drop-top / scale / pad / normalise steps and the same
sign rule, on small hand-built matrices whose singular values are
distinct (so each component is unique up to sign).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.embeddings import PretrainedEmbeddings
from repro.embeddings.pretrained import hash_vector, term_components
from repro.text.vocabulary import Vocabulary
from repro.weighting.matrix import DocumentTermMatrix

EPS = np.finfo(np.float64).eps


def dtm_of(dense: np.ndarray) -> DocumentTermMatrix:
    """A documents × terms matrix with terms ``t00``, ``t01``, ..."""
    n_terms = dense.shape[1]
    vocabulary = Vocabulary.from_documents(
        [[f"t{j:02d}" for j in range(n_terms)]], min_count=1
    )
    return DocumentTermMatrix(sparse.csr_matrix(dense), vocabulary)


def svd_vectors(dense: np.ndarray, dim: int) -> np.ndarray:
    """Word vectors (terms × dim) by way of a dense SVD."""
    terms_by_docs = dense.T
    k = min(dim + 1, min(terms_by_docs.shape) - 1)
    U, s, _vt = np.linalg.svd(terms_by_docs, full_matrices=False)
    U, s = U[:, :k], s[:k]
    floor = terms_by_docs.shape[0] * EPS * s[0] ** 2
    s = np.where(s**2 > floor, s, 0.0)
    pivots = U[np.abs(U).argmax(axis=0), np.arange(k)]
    U = U * np.where(pivots < 0, -1.0, 1.0)
    words = U[:, 1:] * s[1:]
    words = np.hstack([words, np.zeros((words.shape[0], dim - words.shape[1]))])
    norms = np.linalg.norm(words, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return words / norms


def lsa_vectors(dense: np.ndarray, dim: int, seed: int = 0) -> np.ndarray:
    dtm = dtm_of(dense)
    emb = PretrainedEmbeddings.lsa_from_matrix(dtm, dim=dim, seed=seed)
    return np.stack([emb[dtm.vocabulary.term(i)] for i in range(dense.shape[1])])


def full_rank() -> np.ndarray:
    """40 documents × 12 terms, sparse-ish and full rank."""
    rng = np.random.default_rng(11)
    dense = rng.random((40, 12)) * (rng.random((40, 12)) < 0.5)
    assert np.linalg.matrix_rank(dense) == 12
    return dense


def rank_deficient() -> np.ndarray:
    """8 documents × 20 terms of rank 3: mixtures of three base documents."""
    rng = np.random.default_rng(12)
    base = rng.random((3, 20)) * (rng.random((3, 20)) < 0.6)
    dense = rng.random((8, 3)) @ base
    assert np.linalg.matrix_rank(dense) == 3
    return dense


def few_terms() -> np.ndarray:
    """30 documents × 6 terms: ``k`` is capped at ``min(shape) - 1 = 5``."""
    rng = np.random.default_rng(13)
    return rng.random((30, 6)) * (rng.random((30, 6)) < 0.7)


class TestAgainstDenseSVD:
    def test_full_rank(self):
        dense = full_rank()
        np.testing.assert_allclose(
            lsa_vectors(dense, dim=6), svd_vectors(dense, dim=6), rtol=0, atol=1e-9
        )

    def test_rank_deficient_fewer_docs_than_terms(self):
        # k = min(17, 8 - 1) = 7 components, of which only 3 carry
        # mass: after the top one is dropped, columns 2.. are exactly 0.
        dense = rank_deficient()
        vectors = lsa_vectors(dense, dim=16)
        np.testing.assert_allclose(
            vectors, svd_vectors(dense, dim=16), rtol=0, atol=1e-9
        )
        assert np.any(vectors[:, :2] != 0.0)
        assert np.all(vectors[:, 2:] == 0.0)

    def test_k_capped_by_shape(self):
        dense = few_terms()
        vectors = lsa_vectors(dense, dim=300)
        assert vectors.shape == (6, 300)
        np.testing.assert_allclose(
            vectors, svd_vectors(dense, dim=300), rtol=0, atol=1e-9
        )
        assert np.all(vectors[:, 4:] == 0.0)  # 5 components, top one dropped


class TestDeterminism:
    @pytest.mark.parametrize("make", [full_rank, rank_deficient, few_terms])
    def test_sign_rule(self, make):
        dense = make()
        k = min(dense.shape) - 1
        U, S = term_components(sparse.csr_matrix(dense), k)
        assert U.shape == (dense.shape[1], k) and S.shape == (k,)
        assert np.all(np.diff(S) <= 0.0)
        pivots = U[np.abs(U).argmax(axis=0), np.arange(k)]
        assert np.all(pivots > 0.0)

    @pytest.mark.parametrize("make", [full_rank, rank_deficient, few_terms])
    def test_two_calls_identical_bytes(self, make):
        dense = make()
        assert lsa_vectors(dense, dim=8).tobytes() == lsa_vectors(dense, dim=8).tobytes()

    def test_seed_does_not_move_decomposed_vectors(self):
        dense = full_rank()
        assert (
            lsa_vectors(dense, dim=6, seed=0).tobytes()
            == lsa_vectors(dense, dim=6, seed=7).tobytes()
        )

    def test_seed_salts_the_hash_fallback(self):
        # One document leaves nothing to decompose (k = 0): every term
        # gets its hash vector, salted by the seed.
        dtm = dtm_of(np.array([[1.0, 2.0, 3.0]]))
        emb = PretrainedEmbeddings.lsa_from_matrix(dtm, dim=8, seed=7)
        np.testing.assert_array_equal(emb["t01"], hash_vector("t01", 8, 7))
