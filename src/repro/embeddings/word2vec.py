"""Word2Vec — skip-gram and CBOW with negative sampling, in numpy.

Replaces Gensim's implementation (§4.7 uses Gensim Word2Vec; §3.4
describes both architectures).  The model learns two matrices: input
vectors W_in (the embeddings handed to callers) and output vectors W_out
(context side).  Training uses the standard negative-sampling objective
with a unigram^0.75 noise distribution and optional frequent-word
subsampling.

Training is batched per sentence: all (center, context, negatives)
pairs of a sentence are encoded as index arrays up front and updated in
one ``(P, 1+negative, dim)`` einsum block, mirroring Gensim's batched
sg/cbow kernels.  **Accumulation semantics:** every pair in a sentence
computes its gradient against the weights as they stood at the start of
that sentence, and the gradients are scatter-added (deterministic index
order) afterwards — mini-batch SGD with one batch per sentence rather
than strictly sequential per-pair SGD.  Its final loss is pinned within
5% of a recorded sequential-SGD loss in the test suite.

Randomness uses three decorrelated streams derived from ``seed``:
``W_in`` init (``default_rng(seed)``), the training stream
(``default_rng(seed + 1)``), and the noise table
(``SeedSequence(seed).spawn``-style child stream) — the noise table used
to reuse the ``W_in`` stream, correlating negative samples with
initialization.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs

# Bounded re-draw budget when a negative sample collides with the
# positive target; past it we derive a non-colliding index directly.
_MAX_NEGATIVE_RETRIES = 8


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _scatter_add(matrix: np.ndarray, indices: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[indices] += updates`` with duplicate indices accumulated.

    Equivalent to ``np.add.at`` but ~5x faster: rows are stable-sorted by
    index and summed per segment with ``np.add.reduceat``.  Accumulation
    order is index-sorted (not input-ordered), which is deterministic —
    the float-addition order is a fixed function of the index multiset.
    """
    if len(indices) == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_upd = updates[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1]))
    )
    matrix[sorted_idx[boundaries]] += np.add.reduceat(sorted_upd, boundaries, axis=0)


class Word2Vec:
    """Train word embeddings on a tokenized corpus.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality (the paper's pretrained vectors are 300-d).
    window:
        Maximum context distance on each side of the center word.
    min_count:
        Discard words rarer than this.
    sg:
        True for skip-gram, False for CBOW (§3.4 describes both).
    negative:
        Number of negative samples per positive pair.
    subsample:
        Frequent-word subsampling threshold (0 disables).
    epochs / learning_rate / seed:
        Training-loop knobs; the learning rate decays linearly to 1e-4 of
        its initial value across all epochs.
    """

    def __init__(
        self,
        vector_size: int = 100,
        window: int = 5,
        min_count: int = 2,
        sg: bool = True,
        negative: int = 5,
        subsample: float = 1e-3,
        epochs: int = 3,
        learning_rate: float = 0.025,
        seed: int = 0,
    ) -> None:
        if vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        if negative < 1:
            raise ValueError("negative must be >= 1")
        self.vector_size = vector_size
        self.window = window
        self.min_count = min_count
        self.sg = sg
        self.negative = negative
        self.subsample = subsample
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed

        self.word_to_index: Dict[str, int] = {}
        self.index_to_word: List[str] = []
        self.word_counts: Counter = Counter()
        self.W_in: Optional[np.ndarray] = None
        self.W_out: Optional[np.ndarray] = None
        self._noise_table: Optional[np.ndarray] = None
        self._keep_probs: Optional[np.ndarray] = None

    # -- vocabulary ----------------------------------------------------------

    def build_vocab(self, corpus: Sequence[Sequence[str]]) -> None:
        """Build the vocabulary and negative-sampling table from *corpus*."""
        counts: Counter = Counter()
        for sentence in corpus:
            counts.update(sentence)
        kept = sorted(
            (w for w, c in counts.items() if c >= self.min_count),
            key=lambda w: (-counts[w], w),
        )
        self.index_to_word = kept
        self.word_to_index = {w: i for i, w in enumerate(kept)}
        self.word_counts = Counter({w: counts[w] for w in kept})

        rng = np.random.default_rng(self.seed)
        bound = 0.5 / self.vector_size
        self.W_in = rng.uniform(-bound, bound, (len(kept), self.vector_size))
        self.W_out = np.zeros((len(kept), self.vector_size))
        self._build_noise_table()
        self._build_keep_probs()

    def _build_noise_table(self, table_size: int = 100_000) -> None:
        """Cumulative unigram^0.75 table for O(1) negative sampling.

        Drawn from a child stream of ``seed`` (``spawn_key=(2,)``) so the
        table is decorrelated from the ``W_in`` init stream
        (``default_rng(seed)``) and the training stream (``seed + 1``).
        """
        if not self.index_to_word:
            self._noise_table = np.zeros(0, dtype=np.int64)
            return
        freqs = np.array(
            [self.word_counts[w] for w in self.index_to_word], dtype=np.float64
        )
        probs = freqs ** 0.75
        probs /= probs.sum()
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(2,))
        )
        self._noise_table = noise_rng.choice(len(freqs), size=table_size, p=probs)

    def _build_keep_probs(self) -> None:
        """Per-index subsampling keep-probabilities (vectorized lookup)."""
        n = len(self.index_to_word)
        if n == 0 or self.subsample <= 0:
            self._keep_probs = np.ones(n)
            return
        freqs = np.array(
            [self.word_counts[w] for w in self.index_to_word], dtype=np.float64
        )
        total = freqs.sum()
        with np.errstate(divide="ignore"):
            keep = np.sqrt(self.subsample * total / freqs)
        keep[freqs <= 0] = 1.0
        self._keep_probs = np.minimum(1.0, keep)

    # -- training -----------------------------------------------------------------

    def train(self, corpus: Sequence[Sequence[str]]) -> float:
        """Train on *corpus*; builds the vocabulary if not yet built.

        Returns the mean negative-sampling loss of the final epoch (useful
        for convergence assertions in tests).
        """
        if self.W_in is None:
            self.build_vocab(corpus)
        if len(self.index_to_word) == 0:
            raise ValueError("empty vocabulary — corpus too small for min_count")

        encoded = self._encode_corpus(corpus)
        rng = np.random.default_rng(self.seed + 1)
        total_steps = max(1, self.epochs * sum(len(s) for s in encoded))
        step = 0
        final_loss = 0.0
        with obs.span("embeddings.word2vec.train") as train_span:
            for _epoch in range(self.epochs):
                epoch_loss = 0.0
                n_pairs = 0
                for sentence in encoded:
                    sampled = self._subsample(sentence, rng)
                    loss, pairs = self._train_sentence(sampled, rng, step, total_steps)
                    epoch_loss += loss
                    n_pairs += pairs
                    step += len(sampled)
                final_loss = epoch_loss / max(n_pairs, 1)
                obs.histogram("embeddings.word2vec.epoch_loss").observe(final_loss)
            train_span.annotate(
                vocabulary=len(self.index_to_word),
                sentences=len(encoded),
                epochs=self.epochs,
                final_loss=final_loss,
            )
        return final_loss

    def _learning_rate_at(self, step: int, total_steps: int) -> float:
        return self.learning_rate * max(1e-4, 1.0 - step / (total_steps + 1))

    def _encode_corpus(
        self, corpus: Sequence[Sequence[str]]
    ) -> List[np.ndarray]:
        return [
            np.array(
                [self.word_to_index[w] for w in sentence if w in self.word_to_index],
                dtype=np.int64,
            )
            for sentence in corpus
        ]

    def _subsample(self, sentence: np.ndarray, rng) -> np.ndarray:
        if self.subsample <= 0 or len(sentence) == 0:
            return sentence
        keep = self._keep_probs[sentence]
        return sentence[rng.random(len(sentence)) < keep]

    # -- batched trainer ----------------------------------------------------------

    def _sentence_pairs(
        self, sampled: np.ndarray, rng
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (positions, context-position) grid for one sentence.

        Returns ``(pos, ctx_pos, valid)`` where ``pos`` indexes centers,
        ``ctx_pos`` is the ``(n, 2*window)`` matrix of candidate context
        positions and ``valid`` masks in-bounds positions within each
        center's per-position reduced window (Word2Vec's usual window
        shrinking, drawn from the training stream).
        """
        n = len(sampled)
        reduced = rng.integers(1, self.window + 1, size=n)
        offsets = np.concatenate(
            [np.arange(-self.window, 0), np.arange(1, self.window + 1)]
        )
        pos = np.arange(n)
        ctx_pos = pos[:, None] + offsets[None, :]
        valid = (
            (ctx_pos >= 0)
            & (ctx_pos < n)
            & (np.abs(offsets)[None, :] <= reduced[:, None])
        )
        return pos, np.clip(ctx_pos, 0, max(n - 1, 0)), valid

    def _negative_samples_batch(
        self, exclude: np.ndarray, rng
    ) -> np.ndarray:
        """(P, negative) noise-table draws avoiding the positive targets.

        Collisions with the excluded positive are re-drawn at most
        ``_MAX_NEGATIVE_RETRIES`` times; survivors are replaced by a
        uniformly chosen *other* vocabulary index, so the draw terminates
        even when the noise table contains only the excluded word.  With
        a single-word vocabulary there is no other index: the pair trains
        with zero negatives (shape ``(P, 0)``).
        """
        n_vocab = len(self.index_to_word)
        p = len(exclude)
        if n_vocab <= 1:
            return np.empty((p, 0), dtype=np.int64)
        table = self._noise_table
        picks = table[rng.integers(0, len(table), size=(p, self.negative))]
        collisions = picks == exclude[:, None]
        for _ in range(_MAX_NEGATIVE_RETRIES):
            if not collisions.any():
                return picks
            rows, cols = np.nonzero(collisions)
            picks[rows, cols] = table[rng.integers(0, len(table), size=len(rows))]
            collisions = picks == exclude[:, None]
        rows, cols = np.nonzero(collisions)
        if len(rows):
            shift = rng.integers(0, n_vocab - 1, size=len(rows))
            picks[rows, cols] = (exclude[rows] + 1 + shift) % n_vocab
        return picks

    def _train_sentence(
        self, sampled: np.ndarray, rng, step: int, total_steps: int
    ) -> Tuple[float, int]:
        """One sentence as a single vectorized mini-batch update.

        All pairs use the learning rate at the sentence's starting step
        (sequential SGD would decay it per center position; over a
        sentence the difference is O(len/total_steps) and vanishes at
        scale).
        """
        n = len(sampled)
        if n < 2:
            return 0.0, 0
        lr = self._learning_rate_at(step, total_steps)
        pos, ctx_pos, valid = self._sentence_pairs(sampled, rng)
        if self.sg:
            centers = sampled[np.repeat(pos, valid.sum(axis=1))]
            contexts = sampled[ctx_pos[valid]]
            if len(centers) == 0:
                return 0.0, 0
            return self._train_batch_sg(centers, contexts, lr, rng)
        counts = valid.sum(axis=1)
        keep = counts > 0
        if not keep.any():
            return 0.0, 0
        ctx_flat = sampled[ctx_pos[valid]]
        rows = np.repeat(np.arange(n)[keep], counts[keep])
        rows = np.searchsorted(np.flatnonzero(keep), rows)
        return self._train_batch_cbow(
            sampled[keep], ctx_flat, rows, counts[keep], lr, rng
        )

    def _train_batch_sg(
        self, centers: np.ndarray, contexts: np.ndarray, lr: float, rng
    ) -> Tuple[float, int]:
        """Skip-gram negative-sampling update for a batch of pairs."""
        negatives = self._negative_samples_batch(contexts, rng)
        targets = np.concatenate([contexts[:, None], negatives], axis=1)
        v = self.W_in[centers]                                  # (P, dim)
        outs = self.W_out[targets]                              # (P, 1+neg, dim)
        scores = _sigmoid(np.einsum("pkd,pd->pk", outs, v))     # (P, 1+neg)
        grads = scores.copy()
        grads[:, 0] -= 1.0
        loss = -np.log(np.maximum(scores[:, 0], 1e-10)) - np.sum(
            np.log(np.maximum(1.0 - scores[:, 1:], 1e-10)), axis=1
        )
        grad_v = np.einsum("pk,pkd->pd", grads, outs)           # (P, dim)
        delta_out = (-lr) * grads[:, :, None] * v[:, None, :]   # (P, 1+neg, dim)
        _scatter_add(
            self.W_out,
            targets.reshape(-1),
            delta_out.reshape(-1, self.vector_size),
        )
        _scatter_add(self.W_in, centers, (-lr) * grad_v)
        return float(loss.sum()), len(centers)

    def _train_batch_cbow(
        self,
        centers: np.ndarray,
        ctx_flat: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        lr: float,
        rng,
    ) -> Tuple[float, int]:
        """CBOW update for a batch of positions.

        ``ctx_flat`` holds every context index, ``rows`` maps each onto
        its center's row, ``counts`` the per-row context sizes.
        """
        h = np.zeros((len(centers), self.vector_size))
        _scatter_add(h, rows, self.W_in[ctx_flat])
        h /= counts[:, None]
        negatives = self._negative_samples_batch(centers, rng)
        targets = np.concatenate([centers[:, None], negatives], axis=1)
        outs = self.W_out[targets]
        scores = _sigmoid(np.einsum("pkd,pd->pk", outs, h))
        grads = scores.copy()
        grads[:, 0] -= 1.0
        loss = -np.log(np.maximum(scores[:, 0], 1e-10)) - np.sum(
            np.log(np.maximum(1.0 - scores[:, 1:], 1e-10)), axis=1
        )
        grad_h = np.einsum("pk,pkd->pd", grads, outs)
        delta_out = (-lr) * grads[:, :, None] * h[:, None, :]
        _scatter_add(
            self.W_out,
            targets.reshape(-1),
            delta_out.reshape(-1, self.vector_size),
        )
        _scatter_add(
            self.W_in,
            ctx_flat,
            (-lr) * grad_h[rows] / counts[rows][:, None],
        )
        return float(loss.sum()), len(centers)

    # -- lookups ----------------------------------------------------------------------

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_index

    def __getitem__(self, word: str) -> np.ndarray:
        if self.W_in is None:
            raise RuntimeError("model not trained")
        return self.W_in[self.word_to_index[word]]

    def get(self, word: str) -> Optional[np.ndarray]:
        """The word's vector, or None when untrained / out of vocabulary."""
        if self.W_in is None or word not in self.word_to_index:
            return None
        return self.W_in[self.word_to_index[word]]

    def most_similar(self, word: str, top: int = 10) -> List[tuple]:
        """Nearest neighbours by cosine over the input vectors."""
        if self.W_in is None:
            raise RuntimeError("model not trained")
        if word not in self.word_to_index:
            raise KeyError(word)
        v = self[word]
        norms = np.linalg.norm(self.W_in, axis=1) * np.linalg.norm(v)
        norms[norms == 0] = 1e-12
        sims = (self.W_in @ v) / norms
        order = np.argsort(-sims)
        out = []
        for idx in order:
            candidate = self.index_to_word[int(idx)]
            if candidate == word:
                continue
            out.append((candidate, float(sims[idx])))
            if len(out) >= top:
                break
        return out

    def vectors(self) -> Dict[str, np.ndarray]:
        """Word -> embedding copy of the full table."""
        if self.W_in is None:
            raise RuntimeError("model not trained")
        return {w: self.W_in[i].copy() for w, i in self.word_to_index.items()}
