"""Unit tests for the from-scratch Word2Vec (skip-gram and CBOW)."""

import time

import numpy as np
import pytest

from repro.embeddings import Word2Vec, cosine_similarity


# The batched trainer is the only one; this one-value parametrization
# keeps the ``[batch]`` ids its tests had beside the deleted loop trainer.
batch_trainer = pytest.mark.parametrize("trainer", ["batch"])


def synthetic_corpus(n=300, seed=0):
    """Two word 'communities' that never co-occur across groups."""
    rng = np.random.default_rng(seed)
    group_a = ["vote", "party", "election", "poll"]
    group_b = ["tariff", "trade", "china", "import"]
    corpus = []
    for _i in range(n):
        group = group_a if rng.random() < 0.5 else group_b
        corpus.append(list(rng.choice(group, size=6)))
    return corpus


class TestVocabulary:
    def test_min_count_prunes(self):
        model = Word2Vec(vector_size=8, min_count=2)
        model.build_vocab([["a", "a", "b"]])
        assert "a" in model
        assert "b" not in model

    def test_untrained_lookup_raises(self):
        with pytest.raises(RuntimeError):
            Word2Vec()["x"]

    def test_empty_vocab_training_raises(self):
        model = Word2Vec(min_count=5)
        with pytest.raises(ValueError):
            model.train([["a"]])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Word2Vec(vector_size=0)
        with pytest.raises(ValueError):
            Word2Vec(window=0)
        with pytest.raises(ValueError):
            Word2Vec(negative=0)


class TestTrainingSkipGram:
    def test_loss_decreases(self):
        corpus = synthetic_corpus()
        model = Word2Vec(vector_size=16, min_count=1, epochs=1, seed=0, subsample=0)
        model.build_vocab(corpus)
        first = model.train(corpus)
        again = Word2Vec(vector_size=16, min_count=1, epochs=4, seed=0, subsample=0)
        final = again.train(corpus)
        assert final < first

    def test_within_group_similarity_exceeds_cross_group(self):
        corpus = synthetic_corpus()
        model = Word2Vec(vector_size=24, min_count=1, epochs=5, seed=1, subsample=0)
        model.train(corpus)
        within = cosine_similarity(model["vote"], model["election"])
        across = cosine_similarity(model["vote"], model["tariff"])
        assert within > across

    def test_most_similar_prefers_same_group(self):
        corpus = synthetic_corpus()
        model = Word2Vec(vector_size=24, min_count=1, epochs=5, seed=1, subsample=0)
        model.train(corpus)
        neighbours = [w for w, _s in model.most_similar("vote", top=3)]
        group_a = {"party", "election", "poll"}
        assert len(group_a.intersection(neighbours)) >= 2


class TestTrainingCBOW:
    def test_cbow_learns_structure(self):
        corpus = synthetic_corpus()
        model = Word2Vec(
            vector_size=24, min_count=1, epochs=5, sg=False, seed=2, subsample=0
        )
        model.train(corpus)
        within = cosine_similarity(model["trade"], model["tariff"])
        across = cosine_similarity(model["trade"], model["vote"])
        assert within > across


class TestNegativeSamplerRegression:
    """The sampler hang and seed-reuse bugs fixed alongside the batch kernel."""

    @batch_trainer
    def test_single_word_vocabulary_trains_without_hanging(self, trainer):
        """A degenerate vocab used to spin forever re-drawing negatives.

        The noise table then contains only the excluded index; the fix
        bounds the re-draws and trains with zero negatives, so this must
        finish well inside the 5-second budget.
        """
        corpus = [["a", "a", "a", "a"]] * 30
        started = time.perf_counter()
        model = Word2Vec(
            vector_size=8, min_count=1, epochs=2, subsample=0
        )
        loss = model.train(corpus)
        assert time.perf_counter() - started < 5.0
        assert np.isfinite(loss)
        assert "a" in model

    @batch_trainer
    def test_two_word_vocabulary_trains(self, trainer):
        """With two words every negative must resolve to the other word."""
        corpus = [["a", "b", "a", "b"]] * 30
        model = Word2Vec(
            vector_size=8, min_count=1, epochs=2, negative=5, subsample=0
        )
        loss = model.train(corpus)
        assert np.isfinite(loss)

    def test_batch_sampler_never_returns_excluded(self):
        model = Word2Vec(vector_size=8, min_count=1, subsample=0)
        model.build_vocab([["a", "b", "a", "b", "c"]] * 10)
        rng = np.random.default_rng(0)
        exclude = np.array([0, 1, 2] * 20)
        picks = model._negative_samples_batch(exclude, rng)
        assert picks.shape == (60, model.negative)
        assert not (picks == exclude[:, None]).any()

    def test_noise_table_decorrelated_from_init_stream(self):
        """Regression pin: the noise table must not reuse the W_in stream.

        The old code drew the table from ``default_rng(seed)`` — the same
        stream that initializes ``W_in`` — correlating negative samples
        with initialization.  The table now comes from a spawned child
        stream, so rebuilding the old draw must NOT reproduce it.
        """
        model = Word2Vec(vector_size=8, min_count=1, seed=123)
        model.build_vocab([["a", "b", "c", "d"]] * 10)
        freqs = np.array(
            [model.word_counts[w] for w in model.index_to_word], dtype=np.float64
        )
        probs = freqs ** 0.75
        probs /= probs.sum()
        old_table = np.random.default_rng(123).choice(
            len(freqs), size=len(model._noise_table), p=probs
        )
        assert not np.array_equal(model._noise_table, old_table)
        # Still deterministic: same seed rebuilds the same table.
        twin = Word2Vec(vector_size=8, min_count=1, seed=123)
        twin.build_vocab([["a", "b", "c", "d"]] * 10)
        assert np.array_equal(model._noise_table, twin._noise_table)


class TestEdgeCases:
    @batch_trainer
    def test_empty_sentences_are_skipped(self, trainer):
        corpus = [[], ["vote", "party", "vote", "poll"], [], ["vote", "poll"]] * 10
        model = Word2Vec(
            vector_size=8, min_count=1, epochs=2, subsample=0
        )
        loss = model.train(corpus)
        assert np.isfinite(loss)

    @batch_trainer
    def test_all_oov_sentences_are_skipped(self, trainer):
        """Sentences whose words were all pruned encode to nothing."""
        corpus = [["vote", "party"] * 3] * 10 + [["rare1"], ["rare2"]]
        model = Word2Vec(
            vector_size=8, min_count=2, epochs=2, subsample=0
        )
        loss = model.train(corpus)
        assert np.isfinite(loss)
        assert "rare1" not in model

    @pytest.mark.parametrize("sg", [True, False])
    def test_window_one(self, sg):
        corpus = synthetic_corpus(100)
        model = Word2Vec(
            vector_size=8, window=1, min_count=1, epochs=2, sg=sg, subsample=0
        )
        loss = model.train(corpus)
        assert np.isfinite(loss)

    def test_single_token_sentence_contributes_no_pairs(self):
        model = Word2Vec(vector_size=8, min_count=1, epochs=1, subsample=0)
        loss = model.train([["a", "b", "a", "b"]] * 5 + [["a"]])
        assert np.isfinite(loss)


class TestBatchedTrainer:
    # Final loss of the sequential per-pair SGD ("loop") trainer on this
    # corpus and these settings, recorded at commit 914eec7 just before
    # that trainer was deleted.  The batched trainer then read
    # 2.003515128295601.
    LOOP_TRAINER_LOSS = 2.0963544985368325

    def test_loss_parity_with_loop_trainer(self):
        """Batched mini-batch SGD must land within 5% of sequential SGD."""
        corpus = synthetic_corpus(200)
        model = Word2Vec(
            vector_size=16, min_count=1, epochs=4, seed=0, subsample=0
        )
        loss = model.train(corpus)
        assert loss == pytest.approx(self.LOOP_TRAINER_LOSS, rel=0.05)

    def test_cbow_sg_parity_of_batched_path(self):
        """Both architectures learn the two-community structure batched."""
        corpus = synthetic_corpus(200)
        for sg in (True, False):
            model = Word2Vec(
                vector_size=24, min_count=1, epochs=5, sg=sg, seed=1,
                subsample=0,
            )
            model.train(corpus)
            within = cosine_similarity(model["vote"], model["election"])
            across = cosine_similarity(model["vote"], model["tariff"])
            assert within > across, f"sg={sg}"

    def test_loss_monotonically_improves_over_epochs(self):
        """Mean epoch loss on a tiny corpus decreases epoch over epoch."""
        corpus = synthetic_corpus(120, seed=3)
        losses = []
        for epochs in (1, 2, 4, 8):
            model = Word2Vec(
                vector_size=16, min_count=1, epochs=epochs, seed=0,
                subsample=0,
            )
            losses.append(model.train(corpus))
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_batched_training_is_deterministic(self):
        corpus = synthetic_corpus(100)
        runs = []
        for _ in range(2):
            model = Word2Vec(
                vector_size=8, min_count=1, epochs=2, seed=5
            )
            model.train(corpus)
            runs.append(model.W_in.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_subsampling_path_runs_batched(self):
        corpus = synthetic_corpus(100)
        model = Word2Vec(
            vector_size=8, min_count=1, epochs=2, subsample=1e-2
        )
        assert np.isfinite(model.train(corpus))


class TestAPI:
    def test_get_returns_none_for_oov(self):
        corpus = synthetic_corpus(50)
        model = Word2Vec(vector_size=8, min_count=1, epochs=1)
        model.train(corpus)
        assert model.get("zzz") is None
        assert model.get("vote") is not None

    def test_vectors_export(self):
        corpus = synthetic_corpus(50)
        model = Word2Vec(vector_size=8, min_count=1, epochs=1)
        model.train(corpus)
        vectors = model.vectors()
        assert set(vectors) == set(model.index_to_word)
        assert all(v.shape == (8,) for v in vectors.values())

    def test_most_similar_unknown_word_raises(self):
        corpus = synthetic_corpus(50)
        model = Word2Vec(vector_size=8, min_count=1, epochs=1)
        model.train(corpus)
        with pytest.raises(KeyError):
            model.most_similar("zzz")
