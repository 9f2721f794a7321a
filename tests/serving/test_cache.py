"""LRU / feature-cache unit tests."""

from datetime import datetime

import numpy as np
import pytest

from repro.datasets import metadata_vector
from repro.serving import FeatureCache, LRUCache


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_get_or_compute(self):
        cache = LRUCache(2)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestFeatureCacheKeys:
    def test_key_depends_on_model_version(self):
        k1 = FeatureCache.document_key(1, "sw", ("a", "b"), None, None)
        k2 = FeatureCache.document_key(2, "sw", ("a", "b"), None, None)
        assert k1 != k2

    def test_key_depends_on_tokens_and_order(self):
        base = FeatureCache.document_key(1, "sw", ("a", "b"), None, None)
        assert base != FeatureCache.document_key(1, "sw", ("b", "a"), None, None)
        assert base != FeatureCache.document_key(1, "sw", ("a",), None, None)

    def test_key_depends_on_family_vocab_magnitudes(self):
        base = FeatureCache.document_key(1, "sw", ("a",), ("a",), (("a", 1.0),))
        assert base != FeatureCache.document_key(1, "swm", ("a",), ("a",), (("a", 1.0),))
        assert base != FeatureCache.document_key(1, "sw", ("a",), ("b",), (("a", 1.0),))
        assert base != FeatureCache.document_key(1, "sw", ("a",), ("a",), (("a", 2.0),))

    def test_identical_requests_share_a_key(self):
        k1 = FeatureCache.document_key(3, "sw", ("x", "y"), ("x",), None)
        k2 = FeatureCache.document_key(3, "sw", ("x", "y"), ("x",), None)
        assert k1 == k2


class TestFeatureCacheVectors:
    def test_document_vector_cached_and_frozen(self):
        cache = FeatureCache(8)
        key = FeatureCache.document_key(1, "sw", ("a",), None, None)
        calls = []

        def compute():
            calls.append(1)
            return np.ones(4)

        first = cache.document_vector(key, compute)
        second = cache.document_vector(key, compute)
        assert len(calls) == 1
        assert np.array_equal(first, second)
        with pytest.raises(ValueError):
            first[0] = 99.0  # cached features must be immutable

    def test_metadata_vector_matches_offline(self):
        cache = FeatureCache(8)
        when = datetime(2021, 2, 3)
        cached = cache.metadata_vector(750, when)
        assert np.array_equal(cached, metadata_vector(750, when))
        # second lookup is a hit
        cache.metadata_vector(750, when)
        assert cache.metadata.stats()["hits"] == 1

    def test_hit_rate(self):
        cache = FeatureCache(8)
        key = FeatureCache.document_key(1, "sw", ("a",), None, None)
        assert cache.hit_rate == 0.0
        cache.document_vector(key, lambda: np.zeros(2))
        cache.document_vector(key, lambda: np.zeros(2))
        assert cache.hit_rate == pytest.approx(0.5)


class TestColdCacheHitRate:
    """Regression: a cold cache must report 0.0, never divide by zero."""

    def test_lru_cold(self):
        cache = LRUCache(4)
        assert cache.hit_rate == 0.0
        assert cache.stats()["hit_rate"] == 0.0

    def test_lru_all_misses(self):
        cache = LRUCache(4)
        cache.get("nope")
        assert cache.hit_rate == 0.0

    def test_disabled_cache_stays_at_zero(self):
        # capacity=0 never records a hit; the rate must stay defined.
        cache = LRUCache(0)
        cache.put("a", 1)
        cache.get("a")
        assert cache.hit_rate == 0.0
        feature_cache = FeatureCache(0)
        assert feature_cache.hit_rate == 0.0

    def test_metrics_render_on_a_cold_service(self, artifact_dirs):
        # End to end: /metrics must serialise before any request warms
        # the cache (this is the path that would have divided by zero).
        from repro.serving import (
            FleetConfig,
            FleetService,
            ModelRegistry,
            ServingConfig,
        )

        registry = ModelRegistry()
        registry.load(artifact_dirs[0])
        service = FleetService(
            registry, ServingConfig(max_batch_size=4), FleetConfig(replicas=1)
        )
        try:
            metrics = service.metrics()
            assert metrics["cache_hit_rate"] == 0.0
            assert metrics["responses"] == 0
        finally:
            service.close()
