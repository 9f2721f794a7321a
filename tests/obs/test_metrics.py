"""Unit tests for the Counter/Gauge/Histogram primitives and their no-op twins."""

import threading

import pytest

from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("queries")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("queries")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_to_dict(self):
        c = Counter("queries")
        c.inc(7)
        assert c.to_dict() == {"value": 7.0}

    def test_thread_safety(self):
        c = Counter("hits")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000.0


class TestGauge:
    def test_unset_then_set(self):
        g = Gauge("vocab")
        assert g.value is None
        g.set(120)
        assert g.value == 120.0

    def test_add_from_unset_starts_at_zero(self):
        g = Gauge("depth")
        g.add(3)
        g.add(-1)
        assert g.value == 2.0

    def test_to_dict(self):
        g = Gauge("vocab")
        assert g.to_dict() == {"value": None}
        g.set(5)
        assert g.to_dict() == {"value": 5.0}


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("loss")
        for value in (3.0, 1.0, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0
        assert list(h.series) == [3.0, 1.0, 2.0]
        assert not h.truncated

    def test_empty_histogram(self):
        h = Histogram("loss")
        assert h.mean is None
        assert h.to_dict()["count"] == 0

    def test_series_is_bounded_but_stats_keep_updating(self):
        h = Histogram("loss", max_samples=3)
        for value in range(5):
            h.observe(float(value))
        assert list(h.series) == [2.0, 3.0, 4.0]
        assert h.truncated
        assert h.count == 5
        assert h.max == 4.0
        assert h.to_dict()["truncated"] is True

    def test_percentile_follows_the_newest_samples(self):
        # A regression after warm-up must move p95: the series keeps the
        # newest max_samples values, not the first ones.
        h = Histogram("latency_ms")
        for _ in range(10_000):
            h.observe(1.0)
        for _ in range(4096):
            h.observe(100.0)
        assert h.percentile(95) == 100.0
        assert h.truncated
        assert h.count == 14_096

    def test_negative_max_samples_rejected(self):
        with pytest.raises(ValueError):
            Histogram("loss", max_samples=-1)

    def test_to_dict_copies_series(self):
        h = Histogram("loss")
        h.observe(1.0)
        exported = h.to_dict()
        exported["series"].append(99.0)
        assert list(h.series) == [1.0]


class TestNullTwins:
    def test_null_counter_discards(self):
        NULL_COUNTER.inc()
        NULL_COUNTER.inc(100)
        assert NULL_COUNTER.to_dict() == {"value": 0.0}

    def test_null_gauge_discards(self):
        NULL_GAUGE.set(5)
        NULL_GAUGE.add(5)
        assert NULL_GAUGE.to_dict() == {"value": None}

    def test_null_histogram_discards(self):
        NULL_HISTOGRAM.observe(1.0)
        exported = NULL_HISTOGRAM.to_dict()
        assert exported["count"] == 0
        assert exported["series"] == []

    def test_null_twins_are_stateless_singletons(self):
        # __slots__ = () — nothing can be attached, nothing accumulates.
        for twin in (NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM):
            with pytest.raises(AttributeError):
                twin.value = 1
