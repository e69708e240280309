"""Unit tests for the metric primitives and their registry."""

import pytest

from repro.observability import METRICS_SCHEMA, MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("messages", channel="e0")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("messages").inc(-1)

    def test_same_labels_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("m", channel="x", kind="data")
        b = registry.counter("m", kind="data", channel="x")
        assert a is b

    def test_different_labels_different_instances(self):
        registry = MetricsRegistry()
        assert registry.counter("m", channel="x") is not registry.counter(
            "m", channel="y"
        )


class TestHistogram:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("delay")
        for value in (4, 10, 1):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15
        assert histogram.minimum == 1
        assert histogram.maximum == 10
        assert histogram.mean == 5.0

    def test_empty_mean_is_zero(self):
        assert MetricsRegistry().histogram("delay").mean == 0.0


class TestRegistryExport:
    def test_as_dict_schema(self):
        registry = MetricsRegistry()
        registry.counter("messages", channel="e0").inc(2)
        registry.histogram("delay").observe(9)
        document = registry.as_dict()
        assert document["schema"] == METRICS_SCHEMA
        assert len(document["metrics"]) == 2
        by_name = {m["name"]: m for m in document["metrics"]}
        assert by_name["messages"]["value"] == 2
        assert by_name["messages"]["labels"] == {"channel": "e0"}
        assert by_name["delay"]["mean"] == 9.0

    def test_len_and_iter(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("b")
        assert len(registry) == 2
        assert {m.name for m in registry} == {"a", "b"}
