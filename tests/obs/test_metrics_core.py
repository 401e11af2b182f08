"""Unit tests for the dependency-free metrics core."""

import threading

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MAX_LABEL_CARDINALITY,
    NULL_REGISTRY,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    time_stage,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("repro_things_total", "Things.")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("repro_things_total")
        with pytest.raises(MetricsError, match="only go up"):
            c.inc(-1)
        assert c.value == 0.0

    def test_labeled_children_are_independent(self, registry):
        c = registry.counter("repro_rows_total", "", ("pipeline",))
        c.labels("a").inc(2)
        c.labels("b").inc(5)
        assert c.labels("a").value == 2
        assert c.labels("b").value == 5
        # Same values -> same child object.
        assert c.labels("a") is c.labels("a")

    def test_keyword_labels(self, registry):
        c = registry.counter("repro_rows_total", "", ("pipeline",))
        c.labels(pipeline="a").inc(3)
        assert c.labels("a").value == 3
        with pytest.raises(MetricsError, match="missing label"):
            c.labels(nope="a")
        with pytest.raises(MetricsError, match="not both"):
            c.labels("a", pipeline="a")

    def test_wrong_label_count_rejected(self, registry):
        c = registry.counter("repro_rows_total", "", ("pipeline",))
        with pytest.raises(MetricsError, match="expected 1 label"):
            c.labels()
        with pytest.raises(MetricsError, match="expected 1 label"):
            c.labels("a", "b")

    def test_thread_safety_no_lost_updates(self, registry):
        c = registry.counter("repro_rows_total")

        def spin():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_pending")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0


class TestHistogram:
    def test_buckets_are_cumulative_with_inf(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(6.25)

    def test_observation_on_bound_counts_in_bucket(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)
        assert h.cumulative_counts() == [1, 1, 1]

    def test_bad_bounds_rejected(self, registry):
        with pytest.raises(ConfigError, match="at least one"):
            registry.histogram("repro_a_seconds", buckets=())
        with pytest.raises(ConfigError, match="increasing"):
            registry.histogram("repro_b_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ConfigError, match="increasing"):
            registry.histogram("repro_c_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ConfigError, match="finite"):
            registry.histogram(
                "repro_d_seconds", buckets=(1.0, float("inf"))
            )

    def test_registry_default_buckets_apply(self):
        registry = MetricsRegistry(buckets=(0.5, 2.0))
        h = registry.histogram("repro_lat_seconds")
        assert h.buckets == (0.5, 2.0)
        explicit = registry.histogram(
            "repro_other_seconds", buckets=(9.0,)
        )
        assert explicit.buckets == (9.0,)


class TestRegistry:
    def test_get_or_create_returns_same_family(self, registry):
        a = registry.counter("repro_rows_total", "Rows.")
        b = registry.counter("repro_rows_total")
        assert a is b

    def test_type_mismatch_rejected(self, registry):
        registry.counter("repro_rows_total")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("repro_rows_total")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("repro_rows_total", "", ("pipeline",))
        with pytest.raises(MetricsError, match="labels"):
            registry.counter("repro_rows_total", "", ("link",))

    def test_invalid_names_rejected(self, registry):
        for bad in ("0leading", "has space", "bad-dash"):
            with pytest.raises(MetricsError, match="invalid metric name"):
                registry.counter(bad)
        with pytest.raises(MetricsError, match="invalid label name"):
            registry.counter("repro_ok_total", "", ("not-a-label",))

    def test_families_sorted_by_name(self, registry):
        registry.counter("repro_b_total")
        registry.counter("repro_a_total")
        assert [f.name for f in registry.families()] == [
            "repro_a_total", "repro_b_total",
        ]

    def test_label_cardinality_capped(self, registry):
        c = registry.counter("repro_rows_total", "", ("k",))
        for i in range(MAX_LABEL_CARDINALITY):
            c.labels(str(i))
        with pytest.raises(MetricsError, match="label combinations"):
            c.labels("one-too-many")


class TestNullRegistry:
    def test_shared_instance_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert isinstance(NULL_REGISTRY, NullRegistry)
        assert MetricsRegistry().enabled is True

    def test_instruments_are_noops(self):
        c = NULL_REGISTRY.counter("repro_rows_total", "", ("pipeline",))
        c.labels("a").inc(5)
        c.inc()
        g = NULL_REGISTRY.gauge("repro_pending")
        g.set(3)
        g.dec()
        h = NULL_REGISTRY.histogram("repro_lat_seconds")
        h.observe(1.0)
        assert c.value == 0.0
        assert h.count == 0
        assert NULL_REGISTRY.families() == []
        assert NULL_REGISTRY.snapshot() == {"metrics": []}
        assert NULL_REGISTRY.render_prometheus() == ""

    def test_default_buckets_exposed(self):
        assert NULL_REGISTRY.default_buckets == DEFAULT_BUCKETS


class TestTimeStage:
    def test_context_manager_records_span(self, registry):
        h = registry.histogram("repro_stage_seconds")
        with time_stage(h):
            pass
        assert h.count == 1
        assert h.sum >= 0.0

    def test_records_even_when_body_raises(self, registry):
        h = registry.histogram("repro_stage_seconds")
        with pytest.raises(RuntimeError):
            with time_stage(h):
                raise RuntimeError("stage failed")
        assert h.count == 1

    def test_cancel_suppresses_observation(self, registry):
        h = registry.histogram("repro_stage_seconds")
        with time_stage(h) as span:
            span.cancel()
        assert h.count == 0

    def test_reentry_resets_cancellation(self, registry):
        h = registry.histogram("repro_stage_seconds")
        span = time_stage(h)
        with span:
            span.cancel()
        with span:
            pass
        assert h.count == 1

    def test_decorator_records_every_call(self, registry):
        h = registry.histogram("repro_stage_seconds")

        @time_stage(h)
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        assert h.count == 2

    def test_null_target_is_silent(self):
        with time_stage(NULL_REGISTRY.histogram("repro_x_seconds")):
            pass
