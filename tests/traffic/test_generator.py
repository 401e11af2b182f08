"""Unit tests for the trace generator."""

import numpy as np
import pytest

from repro.anomalies import DDoSInjector, EventSchedule
from repro.errors import ConfigError
from repro.flows.stream import iter_intervals
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import small_test


@pytest.fixture(scope="module")
def generator():
    return TraceGenerator(small_test(800), seed=2)


class TestGenerate:
    def test_interval_count_and_duration(self, generator):
        trace = generator.generate(6, interval_seconds=600.0)
        assert trace.n_intervals == 6
        assert trace.duration == 3600.0
        assert trace.flows.start.max() < 3600.0

    def test_flow_volume_near_expectation(self, generator):
        trace = generator.generate(10)
        per_interval = len(trace.flows) / 10
        # Diurnal modulation plus Poisson noise; stay within 2x band.
        assert 300 < per_interval < 1600

    def test_flows_sorted_by_start(self, generator):
        trace = generator.generate(4)
        assert (np.diff(trace.flows.start) >= 0).all()

    def test_no_events_without_schedule(self, generator):
        trace = generator.generate(3)
        assert trace.events == []
        assert not trace.flows.anomalous_mask.any()
        assert trace.anomalous_intervals() == set()

    def test_schedule_merged_and_labelled(self):
        profile = small_test(500)
        generator = TraceGenerator(profile, seed=9)
        schedule = EventSchedule()
        schedule.add_at_interval(
            DDoSInjector(victim_ip=profile.internal_base + 1, flows=400),
            2,
            900.0,
            duration=800.0,
        )
        trace = generator.generate(4, schedule=schedule)
        assert len(trace.events) == 1
        event = trace.events[0]
        assert event.kind == "ddos"
        assert event.flow_count == 400
        assert trace.flows.anomalous_mask.sum() == 400
        assert trace.anomalous_intervals() == {2}
        assert trace.events_in_interval(2) == [event]
        assert trace.events_in_interval(0) == []

    def test_event_flows_land_in_their_interval(self):
        profile = small_test(300)
        generator = TraceGenerator(profile, seed=9)
        schedule = EventSchedule()
        schedule.add_at_interval(
            DDoSInjector(victim_ip=profile.internal_base, flows=200),
            1,
            900.0,
            duration=899.0,
        )
        trace = generator.generate(3, schedule=schedule)
        views = list(iter_intervals(trace.flows, 900.0, origin=0.0))
        assert views[1].flows.anomalous_mask.sum() == 200
        assert views[0].flows.anomalous_mask.sum() == 0

    def test_occurrence_beyond_horizon_rejected(self, generator):
        schedule = EventSchedule()
        schedule.add(DDoSInjector(victim_ip=1, flows=10), start=10_000.0,
                     duration=100.0)
        with pytest.raises(ConfigError, match="horizon"):
            generator.generate(2, schedule=schedule)

    def test_zero_intervals_rejected(self, generator):
        with pytest.raises(ConfigError):
            generator.generate(0)

    def test_bad_interval_seconds_rejected(self, generator):
        with pytest.raises(ConfigError):
            generator.generate(2, interval_seconds=0.0)

    def test_determinism(self):
        a = TraceGenerator(small_test(300), seed=5).generate(3)
        b = TraceGenerator(small_test(300), seed=5).generate(3)
        assert a.flows == b.flows

    def test_generate_interval_exact_count(self, generator):
        flows = generator.generate_interval(index=0, flow_count=123)
        assert len(flows) == 123
