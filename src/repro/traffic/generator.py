"""Trace generation: baseline plus scheduled anomalies.

:class:`TraceGenerator` synthesizes a labelled NetFlow trace spanning any
number of measurement intervals: baseline flows drawn from a
:class:`~repro.traffic.baseline.BaselineTrafficModel` with diurnal rate
modulation, merged with the event flows of an
:class:`~repro.anomalies.schedule.EventSchedule`.  The output pair
``(FlowTable, GeneratedTrace)`` is everything the evaluation needs:
flows with exact per-flow ground truth plus per-event records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.base import InjectedEvent
from repro.anomalies.schedule import EventSchedule, anomalous_interval_indices
from repro.errors import ConfigError
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, check_grid
from repro.flows.table import FlowTable
from repro.traffic.baseline import BaselineTrafficModel
from repro.traffic.diurnal import interval_flow_count
from repro.traffic.profiles import TrafficProfile, switch_like


@dataclass(frozen=True)
class GeneratedTrace:
    """A labelled synthetic trace plus its ground truth.

    Attributes:
        flows: every flow (baseline + events), sorted by start time.
        events: ground-truth record per injected event occurrence.
        interval_seconds: the measurement interval length used.
        n_intervals: total number of intervals in the trace.
        profile: the traffic profile the baseline was drawn from.
    """

    flows: FlowTable
    events: list[InjectedEvent]
    interval_seconds: float
    n_intervals: int
    profile: TrafficProfile

    @property
    def duration(self) -> float:
        return self.n_intervals * self.interval_seconds

    def anomalous_intervals(self) -> set[int]:
        """Interval indices touched by at least one event (ground truth)."""
        return anomalous_interval_indices(
            self.events, self.interval_seconds, self.n_intervals
        )

    def events_in_interval(self, index: int) -> list[InjectedEvent]:
        """Ground-truth events active during interval ``index``."""
        t0 = index * self.interval_seconds
        t1 = t0 + self.interval_seconds
        return [event for event in self.events if event.overlaps(t0, t1)]


class TraceGenerator:
    """Reproducible generator of labelled backbone traces."""

    def __init__(
        self,
        profile: TrafficProfile | None = None,
        seed: int = 0,
        diurnal_amplitude: float = 0.35,
        weekend_dip: float = 0.25,
    ):
        self.profile = profile or switch_like()
        self.seed = seed
        self.diurnal_amplitude = diurnal_amplitude
        self.weekend_dip = weekend_dip
        self._model = BaselineTrafficModel(self.profile, seed=seed)

    @property
    def baseline_model(self) -> BaselineTrafficModel:
        return self._model

    def generate(
        self,
        n_intervals: int,
        schedule: EventSchedule | None = None,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    ) -> GeneratedTrace:
        """Generate ``n_intervals`` of traffic starting at t=0.

        Baseline volume per interval is Poisson around the diurnal
        expectation; event flows come from the schedule unchanged.
        """
        if n_intervals < 1:
            raise ConfigError(f"need at least one interval: {n_intervals}")
        check_grid(interval_seconds)
        rng = np.random.default_rng(self.seed + 0x7ACE)
        pieces: list[FlowTable] = []
        for k in range(n_intervals):
            t0 = k * interval_seconds
            expected = interval_flow_count(
                self.profile.flows_per_interval,
                t0,
                interval_seconds,
                amplitude=self.diurnal_amplitude,
                weekend_dip=self.weekend_dip,
            )
            count = int(rng.poisson(expected))
            pieces.append(
                self._model.sample(count, t0, t0 + interval_seconds, rng=rng)
            )
        events: list[InjectedEvent] = []
        if schedule is not None and len(schedule):
            horizon = n_intervals * interval_seconds
            for occ in schedule.occurrences:
                if occ.start >= horizon:
                    raise ConfigError(
                        f"occurrence at t={occ.start} starts beyond the "
                        f"trace horizon {horizon}"
                    )
            event_flows, events = schedule.materialize(rng)
            pieces.append(event_flows)
        flows = FlowTable.concat(pieces).sort_by_start()
        return GeneratedTrace(
            flows=flows,
            events=events,
            interval_seconds=interval_seconds,
            n_intervals=n_intervals,
            profile=self.profile,
        )

    def generate_interval(
        self,
        index: int = 0,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        flow_count: int | None = None,
    ) -> FlowTable:
        """Generate a single baseline interval (no events, no Poisson
        noise when ``flow_count`` is given) - handy for unit tests."""
        rng = np.random.default_rng(self.seed + index)
        t0 = index * interval_seconds
        if flow_count is None:
            flow_count = self.profile.flows_per_interval
        return self._model.sample(flow_count, t0, t0 + interval_seconds, rng=rng)
