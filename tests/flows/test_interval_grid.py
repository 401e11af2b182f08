"""One interval grid for every interval source.

:mod:`repro.flows.stream` owns the grid rule (:func:`check_grid`: a
finite, positive length and a finite origin) and the gap bound
(:data:`MAX_GAP_INTERVALS`).  Every source of intervals - the stored
trace windowing, the single-interval lookup, the stream assembler, the
detector bank, the collector, the federator and the report - refuses
the same grids with the same :class:`ConfigError`, and the row paths
refuse the same runaway gaps before a single interval is built.
"""

import itertools
import math

import numpy as np
import pytest

import repro.api as api
from repro.core.report import ExtractionReport
from repro.detection.detector import DetectorConfig
from repro.detection.manager import DetectorBank
from repro.errors import ConfigError
from repro.federation.collector import Collector
from repro.federation.federator import Federator
from repro.flows.stream import MAX_GAP_INTERVALS, interval_of, iter_intervals
from repro.flows.table import FlowTable
from repro.streaming import IntervalAssembler


def _table(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        np.arange(n) + 1, [2] * n, [3] * n, [4] * n, [6] * n, [1] * n,
        [40] * n, start=np.asarray(starts, dtype=np.float64),
    )


TRACE = _table([10.0, 20.0, 950.0])
BAD_LENGTHS = [0.0, -1.0, math.nan, math.inf]
BAD_ORIGINS = [math.nan, math.inf, -math.inf]
BAD_GRIDS = (
    list(itertools.product(BAD_LENGTHS, BAD_ORIGINS))
    + [(length, 0.0) for length in BAD_LENGTHS]
    + [(900.0, origin) for origin in BAD_ORIGINS]
)


class _Result:
    interval = 0
    window_intervals = 1


SOURCES = {
    "iter_intervals": lambda L, o: list(iter_intervals(TRACE, L, o)),
    "interval_of": lambda L, o: interval_of(TRACE, 0, L, o),
    "IntervalAssembler": lambda L, o: IntervalAssembler(L, origin=o),
    "api.session": lambda L, o: api.session(interval_seconds=L, origin=o),
    "api.extract": lambda L, o: api.extract(
        TRACE, interval_seconds=L, origin=o
    ),
    "DetectorBank.run": lambda L, o: DetectorBank().run(TRACE, L, o),
    "Collector.run": lambda L, o: Collector("east").run(TRACE, L, o),
    "Federator": lambda L, o: Federator(
        ("east",), interval_seconds=L, origin=o
    ),
    "ExtractionReport.from_result": lambda L, o: (
        ExtractionReport.from_result(_Result(), L, o)
    ),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize(("length", "origin"), BAD_GRIDS)
def test_every_source_refuses_a_bad_grid(source, length, origin):
    with pytest.raises(ConfigError, match="interval length|origin"):
        SOURCES[source](length, origin)


@pytest.mark.parametrize("length", [0.1, 1 / 3, 7.7, 900.0])
@pytest.mark.parametrize("origin", [None, 0.0])
def test_interval_of_is_the_view_of_iter_intervals(length, origin):
    """Timestamps on, just below and just above every boundary: the
    single-interval lookup and the windowing put each in the same
    interval, because both read it off ``interval_index``."""
    edges = np.arange(1, 60) * length
    starts = np.concatenate((
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        np.random.default_rng(7).uniform(0.0, 60 * length, 100),
    ))
    trace = _table(starts)
    views = list(iter_intervals(trace, length, origin))
    for view in views:
        alone = interval_of(trace, view.index, length, origin)
        assert (alone.index, alone.start, alone.end) == (
            view.index, view.start, view.end,
        )
        assert alone.flows == view.flows
    past = interval_of(trace, len(views), length, origin)
    assert len(past) == 0


class TestRunawayGap:
    """Two flows, one far past the bound (an epoch-style timestamp
    against origin 0): every row path refuses the trace before it has
    built a single interval, instead of emitting ~111,000 empty ones."""

    FAR = 1e8  # interval 111,111 of a 900 s grid

    @pytest.fixture
    def trace(self):
        return _table([10.0, self.FAR])

    def test_collector_builds_no_digest(self, trace, monkeypatch):
        built = []
        monkeypatch.setattr(
            Collector, "summarize",
            lambda self, flows, interval: built.append(interval),
        )
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            Collector("east").run(trace, 900.0, origin=0.0)
        assert built == []

    def test_detector_bank_observes_nothing(self, trace, monkeypatch):
        bank = DetectorBank(DetectorConfig(bins=64, training_intervals=3))
        seen = []
        monkeypatch.setattr(bank, "observe", seen.append)
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            bank.run(trace, 900.0, origin=0.0)
        assert seen == []

    def test_extract(self, trace):
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            api.extract(trace, interval_seconds=900.0, origin=0.0)

    def test_federate(self, trace):
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            api.federate({"east": trace}, interval_seconds=900.0)

    def test_iter_intervals_with_the_default_origin(self, trace):
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            next(iter_intervals(trace, 900.0))

    def test_the_bound_itself_is_accepted(self):
        at_bound = _table([10.0, MAX_GAP_INTERVALS * 900.0])
        assert next(iter_intervals(at_bound, 900.0, origin=0.0)).index == 0
