"""A start timestamp with no interval index is refused, not dropped.

A :class:`FlowTable` built through the library API can carry a NaN,
infinite or huge ``start`` (the CSV and JSONL edges refuse non-finite
ones).  ``floor((t - origin) / L)`` of such a value is not a valid
int64: the cast used to warn and yield garbage, so a later stream
chunk silently counted the row as a pre-origin late drop and a first
chunk or a batch run blamed the origin.  Every path now raises
:class:`FlowError` naming the row, before anything is buffered.  CI
runs this file under ``-W error::RuntimeWarning``.
"""

import numpy as np
import pytest

import repro.api as api
from repro.errors import FlowError
from repro.flows.stream import interval_index, iter_intervals
from repro.flows.table import FlowTable

BAD = [np.nan, np.inf, -np.inf, 1e300, -1e300]
INTERVAL = 900.0


def _table(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        [1] * n, [2] * n, [3] * n, [4] * n, [6] * n, [1] * n, [40] * n,
        start=starts,
    )


def _session():
    return api.session(
        mode="stream", interval_seconds=INTERVAL, min_support=1,
        detector={"bins": 64, "training_intervals": 2},
    )


@pytest.mark.parametrize("bad", BAD)
class TestRefused:
    def test_interval_index_names_the_row(self, bad):
        with pytest.raises(FlowError, match="row 2: start timestamp"):
            interval_index(np.array([0.0, 5.0, bad, 7.0]), 0.0, INTERVAL)

    @pytest.mark.parametrize("origin", [None, 0.0])
    def test_batch_windowing(self, bad, origin):
        table = _table([10.0, bad, 20.0])
        if origin is None and bad == -1e300:
            # The earliest finite start is the origin: the rows it puts
            # out of int64 reach are the ones named, with the origin.
            match = r"row 0: .*origin -1e\+300"
        else:
            match = "row 1: "
        with pytest.raises(FlowError, match=match):
            list(iter_intervals(table, INTERVAL, origin=origin))

    def test_batch_extract(self, bad):
        with pytest.raises(FlowError, match="row 1: "):
            api.extract(_table([10.0, bad, 20.0]), interval_seconds=INTERVAL)

    def test_first_stream_chunk(self, bad):
        with _session() as session:
            before = session.assembler.to_state()
            with pytest.raises(FlowError, match="row 1: "):
                session.feed(_table([10.0, bad]))
            assert session.assembler.to_state() == before
            # The session is still usable: the next good chunk counts.
            session.feed(_table([30.0]))
            assert session.assembler.flows_seen == 1

    def test_later_stream_chunk(self, bad):
        with _session() as session:
            session.feed(_table([10.0, 20.0]))
            before = session.assembler.to_state()
            with pytest.raises(FlowError, match="row 0: "):
                session.feed(_table([bad, 40.0]))
            assert session.assembler.to_state() == before
            assert session.assembler.late_dropped_pre_origin == 0

    def test_fleet_feed_refuses_the_whole_chunk(self, bad):
        with api.open_fleet(
            pipelines=2, route="dst_ip%2", interval_seconds=INTERVAL,
            min_support=1, detector={"bins": 64, "training_intervals": 2},
        ) as fleet:
            good = FlowTable.from_arrays(
                [1, 1], [2, 3], [3, 3], [4, 4], [6, 6], [1, 1], [40, 40],
                start=[10.0, 20.0],
            )
            fleet.feed(good)
            states = {
                name: fleet.session(name).assembler.to_state()
                for name in fleet.names
            }
            # dst_ip 2 routes to link0, dst_ip 3 (the bad row) to link1.
            chunk = FlowTable.from_arrays(
                [1, 1], [2, 3], [3, 3], [4, 4], [6, 6], [1, 1], [40, 40],
                start=[30.0, bad],
            )
            with pytest.raises(FlowError, match="row 1: "):
                fleet.feed(chunk)
            assert {
                name: fleet.session(name).assembler.to_state()
                for name in fleet.names
            } == states
