"""Streaming memory follows the interval, not the trace.

``api.stream`` over a CSV holds one chunk plus the open intervals, so
its peak Python allocation (tracemalloc) must stay nearly flat when the
trace grows fourfold, and below the batch path's, which decodes the
whole trace first.  Last reading: 1.4 / 1.9 MiB streamed at 10 / 40
intervals of 2,000 flows, 13.1 MiB batch at 40.
"""

import tracemalloc

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.flows.io import iter_csv, read_csv, write_csv
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import switch_like

FLOWS_PER_INTERVAL = 2000
CHUNK_ROWS = 2048


def _config():
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=400,
    )


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stream(path):
    return api.stream(
        iter_csv(path, chunk_rows=CHUNK_ROWS), _config(),
        interval_seconds=900.0, seed=1,
    )


def test_streaming_peak_is_flat_in_trace_length(tmp_path):
    profile = switch_like(FLOWS_PER_INTERVAL)
    paths = {n: tmp_path / f"trace-{n}.csv" for n in (10, 40)}
    for n, path in paths.items():
        write_csv(TraceGenerator(profile, seed=13).generate(n).flows, path)
    # The first run that mines pays one-off allocations (lazy imports,
    # caches); run it untraced so they land in neither reading.
    _stream(paths[40])
    peaks = {
        n: _peak(lambda path=path: _stream(path)) for n, path in paths.items()
    }
    batch = _peak(lambda: api.extract(
        read_csv(paths[40]), _config(), interval_seconds=900.0, seed=1
    ))
    # 4x the trace must cost far less than 4x the memory; the slack is
    # for allocator noise, and still rules out linear growth.
    assert peaks[40] < 2 * peaks[10], peaks
    assert peaks[40] < batch, (peaks, batch)
