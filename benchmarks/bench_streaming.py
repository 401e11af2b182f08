"""Streaming vs batch extraction: throughput and peak memory.

The ISSUE 2 acceptance criterion: the streaming path must produce the
same extractions as a batch ``api.extract`` while its peak memory follows
the interval/window size, not the trace size.  This bench writes a
generated trace to CSV, runs both paths over it, asserts the reports
are identical, and measures flows/sec plus the peak Python allocation
(tracemalloc) of each path.  The batch path must at minimum hold the
fully decoded trace; the streaming path only ever holds a chunk plus
the open intervals, so its peak should sit well below the batch one
and stay flat as the trace grows.
"""

import time
import tracemalloc

import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.flows.io import iter_csv, read_csv, write_csv
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import switch_like

N_INTERVALS = 40
FLOWS_PER_INTERVAL = 2000
CHUNK_ROWS = 2048


def _config():
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=400,
    )


@pytest.fixture(scope="module")
def csv_trace(tmp_path_factory):
    profile = switch_like(FLOWS_PER_INTERVAL)
    trace = TraceGenerator(profile, seed=13).generate(N_INTERVALS)
    path = tmp_path_factory.mktemp("bench-stream") / "trace.csv"
    write_csv(trace.flows, path)
    return path, len(trace.flows)


def _measure(fn):
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_streaming_vs_batch(benchmark, csv_trace, report):
    path, n_flows = csv_trace

    def run_batch():
        return api.extract(
            read_csv(path), _config(), interval_seconds=900.0, seed=1
        )

    def run_stream():
        return api.stream(
            iter_csv(path, chunk_rows=CHUNK_ROWS), _config(),
            interval_seconds=900.0, seed=1,
        )

    def measure():
        batch, batch_s, batch_peak = _measure(run_batch)
        stream, stream_s, stream_peak = _measure(run_stream)
        return batch, stream, batch_s, stream_s, batch_peak, stream_peak

    batch, stream, batch_s, stream_s, batch_peak, stream_peak = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )

    # Equivalence first - speed is meaningless if the answers differ.
    assert [e.render() for e in stream.extractions] == (
        [e.render() for e in batch.extractions]
    )
    assert stream.flagged_intervals == batch.flagged_intervals

    # The bounded-memory claim: streaming never decodes the whole trace,
    # so its peak allocation must undercut the batch path's.
    assert stream_peak < batch_peak

    report(
        "",
        "Streaming engine - throughput and peak memory "
        f"({n_flows} flows, {N_INTERVALS} intervals, "
        f"chunk={CHUNK_ROWS} rows)",
        f"  batch  extract: {n_flows / batch_s:>9.0f} flows/s, "
        f"peak {batch_peak / 2**20:6.1f} MiB",
        f"  stream stream : {n_flows / stream_s:>9.0f} flows/s, "
        f"peak {stream_peak / 2**20:6.1f} MiB "
        f"(x{batch_peak / stream_peak:.1f} smaller)",
        # Structured metrics land in BENCH_streaming.json.
        flows=n_flows,
        batch_flows_per_second=round(n_flows / batch_s, 1),
        stream_flows_per_second=round(n_flows / stream_s, 1),
        batch_peak_alloc_bytes=batch_peak,
        stream_peak_alloc_bytes=stream_peak,
    )


def test_streaming_memory_flat_in_trace_size(tmp_path_factory, report):
    """Double the trace length; the streaming peak must stay nearly
    flat while the batch peak grows with the trace."""
    profile = switch_like(FLOWS_PER_INTERVAL)
    peaks = {}
    for n_intervals in (10, 20, 40):
        trace = TraceGenerator(profile, seed=13).generate(n_intervals)
        path = (
            tmp_path_factory.mktemp(f"bench-flat-{n_intervals}")
            / "trace.csv"
        )
        write_csv(trace.flows, path)

        def run_stream(path=path):
            return api.stream(
                iter_csv(path, chunk_rows=CHUNK_ROWS), _config(),
                interval_seconds=900.0, seed=1,
            )

        _, _, peaks[n_intervals] = _measure(run_stream)

    report(
        "",
        "Streaming engine - peak memory vs trace length "
        f"({FLOWS_PER_INTERVAL} flows/interval)",
        *(
            f"  {n:>3} intervals: peak {peak / 2**20:6.1f} MiB"
            for n, peak in peaks.items()
        ),
    )
    # 4x the trace must cost far less than 4x the memory; allow slack
    # for allocator noise but rule out linear growth.
    assert peaks[40] < peaks[10] * 2.0
