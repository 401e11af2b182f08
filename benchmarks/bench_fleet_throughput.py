"""Fleet throughput: flows/sec vs. pipeline count.

ISSUE 5 acceptance bench: the fleet turns the library from "a script
per trace" into "a service-shaped engine for N concurrent scenarios",
so the question is what N pipelines cost.  One generated trace is
hash-sharded (``dst_ip % N``) across 1/2/4/8 pipelines; each
configuration reports end-to-end flows/sec and the per-pipeline flow
balance.  Per-pipeline detector state scales with N, but routing is
vectorized, so throughput should degrade far slower than linearly in N.
"""

import time

import pytest

from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.fleet import FleetManager
from repro.flows.io import iter_csv, write_csv
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import switch_like

N_INTERVALS = 30
FLOWS_PER_INTERVAL = 2000
CHUNK_ROWS = 2048
PIPELINE_COUNTS = (1, 2, 4, 8)


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
    path = tmp_path_factory.mktemp("bench-fleet") / "trace.csv"
    write_csv(trace.flows, path)
    return path, len(trace.flows)


def test_fleet_throughput_vs_pipeline_count(csv_trace, report):
    path, n_flows = csv_trace
    config = _config()
    lines = [
        "",
        f"Fleet engine - throughput vs. pipeline count "
        f"({n_flows} flows, {N_INTERVALS} intervals)",
    ]
    base_rate = None
    for count in PIPELINE_COUNTS:
        pipelines = {f"link{i}": config for i in range(count)}
        start = time.perf_counter()
        with FleetManager(
            pipelines,
            route=f"dst_ip%{count}",
            interval_seconds=900.0,
            seed=1,
        ) as fleet:
            for chunk in iter_csv(path, chunk_rows=CHUNK_ROWS):
                fleet.feed(chunk)
            results = fleet.finish()
            routed = sum(r.flows for r in results.values())
        elapsed = time.perf_counter() - start
        # Conservation: every flow landed in exactly one pipeline.
        assert routed == n_flows
        rate = n_flows / elapsed
        if base_rate is None:
            base_rate = rate
        balance = " ".join(
            f"{name}={result.flows}" for name, result in results.items()
        )
        lines.append(
            f"  {count} pipeline{'s' if count > 1 else ' '}: "
            f"{rate:>9.0f} flows/s ({rate / base_rate:5.2f}x of 1-pipeline)"
        )
        if count <= 2:
            lines.append(f"      balance: {balance}")
    report(*lines)
