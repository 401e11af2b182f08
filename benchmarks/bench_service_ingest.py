"""Service ingest overhead: the HTTP surface vs direct ``feed()``.

ISSUE 9 acceptance bench: the daemon wraps ``FleetManager`` behind an
HTTP ingest surface (parse request, decode CSV body, feed, ack) and a
durable checkpoint policy.  Two questions decide whether the service
shape is free enough to deploy:

1. What does the HTTP ingest path cost over calling ``feed()``
   directly?  Same chunks, same fleet — the delta is request dispatch
   plus CSV re-parse, so it should stay a modest constant factor.
2. What does one durable checkpoint write cost?  The budget is
   absolute: **< 25 ms per write** (the write is ~7 ms for this
   workload's ~0.8 MB document).  A full-state checkpoint
   re-serializes the open interval's pending flows plus the detector
   state, so cadence is the tuning knob: the bench runs one checkpoint
   per interval and the recommended posture of one per two intervals.
   Resume correctness is cadence-independent — clients replay
   everything after ``checkpointed_sequence`` and the resume floor
   absorbs replays — so amortizing is free, held by the kill-anywhere
   property tests.  The budget used to be a *ratio* (< 5 % of ingest
   wall clock); ISSUEs 13 and 16 each roughly halved the ingest wall
   under an unchanged write, so the ratio failed for getting the
   denominator faster.  It is still reported, as information: it says
   how many batches a checkpoint should span, not whether the write
   regressed.  The workload carries a worm outbreak past the training
   horizon, so that ratio's denominator includes what a deployed
   interval actually does: assembly, detection, and association-rule
   mining on the alarmed intervals — not just parsing.

Checkpoint cost is taken in-run from the service's own
``repro_checkpoint_write_seconds`` histogram rather than an A/B run
comparison: two multi-second runs differ by far more than 5 % on a
busy machine, while the in-run split is exact.

The checkpoint write itself is the atomic-rename kind (no fsync by
default): kill-safety only needs the rename, which is exactly the
resume contract the service tests hold.
"""

import os
import time

import pytest

from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.fleet import FleetManager
from repro.flows.io import iter_csv, write_csv
from repro.obs.instruments import catalogued
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest
from repro.traffic.scenarios import worm_outbreak_trace

N_INTERVALS = 24
FLOWS_PER_INTERVAL = 20_000
#: Outbreak lands after calibration so the post-training tail mines.
TRAINING_INTERVALS = 16
OUTBREAK_INTERVAL = 20
CHUNK_ROWS = 2048
PIPELINES = 2
MIN_SUPPORT = 500
#: Acceptance budget for one durable checkpoint write, in seconds.
CHECKPOINT_WRITE_BUDGET_S = 0.025
#: Timed arms take the best of this many runs (noise robustness).
REPEATS = 3


def _fleet(store_dir=None):
    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=3,
            bins=256,
            vote_threshold=3,
            training_intervals=TRAINING_INTERVALS,
        ),
        min_support=MIN_SUPPORT,
    )
    return FleetManager(
        {f"link{i}": config for i in range(PIPELINES)},
        route=f"dst_ip%{PIPELINES}",
        interval_seconds=900.0,
        seed=1,
        store_dir=store_dir,
        metrics=MetricsRegistry(),
    )


def _post(body: bytes) -> HttpRequest:
    return HttpRequest(
        method="POST", target="/ingest", path="/ingest",
        query={}, headers={}, body=body,
    )


def _best(run):
    return min(run() for _ in range(REPEATS))


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """One outbreak trace as both parsed chunks (the direct-feed
    input) and raw CSV bodies (what a streaming client POSTs)."""
    trace = worm_outbreak_trace(
        flows_per_interval=FLOWS_PER_INTERVAL,
        n_intervals=N_INTERVALS,
        outbreak_interval=OUTBREAK_INTERVAL,
    )
    path = tmp_path_factory.mktemp("bench-service") / "trace.csv"
    write_csv(trace.flows, path)
    chunks = list(iter_csv(path, chunk_rows=CHUNK_ROWS))
    with open(path) as handle:
        header, *rows = handle.read().splitlines()
    bodies = [
        ("\n".join([header, *rows[i:i + CHUNK_ROWS]]) + "\n").encode()
        for i in range(0, len(rows), CHUNK_ROWS)
    ]
    assert len(bodies) == len(chunks)
    # One checkpoint per measurement interval: the cadence the
    # [service] config documentation recommends sizing for.
    per_interval = max(
        1, round(len(rows) / N_INTERVALS / CHUNK_ROWS)
    )
    return {
        "chunks": chunks,
        "bodies": bodies,
        "n_flows": len(trace.flows),
        "checkpoint_every": per_interval,
    }


def test_http_ingest_vs_direct_feed(workload, report):
    n_flows = workload["n_flows"]

    def direct() -> float:
        start = time.perf_counter()
        with _fleet() as fleet:
            for chunk in workload["chunks"]:
                fleet.feed(chunk)
        return time.perf_counter() - start

    def http() -> float:
        start = time.perf_counter()
        with _fleet() as fleet:
            app = ServiceApp(fleet)
            for body in workload["bodies"]:
                status, payload, _ = app.handle(_post(body))
                assert status == 200, payload
        return time.perf_counter() - start

    t_direct = _best(direct)
    t_http = _best(http)
    rate_direct = n_flows / t_direct
    rate_http = n_flows / t_http
    factor = t_http / t_direct
    report(
        "",
        f"Service ingest - HTTP surface vs direct feed() "
        f"({n_flows} flows, {len(workload['bodies'])} batches, "
        f"{PIPELINES} pipelines, best of {REPEATS})",
        f"  direct feed(): {rate_direct:>9.0f} flows/s",
        f"  HTTP /ingest : {rate_http:>9.0f} flows/s "
        f"({factor:.2f}x direct, request dispatch + CSV re-parse)",
        service_direct_flows_per_sec=round(rate_direct),
        service_http_flows_per_sec=round(rate_http),
        service_http_cost_factor=round(factor, 3),
    )


def test_checkpoint_overhead_within_budget(
    workload, report, tmp_path_factory
):
    """One checkpoint write must cost < 25 ms, at either cadence; its
    share of the ingest wall is reported, not asserted."""
    per_interval = workload["checkpoint_every"]

    def run(every: int) -> tuple[float, float, int]:
        """One full stream; returns (seconds per write, share of the
        ingest wall, final bytes)."""
        base = tmp_path_factory.mktemp("bench-ckpt")
        ckpt = base / "fleet.ckpt"
        start = time.perf_counter()
        with _fleet(base / "stores") as fleet:
            app = ServiceApp(
                fleet,
                checkpoint_path=str(ckpt),
                checkpoint_every=every,
            )
            for body in workload["bodies"]:
                status, payload, _ = app.handle(_post(body))
                assert status == 200, payload
            elapsed = time.perf_counter() - start
            writes = catalogued(
                fleet.metrics, "repro_checkpoint_write_seconds"
            ).labels()
        return (
            writes.sum / writes.count,
            writes.sum / (elapsed - writes.sum),
            os.path.getsize(ckpt),
        )

    dense_write, dense, dense_bytes = _best(lambda: run(per_interval))
    amortized_write, amortized, amortized_bytes = _best(
        lambda: run(2 * per_interval)
    )
    per_write = max(dense_write, amortized_write)
    report(
        f"  checkpointing: {per_write * 1e3:.1f} ms per write "
        f"(budget {CHECKPOINT_WRITE_BUDGET_S * 1e3:.0f} ms, "
        f"{max(dense_bytes, amortized_bytes)} bytes final); "
        f"1/interval is {dense * 100:+.1f}% of ingest, "
        f"recommended 1/2 intervals {amortized * 100:+.1f}%",
        service_checkpoint_write_seconds=round(per_write, 5),
        service_checkpoint_overhead=round(amortized, 4),
        service_checkpoint_overhead_per_interval=round(dense, 4),
        service_checkpoint_bytes=max(dense_bytes, amortized_bytes),
    )
    assert per_write < CHECKPOINT_WRITE_BUDGET_S, (
        f"a checkpoint write took {per_write * 1e3:.1f} ms, over the "
        f"{CHECKPOINT_WRITE_BUDGET_S * 1e3:.0f} ms budget"
    )
